"""Fit the annulus slice decay rate on {|z2| <= |z1| <= 1}.

For the (2,1)-form dz1/z1 ^ dz2/z2 ^ dzbar2 the slice volumes over
{|z1| = t >= |z2|} scale like 8 pi^2 t, so the fitted exponent is 1.
The last line gives the wall time of the fit next to its counters: the
slice tasks run and the quadratures they needed (tasks that lift to the
same cells with integrands equal up to a unit phase share one).
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from logvol import ComplexLogForm, QuadConfig, annulus_slice_decay, parse_region


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmin", type=int, default=2)
    ap.add_argument("--kmax", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    region_path = (
        Path(__file__).resolve().parent.parent / "regions" / "nested_annulus_c2.region"
    )
    region = parse_region(region_path.read_text())
    form = ComplexLogForm.volume_like(2, (1,))
    ts = [2.0**-k for k in range(args.kmin, args.kmax + 1)]
    start = time.perf_counter()
    report = annulus_slice_decay(region, form, 4, ts=ts, cfg=QuadConfig(seed=args.seed))
    wall = time.perf_counter() - start

    print(report)
    for t, vol in report.entries:
        print(f"  t={t:<12.6g} vol={vol:<14.8g} vol/(8 pi^2 t)={vol / (8 * math.pi**2 * t):.6f}")
    print(f"wall {wall:.3f} s, {report.tasks_run} slice tasks, "
          f"{report.ladders_computed} quadratures")


if __name__ == "__main__":
    main()
