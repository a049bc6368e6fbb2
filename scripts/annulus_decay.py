"""Fit the annulus slice decay rate on {|z2| <= |z1| <= 1}.

For the (2,1)-form dz1/z1 ^ dz2/z2 ^ dzbar2 the slice volumes over
{|z1| = t >= |z2|} scale like 8 pi^2 t, so the fitted exponent is 1.
The last lines give the wall time of the fit next to its counters, which
do not vary between runs: the slice tasks run and the quadratures they
needed (tasks that lift to the same cells with integrands equal up to a
unit phase share one), the fibers solved and the points at which the
tasks' pointwise factor is evaluated; then the outer jobs with the share of
them accepted in the first round and the cut tables built
(scripts/quad_counts.py).
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import logvol.complexint as complexint
import logvol.integrate as integrate
from logvol import ComplexLogForm, QuadConfig, annulus_slice_decay, parse_region
from quad_counts import count_cut_tables, count_outer_jobs, outer_line


def count_fibers() -> list:
    """Wrap integrate._fiber_integral so that it counts the fibers (base
    rows) it solves; returns the live [fibers]."""
    tally = [0]
    original = integrate._fiber_integral

    def counted(solver, bases, *args):
        tally[0] += len(bases)
        return original(solver, bases, *args)

    integrate._fiber_integral = counted
    return tally


def count_factor_points() -> list:
    """Wrap the pointwise factor that complexint.RealTask.pointwise builds
    so that it counts the points it is evaluated at; returns the live
    [points]."""
    tally = [0]
    original = complexint.RealTask.pointwise

    def counted(task):
        factor = original(task)

        def f(pts):
            tally[0] += len(pts)
            return factor(pts)

        return f

    complexint.RealTask.pointwise = counted
    return tally


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
    fibers = count_fibers()
    points = count_factor_points()
    jobs = count_outer_jobs()
    tables = count_cut_tables()
    start = time.perf_counter()
    report = annulus_slice_decay(region, form, 4, ts=ts, cfg=QuadConfig(seed=args.seed))
    wall = time.perf_counter() - start

    print(report)
    for t, vol in report.entries:
        print(f"  t={t:<12.6g} vol={vol:<14.8g} vol/(8 pi^2 t)={vol / (8 * math.pi**2 * t):.6f}")
    print(f"wall {wall:.3f} s, {report.tasks_run} slice tasks, "
          f"{report.ladders_computed} quadratures")
    print(f"fibers solved {fibers[0]}, factor points {points[0]}")
    print(outer_line(jobs, tables))


if __name__ == "__main__":
    main()
