"""Time the float fiber kernel, `FiberKernel.intervals_many`, on fixed panels.

Three kernels, one per kind of root the kernel solves for:

- `s_a`: S_a = {0 <= r1 <= 1, 0 <= r2 <= 1/2, r1 + r2 >= 1}, the dilogarithm
  region of the real_ladder benchmark, along the axis its quadrature slices
  (degree-1 rows, one division);
- `annulus`: a slice cell of nested_annulus_c2 at |z1| = 1/4 in (r2, tau1,
  tau2) under the quarter-plane sector map of earlier versions, written
  out with its denominators cleared but not reduced, so that its annulus
  row has degree 2 along the sliced axis r2 (the closed form);
  `annulus_slice_decay` itself now lifts that row to r2 - 1/4;
- `cubic`: r2^3 - 3/2 r2^2 + 11/16 r2 - 3/32 - r1/100 <= 0, r1 >= 0 on the
  unit square, along r2 (np.roots).

Each is solved on seeded panels of k = 15, 120 and 512 base points drawn
uniformly from the region's bounding box.  For each (kernel, k) the script
prints the best time per call over --repeat rounds of --loops calls, in µs,
and a checksum of the span table (a, b, owner) and the degenerate mask, so
two checkouts can be compared for speed and for identical fibers:

    python scripts/fiber_bench.py > before.txt
    (apply the change)
    python scripts/fiber_bench.py > after.txt
    diff before.txt after.txt    # the checksum columns must agree
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from logvol import LogForm, integrate_log_form, parse_region, slicing  # noqa: E402
from logvol.integrate import QuadConfig  # noqa: E402

PANELS = (15, 120, 512)

S_A = """{"ambient_dim": 2, "divisor_count": 2, "box": [["0", "1"], ["0", "1/2"]],
  "cells": [{"constraints": ["-r1 <= 0", "r1 - 1 <= 0", "-r2 <= 0", "r2 - 1/2 <= 0",
                             "r1 + r2 >= 1"]}]}"""
ANNULUS = """{"ambient_dim": 3, "divisor_count": 1,
  "box": [["0", "6369051678894825/4503599627370496"], ["-1", "1"], ["-1", "1"]],
  "cells": [{"constraints": [
    "-15/16*x2^2 - 15/16 <= 0",
    "r1^2*x2^2*x3^2 + r1^2*x2^2 + r1^2*x3^2 - 1/16*x2^2*x3^2 + r1^2 - 1/16*x2^2 - 1/16*x3^2 - 1/16 <= 0",
    "r1 - 1/4 <= 0", "x2 - 1 <= 0", "-x2 - 1 <= 0", "-r1 <= 0",
    "r1 - 6369051678894825/4503599627370496 <= 0", "x3 - 1 <= 0", "-x3 - 1 <= 0"]}]}"""
CUBIC = """{"ambient_dim": 2, "divisor_count": 2, "box": [["0", "1"], ["0", "1"]],
  "cells": [{"constraints": ["r2^3 - 3/2*r2^2 + 11/16*r2 - 3/32 - 1/100*r1 <= 0",
                             "-r1 <= 0"]}]}"""


def _kernels_built(run) -> list:
    """(region, axis, kernel) of every FiberKernel built while `run()`
    runs, in order."""
    built = []
    original = slicing.FiberKernel.__init__

    def init(self, region, axis):
        original(self, region, axis)
        built.append((region, axis, self))

    slicing.FiberKernel.__init__ = init
    try:
        run()
    finally:
        slicing.FiberKernel.__init__ = original
    return built


def kernels() -> dict:
    """name -> (region, axis, kernel) of the three kernels."""
    s_a = parse_region(S_A)
    form = LogForm.dlog(2, 2, 0).wedge(LogForm.dlog(2, 2, 1))
    ladder = _kernels_built(lambda: integrate_log_form(s_a, form, QuadConfig(ladder_len=3)))
    annulus, cubic = parse_region(ANNULUS), parse_region(CUBIC)
    return {"s_a": ladder[0], "annulus": (annulus, 0, slicing.FiberKernel(annulus, 0)),
            "cubic": (cubic, 1, slicing.FiberKernel(cubic, 1))}


def panel(region, k: int, seed: int) -> np.ndarray:
    lo, hi = np.array(region.bounding_box(), dtype=float).T
    return np.random.Generator(np.random.Philox(key=seed)).uniform(lo, hi, size=(k, region.n))


def checksum(table) -> str:
    digest = hashlib.sha256()
    for column in table:
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:16]


def best_us(kernel, points, loops: int, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(loops):
            kernel.intervals_many(points)
        best = min(best, (time.perf_counter() - start) / loops)
    return best * 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--loops", type=int, default=20, help="calls per timed round")
    ap.add_argument("--repeat", type=int, default=7, help="timed rounds; the best is printed")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    print(f"{'kernel':8} {'k':>4} {'us/call':>10} {'spans':>6}  checksum")
    for name, (region, _, kernel) in kernels().items():
        for k in PANELS:
            points = panel(region, k, args.seed)
            table = kernel.intervals_many(points)
            us = best_us(kernel, points, args.loops, args.repeat)
            print(f"{name:8} {k:4d} {us:10.1f} {len(table[0]):6d}  {checksum(table)}")


if __name__ == "__main__":
    main()
