"""Print the excision ladder for the dilogarithm region.

The region {0 <= r1 <= 1, 0 <= r2 <= 1/2, r1 + r2 >= 1} integrated against
dr1/r1 ^ dr2/r2 converges to Li2(1/2); each rung excises |r_i| < eps and
the ladder extrapolates the limit.  The ladder's wall time is printed with
counters, which do not vary between runs: the bisection rounds (calls of
`_adaptive_1d`'s integrand, each of which evaluates every open panel), the
_fiber_integral calls and the fibers they solve, the outer jobs with the
share of them accepted in the first round, and the cut tables built
(scripts/quad_counts.py).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import logvol.integrate as integrate
from logvol import LogForm, QuadConfig, integrate_log_form, parse_region
from quad_counts import count_cut_tables, count_outer_jobs, outer_line


def count_fibers() -> list:
    """Wrap integrate._fiber_integral so that it counts its calls and the
    fibers (base rows) they solve; returns the live [calls, fibers]."""
    tally = [0, 0]
    original = integrate._fiber_integral

    def counted(solver, bases, *args):
        tally[0] += 1
        tally[1] += len(bases)
        return original(solver, bases, *args)

    integrate._fiber_integral = counted
    return tally


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps0", type=float, default=2.0**-4)
    ap.add_argument("--rungs", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    region_path = Path(__file__).resolve().parent.parent / "regions" / "s_half.region"
    region = parse_region(region_path.read_text())
    form = LogForm.dlog(2, 2, 0).wedge(LogForm.dlog(2, 2, 1))
    cfg = QuadConfig(eps0=args.eps0, ladder_len=args.rungs, seed=args.seed)
    tally = count_fibers()
    jobs = count_outer_jobs()
    tables = count_cut_tables()
    start = time.perf_counter()
    result = integrate_log_form(region, form, cfg)
    wall = time.perf_counter() - start

    series = sum(0.5**k / k**2 for k in range(1, 61))
    print(result.ladder.to_csv())
    print(f"value    {result.value:.10f}")
    print(f"series   {series:.10f}  (60 terms)")
    print(f"difference {abs(result.value - series):.2e}")
    print(f"wall     {wall:.3f} s")
    print(f"bisection rounds {jobs[0]}, fiber_integral calls {tally[0]}, fibers solved {tally[1]}")
    print(outer_line(jobs, tables))


if __name__ == "__main__":
    main()
