"""Print how exact allowability scales with the dimension.

For each n the unit corner {0 <= r_i <= 1, r_1 + ... + r_n >= c} with
p = n divisors is checked twice, at c = 1 (allowable: every face H_I with
I nonempty is cut down to dimension < n - |I|) and at c = n (the single
point (1, ..., 1): every face is empty).  Each line gives n, c, the number
of exact LPs solved (counted by wrapping `linprog.solve_lp`), the same count
split by call site (the feasibility LPs of `simplify_cell`, its positivity
LPs, and the LPs of `_affine_hull_rows`), the wall time and the verdict.
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from logvol import linprog
from logvol.region import Cell, Region, parse_constraint


def unit_corner(n: int, c: int) -> Region:
    """{0 <= r_i <= 1, sum r_i >= c} with every coordinate a divisor; no
    box is declared, so the cell's own rows are the whole linear system."""
    names = [f"r{i + 1}" for i in range(n)]
    rows = [f"-{v} <= 0" for v in names] + [f"{v} - 1 <= 0" for v in names]
    rows.append(f"{' + '.join(names)} >= {c}")
    cell = Cell([parse_constraint(r, names) for r in rows])
    return Region(n, n, [cell])


# the innermost of these functions on the stack names an LP's call site
SITES = {"_positive_on_cell": "positivity", "simplify_cell": "simplify",
         "_affine_hull_rows": "hull"}


def counted_allowability(region: Region):
    """(verdict, LP calls per call site, seconds) of region.is_allowable()."""
    original = linprog.solve_lp
    calls = Counter()

    def counting(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in SITES:
            frame = frame.f_back
        calls[SITES[frame.f_code.co_name] if frame is not None else "other"] += 1
        return original(*args, **kwargs)

    linprog.solve_lp = counting
    try:
        start = time.perf_counter()
        verdict = region.is_allowable()
        seconds = time.perf_counter() - start
    finally:
        linprog.solve_lp = original
    return verdict, calls, seconds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()
    print(f"{'n':>2} {'c':>2} {'LPs':>6} {'simplify':>8} {'positivity':>10} {'hull':>6} "
          f"{'seconds':>8}  verdict")
    for n in range(3, args.max_n + 1):
        for c in (1, n):
            verdict, calls, seconds = counted_allowability(unit_corner(n, c))
            assert set(calls) <= set(SITES.values()), calls
            print(f"{n:>2} {c:>2} {calls.total():>6} {calls['simplify']:>8} "
                  f"{calls['positivity']:>10} {calls['hull']:>6} {seconds:>8.3f}  {verdict}")


if __name__ == "__main__":
    main()
