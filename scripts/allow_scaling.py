"""Print how exact allowability scales with the dimension.

For each n the unit corner {0 <= r_i <= 1, r_1 + ... + r_n >= c} with
p = n divisors is checked twice, at c = 1 (violated: the face r_1 = 0 keeps
dimension n - 1) and at c = n (allowable: the single point (1, ..., 1), so
every face is empty).  Each line gives n, c, the number of exact LPs solved
(counted by wrapping `linprog.solve_lp`), the same count split by call site
(the feasibility LPs of `simplify_cell`, its positivity LPs, and the LPs of
`_affine_hull_rows`), the number of `Polynomial` objects built (counted by
wrapping `Polynomial.__init__`), the wall time and the verdict.

Unit corners have rows with denominator 1.  A second table checks weighted
corners {0 <= r_i <= 1, w_1 r_1 + ... + w_n r_n >= c} with rational
weights w_i = a/b (1 <= a, b <= 9) drawn from an RNG seeded with SEED, as
in the exact_allow benchmark workload: for each n one allowable level
(W - min w <= c < W, W the sum of the weights) and one violated level
(c < W - min w).

    python scripts/allow_scaling.py [--max-n 6]
"""

import argparse
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from logvol import linprog
from logvol.polyform import Polynomial
from logvol.region import Cell, Region, parse_constraint


def corner(w: list, c) -> Region:
    """{0 <= r_i <= 1, sum w_i r_i >= c} with every coordinate a divisor; no
    box is declared, so the cell's own rows are the whole linear system."""
    names = [f"r{i + 1}" for i in range(len(w))]
    rows = [f"-{v} <= 0" for v in names] + [f"{v} - 1 <= 0" for v in names]
    rows.append(" + ".join(f"{wi}*{v}" for wi, v in zip(w, names)) + f" >= {c}")
    cell = Cell([parse_constraint(r, names) for r in rows])
    return Region(len(w), len(w), [cell])


def weighted_levels(rng: random.Random, n: int):
    """Weights w and an (allowable, violated) pair of cut levels."""
    w = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    top = sum(w) - min(w)  # the largest face sum
    allowable = top + min(w) * Fraction(rng.randint(0, 9), 10)
    violated = top * Fraction(rng.randint(1, 9), 10)
    return w, (allowable, violated)


SEED = 1

# the innermost of these functions on the stack names an LP's call site
SITES = {"_positive_on_cell": "positivity", "simplify_cell": "simplify",
         "_affine_hull_rows": "hull"}


def counted_allowability(region: Region):
    """(verdict, LP calls per call site and Polynomial constructions as
    "polys", seconds) of region.is_allowable()."""
    original = linprog.solve_lp
    init = Polynomial.__init__
    calls = Counter()

    def building(*args, **kwargs):
        calls["polys"] += 1
        init(*args, **kwargs)

    def counting(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in SITES:
            frame = frame.f_back
        calls[SITES[frame.f_code.co_name] if frame is not None else "other"] += 1
        return original(*args, **kwargs)

    linprog.solve_lp = counting
    Polynomial.__init__ = building
    try:
        start = time.perf_counter()
        verdict = region.is_allowable()
        seconds = time.perf_counter() - start
    finally:
        linprog.solve_lp = original
        Polynomial.__init__ = init
    return verdict, calls, seconds


def print_row(label: str, region: Region):
    verdict, calls, seconds = counted_allowability(region)
    polys = calls.pop("polys", 0)
    assert set(calls) <= set(SITES.values()), calls
    print(f"{label} {calls.total():>6} {calls['simplify']:>8} "
          f"{calls['positivity']:>10} {calls['hull']:>6} {polys:>6} {seconds:>8.3f}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()
    columns = (f"{'LPs':>6} {'simplify':>8} {'positivity':>10} {'hull':>6} {'polys':>6} "
               f"{'seconds':>8}  verdict")
    print(f"{'n':>2} {'c':>2} {columns}")
    for n in range(3, args.max_n + 1):
        for c in (1, n):
            print_row(f"{n:>2} {c:>2}", corner([1] * n, c))
    rng = random.Random(SEED)
    print(f"\nweighted corners, seed {SEED}")
    print(f"{'n':>2} {'c':>9} {columns}")
    for n in range(3, args.max_n + 1):
        w, levels = weighted_levels(rng, n)
        print(f"   w = {' '.join(map(str, w))}")
        for c in levels:
            print_row(f"{n:>2} {str(c):>9}", corner(w, c))


if __name__ == "__main__":
    main()
