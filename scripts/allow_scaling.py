"""Print how exact allowability scales with the dimension.

For each n the unit corner {0 <= r_i <= 1, r_1 + ... + r_n >= c} with
p = n divisors is checked twice, at c = 1 (violated: the face r_1 = 0 keeps
dimension n - 1) and at c = n (allowable: the single point (1, ..., 1), so
every face is empty).  Each line gives n, c, the number of LP objectives
solved (counted by wrapping `linprog.solve_lp`), the number of phase-1 runs,
one per distinct linear system the objectives were asked of (counted by
wrapping `linprog._phase_1`), the number of `Polynomial` objects built
(counted by wrapping `Polynomial.__init__`), the wall time and the
verdict.

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

# the counted functions: LP objectives, phase-1 runs, Polynomials built
COUNTED = ((linprog, "solve_lp", "lps"), (linprog, "_phase_1", "phase1"),
           (Polynomial, "__init__", "polys"))


def counted_allowability(region: Region):
    """(verdict, the calls of each COUNTED function by its label, seconds)
    of region.is_allowable()."""
    calls = Counter()

    def counting(fn, label):
        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return counted

    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in COUNTED]
    for (owner, name, fn), (_, _, label) in zip(originals, COUNTED):
        setattr(owner, name, counting(fn, label))
    try:
        start = time.perf_counter()
        verdict = region.is_allowable()
        seconds = time.perf_counter() - start
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    return verdict, calls, seconds


def print_row(label: str, region: Region):
    verdict, calls, seconds = counted_allowability(region)
    print(f"{label} {calls['lps']:>6} {calls['phase1']:>7} {calls['polys']:>6} "
          f"{seconds:>8.3f}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()
    columns = f"{'LPs':>6} {'phase 1':>7} {'polys':>6} {'seconds':>8}  verdict"
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
