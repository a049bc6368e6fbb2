"""Time the exact layer on fixed documents and count its polynomial builds.

Four documents, each parsed with `parse_region`:

- `disk_c1` and `quadrant_disk_c1` at m = 2 and `nested_annulus_c2` at
  m = 4, from regions/: `is_admissible(m)`, then `reduce_to_real_tasks` of
  the volume-like form dz/z ^ dzbar_R of the admissible corpus;
- `corner5`, {0 <= r_i <= 1, sum w_i r_i >= c} with n = 5 and fixed
  rational weights (allowable): `is_allowable()`.

For each document the script prints the best time of one run over
--repeat rounds, in ms; the number of `Polynomial` constructions that
validate their terms (`Polynomial.__init__`) and that take a clean term
dict as it is (`Polynomial._of`, `-` in a checkout without it) in one more
run after the timed rounds, counted by wrapping both inside this script;
and a checksum of the verdict and of every task: its sector, partition,
coefficient and each constraint of its region, terms in stored order, so
a change of term order shows too.  Two checkouts can be compared for speed
and for identical results:

    python scripts/exact_bench.py > before.txt
    (apply the change)
    python scripts/exact_bench.py > after.txt
    diff before.txt after.txt    # the checksum columns must agree
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from logvol import ComplexLogForm, Polynomial, parse_region, reduce_to_real_tasks  # noqa: E402

CORNER5 = """{"ambient_dim": 5, "divisor_count": 5, "cells": [{"constraints": [
  "-r1 <= 0", "r1 - 1 <= 0", "-r2 <= 0", "r2 - 1 <= 0", "-r3 <= 0", "r3 - 1 <= 0",
  "-r4 <= 0", "r4 - 1 <= 0", "-r5 <= 0", "r5 - 1 <= 0",
  "3/2*r1 + 2/7*r2 + 5/3*r3 + r4 + 4/9*r5 >= 19/4"]}]}"""

# name -> (document, m and R of dz/z ^ dzbar_R, or None for a real region)
DOCUMENTS = {
    "disk_c1": ((ROOT / "regions" / "disk_c1.region").read_text(), (2, (0,))),
    "quadrant_disk_c1": ((ROOT / "regions" / "quadrant_disk_c1.region").read_text(),
                         (2, (0,))),
    "nested_annulus_c2": ((ROOT / "regions" / "nested_annulus_c2.region").read_text(),
                          (4, (0, 1))),
    "corner5": (CORNER5, None),
}


def run(document: str, complex_job) -> tuple:
    """(verdict, tasks) of one document, parsed afresh."""
    region = parse_region(document)
    if complex_job is None:
        return region.is_allowable(), []
    m, R = complex_job
    verdict = region.is_admissible(m)
    return verdict, reduce_to_real_tasks(region, ComplexLogForm.volume_like(region.n // 2, R), m)


def checksum(verdict, tasks) -> str:
    digest = hashlib.sha256(str(verdict).encode())
    for task in tasks:
        p = task.partition
        parts = [task.sector, p.P, p.Q, p.R, list(task.poly_re.terms.items()),
                 list(task.poly_im.terms.items())]
        for cell in task.region.cells:
            parts += [(c.equality, list(c.payload.terms.items())) for c in cell.constraints]
        digest.update(repr(parts).encode())
    return digest.hexdigest()[:16]


def counted(call) -> tuple:
    """(validating, trusted) Polynomial constructions made by `call()`;
    trusted is None when the class has no `_of`."""
    counts = {"init": 0, "of": 0}
    init = Polynomial.__init__
    of = Polynomial.__dict__.get("_of")

    def counting_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    def counting_of(cls, *args):
        counts["of"] += 1
        return of.__func__(cls, *args)

    Polynomial.__init__ = counting_init
    if of is not None:
        Polynomial._of = classmethod(counting_of)
    try:
        call()
    finally:
        Polynomial.__init__ = init
        if of is not None:
            Polynomial._of = of
    return counts["init"], counts["of"] if of is not None else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7, help="timed rounds; the best is printed")
    args = ap.parse_args()
    print(f"{'document':18} {'ms':>8} {'tasks':>5} {'validating':>10} {'trusted':>8}  checksum")
    for name, (document, complex_job) in DOCUMENTS.items():
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            verdict, tasks = run(document, complex_job)
            best = min(best, time.perf_counter() - start)
        validating, trusted = counted(lambda: run(document, complex_job))
        print(f"{name:18} {best * 1e3:8.2f} {len(tasks):5d} {validating:10d} "
              f"{'-' if trusted is None else trusted:>8}  {checksum(verdict, tasks)}")


if __name__ == "__main__":
    main()
