"""Print a snapshot of logvol's answers on the region corpus.

The snapshot holds `logvol check` on every file in regions/, the README's
integrate, integrate-complex, decay, probe-fibers and decay-complex
commands, each with its stdout, stderr and exit code (and the ladder CSV
that `integrate --out` writes), three more probe-fibers runs that reach
each verdict (equality cells with two roots per fiber, the same over a cap
of 1, and an infinite fiber), and the signed and absolute ladder
CSVs (`Ladder.to_csv`, full precision) of the top dlog form on the regions
in LADDERS: positive, negative and sign-changing log coordinates, a region
far below unit scale, one whose log coordinates differ in scale by six
decades, a 4-d product that takes the Monte-Carlo rung, and three forms
with polynomial coefficients, whose absolute inner integral is cut at the
coefficient's roots on each fiber (one of them cubic, so that the float
power table sees an exponent above 2).  It also
prints the exact-layer verdicts the CLI does not: `is_strictly_allowable`
on every face and `is_almost_strictly_allowable` of each real region, and
`is_admissible(m)` for nc <= m <= 2 nc and `meets_divisors_only_in_d` of
each complex one, each followed by how many cells each path of
`region._decide_cell` decided (empty, rank, interior, hypersurface,
probe; counted by wrapping it), so a diff shows where the certificates
cover and where the probe still samples.  Last, for each (region, form, m)
of the admissible corpus in TASKS, it prints how many real tasks
`reduce_to_real_tasks` makes and how many of them are linear, and each
task's `task_allowability` on the P faces and on all faces, so a diff shows
what a change to the polar lift does to the tasks.  Two snapshots diffed against
each other show whether a change moved any verdict, flag, note or value:

    python scripts/corpus_snapshot.py > before.txt
    (apply the change)
    python scripts/corpus_snapshot.py > after.txt
    diff before.txt after.txt

or, where a change may move floats by rounding,
`python scripts/snapshot_diff.py before.txt after.txt --tol 1e-12`.
It takes a few seconds.
"""

import contextlib
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from logvol import (  # noqa: E402
    ComplexLogForm,
    integrate_log_form,
    parse_region,
    reduce_to_real_tasks,
    task_allowability,
)
from logvol import region as region_module  # noqa: E402
from logvol.cli import parse_real_form, run  # noqa: E402

REGIONS = ROOT / "regions"

README_COMMANDS = [
    ["integrate", "regions/s_half.region", "--form", "dr1/r1 ^ dr2/r2", "--out", "ladder.csv"],
    ["integrate", "regions/unit_box_p2.region", "--form", "dr1/r1 ^ dr2/r2"],
    ["integrate-complex", "regions/quadrant_disk_c1.region", "--form", "dz1/z1 ^ dzbar1",
     "--m", "2"],
    ["decay", "regions/s_one.region", "--u", "r1", "--form", "dr2/r2"],
    ["decay-complex", "regions/nested_annulus_c2.region", "--form",
     "dz1/z1 ^ dz2/z2 ^ dzbar2", "--m", "4"],
    ["probe-fibers", "regions/triangle_p2.region", "--axis", "r2"],
]

PROBES = [
    ["probe-fibers", "regions/disk_times_circle_c2.region", "--axis", "zr2"],
    ["probe-fibers", "regions/disk_times_circle_c2.region", "--axis", "zi2", "--cap", "1"],
    ["probe-fibers", "regions/unit_box_p2.region", "--axis", "r2"],
]

LADDERS = [
    ("s_half", "dr1/r1 ^ dr2/r2"),
    ("s_one", "dr1/r1 ^ dr2/r2"),
    ("unit_box_p2", "dr1/r1 ^ dr2/r2"),
    ("interval_half_one", "dr1/r1"),
    ("interval_micro", "dr1/r1"),
    ("interval_across_zero", "dr1/r1"),
    ("negative_square", "dr1/r1 ^ dr2/r2"),
    ("mixed_extent", "dr1/r1 ^ dr2/r2"),
    ("s_half_times_s_three_quarters", "dr1/r1 ^ dr2/r2 ^ dr3/r3 ^ dr4/r4"),
    ("s_one", "(r2*r2 - 1/3*r2 - 1/5*r1) ^ dr1/r1 ^ dr2/r2"),
    ("interval_across_zero", "(r1 - 1/3) ^ dr1/r1"),
    ("s_half", "(r1*r1*r1 - 1/5) ^ dr1/r1 ^ dr2/r2"),
]

# (region, R of the volume-like form dz/z ^ dzbar_R, m): the admissible
# corpus of tests/test_complexint.py
TASKS = [
    ("disk_c1", (0,), 2),
    ("quadrant_disk_c1", (0,), 2),
    ("nested_annulus_c2", (0, 1), 4),
    ("disk_times_circle_c2", (0,), 3),
]


def cli(argv: list) -> None:
    """Run one command and print its output; an `--out` file is written to
    a temporary directory and printed after the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        real = [os.path.join(tmp, a) if i and argv[i - 1] == "--out" else a
                for i, a in enumerate(argv)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(real)
        written = {a: Path(r).read_text() for a, r in zip(argv, real)
                   if a != r and Path(r).exists()}
    print(f"$ logvol {' '.join(argv)}")
    print(out.getvalue(), end="")
    for line in err.getvalue().splitlines():
        print(f"stderr: {line}")
    print(f"exit {code}")
    for name, text in written.items():
        print(f"# {name}")
        print(text, end="")
    print()


def exact_verdicts(name: str, region) -> None:
    """The strictness verdicts of a real region, the admissibility verdicts
    of a complex one."""
    if region.kind == "real":
        for face in region.faces():
            ids = ",".join(str(i + 1) for i in face)
            print(f"# {name} strict face={{{ids}}}: {region.is_strictly_allowable(face)}")
        print(f"# {name} almost strict: {region.is_almost_strictly_allowable()}")
        return
    nc = region.n // 2
    for m in range(nc, 2 * nc + 1):
        with decision_paths() as paths:
            verdict = region.is_admissible(m)
        print(f"# {name} admissible m={m}: {verdict}")
        print(f"#   cells decided m={m}: {paths_text(paths)}")
    with decision_paths() as paths:
        inside = region.meets_divisors_only_in_d()
    print(f"# {name} meets divisors only in D: {inside}")
    print(f"#   cells decided: {paths_text(paths)}")


PATHS = ("empty", "rank", "interior", "hypersurface", "probe")


@contextlib.contextmanager
def decision_paths():
    """Count the path of every `_decide_cell` call made inside the block."""
    original = region_module._decide_cell
    paths = Counter()

    def counting(*args):
        decision = original(*args)
        paths[decision.path] += 1
        return decision

    region_module._decide_cell = counting
    try:
        yield paths
    finally:
        region_module._decide_cell = original


def paths_text(paths: Counter) -> str:
    return " ".join(f"{path} {paths[path]}" for path in PATHS)


def task_verdicts(name: str, R: tuple, m: int) -> None:
    """The real tasks of one admissible integral: their count, how many
    are linear, and the allowability of each on P faces and on all faces."""
    region = parse_region((REGIONS / f"{name}.region").read_text())
    tasks = reduce_to_real_tasks(region, ComplexLogForm.volume_like(region.n // 2, R), m)
    linear = sum(all(cell.is_linear() for cell in task.region.cells) for task in tasks)
    print(f"# {name} dzbar{list(R)} m={m}: {len(tasks)} tasks, {linear} linear")
    for task in tasks:
        p = task.partition
        print(f"#   sector={task.sector} P={p.P} Q={p.Q} R={p.R}: "
              f"P faces {task_allowability(task)}; "
              f"all faces {task_allowability(task, faces='all')}")


def main() -> None:
    for path in sorted(REGIONS.glob("*.region")):
        cli(["check", f"regions/{path.name}"])
    for path in sorted(REGIONS.glob("*.region")):
        exact_verdicts(path.stem, parse_region(path.read_text()))
    print()
    for argv in README_COMMANDS + PROBES:
        cli(argv)
    for name, text in LADDERS:
        region = parse_region((REGIONS / f"{name}.region").read_text())
        result = integrate_log_form(region, parse_real_form(text, region))
        print(f"# {name} {text} signed")
        print(result.ladder.to_csv(), end="")
        print(f"# {name} {text} absolute")
        print(result.abs_ladder.to_csv())
    for name, R, m in TASKS:
        task_verdicts(name, R, m)


if __name__ == "__main__":
    os.chdir(ROOT)  # the printed commands name regions/ relative to the repo
    main()
