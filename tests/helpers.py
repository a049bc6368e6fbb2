"""Shared builders and independent oracles for the test suite."""

from fractions import Fraction
from pathlib import Path

from logvol import Cell, Constraint, Region, parse_poly, parse_region

REGIONS = Path(__file__).resolve().parent.parent / "regions"


def load_region(name: str) -> Region:
    return parse_region((REGIONS / f"{name}.region").read_text())


def region_of(n, p, constraint_strs, box=None, kind="real", cells=None):
    """Region from constraint strings; `cells` may hold several lists."""
    shell = Region(n, p, [], kind, box)
    names = shell.var_names()
    groups = cells if cells is not None else [constraint_strs]
    built = []
    for group in groups:
        consts = []
        for s in group:
            from logvol.region import parse_constraint

            consts.append(parse_constraint(s, names))
        built.append(Cell(consts))
    return Region(n, p, built, kind, box)


def box_region(bounds, p=0, kind="real"):
    """Axis-aligned box as a one-cell region with matching declared box."""
    n = len(bounds)
    shell = Region(n, p, [], kind, bounds)
    names = shell.var_names()
    consts = []
    for v, (lo, hi) in enumerate(bounds):
        consts.append(Constraint(parse_poly(f"{names[v]} - ({_lit(hi)})", names)))
        consts.append(Constraint(parse_poly(f"({_lit(lo)}) - {names[v]}", names)))
    return Region(n, p, [Cell(consts)], kind, bounds)


def _lit(v):
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def li2_series(x: float, terms: int = 60) -> float:
    """Dilogarithm partial sum: the independent series oracle."""
    return sum(x**k / k**2 for k in range(1, terms + 1))


LI2_HALF = li2_series(0.5)  # 0.5822405264650125 with 60 terms


def annulus_slice_tasks(ts=(2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5)):
    """The slice tasks, regions attached, that annulus_slice_decay hands to
    its quadratures for dz1/z1 ^ dz2/z2 ^ dzbar2 on nested_annulus_c2
    (m = 4) at the radii ts, recorded without running any quadrature."""
    from logvol import ComplexLogForm, Ladder, annulus_slice_decay, complexint

    tasks = []

    def record(quadrature, task):
        tasks.append(task)
        return [(1.0, 0.0, Ladder([(0.0, 1.0, 0.0)], "converged", 1.0, 0.0, capped=[0]))
                for _ in quadrature.kinds]

    original = complexint._Quadratures.__call__
    complexint._Quadratures.__call__ = record
    try:
        annulus_slice_decay(load_region("nested_annulus_c2"), ComplexLogForm.volume_like(2, (1,)),
                            4, ts=list(ts))
    finally:
        complexint._Quadratures.__call__ = original
    return tasks
