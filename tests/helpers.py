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


def final_level_cuts(region, axis, level_var, point, lo, hi, clip=()):
    """The breakpoints along `level_var` of the linear cells' fiber
    structure through one base point on one piece [lo, hi], one candidate
    pair at a time and collected in a set: the scalar reference for
    `integrate._FiberSolver.cuts` and its cut table.  The inner axis and
    level_var entries of the point are ignored; `clip` holds the excision
    bounds (e, -e) of a log inner axis, or nothing."""
    import numpy as np

    from logvol.integrate import _GRADE
    from logvol.slicing import FiberKernel

    kernel = FiberKernel(region, axis)
    linear = [[(np.array(coeffs, dtype=float), float(-offset))
               for coeffs, offset in (c.payload.as_affine() for c in cell.constraints)]
              for cell in region.cells if cell.is_linear()]
    vec = point.copy()
    vec[axis] = 0.0
    vec[level_var] = 0.0
    e = max((abs(c) for c in clip), default=0.0)
    cuts = set()
    for rows in linear:
        cands = [(x, 0.0) for x in (kernel.lo_box, kernel.hi_box, *clip)]
        for a, rhs in rows:
            ci = a[axis]
            cl = a[level_var]
            rem = rhs - float(a @ vec)
            if abs(ci) > 1e-12:
                cands.append((rem / ci, -cl / ci))
                if e > 0 and abs(cl / ci) > 1e-12:
                    # graded cuts x0 +- d toward the zero x0 of this candidate
                    x0, d = rem / cl, e * abs(ci / cl) * _GRADE
                    reach = max(abs(lo - x0), abs(hi - x0))
                    while d < reach:
                        cuts.update((x0 + d, x0 - d))
                        d *= _GRADE
            elif abs(cl) > 1e-12:
                cuts.add(rem / cl)
        for i in range(len(cands)):
            ai, bi = cands[i]
            for j in range(i + 1, len(cands)):
                aj, bj = cands[j]
                if abs(bi - bj) > 1e-12:
                    cuts.add((aj - ai) / (bi - bj))
    return sorted(x for x in cuts if lo + 1e-13 < x < hi - 1e-13)


class _Node:
    """A range of one lockstep integral of `adaptive_1d`."""

    __slots__ = ("job", "lo", "hi", "whole", "budget", "depth", "halves", "accepted", "children")

    def __init__(self, job, lo, hi, depth, whole=None, budget=None):
        self.job, self.lo, self.hi, self.depth = job, lo, hi, depth
        self.whole, self.budget = whole, budget
        self.accepted = self.children = None


def adaptive_1d(f, jobs, depth, k):
    """`integrate._adaptive_1d` decided node by node, with list arithmetic
    on each panel's components and the first round's acceptance test run
    on every job's own node: the reference for the array rounds, which
    must give the same (value, records) per job and call f with the same
    panels in the same order."""
    import numpy as np

    from logvol.integrate import _gauss_nodes, _panel_sums

    xs, _ = _gauss_nodes()
    m = len(xs)

    def evaluate(spans):
        if not spans:
            return iter(())
        job, lo, hi = np.array(spans).T
        half = 0.5 * (hi - lo)
        vals, behind = f(0.5 * (lo + hi)[:, None] + half[:, None] * xs, job.astype(np.int64))
        records = [[] if behind is None else [r for node in behind[p * m:p * m + m] for r in node]
                   for p in range(len(spans))]
        return zip(_panel_sums(vals, half).tolist(), records)

    def halves(node):
        mid = 0.5 * (node.lo + node.hi)
        return [(node.job, node.lo, mid), (node.job, mid, node.hi)]

    roots = [_Node(j, a, b, depth) for j, (a, b, _) in enumerate(jobs) if a < b]
    evals = evaluate([span for node in roots
                      for span in [(node.job, node.lo, node.hi), *halves(node)]])
    root_records = []
    for node in roots:
        node.whole, records = next(evals)
        node.budget = [jobs[node.job][2] * max(1.0, abs(w)) for w in node.whole]
        node.halves = next(evals), next(evals)
        root_records.append(records)
    fresh = roots
    while fresh:
        split = []
        for node in fresh:
            (left, _), (right, _) = node.halves
            total = [x + y for x, y in zip(left, right)]
            err = [abs(t - w) for t, w in zip(total, node.whole)]
            if node.depth <= 0 or all(e <= b for e, b in zip(err, node.budget)):
                node.accepted = total, (err, node.budget)
                continue
            budget = [0.5 * b for b in node.budget]
            (_, lo, mid), (_, _, hi) = halves(node)
            node.children = (_Node(node.job, lo, mid, node.depth - 1, left, budget),
                             _Node(node.job, mid, hi, node.depth - 1, right, budget))
            split += node.children
        evals = evaluate([span for node in split for span in halves(node)])
        for node in split:
            node.halves = next(evals), next(evals)
        fresh = split

    def walk(node, records):
        records += node.halves[0][1]
        records += node.halves[1][1]
        if node.accepted is not None:
            records.append(node.accepted[1])
            return node.accepted[0]
        left = walk(node.children[0], records)
        right = walk(node.children[1], records)
        return [x + y for x, y in zip(left, right)]

    out = [([0.0] * k, []) for _ in jobs]
    for node, records in zip(roots, root_records):
        out[node.job] = walk(node, records), records
    return out
