"""Region model, dimension, allowability and admissibility checkers."""

import json
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import box_region, load_region, region_of
from logvol import ProbeConfig, Region, RegionError, parse_region
from logvol import Polynomial, linprog
from logvol import certify
from logvol import region as region_mod
from logvol.region import Cell, Constraint, parse_constraint


# ---------------------------------------------------------------------------
# parsing


def test_parse_unit_box_document():
    A = load_region("unit_box_p2")
    assert (A.n, A.p, A.kind) == (2, 2, "real")
    assert len(A.cells) == 1 and len(A.cells[0].constraints) == 4


def test_parse_s_half_document():
    A = load_region("s_half")
    assert len(A.cells) == 1
    assert A.p == 2


def test_parse_empty_region():
    A = parse_region(json.dumps({"ambient_dim": 2, "divisor_count": 2, "cells": []}))
    assert A.dimension().value == -1


def test_parse_rejects_bad_divisor_count():
    with pytest.raises(RegionError):
        parse_region(json.dumps({"ambient_dim": 1, "divisor_count": 3, "cells": []}))


def test_document_round_trip():
    for name in ("s_half", "unit_box_p2", "triangle_p1", "disk_c1"):
        A = load_region(name)
        again = parse_region(json.dumps(A.to_document()))
        assert again == A, name


# ---------------------------------------------------------------------------
# dimension


def test_dimension_box():
    assert load_region("unit_box_p2").dimension().value == 2


def test_dimension_segment():
    A = region_of(2, 2, ["r1 = 0", "-r2 <= 0", "r2 - 1 <= 0"], [(0, 1), (0, 1)])
    d = A.dimension()
    assert (d.value, d.heuristic) == (1, False)


def test_dimension_circle_is_certified():
    A = region_of(2, 1, ["zr1^2 + zi1^2 - 1 = 0"], [(-2, 2), (-2, 2)], kind="complex")
    d = A.dimension()
    assert d.value == 1 and not d.heuristic


def test_dimension_empty_face_intersection():
    A = load_region("s_half")
    assert A.face_intersection((0,)).dimension().value == -1  # r2 in [1, 1/2]
    assert A.face_intersection((1,)).dimension().value == 0   # the point (1, 0)


def test_face_intersection_identity_and_point():
    A = load_region("unit_box_p2")
    assert A.face_intersection(()).dimension().value == 2
    assert A.face_intersection((0, 1)).dimension().value == 0


def test_face_intersection_index_range():
    with pytest.raises(RegionError):
        load_region("unit_box_p2").face_intersection((5,))


# ---------------------------------------------------------------------------
# allowability (exact paths)


def test_s_half_allowable():
    v = load_region("s_half").is_allowable()
    assert v.ok and not v.heuristic


def test_unit_box_violated_at_first_face():
    v = load_region("unit_box_p2").is_allowable()
    assert not v.ok
    assert v.violations[0][0] == (0,)
    assert str(v).startswith("VIOLATED face={1}")


def test_triangle_p1_allowable_p2_violated():
    assert load_region("triangle_p1").is_allowable().ok
    v = load_region("triangle_p2").is_allowable()
    assert not v.ok and v.violations[0][0] == (1,)


def test_origin_membership_flips_minimal_face():
    with_origin = region_of(
        2, 2, ["-r1 <= 0", "r1 - 1 <= 0", "-r2 <= 0", "r2 - r1 <= 0"],
        [(0, 1), (0, 1)],
    )
    v = with_origin.is_allowable(faces=[(0, 1)])
    assert not v.ok  # contains the origin: dim 0 at the minimal face
    assert load_region("s_half").is_allowable(faces=[(0, 1)]).ok


# ---------------------------------------------------------------------------
# strict allowability


def diagonal_segment():
    return region_of(2, 2, ["r2 - r1 = 0", "-r1 <= 0", "r1 - 1 <= 0"],
                     [(0, 1), (0, 1)])


def test_diagonal_not_strict_wrt_ambient():
    # The affine hull is the full diagonal line, which passes through the
    # origin, i.e. contains the minimal face: the closure contains a face,
    # so strictness with respect to the whole space fails.
    v = diagonal_segment().is_strictly_allowable(())
    assert v.status == "not_strict" and v.contained_face == (0, 1)


def test_shifted_diagonal_strict_wrt_ambient():
    A = region_of(2, 2, ["r2 - r1 - 1/2 = 0", "-r1 <= 0", "r1 - 1/4 <= 0"],
                  [(0, 1), (0, 1)])
    assert A.is_strictly_allowable(()).status == "strict"


def test_axis_segment_not_strict():
    A = region_of(2, 2, ["r2 = 0", "-r1 <= 0", "r1 - 1 <= 0"], [(0, 1), (0, 1)])
    v = A.is_strictly_allowable((1,))
    assert v.status == "not_strict" and v.contained_face == (1,)


def test_origin_point_not_strict_anywhere():
    A = region_of(2, 2, ["r1 = 0", "r2 = 0"], [(0, 1), (0, 1)])
    assert A.is_strictly_allowable((0, 1)).status == "not_strict"
    assert A.is_strictly_allowable((0,)).status == "not_strict"


def test_almost_strict_examples():
    assert diagonal_segment().is_almost_strictly_allowable().status == "not_strict"
    shifted = region_of(
        2, 2, ["r2 - r1 - 1/2 = 0", "-r1 <= 0", "r1 - 1/4 <= 0"], [(0, 1), (0, 1)]
    )
    assert shifted.is_almost_strictly_allowable().status == "strict"
    empty = Region(2, 2, [], "real", [(0, 1), (0, 1)])
    assert empty.is_almost_strictly_allowable().status == "strict"


def test_strictness_unknown_on_nonlinear():
    A = region_of(2, 2, ["r2 - r1^2 = 0", "-r1 <= 0", "r1 - 1 <= 0"],
                  [(0, 1), (0, 1)])
    assert A.is_strictly_allowable(()).status == "unknown"


# ---------------------------------------------------------------------------
# admissibility


def test_disk_admissible_m2_not_m1():
    disk = load_region("disk_c1")
    assert disk.is_admissible(2).ok
    v = disk.is_admissible(1)
    assert not v.ok and v.violations[0][0] == (0,)


def test_disk_times_circle_3_admissible():
    assert load_region("disk_times_circle_c2").is_admissible(3).ok


def test_admissibility_requires_complex_kind():
    with pytest.raises(RegionError):
        load_region("unit_box_p2").is_admissible(2)


def test_admissibility_bounds_total_dimension():
    # the empty face carries the global bound dim(A minus D) <= m
    dd = region_of(
        4, 2,
        ["zr1^2 + zi1^2 - 1 <= 0", "zr2^2 + zi2^2 - 1 <= 0"],
        [(-1, 1)] * 4, kind="complex",
    )
    v = dd.is_admissible(2)
    assert not v.ok
    assert ((), 4, 3) in v.violations


def test_admissibility_region_inside_d():
    # a region contained in {z2 = 1} is admissible for any legal m: every
    # piece is removed with D
    pd = region_of(
        4, 2,
        ["zr1^2 + zi1^2 - 1 <= 0", "zr2 - 1 = 0", "zi2 = 0"],
        [(-1, 1), (-1, 1), (0, 2), (-1, 1)], kind="complex",
    )
    assert pd.is_admissible(2).ok


def test_annulus_point_face_is_certified():
    """nested_annulus_c2 on the face z1 = 0 is the point 0 (zr2^2 + zi2^2
    <= 0, a sum of squares that forces zr2 = zi2 = 0), which the sampled
    probe reads as empty."""
    d = load_region("nested_annulus_c2").face_intersection((0,)).dimension()
    assert (d.value, d.heuristic) == (0, False)


def test_annulus_unit_circle_slice_is_certified():
    """nested_annulus_c2 cap {z2 = 1} is the circle |z1| = 1, written as two
    opposite inequalities, which the sampled probe reads as empty."""
    A = load_region("nested_annulus_c2")
    A = A.add_cell_constraints([parse_constraint(text, A.var_names())
                                for text in ("zr2 - 1 = 0", "zi2 = 0")])
    d = A.dimension()
    assert (d.value, d.heuristic) == (1, False)


def test_rewrites_for_the_certificates():
    """Opposite inequalities become one equality, a sum of squares <= 0 the
    linear equalities it forces, and -(sum of squares) <= 0 is dropped."""
    names = ["x1", "x2", "x3"]
    cons = [parse_constraint(t, names) for t in (
        "x1^2 + x2 - 1 <= 0", "1 - x1^2 - x2 >= 0", "2 - 2*x1^2 - 2*x2 <= 0",
        "(x1 - x3)^2 + 4*(x2 - 1/2)^2 <= 0", "-x3^2 - x1^2 <= 0", "x1*x3 - 1 <= 0")]
    linear, ineqs, eqs = certify.rewrite_nonlinear(cons, 3)
    assert eqs == [parse_constraint("x1^2 + x2 - 1 = 0", names).payload]
    assert ineqs == [cons[-1].payload]
    sos = [c.payload for c in linear]
    assert parse_constraint("x1 - x3 = 0", names).payload in sos
    assert parse_constraint("x2 - 1/2 = 0", names).payload in sos and len(sos) == 2
    # a positive constant left over: g <= 0 is infeasible (the row 0 = 1)
    assert certify.sos_rows(parse_constraint("x1^2 + 1 <= 0", names).payload, 3)[-1] == (
        [0, 0, 0, -1], 1)
    assert certify.sos_rows(parse_constraint("x1*x2 <= 0", names).payload, 3) is None


_q = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@given(a=_q, b=_q, rho=_q, u=_q, v=_q, w=_q, circle=st.booleans())
@example(a=0, b=0, rho=1, u=1, v=0, w=-1, circle=False)  # tangent: the point (1, 0)
@example(a=0, b=0, rho=1, u=1, v=0, w=-1, circle=True)
@example(a=1, b=0, rho=0, u=1, v=1, w=-1, circle=False)  # the point (1, 0) on the line
@example(a=0, b=0, rho=-1, u=1, v=0, w=0, circle=True)
@example(a=0, b=0, rho=1, u=1, v=0, w=2, circle=True)  # the cut misses the circle
def test_certified_disk_and_circle_dimensions(a, b, rho, u, v, w, circle):
    """(x - a)^2 + (y - b)^2 <= rho (a disk) or = rho (a circle), cut by
    u x + v y + w <= 0: a certified dimension equals the closed form,
    read off l(c) = u a + v b + w against rho (u^2 + v^2), compared
    squared so it stays exact."""
    if u == v == 0:
        u = 1
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    g = (x - a) * (x - a) + (y - b) * (y - b) - rho
    cut = u * x + v * y + w
    full = 1 if circle else 2
    lc, reach = u * a + v * b + w, rho * (u * u + v * v)
    if rho < 0 or (rho == 0 and lc > 0):
        want = -1
    elif rho == 0:
        want = 0
    elif lc <= 0 or lc * lc < reach:
        want = full
    else:
        want = 0 if lc * lc == reach else -1
    half = abs(rho) + 2
    A = Region(2, 0, [Cell([Constraint(g, circle), Constraint(cut)])], "real",
               [(a - half, a + half), (b - half, b + half)])
    d = A.dimension()
    if not d.heuristic:
        assert d.value == want


def test_divisor_locus_by_hull_matches_the_slice_test():
    """For a cell that fills its affine hull H, lying in D_t is H lying in
    D_t: the same answer as slicing the cell with D_t, on every cell of
    every face of the complex corpus and of two regions inside D."""
    inside = region_of(4, 2, ["zr1^2 + zi1^2 - 1 <= 0", "zr2 - 1 = 0", "zi2 = 0"],
                       [(-1, 1), (-1, 1), (0, 2), (-1, 1)], kind="complex")
    flat = region_of(2, 1, ["zr1 - 1 = 0", "zi1 = 0"], [(0, 2), (-1, 1)], kind="complex")
    regions = [load_region(name) for name in
               ("disk_c1", "quadrant_disk_c1", "nested_annulus_c2", "disk_times_circle_c2")]
    seen = set()
    for region in regions + [inside, flat]:
        for face in list(region.faces()) + [()]:
            sub = region.face_intersection(face)
            for cell in sub.cells:
                d, probed, hull, path = region_mod._decide_cell(sub, cell, ProbeConfig())
                if hull is None or d < 0:
                    continue
                seen.add(path)
                by_hull = region_mod._hull_in_divisor_locus(sub, hull)
                assert by_hull == region_mod._in_divisor_locus(sub, cell, d, ProbeConfig())
    assert seen == {"rank", "interior"}


def test_complex_corpus_gates_make_no_probe_calls(monkeypatch):
    """Every cell the gates of the complex corpus meet is decided exactly:
    is_admissible at every m and meets_divisors_only_in_d call the
    sampled probe 0 times, and every verdict is exact."""
    calls = []
    probe = region_mod._probe_cell_dimension

    def counted(*args):
        calls.append(args)
        return probe(*args)

    monkeypatch.setattr(region_mod, "_probe_cell_dimension", counted)
    for name in ("disk_c1", "quadrant_disk_c1", "nested_annulus_c2", "disk_times_circle_c2"):
        region = load_region(name)
        for m in range(region.n // 2, region.n + 1):
            assert not region.is_admissible(m).heuristic
        assert region.meets_divisors_only_in_d() == (False, False)
    assert calls == []


def test_probed_faces_are_named():
    """The verdict names the faces whose answer rested on the probe."""
    v = region_mod.AllowVerdict(True, [], True, ((0,), ()))
    assert str(v) == "ALLOWABLE [heuristic] probe on {1} {}"
    assert str(region_mod.AllowVerdict(True)) == "ALLOWABLE"
    # two nonlinear equalities on the face z1 = 0 keep the probe there
    A = region_of(4, 1, ["zr2^2 - 1 - zr1^2 - zi1^2 <= 0", "1 - zr2^2 - zr1^2 - zi1^2 <= 0",
                         "zi2^2 + zi2 - zr1^2 - zi1^2 <= 0", "-zi2^2 - zi2 - zr1^2 - zi1^2 <= 0"],
                  [(0, 1), (0, 1), (0, 2), (0, 1)], kind="complex")
    v = A.is_admissible(4)
    assert v.ok and v.heuristic and v.probed_faces == ((0,),)
    assert str(v) == "ALLOWABLE [heuristic] probe on {1}"


def test_divisor_locus_in_d_detection():
    # disk x {point z2 = 1}: every divisor intersection sits inside D
    A = region_of(
        4, 2,
        ["zr1^2 + zi1^2 - 1 <= 0", "zr2 - 1 = 0", "zi2 = 0"],
        [(-1, 1), (-1, 1), (0, 2), (-1, 1)],
        kind="complex",
    )
    assert A.meets_divisors_only_in_d()[0]
    assert not load_region("disk_times_circle_c2").meets_divisors_only_in_d()[0]


# ---------------------------------------------------------------------------
# fiber probe


def test_members_refuses_existential_cells():
    """A cell whose auxiliary is existentially quantified has no pointwise
    membership test: `members` raises, as slicing such a cell does."""
    from logvol.region import ExtraVar

    cell = Cell([Constraint(Polynomial.var(3, 2) - Polynomial.var(3, 0))],
                (ExtraVar("aux", 0.0, 1.0),))
    A = Region(2, 1, [cell], "real", [(0, 1), (0, 1)])
    with pytest.raises(RegionError, match="existential"):
        A.members(np.array([[0.5, 0.5]]))


def test_fiber_probe_graph():
    A = region_of(2, 2, ["r2 - r1^2 = 0", "-r1 <= 0", "r1 - 1 <= 0"],
                  [(0, 1), (0, 1)])
    rep = A.fiber_finiteness_probe(axis=1, samples=24)
    assert rep.verdict == "finite" and rep.max_count == 1


def test_fiber_probe_box_infinite():
    rep = load_region("unit_box_p2").fiber_finiteness_probe(axis=1, samples=8)
    assert rep.verdict == "infinite"


def test_fiber_probe_two_roots():
    A = region_of(2, 2, ["r2^2 - r1 = 0", "-r1 <= 0", "r1 - 1 <= 0"],
                  [(0, 1), (-1, 1)])
    rep = A.fiber_finiteness_probe(axis=1, samples=32)
    assert rep.verdict == "finite" and rep.max_count == 2


def test_fiber_probe_cap():
    A = region_of(2, 2, ["r2^2 - r1 = 0", "-r1 <= 0", "r1 - 1 <= 0"],
                  [(0, 1), (-1, 1)])
    rep = A.fiber_finiteness_probe(axis=1, samples=16, cap=1)
    assert rep.verdict == "cap exceeded"


def _probe_reference(region, axis, samples, cap, seed):
    """(verdict, max_count) of a loop over the sampled base points in draw
    order, one float `slice_fiber` per point, which stops at the first
    fiber with an interval longer than 1e-9 of the box's largest side
    ("infinite") or with more than `cap` intervals ("cap exceeded")."""
    from logvol import slice_fiber

    box = region.bounding_box()
    base_vars = [v for v in range(region.n) if v != axis]
    scale = max(hi - lo for lo, hi in box) + 1e-30
    rng = np.random.Generator(np.random.Philox(key=seed))
    lo, hi = np.array([box[v] for v in base_vars], dtype=float).reshape(-1, 2).T
    max_count = 0
    for point in rng.uniform(lo, hi, size=(samples, len(base_vars))):
        fiber = slice_fiber(region, dict(zip(base_vars, point.tolist())), axis, mode="float")
        if any(b - a > 1e-9 * scale for a, b in fiber.intervals):
            return "infinite", 0
        if len(fiber.intervals) > cap:
            return "cap exceeded", len(fiber.intervals)
        max_count = max(max_count, len(fiber.intervals))
    return "finite", max_count


def test_fiber_probe_first_sample_decides():
    """The first sample in draw order that is infinite or over the cap
    decides the verdict, and within one fiber "infinite" wins: above
    r1 = 1/2 the fiber is [-1, 0] plus the point sqrt(r1) (long, and two
    intervals), below it the two points +-sqrt(r1).  With cap 1 both
    verdicts occur over the seeds, each from the first sample."""
    A = region_of(2, 2, None, [(0, 1), (-1, 1)],
                  cells=[["r2^2 - r1 = 0", "-r1 <= 0", "r1 - 1 <= 0"],
                         ["1/2 - r1 <= 0", "r1 - 1 <= 0", "-1 - r2 <= 0", "r2 <= 0"]])
    verdicts = set()
    for seed in range(8):
        for samples, cap in ((1, 1), (6, 1), (6, 2), (6, 64)):
            rep = A.fiber_finiteness_probe(axis=1, samples=samples, cap=cap, seed=seed)
            want = _probe_reference(A, 1, samples, cap, seed)
            assert (rep.verdict, rep.max_count, rep.samples) == (*want, samples)
            if cap == 1:
                first = np.random.Generator(np.random.Philox(key=seed)).uniform(0.0, 1.0)
                assert rep.verdict == ("infinite" if first > 0.5 else "cap exceeded")
                verdicts.add(rep.verdict)
    assert verdicts == {"infinite", "cap exceeded"}


# ---------------------------------------------------------------------------
# checker invariants on a linear corpus


def linear_corpus():
    regions = [
        load_region("s_half"),
        load_region("s_one"),
        load_region("unit_box_p2"),
        load_region("triangle_p1"),
        load_region("triangle_p2"),
        load_region("shifted_square"),
        diagonal_segment(),
    ]
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(14):
        n, p = 2, 2
        lo = rng.uniform(0.0, 0.75, size=n)
        hi = lo + rng.uniform(0.25, 1.0, size=n)
        bounds = [
            (Fraction(round(float(a) * 16), 16), Fraction(round(float(b) * 16) + 1, 16))
            for a, b in zip(lo, hi)
        ]
        regions.append(box_region(bounds, p=p))
    assert len(regions) >= 20
    return regions


def test_implication_chain():
    for A in linear_corpus():
        strict_everywhere = all(
            A.is_strictly_allowable(face).status == "strict"
            for face in list(A.faces()) + [()]
        )
        almost = A.is_almost_strictly_allowable().status == "strict"
        allow = A.is_allowable().ok
        if strict_everywhere:
            assert almost
        if almost:
            assert allow


def test_monotonicity_under_shrinking():
    extra = parse_constraint("r1 - 2/3 <= 0", ["r1", "r2"])
    for A in linear_corpus():
        B = A.add_cell_constraints([extra])
        if A.is_allowable().ok:
            assert B.is_allowable().ok
        if A.is_almost_strictly_allowable().status == "strict":
            assert B.is_almost_strictly_allowable().status == "strict"


def test_union_stability():
    corpus = [A for A in linear_corpus() if A.p == 2]
    passing = [A for A in corpus if A.is_allowable().ok]
    assert len(passing) >= 3
    for A, B in zip(passing, passing[1:]):
        union = Region(2, 2, list(A.cells) + list(B.cells), "real", None)
        assert union.is_allowable().ok


def test_face_restriction_passes_to_smaller_faces():
    checked = 0
    for A in linear_corpus():
        if A.p < 2:
            continue
        if A.is_strictly_allowable((0,)).status == "strict":
            assert A.is_strictly_allowable((0, 1)).status == "strict"
            checked += 1
    assert checked >= 3


def test_empty_dimension_convention():
    empty = Region(2, 2, [], "real", [(0, 1), (0, 1)])
    assert empty.dimension().value == -1
    assert empty.is_allowable().ok


# ---------------------------------------------------------------------------
# heuristic probe calibration on known manifolds


MANIFOLDS = [
    # (constraints, box, kind, true dim)
    (["zr1^2 + zi1^2 - 1 = 0"], [(-2, 2), (-2, 2)], "complex", 1),
    (["zr1^2 + zi1^2 - 1 <= 0"], [(-2, 2), (-2, 2)], "complex", 2),
    (["x1^2 + x2^2 + x3^2 - 1 = 0"], [(-2, 2)] * 3, "real", 2),
    (["x1^2 + x2^2 + x3^2 - 1 <= 0"], [(-2, 2)] * 3, "real", 3),
    (["x2 - x1^2 = 0"], [(-1, 1), (0, 1)], "real", 1),
    (["x1^2 + x2^2 - 1 = 0"], [(-2, 2), (-2, 2), (0, 1)], "real", 2),
    (["x3 - x1^2 - x2^2 = 0"], [(-1, 1), (-1, 1), (0, 2)], "real", 2),
    (["1/4*x1^2 + x2^2 - 1 = 0"], [(-3, 3), (-2, 2)], "real", 1),
    (["x2 - x1^3 = 0"], [(-1, 1), (-1, 1)], "real", 1),
    (["x1^4 + x2^4 - 1 <= 0"], [(-2, 2), (-2, 2)], "real", 2),
]


@pytest.mark.parametrize("consts,box,kind,dim", MANIFOLDS)
def test_probe_matches_known_dimension(monkeypatch, consts, box, kind, dim):
    """The sampled probe, the fallback when no certificate is found, on the
    simplified cell `_decide_cell` hands it; with the certificates switched
    off the dimension is its answer, flagged heuristic."""
    p = 1 if kind == "complex" else 0
    A = region_of(len(box), p, consts, box, kind=kind)
    simp = region_mod.simplify_cell(A, A.cells[0])
    assert region_mod._probe_cell_dimension(A, simp, ProbeConfig()) == dim
    monkeypatch.setattr(certify, "certify_cell", lambda *args: None)
    d = A.dimension(ProbeConfig())
    assert d.heuristic
    assert d.value == dim


@pytest.mark.parametrize("consts,box,kind,dim", MANIFOLDS)
def test_certified_dimension_matches_known_dimension(consts, box, kind, dim):
    p = 1 if kind == "complex" else 0
    A = region_of(len(box), p, consts, box, kind=kind)
    d = A.dimension(ProbeConfig())
    assert (d.value, d.heuristic) == (dim, False)


def test_probe_repeatability_fixed_seed():
    A = region_of(2, 0, ["x1^2 + x2^2 - 1 = 0"], [(-2, 2), (-2, 2)])
    values = {region_mod._probe_cell_dimension(A, A.cells[0], ProbeConfig(seed=0))
              for _ in range(5)}
    assert values == {1}
    assert A.dimension(ProbeConfig(seed=0)).value == 1


# ---------------------------------------------------------------------------
# exact linear algebra: rank, particular solution and nullspace share one RREF


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    entries=st.lists(_fractions, min_size=16, max_size=16),
    zero_mask=st.lists(st.booleans(), min_size=16, max_size=16),
    y=st.lists(_fractions, min_size=4, max_size=4),
    rhs_shift=st.lists(_fractions, min_size=4, max_size=4),
)
def test_exact_linear_algebra_properties(shape, entries, zero_mask, y, rhs_shift):
    nrows, ncols = shape
    # zeros make rank-deficient matrices common
    rows = [[Fraction(0) if zero_mask[r * 4 + c] else entries[r * 4 + c]
             for c in range(ncols)] for r in range(nrows)]

    def apply(vec):
        return [sum(a * v for a, v in zip(row, vec)) for row in rows]

    rank = linprog.rank_of_rows(rows)
    assert 0 <= rank <= min(nrows, ncols)
    assert linprog.rank_of_rows([list(col) for col in zip(*rows)]) == rank

    basis = linprog.nullspace_basis(rows, ncols)
    assert len(basis) == ncols - rank
    for vec in basis:
        assert apply(vec) == [0] * nrows
    if basis:
        assert linprog.rank_of_rows(basis) == len(basis)

    # a right-hand side in the column space is always solved
    rhs = apply(y[:ncols])
    x0 = linprog.particular_solution(rows, rhs, ncols)
    assert x0 is not None and apply(x0) == rhs

    # an arbitrary one is solved exactly when it does not raise the rank
    rhs = [a + b for a, b in zip(rhs, rhs_shift)]
    x0 = linprog.particular_solution(rows, rhs, ncols)
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    consistent = linprog.rank_of_rows(augmented) == rank
    assert (x0 is not None) == consistent
    if x0 is not None:
        assert apply(x0) == rhs


# ---------------------------------------------------------------------------
# exact layer: witness reuse and face pruning against the one-LP-per-question
# reference


def _fraction_system(system):
    """The integer rows (ints, scale) of a `_linear_system` as Fraction rows
    (a_ub, b_ub, a_eq, b_eq)."""
    out = []
    for rows in system:
        out.append([[Fraction(v, s) for v in a[:-1]] for a, s in rows])
        out.append([Fraction(a[-1], s) for a, s in rows])
    return tuple(out)


def _satisfies(system, x) -> bool:
    """Fraction reference: the point x satisfies every row of the system."""
    a_ub, b_ub, a_eq, b_eq = _fraction_system(system)
    dot = lambda a: sum(u * v for u, v in zip(a, x))  # noqa: E731
    return (all(dot(a) <= b for a, b in zip(a_ub, b_ub))
            and all(dot(a) == b for a, b in zip(a_eq, b_eq)))


def _reference_positive_on_cell(region, cell, var):
    """One min-LP per variable, then the interval pass."""
    nv = cell.nvars_total(region.n)
    obj = [Fraction(0)] * nv
    obj[var] = Fraction(1)
    res = linprog.solve_lp(obj, *_fraction_system(region_mod._linear_system(region, cell)),
                           maximize=False)
    if res.status == linprog.OPTIMAL and res.value > 0:
        return True
    if res.status == linprog.INFEASIBLE:
        return False
    return region_mod._positive_by_intervals(region, cell, var)


def _reference_simplify_cell(region, cell):
    """simplify_cell as one LP per positivity question, no early exit on an
    infeasible round and a final feasibility LP in every case."""
    constraints = list(cell.constraints)
    nv = cell.nvars_total(region.n)
    solved = set()
    for _ in range(max(8, 2 * len(constraints))):
        changed = False
        kept = []
        for c in constraints:
            if c.payload.is_constant():
                v = c.payload.constant_value()
                if (c.equality and v != 0) or (not c.equality and v > 0):
                    return None
                changed = True
                continue
            kept.append(c)
        constraints = kept
        for idx, c in enumerate(constraints):
            aff = c.payload.as_affine() if c.equality else None
            if aff is None:
                continue
            coeffs, offset = aff
            pivot = next((v for v in range(nv) if coeffs[v] != 0 and v not in solved), None)
            if pivot is None:
                continue
            terms = {(0,) * nv: -offset / coeffs[pivot]}
            for v in range(nv):
                if v != pivot and coeffs[v] != 0:
                    terms[tuple(int(u == v) for u in range(nv))] = -coeffs[v] / coeffs[pivot]
            comps = [Polynomial(nv, terms) if v == pivot else Polynomial.var(nv, v)
                     for v in range(nv)]
            new = []
            for j, other in enumerate(constraints):
                if j != idx and other.payload.uses_var(pivot):
                    other = Constraint(other.payload.compose(comps), other.equality)
                    changed = True
                new.append(other)
            constraints = new
            solved.add(pivot)
            if changed:
                break
        probe_cell = Cell(constraints, cell.extra)
        new = []
        for c in constraints:
            if c.payload.is_zero():
                changed = True
                continue
            divisor = [e if e > 0 and _reference_positive_on_cell(region, probe_cell, v) else 0
                       for v, e in enumerate(c.payload.content_monomial())]
            if any(divisor):
                c = Constraint(c.payload.divide_monomial(divisor), c.equality)
                changed = True
            new.append(c)
        constraints = new
        if not changed:
            break
    probe_cell = Cell(constraints, cell.extra)
    a_ub, b_ub, a_eq, b_eq = _fraction_system(region_mod._linear_system(region, probe_cell))
    if (a_ub or a_eq) and linprog.feasible_point(
            linprog.LinearSystem(nv, a_ub, b_ub, a_eq, b_eq)) is None:
        return None
    return probe_cell


def _reference_affine_hull_rows(n, system):
    """One LP per inequality row, on the Fraction rows; each hull row is
    given as the integers `linprog` scales it to."""
    a_ub, b_ub, a_eq, b_eq = _fraction_system(system)
    nv = len(a_ub[0]) if a_ub else (len(a_eq[0]) if a_eq else n)
    if linprog.feasible_point(linprog.LinearSystem(nv, a_ub, b_ub, a_eq, b_eq)) is None:
        return None
    rows = [(list(a), Fraction(b)) for a, b in zip(a_eq, b_eq)]
    for a, b in zip(a_ub, b_ub):
        if all(v == 0 for v in a):
            continue
        res = linprog.solve_lp([-v for v in a], a_ub, b_ub, a_eq, b_eq)
        if res.status == linprog.OPTIMAL and Fraction(b) + res.value == 0:
            rows.append((list(a), Fraction(b)))
    scaled = [linprog._as_integers([*row, b])[0] for row, b in rows]
    return [(ints[:n], ints[-1]) for ints in scaled]


_small = st.integers(-2, 2)
_row = st.tuples(
    st.lists(_small, min_size=3, max_size=3),   # linear coefficients
    st.integers(-2, 2),                          # constant
    st.sampled_from(["<=", "<=", "<=", "="]),
    st.sampled_from([None, None, 0, 1, 2]),     # monomial factor, if any
)


@given(rows=st.lists(_row, min_size=1, max_size=6), boxed=st.booleans(),
       face=st.sampled_from([(), (0,), (1,), (0, 1)]))
@example(rows=[([2, 2, 0], 0, "=", None), ([1, 1, 1], -1, "<=", None)], boxed=False, face=())
def test_exact_layer_matches_one_lp_reference(rows, boxed, face):
    """Random small cells, linear or with one monomial factor, with and
    without equalities and often infeasible: simplify_cell and the affine
    hull give exactly the reference output, the hull also when it starts
    from the feasible points simplify_cell found, of the cell or of its
    simplified form (those points need not satisfy the system).  On a
    linear cell, `_cell_hull`, which runs no positivity pass, gives the
    emptiness, rank and hull (row space, rhs included) of the reference
    simplification followed by the reference hull."""
    names = ["r1", "r2", "x3"]
    texts = []
    for coeffs, const, op, factor in rows:
        expr = " + ".join(f"({a})*{v}" for a, v in zip(coeffs, names)) + f" + ({const})"
        if factor is not None:
            expr = f"{names[factor]}*({expr})"
        texts.append(f"{expr} {op} 0")
    A = region_of(3, 2, texts, [(0, 1), (0, 1), (-1, 1)] if boxed else None)
    sub = A.face_intersection(face)
    cell = sub.cells[0]
    found = []
    got = region_mod.simplify_cell(sub, cell, found)
    want = _reference_simplify_cell(sub, cell)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want
        # a row built by row operations is the one its payload scales to
        assert [c.row for c in got.constraints] == [
            Constraint(c.payload, c.equality).row for c in got.constraints]
    for linear in (cell, got):
        if linear is not None and linear.is_linear():
            system = region_mod._linear_system(sub, linear)
            want_rows = _reference_affine_hull_rows(3, system)
            for witnesses in ((), found):
                assert region_mod._affine_hull_rows(3, system, witnesses) == want_rows
    if cell.is_linear():
        hull = region_mod._cell_hull(sub, cell)
        want_rows = None if want is None else _reference_affine_hull_rows(
            3, region_mod._linear_system(sub, want))
        assert (hull is None) == (want_rows is None)
        if hull is not None:
            got_rows = hull[1]
            assert region_mod._hull_rank(got_rows) == region_mod._hull_rank(want_rows)
            space = [[[*a, b] for a, b in rows] for rows in (got_rows, want_rows)]
            ranks = [linprog.rank_of_rows(m) if m else 0 for m in (*space, space[0] + space[1])]
            assert ranks[0] == ranks[1] == ranks[2]


@given(n=st.integers(2, 4), boxed=st.booleans(),
       w=st.lists(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
                  min_size=4, max_size=4),
       level=st.one_of(st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=8),
                       st.lists(st.booleans(), min_size=4, max_size=4)))
def test_weighted_corner_matches_face_rule(n, boxed, w, level):
    """{0 <= r_i <= 1, sum w_i r_i >= c}: face I is violated exactly when
    sum_{j not in I} w_j > c, and the verdict is exact.  The level is drawn
    either freely or as a sum of weights, where the face rule has ties."""
    w = w[:n]
    c = level if isinstance(level, Fraction) else sum(x for x, b in zip(w, level) if b)
    if c <= 0:
        c = w[0]
    names = [f"r{i + 1}" for i in range(n)]
    cons = [f"-{v} <= 0" for v in names] + [f"{v} - 1 <= 0" for v in names]
    cons.append(" + ".join(f"{x}*{v}" for x, v in zip(w, names)) + f" - {c} >= 0")
    A = region_of(n, n, cons, [(0, 1)] * n if boxed else None)
    v = A.is_allowable()
    want = [I for I in A.faces() if sum(x for j, x in enumerate(w) if j not in I) > c]
    assert [face for face, _, _ in v.violations] == want
    assert not v.heuristic and v.ok == (not want)


def _count_lps(monkeypatch, name="solve_lp"):
    """A list that grows by one on each call of linprog.<name>."""
    calls = []
    original = getattr(linprog, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linprog, name, counted)
    return calls


def _unit_corner(n, c, box=None):
    names = [f"r{i + 1}" for i in range(n)]
    cons = [f"-{v} <= 0" for v in names] + [f"{v} - 1 <= 0" for v in names]
    return region_of(n, n, cons + [" + ".join(names) + f" >= {c}"], box)


def test_unit_corner_lp_counts(monkeypatch):
    """Counts, not timings.  The corner sum r >= 5 is one point, so every
    face above the singletons is pruned (one LP per question took 810 LPs).
    The corner sum r >= 1 is violated on the faces of size 1 and 2 and
    nonempty on all but the last; witnesses settle most of its LPs (one LP
    per question took 342, and 75 before the affine hull started from the
    feasible points simplify_cell had found).  A linear cell's hull runs no
    positivity LPs, and the LPs of one system share one phase 1: the 4-d
    corner took 51 LPs and 51 phase 1s before."""
    calls = _count_lps(monkeypatch)
    phase_1s = _count_lps(monkeypatch, "_phase_1")
    v = _unit_corner(5, 5).is_allowable()
    assert v.ok and not v.heuristic
    assert len(calls) <= 5 and len(phase_1s) <= 5
    calls.clear()
    phase_1s.clear()
    v = _unit_corner(4, 1).is_allowable()
    assert [face for face, _, _ in v.violations] == [
        *combinations(range(4), 1), *combinations(range(4), 2)]
    assert len(calls) <= 46 and len(phase_1s) <= 14


def test_declared_box_adds_no_lps(monkeypatch):
    """Declaring the box [0, 1]^4 that the corner's rows already carry
    leaves the verdict and the LP count of the undeclared corner (46); with
    the box rows appended a second time it took 107 (before the affine hull
    started from simplify_cell's feasible points)."""
    calls = _count_lps(monkeypatch)
    want = _unit_corner(4, 1).is_allowable()
    bare_calls = len(calls)
    calls.clear()
    v = _unit_corner(4, 1, [(0, 1)] * 4).is_allowable()
    assert v.violations == want.violations and v.ok == want.ok and not v.heuristic
    assert len(calls) <= 46 and len(calls) <= bare_calls


def test_unit_corner_builds_no_polynomials(monkeypatch):
    """Linear cells are simplified, witness-checked and hulled on integer
    rows: deciding the 4-d unit corner builds no Polynomial at all (1,291
    when each elimination composed Fraction polynomials)."""
    built = []
    original = Polynomial.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    corner = _unit_corner(4, 1)
    monkeypatch.setattr(Polynomial, "__init__", counted)
    v = corner.is_allowable()
    assert not v.ok and not v.heuristic
    assert len(built) == 0


_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@given(rows=st.lists(st.tuples(st.lists(_fraction, min_size=3, max_size=3), _fraction,
                               st.booleans(), st.booleans()), max_size=6),
       point=st.lists(_fraction, min_size=3, max_size=3))
def test_integer_witness_check_matches_fractions(rows, point):
    """A witness (ints, q) satisfies the integer rows exactly when its point
    ints / q satisfies their Fraction rows; rows drawn `on` pass through the
    point, so ties are common."""
    ub, eq = [], []
    for coeffs, rhs, on, equality in rows:
        if on:
            rhs = sum(a * x for a, x in zip(coeffs, point))
        (eq if equality else ub).append(linprog._as_integers([*coeffs, rhs]))
    system = (ub, eq)
    witness = linprog._as_integers(point)
    assert region_mod._holds(system, witness) == _satisfies(system, point)
    for row in ub + eq:
        slack = row[0][-1] / Fraction(row[1]) - sum(
            a / Fraction(row[1]) * x for a, x in zip(row[0], point))
        assert (region_mod._slack(row[0], witness) > 0) == (slack > 0)
        assert (region_mod._slack(row[0], witness) == 0) == (slack == 0)


def test_box_rows_skip_only_implied_bounds():
    """A box row is dropped when a cell row (an equality counts both ways)
    bounds the variable at least as tightly, and kept otherwise."""
    A = region_of(3, 3, ["2*r1 - 1 <= 0", "-r2 <= 0", "r2 - 2 <= 0", "r3 - 1/4 = 0"],
                  [(0, 1)] * 3)
    a_ub, b_ub, a_eq, b_eq = _fraction_system(region_mod._linear_system(A, A.cells[0]))
    rows = {(tuple(a), b) for a, b in zip(a_ub, b_ub)}
    box = {row for row in rows if sum(map(abs, row[0])) == 1}
    assert box == {((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 1, 0), 2), ((0, 1, 0), 1)}
    assert len(a_ub) == 5 and len(a_eq) == 1


@pytest.mark.parametrize("heuristic", [False, True])
def test_only_exactly_empty_faces_prune(monkeypatch, heuristic):
    """Every face is reported empty; an exact answer prunes all supersets of
    the singletons, a sampled one prunes nothing."""
    seen = []

    def empty(region, cell, cfg):
        seen.append(tuple(i for i in range(region.p)
                          if Constraint(Polynomial.var(region.n, i), equality=True)
                          in cell.constraints))
        return -1, heuristic

    monkeypatch.setattr(region_mod, "_cell_dimension", empty)
    v = load_region("unit_box_p2").is_allowable()
    assert v.ok and v.heuristic == heuristic
    assert seen == ([(0,), (1,), (0, 1)] if heuristic else [(0,), (1,)])
