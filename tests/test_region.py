"""Region model, dimension, allowability and admissibility checkers."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import box_region, load_region, region_of
from logvol import ProbeConfig, Region, RegionError, parse_region
from logvol import linprog
from logvol.region import parse_constraint


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


def test_dimension_circle_is_heuristic():
    A = region_of(2, 1, ["zr1^2 + zi1^2 - 1 = 0"], [(-2, 2), (-2, 2)], kind="complex")
    d = A.dimension()
    assert d.value == 1 and d.heuristic


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


def test_divisor_locus_in_d_detection():
    # disk x {point z2 = 1}: every divisor intersection sits inside D
    A = region_of(
        4, 2,
        ["zr1^2 + zi1^2 - 1 <= 0", "zr2 - 1 = 0", "zi2 = 0"],
        [(-1, 1), (-1, 1), (0, 2), (-1, 1)],
        kind="complex",
    )
    assert A.meets_divisors_only_in_d()
    assert not load_region("disk_times_circle_c2").meets_divisors_only_in_d()


# ---------------------------------------------------------------------------
# fiber probe


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
def test_probe_matches_known_dimension(consts, box, kind, dim):
    p = 1 if kind == "complex" else 0
    A = region_of(len(box), p, consts, box, kind=kind)
    d = A.dimension(ProbeConfig())
    assert d.heuristic
    assert d.value == dim


def test_probe_repeatability_fixed_seed():
    A = region_of(2, 0, ["x1^2 + x2^2 - 1 = 0"], [(-2, 2), (-2, 2)])
    values = {A.dimension(ProbeConfig(seed=0)).value for _ in range(5)}
    assert values == {1}


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
