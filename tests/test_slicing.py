"""Root isolation and fiber slicing."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from helpers import load_region, region_of
from logvol import PolyError, Polynomial, isolate_real_roots, slice_fiber, slice_sup_volume
from logvol.region import Cell, Constraint, Region, RegionError
from logvol.slicing import (_FEASIBLE, _ZERO, FiberKernel, _cell_fiber, _column_roots,
                            join_touching, merge_spans, real_roots)


F = Fraction


# ---------------------------------------------------------------------------
# root isolation


def test_sqrt2_isolated():
    iso = isolate_real_roots([F(-2), F(0), F(1)], tol=F(1, 10**9))
    assert len(iso) == 2
    for (lo, hi, mult), sign in zip(iso.intervals, (-1, 1)):
        assert mult == 1
        assert float(lo) <= sign * 2**0.5 <= float(hi)
        assert hi - lo <= F(1, 10**9)


def test_no_real_roots():
    assert len(isolate_real_roots([F(1), F(0), F(1)])) == 0


def test_multiplicities_from_square_free_tower():
    # (Y - 1)^2 (Y + 2) = Y^3 - 3 Y + 2
    iso = isolate_real_roots([F(2), F(-3), F(0), F(1)])
    roots = [((lo + hi) / 2, m) for lo, hi, m in iso.intervals]
    assert len(roots) == 2
    assert abs(float(roots[0][0]) + 2) < 1e-9 and roots[0][1] == 1
    assert abs(float(roots[1][0]) - 1) < 1e-9 and roots[1][1] == 2


def test_exact_rational_roots_pinned():
    # (Y - 1/2)(Y + 3): roots found exactly when bisection hits them
    coeffs = [F(-3, 2), F(5, 2), F(1)]
    iso = isolate_real_roots(coeffs)
    vals = sorted(float((lo + hi) / 2) for lo, hi, _ in iso.intervals)
    assert abs(vals[0] + 3) < 1e-9 and abs(vals[1] - 0.5) < 1e-9


def test_zero_polynomial_rejected():
    with pytest.raises(PolyError):
        isolate_real_roots([F(0)])


def test_isolation_soundness_on_constructed_corpus():
    """Fifty polynomials with known root multisets, built from factors."""
    rng = np.random.Generator(np.random.Philox(key=3))
    for trial in range(50):
        k = int(rng.integers(1, 4))
        roots = sorted(set(int(v) for v in rng.integers(-5, 6, size=k)))
        mults = [int(rng.integers(1, 3)) for _ in roots]
        coeffs = [F(1)]
        for r, m in zip(roots, mults):
            for _ in range(m):
                # multiply by (Y - r)
                nxt = [F(0)] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    nxt[i + 1] += c
                    nxt[i] -= c * r
                coeffs = nxt
        if rng.random() < 0.5:
            # an irreducible quadratic factor with no real roots
            nxt = [F(0)] * (len(coeffs) + 2)
            for i, c in enumerate(coeffs):
                nxt[i + 2] += c
                nxt[i + 1] += c  # Y^2 + Y + 1
                nxt[i] += c
            coeffs = nxt
        iso = isolate_real_roots(coeffs, tol=F(1, 10**6))
        got = sorted(
            (round(float((lo + hi) / 2)), m) for lo, hi, m in iso.intervals
        )
        assert got == sorted(zip(roots, mults)), f"trial {trial}"


# ---------------------------------------------------------------------------
# fibers


def test_s_half_fiber_at_point_nine():
    fs = slice_fiber(load_region("s_half"), {0: F(9, 10)}, 1)
    assert len(fs.intervals) == 1
    lo, hi = fs.intervals[0]
    assert abs(float(lo) - 0.1) < 1e-12 and float(hi) == 0.5


def test_disk_fiber_is_diameter():
    disk = load_region("disk_c1")
    fs = slice_fiber(disk, {0: F(0)}, 1)
    assert len(fs.intervals) == 1
    lo, hi = fs.intervals[0]
    assert abs(float(lo) + 1) < 1e-9 and abs(float(hi) - 1) < 1e-9


def test_s_half_fiber_empty():
    fs = slice_fiber(load_region("s_half"), {0: F(3, 10)}, 1)
    assert fs.intervals == []


def test_equality_fiber_is_points():
    A = region_of(2, 2, ["r2^2 - r1 = 0"], [(0, 1), (-1, 1)])
    for mode in ("exact", "float"):
        fs = slice_fiber(A, {0: F(1, 4)}, 1, mode=mode)
        assert len(fs.intervals) == 2
        for lo, hi in fs.intervals:
            assert lo == hi
        assert sorted(abs(float(lo)) for lo, _ in fs.intervals) == pytest.approx([0.5, 0.5])
        # tangent line: the double root is one point
        fs = slice_fiber(A, {0: F(0)}, 1, mode=mode)
        assert fs.intervals == [(0, 0)]


def test_degenerate_fiber_flagged():
    A = region_of(2, 2, ["r1 = 0"], [(0, 1), (0, 1)])
    fs = slice_fiber(A, {0: F(0)}, 1)
    assert fs.degenerate
    assert fs.intervals == [(0, 1)]


def test_unconstrained_cell_is_the_whole_box():
    """A cell without constraints (substitute_coordinate leaves one when
    every row was about the fixed coordinate) is the whole box, as for
    membership: both slicing modes give the box, flagged degenerate, and
    dr1/r1 ^ dx2 over [1/2, 1] x [0, 1] integrates to ln 2."""
    import math
    from logvol import LogForm, integrate_log_form

    A = region_of(2, 1, [], [(F(1, 2), 1), (0, 1)])
    assert A.members(np.array([[0.75, 0.5]])).all()
    for mode in ("exact", "float"):
        fs = slice_fiber(A, {0: F(3, 4)}, 1, mode=mode)
        assert fs.intervals == [(0, 1)] and fs.degenerate
    form = LogForm.dlog(2, 1, 0).wedge(LogForm.dx(2, 1, 1))
    assert integrate_log_form(A, form).value == pytest.approx(math.log(2), abs=1e-9)


def test_existential_cells_rejected():
    from logvol.region import Cell, Constraint, ExtraVar, Region
    from logvol import Polynomial

    cell = Cell([Constraint(Polynomial.var(3, 2) - 1)], (ExtraVar("aux", 0.0, 1.0),))
    A = Region(2, 1, [cell], "real", [(0, 1), (0, 1)])
    with pytest.raises(RegionError):
        slice_fiber(A, {0: F(1, 2)}, 1)


@pytest.mark.parametrize("axis", [-1, 2, 5])
def test_axis_out_of_range_is_rejected(axis):
    """An axis outside 0..n-1 is an error in both modes and for the kernel;
    a negative one is not read from the end."""
    A = load_region("triangle_p2")
    for mode in ("exact", "float"):
        with pytest.raises(RegionError, match="axis"):
            slice_fiber(A, {0: F(1, 2)}, axis, mode=mode)
    with pytest.raises(RegionError, match="axis"):
        FiberKernel(A, axis)


# ---------------------------------------------------------------------------
# the span table


def _merge_reference(pieces: list) -> list:
    """Sort the (lo, hi) pieces and merge the overlapping or touching ones,
    left to right: the per-fiber merge of the list-based fiber format."""
    merged = []
    for lo, hi in sorted(pieces):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _fibers(table, k: int) -> list:
    """The span table (a, b, owner, ...) read as one list of (lo, hi) per
    fiber, float for float; owners must be nondecreasing."""
    a, b, owner = table[:3]
    assert (np.diff(owner) >= 0).all()
    fibers = [[] for _ in range(k)]
    for lo, hi, j in zip(a.tolist(), b.tolist(), owner.tolist()):
        fibers[j].append((lo, hi))
    return fibers


_ENDS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 2.0]),
                  st.floats(-4, 4, allow_nan=False))


@st.composite
def _owned_pieces(draw):
    """(owners, pieces): up to 24 pieces (lo, hi, owner), lo <= hi, over
    1-5 owners, some of which get none; ends drawn from a small set, so
    that pieces touch, nest, repeat and shrink to points (r, r), with both
    signs of zero; as Fractions when `exact`."""
    owners = draw(st.integers(1, 5))
    exact = draw(st.booleans())
    pieces = []
    for _ in range(draw(st.integers(0, 24))):
        lo, hi = sorted(draw(st.lists(_ENDS, min_size=2, max_size=2)))
        if draw(st.booleans()):
            hi = lo
        if exact:
            lo, hi = F(lo), F(hi)
        pieces.append((lo, hi, draw(st.integers(0, owners - 1))))
    return owners, exact, pieces


@given(case=_owned_pieces())
@example(case=(3, False, [(0.0, 1.0, 2), (1.0, 2.0, 2), (0.5, 0.5, 2), (-0.0, 0.0, 0),
                          (0.0, 0.0, 0), (3.0, 3.0, 0), (-1.0, 4.0, 0), (0.0, 0.5, 0)]))
@example(case=(2, True, [(F(1, 3), F(1, 2), 1), (F(1, 2), F(1, 2), 1), (F(0), F(1, 3), 1),
                         (F(2), F(2), 1)]))
def test_merge_spans_matches_the_sorted_merge(case):
    """`merge_spans` gives, owner by owner, the merged pieces of a sorted
    left-to-right merge: touching pieces join, nested ones vanish into
    their hosts, a point (r, r) stays alone unless a piece reaches r, and
    an owner without pieces has no spans.  Fractions stay Fractions."""
    owners, exact, pieces = case
    dtype = object if exact else float
    a = np.array([lo for lo, _, _ in pieces], dtype=dtype)
    b = np.array([hi for _, hi, _ in pieces], dtype=dtype)
    owner = np.array([j for _, _, j in pieces], dtype=np.int64)
    table = merge_spans(a, b, owner)
    assert all(type(x) is F for x in [*table[0], *table[1]]) if exact else table[0].dtype == float
    want = [_merge_reference([(lo, hi) for lo, hi, j in pieces if j == o]) for o in range(owners)]
    assert _fibers(table, owners) == want


# ---------------------------------------------------------------------------
# float kernel against exact slicing


def _np_real_roots(coeffs):
    scale = max(1.0, max(abs(c) for c in coeffs))
    return sorted(r.real for r in np.roots(coeffs[::-1]) if abs(r.imag) < 1e-9 * scale)


_ROOT_CASES = [
    [-1.0, 0.0, 1.0],                        # +-1
    [1.0 + 1e-7, -(2.0 + 1e-7), 1.0],        # near-double root at 1
    [-1.0, 1.0, 1e-14],                      # tiny leading coefficient
    [1e-10 + 1e-21, -2e-5, 1.0],             # complex pair, |imag| ~ 3e-11
    [1e-10 + 1e-16, -2e-5, 1.0],             # complex pair, |imag| ~ 1e-8
    [0.0, 3.0, 1.0],                         # root at 0
    [0.0, 0.0, 2.0],                         # double root at 0
    [-6.0, 11.0, -6.0, 1.0],                 # cubic goes through np.roots
]


@pytest.mark.parametrize("coeffs, count", list(zip(_ROOT_CASES, [2, 2, 2, 2, 0, 2, 2, 3])))
def test_real_roots_match_np_roots(coeffs, count):
    """Each case alone, a 1-d array, and all of them as the columns of one
    zero-padded array give the roots of np.roots, nan after them."""
    width = 4
    batch = real_roots(np.array([c + [0.0] * (width - len(c)) for c in _ROOT_CASES]).T)
    column = _ROOT_CASES.index(coeffs)
    alone = real_roots(np.array(coeffs))
    assert alone.shape == (len(coeffs) - 1,) and batch.shape == (width - 1, len(_ROOT_CASES))
    want = _np_real_roots(coeffs)
    for got in (alone, batch[:, column]):
        assert np.isnan(got[count:]).all()
        got = sorted(got[:count])
        assert len(got) == len(want) == count
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-7, abs=1e-12)


def test_real_roots_degenerate_degrees():
    assert real_roots([]).shape == (0,) and real_roots([2.0]).shape == (0,)
    got = real_roots([1.0, 2.0, 1e-301])  # negligible top coefficient dropped
    assert got[0] == -0.5 and np.isnan(got[1])
    assert _column_roots([1.0, 2.0, 1e-301]) == [-0.5] and _column_roots([2.0]) == []
    # one array, column by column: constant, linear, quadratic, vanishing
    got = real_roots(np.array([[2.0, 1.0, -1.0, 1e-301], [0.0, 2.0, 0.0, 0.0],
                               [0.0, 1e-301, 1.0, 0.0]]))
    assert got.shape == (2, 4) and np.isnan(got[:, [0, 3]]).all()
    assert got[0, 1] == -0.5 and np.isnan(got[1, 1]) and sorted(got[:, 2]) == [-1.0, 1.0]


def _bits(xs) -> list:
    return [float(x).hex() for x in xs]


_COEFF = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-301, -1e-301, 1e-300, 1.0, -1.0, 2.0, 0.25]),
)


@given(columns=st.lists(st.tuples(_COEFF, _COEFF, _COEFF), min_size=1, max_size=12))
@example(columns=[(1.0, 2.0, 1e-301), (0.0, 0.0, 2.0), (1.0, 2.0, 1.0), (1e-10 + 1e-21, -2e-5, 1.0),
                  (1e-10 + 1e-16, -2e-5, 1.0), (-0.0, 0.0, -3.0), (5.0, 1e-301, 1e-301),
                  (-1.0, 0.0, 1.0), (0.0, 3.0, 1.0)])
def test_real_roots_of_a_column_do_not_depend_on_the_batch(columns):
    """A column solved alone gives, bit for bit, the roots it gets inside a
    batch of degree-2 columns: a top coefficient below 1e-300 (the column
    is linear), a complex pair inside the imaginary window (a double root),
    b = c0 = 0 and a constant column; a quotient that overflows is inf in
    both."""
    roots = real_roots(np.array(columns, dtype=float).T)
    assert roots.shape == (2, len(columns))
    for column, got in zip(columns, roots.T):
        assert _bits(got) == _bits(real_roots(np.array(column)))


def _np_roots_column(column) -> list:
    """The real roots of one ascending column by its own np.roots call,
    ascending: the per-column rule the batched companion matrices keep."""
    c = list(column)
    while len(c) > 1 and abs(c[-1]) < 1e-300:
        c.pop()
    window = 1e-9 * max(1.0, max(map(abs, c)))
    return sorted(r.real for r in np.roots(c[::-1]).tolist() if abs(r.imag) < window)


@given(columns=st.lists(st.lists(_COEFF, min_size=6, max_size=6), min_size=1, max_size=12),
       width=st.integers(4, 6))
@example(columns=[[0.0, 0.0, -1.0, 0.0, 1.0, 0.0], [-6.0, 11.0, -6.0, 1.0, 0.0, 0.0],
                  [0.0, -0.0, 0.0, 2.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 1.0, 1e-301],
                  [2.0, -3.0, 0.0, 1.0, 0.0, 0.0]], width=6)
def test_high_degree_roots_match_np_roots_bit_for_bit(columns, width):
    """Columns of degree above 2, some with roots at 0 (zero low
    coefficients), solved together by stacked companion matrices, give bit
    for bit the roots of one np.roots call per column, nan after them."""
    coef = np.array(columns, dtype=float).T[:width]
    roots = real_roots(coef)
    for column, got in zip(coef.T, roots.T):
        if np.any(np.abs(column[3:]) >= 1e-300):
            want = _np_roots_column(column)
            assert _bits(got[:len(want)]) == _bits(want) and np.isnan(got[len(want):]).all()


@st.composite
def _quadratic_cells(draw):
    """(region, points): one cell of 1-4 rows a2 r2^2 + a1 r2 + a0 <= 0 whose
    coefficients are affine in r1, some of them vanishing at r1 = 0, and a
    panel of base points that includes r1 = 0, where those rows are
    inactive on the line."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 2))
        at_zero = draw(st.booleans())
        terms = {}
        for k in range(degree + 1):
            const, slope = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            if at_zero and const:
                terms[(0, k)] = F(const, 2)
            if slope:
                terms[(1, k)] = F(slope, 3)
        if not any(e[1] == degree for e in terms):
            terms[(1, degree)] = F(1)
        rows.append(Polynomial(2, terms))
    region = Region(2, 2, [Cell([Constraint(row) for row in rows])], "real", [(-1, 1), (-1, 1)])
    xs = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=14))
    points = np.zeros((len(xs) + 1, 2))
    points[1:, 0] = xs
    return region, points


@given(case=_quadratic_cells())
def test_inequality_kernel_matches_the_scalar_cell_rule(case):
    """For a cell of inequalities of degree <= 2, the batched kernel (roots
    of all rows and points from one `real_roots` call) gives every point of
    a panel the same float intervals and degenerate flag as `_cell_fiber`
    with `_column_roots`, one point at a time, including points where some
    rows vanish."""
    region, points = case
    kernel = FiberKernel(region, 1)
    table = kernel.intervals_many(points)
    (restriction, _), = kernel.cells
    coef = restriction.table(points)
    for j, (intervals, flag) in enumerate(zip(_fibers(table, len(points)), table[3].tolist())):
        restricted = [(coef[i, :w, j].tolist(), False) for i, w in enumerate(restriction.widths)]
        pieces = []
        want_flag = _cell_fiber(restricted, -1.0, 1.0, _column_roots, _ZERO, _FEASIBLE, pieces)
        assert flag == want_flag
        # equal floats; a root at 0 may carry either sign of zero
        assert intervals == _merge_reference(pieces)


@st.composite
def _touching_cells(draw):
    """(region, points): a `_quadratic_cells` case plus rows that vanish at
    r1 = 0: -r1 (r2 - t)^2 <= 0 splits the line at t into pieces that touch
    (r1 > 0) or leaves no piece (r1 < 0), and r1 (r1 - u) <= 0 leaves no
    piece outside [0, u].  Without the quadratic rows the line r1 = 0 is the
    whole box."""
    region, points = draw(_quadratic_cells())
    rows = [c.payload for c in region.cells[0].constraints] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0 if rows else 1, 3))):
        t = F(draw(st.integers(-4, 4)), 4)
        if draw(st.booleans()):
            rows.append(Polynomial(2, {(1, 2): F(-1), (1, 1): 2 * t, (1, 0): -t * t}))
        else:
            rows.append(Polynomial(2, {(2, 0): F(1), (1, 0): -t}))
    return Region(2, 2, [Cell([Constraint(row) for row in rows])], "real", [(-1, 1), (-1, 1)]), points


@given(case=_touching_cells())
def test_join_touching_matches_the_sweep(case):
    """For the kept pieces of one cell of inequalities, `join_touching`
    gives the span table of the `merge_spans` sweep, float for float, and
    the kernel returns it: touching pieces join, owners without pieces
    have no spans, a whole-box line keeps the box."""
    region, points = case
    kernel = FiberKernel(region, 1)
    (restriction, _), = kernel.cells
    a, b, owner, _ = kernel._inequality_pieces(restriction.table(points), restriction)
    got, want = join_touching(a, b, owner), merge_spans(a, b, owner)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()
    # the same sign of every zero
    assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
    for g, w in zip(kernel.intervals_many(points), got):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()


def test_join_touching_joins_the_pieces_of_a_double_root():
    """-r1 (r2 - 1/2)^2 <= 0 cuts the line at r1 = 1/2 into two pieces that
    touch at 1/2 and join into the box; at r1 = 0 the row vanishes (whole
    box), at r1 = -1/2 only the point 1/2 holds and no piece is kept."""
    row = Polynomial(2, {(1, 2): F(-1), (1, 1): F(1), (1, 0): F(-1, 4)})
    region = Region(2, 2, [Cell([Constraint(row)])], "real", [(-1, 1), (-1, 1)])
    points = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0]])
    kernel = FiberKernel(region, 1)
    (restriction, _), = kernel.cells
    a, b, owner, whole = kernel._inequality_pieces(restriction.table(points), restriction)
    assert list(zip(a.tolist(), b.tolist(), owner.tolist())) == [
        (-1.0, 1.0, 0), (-1.0, 0.5, 1), (0.5, 1.0, 1)]
    assert whole.tolist() == [True, False, False]
    a, b, owner = join_touching(a, b, owner)
    assert list(zip(a.tolist(), b.tolist(), owner.tolist())) == [(-1.0, 1.0, 0), (-1.0, 1.0, 1)]


def test_fiber_kernel_is_independent_of_the_batch():
    """A fiber depends on its own base point alone: solving two panels in
    one call gives each the fibers of its own call, float for float: the
    joint span table is the two panels' tables, one after the other, with
    the owners of the second offset by the size of the first."""
    region = load_region("nested_annulus_c2")
    rng = np.random.Generator(np.random.Philox(key=3))
    panels = [rng.uniform(-1, 1, size=(15, 4)), rng.uniform(-1, 1, size=(7, 4))]
    kernel = FiberKernel(region, 3)
    joint = kernel.intervals_many(np.concatenate(panels))
    (a1, b1, owner1, flags1), (a2, b2, owner2, flags2) = (kernel.intervals_many(panel)
                                                          for panel in panels)
    want = (np.concatenate([a1, a2]), np.concatenate([b1, b2]),
            np.concatenate([owner1, owner2 + len(panels[0])]), np.concatenate([flags1, flags2]))
    assert len(a1) and len(a2)
    for got, expect in zip(joint, want):
        assert got.dtype == expect.dtype and got.tolist() == expect.tolist()


_FLOAT_VS_EXACT = ["s_half", "disk_c1", "quadrant_disk_c1", "triangle_p2", "nested_annulus_c2",
                   "cubic", "vanishing"]


def _float_vs_exact_region(name):
    if name == "cubic":
        # degree 3 in r2: up to three pieces per fiber, roots through np.roots
        return region_of(2, 2, ["r2^3 - 3/2*r2^2 + 11/16*r2 - 3/32 - 1/100*r1 <= 0", "-r1 <= 0"],
                         [(0, 1), (0, 1)])
    if name == "vanishing":
        # every constraint vanishes on the line r1 = 0: the whole box, degenerate
        return region_of(2, 2, ["r1*r2 - r1 <= 0", "r1^2*r2 - r1^2 <= 0"], [(0, 1), (0, 2)])
    return load_region(name)


@given(
    name=st.sampled_from(_FLOAT_VS_EXACT),
    axis_pick=st.integers(0, 3),
    grid=st.lists(st.integers(0, 96), min_size=3, max_size=3),
    panel=st.lists(st.integers(0, 96), min_size=15, max_size=15),
)
@example(name="cubic", axis_pick=1, grid=[0, 0, 0], panel=list(range(0, 96, 6))[:15])
@example(name="vanishing", axis_pick=1, grid=[0, 0, 0], panel=[0, 0, 48, 96, 0, *range(10)])
@example(name="s_half", axis_pick=1, grid=[0, 0, 0], panel=list(range(20, 95, 5)))
def test_float_fiber_matches_exact(name, axis_pick, grid, panel):
    """At rational base points the float kernel reproduces exact slicing to
    1e-9 of the axis extent, with the same degenerate flag, for a whole
    panel of points solved in one call; `slice_fiber(mode="float")` gives
    the same as the batch."""
    A = _float_vs_exact_region(name)
    box = A.bounding_box()
    axis = axis_pick % A.n
    others = [v for v in range(A.n) if v != axis]

    def at(v, k):
        return F(box[v][0]) + (F(box[v][1]) - F(box[v][0])) * F(k, 96)

    bases = [{v: at(v, k) for v, k in zip(others, [step, *grid[1:]])} for step in panel]
    points = np.zeros((len(bases), A.n))
    for row, base in zip(points, bases):
        for v, x in base.items():
            row[v] = float(x)
    table = FiberKernel(A, axis).intervals_many(points)
    fibers, degenerate = _fibers(table, len(points)), table[3].tolist()
    tol = 1e-9 * (box[axis][1] - box[axis][0])
    for base, intervals, flag in zip(bases, fibers, degenerate):
        exact = slice_fiber(A, base, axis, mode="exact")
        assert flag == exact.degenerate
        assert len(intervals) == len(exact.intervals)
        for (flo, fhi), (elo, ehi) in zip(intervals, exact.intervals):
            assert abs(flo - float(elo)) <= tol and abs(fhi - float(ehi)) <= tol
        single = slice_fiber(A, base, axis, mode="float")
        assert (single.intervals, single.degenerate) == (intervals, flag)
    if (name, axis, panel) == ("s_half", 1, list(range(20, 95, 5))):
        assert [] in fibers and any(fibers)  # r1 < 1/2 is empty, r1 > 1/2 is not
    if (name, axis, panel[:4]) == ("vanishing", 1, [0, 0, 48, 96]):
        assert degenerate[:4] == [True, True, False, False]


# ---------------------------------------------------------------------------
# the batched kernel against the former interval-arithmetic fast path


def _interval_arithmetic_fiber(region, axis, point):
    """The float fiber of all-linear cells by interval arithmetic, as the
    quadrature computed it before the kernel served every cell: each row
    a.x <= rhs clips [lo, hi] at rem / a_axis; a row without the axis empties
    the cell when it fails by more than 1e-9 (1 + |rhs|); an equality row
    through the axis gives a point fiber, which has measure zero and is
    dropped."""
    lo_box, hi_box = region.bounding_box()[axis]
    out = []
    for cell in region.cells:
        lo, hi = float(lo_box), float(hi_box)
        empty = False
        for c in cell.constraints:
            coeffs, offset = c.payload.as_affine()
            a = np.array([float(v) for v in coeffs])
            rhs = float(-offset)
            ci = a[axis]
            rem = rhs - (float(a @ point) - ci * point[axis])
            tol = 1e-9 * (1.0 + abs(rhs))
            if c.equality:
                if abs(ci) > 1e-12 or abs(rem) > tol:
                    empty = True
                    break
            elif ci > 1e-12:
                hi = min(hi, rem / ci)
            elif ci < -1e-12:
                lo = max(lo, rem / ci)
            elif rem < -tol:
                empty = True
                break
            if hi <= lo:
                empty = True
                break
        if not empty and hi > lo:
            out.append((lo, hi))
    return _merge_reference(out)


def _clear_of_boundaries(region, axis, point) -> bool:
    """Every row's payload is more than 1e-9 (1 + |rhs|) away from zero at
    the ends of every piece on the line, other than at the row's own root
    (twice that, so that it also holds at the midpoints).  There the former
    relative tolerance and the kernel's absolute one agree."""
    lo_box, hi_box = region.bounding_box()[axis]
    for cell in region.cells:
        rows = []
        for c in cell.constraints:
            coeffs, offset = c.payload.as_affine()
            a = np.array([float(v) for v in coeffs])
            rhs = float(-offset)
            rest = float(a @ point) - a[axis] * point[axis]
            rows.append((a[axis], rest - rhs, rhs))
        cuts = [float(lo_box), float(hi_box)]
        cuts += [-c0 / ci for ci, c0, _ in rows if ci != 0 and lo_box < -c0 / ci < hi_box]
        for ci, c0, rhs in rows:
            own = -c0 / ci if ci != 0 else None
            for x in cuts:
                if x != own and abs(ci * x + c0) <= 2e-9 * (1.0 + abs(rhs)):
                    return False
    return True


_SCALES = [F(1, 1000), F(1, 10), F(1), F(10), F(1000)]


@st.composite
def _linear_regions(draw):
    """(region, axis): 1-2 cells of 1-4 random inequalities in 2-3
    variables, coefficients and extent at scales 1e-3 ... 1e3, some rows
    without the axis; the box is declared or comes from bounding rows."""
    n = draw(st.integers(2, 3))
    axis = draw(st.integers(0, n - 1))
    extent = draw(st.sampled_from(_SCALES))
    declared = draw(st.booleans())
    cells = []
    for _ in range(draw(st.integers(1, 2))):
        rows = []
        if not declared:
            for v in range(n):
                unit = tuple(int(i == v) for i in range(n))
                rows.append(Polynomial(n, {unit: F(1), (0,) * n: -extent}))
                rows.append(Polynomial(n, {unit: F(-1)}))
        for _ in range(draw(st.integers(1, 4))):
            weight = draw(st.sampled_from(_SCALES))
            a = [F(draw(st.integers(-4, 4)), draw(st.integers(1, 3))) for _ in range(n)]
            if draw(st.booleans()):
                a[axis] = F(0)
            if not any(a):
                a[(axis + 1) % n] = F(1)
            rhs = F(draw(st.integers(-6, 6)), draw(st.integers(1, 3))) * extent
            terms = {tuple(int(i == v) for i in range(n)): weight * c for v, c in enumerate(a) if c}
            terms[(0,) * n] = -weight * rhs
            rows.append(Polynomial(n, terms))
        cells.append(Cell([Constraint(row) for row in rows]))
    box = [(0, extent)] * n if declared else None
    return Region(n, n, cells, "real", box), axis


@given(case=_linear_regions(), seed=st.integers(0, 2**32 - 1))
def test_linear_cells_match_interval_arithmetic(case, seed):
    """On all-linear cells the batched kernel gives, for every point of a
    15-point panel clear of the row boundaries, the intervals of the former
    interval-arithmetic fast path to 1e-12 of the axis extent."""
    region, axis = case
    box = region.bounding_box()
    rng = np.random.Generator(np.random.Philox(key=seed))
    points = np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(15)])
    points[:, axis] = 0.0
    table = FiberKernel(region, axis).intervals_many(points)
    fibers, degenerate = _fibers(table, len(points)), table[3].tolist()
    tol = 1e-12 * (box[axis][1] - box[axis][0])
    for point, intervals, flag in zip(points, fibers, degenerate):
        assert not flag
        if not _clear_of_boundaries(region, axis, point):
            continue
        want = _interval_arithmetic_fiber(region, axis, point)
        assert len(intervals) == len(want)
        for (lo, hi), (wlo, whi) in zip(intervals, want):
            assert abs(lo - wlo) <= tol and abs(hi - whi) <= tol


# ---------------------------------------------------------------------------
# sup volume


def test_sup_volume_s_half():
    rep = slice_sup_volume(load_region("s_half"), 1, {0: 0.9})
    assert rep.value == pytest.approx(0.4, abs=1e-9)
    assert rep.samples == 1  # no free base coordinates


def test_sup_volume_box3():
    A = region_of(
        3, 1,
        ["-r1 <= 0", "r1 - 1 <= 0", "-x2 <= 0", "x2 - 1 <= 0", "-x3 <= 0", "x3 - 1 <= 0"],
        [(0, 1)] * 3,
    )
    rep = slice_sup_volume(A, 2, {0: 0.3}, samples=32)
    assert rep.value == pytest.approx(1.0, abs=1e-9)
    assert rep.samples == 32


def test_sup_volume_draws_the_base_points_of_a_per_point_loop():
    """The base points come from one draw of shape (samples, free
    coordinates), which gives the floats of a loop over the points and,
    within a point, over its free coordinates: the supremum equals that
    of the loop's points exactly, here where every fiber length differs."""
    A = region_of(3, 1, ["-r1 <= 0", "r1 - 1 <= 0", "-x3 <= 0", "x3 - r1*x2 <= 0"],
                  [(0, 1), (0, 1), (0, 1)])
    rng = np.random.Generator(np.random.Philox(key=5))
    points = np.zeros((32, 3))
    for point in points:
        for v in (0, 1):
            point[v] = rng.uniform(0.0, 1.0)
    fibers = _fibers(FiberKernel(A, 2).intervals_many(points), len(points))
    want = max(sum(hi - lo for lo, hi in intervals) for intervals in fibers)
    rep = slice_sup_volume(A, 2, {}, samples=32, seed=5)
    assert rep.value == want and rep.samples == 32


def test_sup_volume_s_one_closed_form():
    A = load_region("s_one")
    for t in (0.25, 0.5, 0.75):
        rep = slice_sup_volume(A, 1, {0: t})
        assert rep.value == pytest.approx(t, abs=1e-9)


# ---------------------------------------------------------------------------
# slice-gap and additivity properties


def test_fiber_length_shrinks_where_the_fiber_degenerates():
    """For S_half the r2-fiber is [1 - r1, 1/2]; its length decreases
    monotonically to zero as the base approaches the degeneration point
    r1 = 1/2 (the slice-gap shrink instantiated on this example)."""
    A = load_region("s_half")
    lengths = []
    for r1 in [F(9, 10), F(8, 10), F(7, 10), F(6, 10), F(51, 100)]:
        fs = slice_fiber(A, {0: r1}, 1)
        lengths.append(fs.total_length())
    assert all(a > b for a, b in zip(lengths, lengths[1:]))
    assert lengths[-1] == pytest.approx(0.01, abs=1e-9)
    fs = slice_fiber(A, {0: F(1, 2)}, 1)
    assert fs.total_length() == pytest.approx(0.0, abs=1e-12)


def test_fiber_additivity_against_fine_sampling():
    """Total fiber length equals a fine uniform-sampling measure estimate."""
    regions = [
        load_region("s_half"),
        load_region("disk_c1"),
        region_of(2, 2, ["r2^2 - r1 <= 0"], [(0, 1), (-1, 1)]),
    ]
    bases = [F(9, 10), F(1, 5), F(1, 2)]
    for A, base in zip(regions, bases):
        fs = slice_fiber(A, {0: base}, 1)
        lo, hi = A.bounding_box()[1]
        grid = np.linspace(lo, hi, 20001)
        pts = np.zeros((len(grid), 2))
        pts[:, 0] = float(base)
        pts[:, 1] = grid
        frac = A.members(pts).mean()
        oracle = frac * (hi - lo)
        assert fs.total_length() == pytest.approx(oracle, rel=2e-3, abs=2e-3)
