"""Exact polynomial and log-form algebra."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from logvol import (
    LogForm,
    MonomialMap,
    PolyError,
    PolyParseError,
    Polynomial,
    newton_exponents,
    parse_poly,
)
from logvol.polyform import power_table
from logvol.slicing import AxisRestriction

R2 = ["r1", "r2"]


# ---------------------------------------------------------------------------
# parsing and evaluation


def test_parse_sum():
    f = parse_poly("r1 + r2", R2)
    assert f.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


def test_parse_zero_normalizes():
    assert parse_poly("0*r1", R2).terms == {}


def test_parse_square_expansion():
    f = parse_poly("(r1 - 1)^2", R2)
    assert f.terms == {(2, 0): Fraction(1), (1, 0): Fraction(-2), (0, 0): Fraction(1)}


def test_parse_rational_literal():
    f = parse_poly("3/4*r1", R2)
    assert f.terms == {(1, 0): Fraction(3, 4)}


@pytest.mark.parametrize(
    "bad,needle",
    [
        ("r1 + + r2", "expected"),
        ("r3", "unknown variable"),
        ("r1^-2", "negative exponent"),
        ("r1 r2", "trailing"),
    ],
)
def test_parse_errors_carry_position(bad, needle):
    with pytest.raises(PolyParseError) as err:
        parse_poly(bad, R2)
    assert needle in str(err.value)
    assert "position" in str(err.value)


def test_eval_examples():
    assert parse_poly("r1 + r2", R2).eval([1, 2]) == 3
    assert parse_poly("(r1 - 1)^2", R2).eval([1, 5]) == 0
    assert parse_poly("r1*r2^2", R2).eval([Fraction(1, 2), 3]) == Fraction(9, 2)


def test_eval_dimension_mismatch():
    with pytest.raises(PolyError):
        parse_poly("r1", R2).eval([1])


def test_eval_many_is_independent_of_the_batch():
    """A point's float value does not depend on the batch around it: a
    9-term polynomial on every prefix of a 64-point batch gives the big
    batch's rows bit for bit (a BLAS product sums in a batch-dependent
    order and does not)."""
    f = parse_poly("r1^3*r2 - 2/3*r1*r2^2 + 5/7*r2^4 - r1^2 + 3*r1*r2 - 1/9*r2"
                   " + r1^4*r2^2 - 7/11*r1^2*r2^3 + 13/17", R2)
    assert len(f.terms) == 9
    pts = np.random.Generator(np.random.Philox(key=3)).uniform(-2, 2, size=(64, 2))
    whole = f.eval_many(pts)
    assert np.allclose(whole, [f.eval(pt) for pt in pts.tolist()], rtol=1e-13, atol=1e-13)
    for k in range(1, 64):
        assert np.array_equal(f.eval_many(pts[:k]), whole[:k]), k


def _power_table_reference(points, exps):
    """The broadcast power table: a float power per (point, term, variable)."""
    return (points[:, None, :] ** exps).prod(axis=2)


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


_EXPONENT_ROWS = {
    "zeros": [[0, 0, 0]],
    "zero_one": [[0, 0, 1], [1, 0, 0], [1, 1, 0], [1, 1, 1]],
    "two": [[2, 0, 0], [0, 2, 1], [1, 2, 2], [2, 2, 2]],
    "three_up": [[3, 0, 0], [0, 5, 1], [4, 3, 2], [7, 0, 3], [0, 0, 12]],
    "mixed": [[0, 0, 0], [1, 0, 2], [0, 1, 0], [3, 1, 0], [2, 0, 2], [0, 0, 0]],
    # rows sharing the powers x0^2, x2^3 and x1^4, each computed once
    "shared": [[2, 0, 3], [2, 1, 0], [0, 0, 3], [2, 4, 3], [0, 4, 0], [1, 4, 2]],
    "empty": [],
}


def _spread_points(k, seed):
    """k points in 3 variables, magnitudes over 1e-3 ... 1e3 with both signs,
    and every seventh entry one of +-0.0, nan, +-inf."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = rng.choice([-1.0, 1.0], size=(k, 3)) * 10.0 ** rng.uniform(-3, 3, size=(k, 3))
    flat = pts.reshape(-1)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf]
    for i in range(0, len(flat), 7):
        flat[i] = specials[(i // 7) % len(specials)]
    return pts


@pytest.mark.parametrize("k", [0, 1, 7, 500])
@pytest.mark.parametrize("rows", list(_EXPONENT_ROWS))
def test_power_table_is_the_broadcast_product(rows, k):
    """`power_table` builds each monomial from the variables it uses and is
    bit for bit the broadcast product, nan and inf included, for exponent
    rows of zeros, of 0/1, with 2, with 3 and above, that share powers, and
    for no rows at all (a cell without constraints)."""
    exps = np.array(_EXPONENT_ROWS[rows], dtype=np.int64).reshape(-1, 3)
    pts = _spread_points(k, seed=k)
    assert _same_bits(power_table(pts, exps), _power_table_reference(pts, exps))
    # a strided view of the points, as eval_many receives from its callers
    wide = np.concatenate([pts, pts[:, :1]], axis=1)[:, :3]
    assert _same_bits(power_table(wide, exps), _power_table_reference(pts, exps))


def test_table_callers_sum_the_reference_table():
    """`Polynomial.eval_many` and `AxisRestriction.table` equal the einsum
    of their coefficients with the broadcast power table, bit for bit, with
    the terms read in their canonical order (sorted by exponent tuple)."""
    names = ["r1", "r2", "r3"]
    polys = [parse_poly(text, names) for text in
             ["r1^3*r2 - 2/3*r1*r2^2*r3 + 5/7*r3^4 - 1/9", "r3^2 - r1*r3 + 2*r2", "7/3",
              "r1*r2*r3 - r2^5*r3^2 + r1"]]
    pts = _spread_points(200, seed=11)
    for f in polys:
        terms = sorted(f.terms.items())
        exps = np.array([exp for exp, _ in terms], dtype=np.int64)
        coeffs = [float(c) for _, c in terms]
        want = np.einsum("km,m->k", _power_table_reference(pts, exps), coeffs)
        assert _same_bits(f.eval_many(pts), want)
    for axis in range(3):
        line = AxisRestriction(polys, axis, 3)
        want = np.einsum("sm,km->sk", line.matrix, _power_table_reference(pts, line.exps))
        assert _same_bits(line.table(pts), want.reshape(len(polys), line.width, len(pts)))


def _cancelling_poly(rng, nterms=8):
    """A random 3-variable polynomial whose Fraction coefficients come in
    near-opposite pairs (c and -c + c/1000), so that its float sums cancel
    and round differently in different orders."""
    exps = set()
    while len(exps) < nterms:
        exps.add(tuple(int(e) for e in rng.integers(0, 4, size=3)))
    terms = {}
    for i, exp in enumerate(sorted(exps, key=lambda _: rng.uniform())):
        if i % 2 == 0:
            c = Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 10**3)))
            c *= int(rng.choice([-1, 1]))
        else:
            c = -c + c / 1000
        terms[exp] = c
    return Polynomial(3, terms)


@pytest.mark.parametrize("seed", range(10))
def test_float_order_does_not_depend_on_term_order(seed):
    """Equal polynomials evaluate alike: a polynomial rebuilt with its terms
    shuffled gives the same eval_many values and AxisRestriction tables on
    every axis, bit for bit."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    polys = [_cancelling_poly(rng) for _ in range(5)]
    shuffled = []
    for f in polys:
        items = list(f.terms.items())
        order = rng.permutation(len(items))
        shuffled.append(Polynomial(3, dict(items[i] for i in order)))
    assert shuffled == polys
    assert any(list(g.terms) != list(f.terms) for f, g in zip(polys, shuffled))
    pts = rng.uniform(0.5, 1.5, size=(200, 3))
    for f, g in zip(polys, shuffled):
        assert _same_bits(g.eval_many(pts), f.eval_many(pts))
        assert [g.eval(pt) for pt in pts[:20].tolist()] == [f.eval(pt) for pt in pts[:20].tolist()]
    for axis in range(3):
        want = AxisRestriction(polys, axis, 3).table(pts)
        assert _same_bits(AxisRestriction(shuffled, axis, 3).table(pts), want)
        for f, g in zip(polys, shuffled):
            assert _same_bits(AxisRestriction([g], axis, 3).table(pts),
                              AxisRestriction([f], axis, 3).table(pts))


# ---------------------------------------------------------------------------
# exterior derivative


def test_d_of_x1_dx2():
    psi = LogForm.term(2, 0, Polynomial.var(2, 0), (), (1,))
    out = psi.exterior_d()
    assert out.terms == {((), (0, 1)): Polynomial.const(2, 1)}


def test_d_of_constant_coefficient():
    assert LogForm.dx(2, 0, 1).exterior_d().is_zero()


def test_d_sign_convention():
    # d(x1 x2 dx1) = -x1 dx1 ^ dx2 after normalization
    coeff = Polynomial.var(2, 0) * Polynomial.var(2, 1)
    psi = LogForm.term(2, 0, coeff, (), (0,))
    out = psi.exterior_d()
    assert out.terms == {((), (0, 1)): -Polynomial.var(2, 0)}


def test_d_in_divisor_direction_stays_logarithmic():
    # d(r1 dx2) = r1 * dr1/r1 ^ dx2
    psi = LogForm.term(2, 1, Polynomial.var(2, 0), (), (1,))
    out = psi.exterior_d()
    assert out.terms == {((0,), (1,)): Polynomial.var(2, 0)}


def test_d_rejects_log_terms():
    with pytest.raises(PolyError):
        LogForm.dlog(2, 2, 0).exterior_d()


# ---------------------------------------------------------------------------
# wedge


def test_wedge_repeated_log_index_vanishes():
    w = LogForm.dlog(2, 2, 0)
    assert w.wedge(w).is_zero()


def test_wedge_log_smooth():
    out = LogForm.dlog(3, 1, 0).wedge(LogForm.dx(3, 1, 1))
    assert out.terms == {((0,), (1,)): Polynomial.const(3, 1)}


def test_wedge_transposition_sign():
    out = LogForm.dx(3, 1, 1).wedge(LogForm.dlog(3, 1, 0))
    assert out.terms == {((0,), (1,)): Polynomial.const(3, -1)}


# ---------------------------------------------------------------------------
# monomial pullbacks


def chart_a():
    # (u, v) -> (u, u v)
    return MonomialMap(2, [(1, (1, 0)), (1, (1, 1))])


def test_pullback_dlog_splits():
    # dr2/r2 <- du/u + dv/v under r2 = u v
    out = LogForm.dlog(2, 2, 1).pullback_monomial(chart_a(), 2)
    one = Polynomial.const(2, 1)
    assert out.terms == {((0,), ()): one, ((1,), ()): one}


def test_pullback_identity_smooth():
    ident = MonomialMap.identity(3)
    out = LogForm.dx(3, 1, 2).pullback_monomial(ident, 1)
    assert out == LogForm.dx(3, 1, 2)


def test_pullback_top_form_collapses():
    w = LogForm.dlog(2, 2, 0).wedge(LogForm.dlog(2, 2, 1))
    out = w.pullback_monomial(chart_a(), 2)
    assert out.terms == {((0, 1), ()): Polynomial.const(2, 1)}


def test_pullback_rejects_divisor_into_smooth():
    bad = MonomialMap(2, [(1, (0, 1)), (1, (1, 0))])  # r1 <- x2-ish
    with pytest.raises(PolyError):
        LogForm.dlog(2, 1, 0).pullback_monomial(bad, 1)


# ---------------------------------------------------------------------------
# Newton exponents


def test_newton_exponents_read_off():
    nd = newton_exponents(parse_poly("r1 + r2", R2), 2)
    assert nd.points == {(1, 0), (0, 1)}
    assert not nd.has_constant()


def test_newton_exponents_quadratic():
    nd = newton_exponents(parse_poly("r1 + r2^2", R2), 2)
    assert nd.points == {(1, 0), (0, 2)}
    assert set(nd.generators) == {(1, 0), (0, 2)}


def test_newton_exponents_collects_by_divisor_part():
    names = ["r1", "x2", "x3"]
    f = parse_poly("r1*x3 + r1*x3^2", names)
    nd = newton_exponents(f, 1)
    assert nd.points == {(1,)}


def test_newton_exponents_rejects_zero():
    with pytest.raises(PolyError):
        newton_exponents(Polynomial.zero(2), 2)


# ---------------------------------------------------------------------------
# property tests


def polys(nvars=3, max_terms=4):
    exps = st.tuples(*([st.integers(0, 3)] * nvars))
    coeffs = st.fractions(
        min_value=-4, max_value=4, max_denominator=8
    )
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: Polynomial(nvars, d)
    )


def rational_points(nvars=3):
    q = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.tuples(*([q] * nvars))


@given(polys(), polys(), polys(), rational_points())
def test_ring_laws_exact(f, g, h, pt):
    assert (f + g) * h == f * h + g * h
    assert (f + g).eval(pt) == f.eval(pt) + g.eval(pt)
    assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt)


def test_eval_commutes_at_hundred_points():
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=17))
    names = ["r1", "r2", "x3", "x4"]
    f = parse_poly("r1^2*x3 - 2/3*r2 + x4^3", names)
    g = parse_poly("(r1 - x4)^2 + 5*r2*x3", names)
    for _ in range(100):
        pt = [
            Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7)))
            for _ in range(4)
        ]
        assert (f + g).eval(pt) == f.eval(pt) + g.eval(pt)
        assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt)


def _cancelling_polys(nvars=3, max_terms=5):
    """Polynomials with a few small coefficients, so that sums, products
    and merged variables often cancel."""
    exps = st.tuples(*([st.integers(0, 2)] * nvars))
    coeffs = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1)])
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: Polynomial(nvars, d)
    )


def _assert_built_clean(r: Polynomial):
    """r's term dict is what the validating constructor makes of it, in the
    same order, and its hash is the hash of its value."""
    assert list(r.terms.items()) == list(Polynomial(r.nvars, dict(r.terms)).terms.items())
    for exp, c in r.terms.items():
        assert type(exp) is tuple and len(exp) == r.nvars
        assert all(type(e) is int and e >= 0 for e in exp)
        assert type(c) is Fraction and c != 0
    assert hash(r) == hash((r.nvars, frozenset(r.terms.items())))
    reordered = Polynomial(r.nvars, dict(reversed(list(r.terms.items()))))
    assert reordered == r and hash(reordered) == hash(r)


@given(_cancelling_polys(), _cancelling_polys(), _cancelling_polys(),
       st.integers(0, 2), st.integers(0, 3),
       st.lists(st.integers(0, 1), min_size=3, max_size=3),
       st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_arithmetic_results_are_built_clean(f, g, h, var, power, mapping, value):
    """Every result of exact arithmetic is a polynomial the public
    constructor would build from its own terms: the same terms in the same
    order, int exponents of the right length, nonzero Fraction values.
    A difference has the term items, in order, of the sum with the negated
    operand."""
    results = [f + g, f + (-f), (f + g) - f, f - g, -f, f * g, (f + g) * (f - g),
               f ** power, f.map_vars(mapping, 2), (f - g).map_vars(mapping, 2),
               f.partial(var), f.partial(var - 3), f.partial_eval({var: value}),
               f.compose([g, h, f + 1]), f.partial_eval({var: value}).drop_vars([var]),
               Polynomial.zero(3), Polynomial.const(3, value), Polynomial.var(3, var)]
    if not f.is_zero():
        results.append(f.divide_monomial(f.content_monomial()))
    divided = (f * Polynomial.var(3, var)).divide_monomial([int(v == var) for v in range(3)])
    assert divided == f
    assert f.partial(var - 3) == f.partial(var)
    for r in results + [divided]:
        _assert_built_clean(r)
    for a, b in ((f, g), (f, f), (f + g, f), (g, f * g), (f, 1)):
        assert list((a - b).terms.items()) == list((a + (-b)).terms.items())


def test_cancelling_sums_keep_their_term_order():
    """A product term that cancels is deleted and, when it comes back, goes
    last; a merged map_vars term that cancels and comes back keeps its
    first place.  to_text, as_affine and the lift reduction read this order."""
    x, y = Polynomial.var(2, 0), Polynomial.var(2, 1)
    product = (x + y + x * y) * (x - y + 1)
    assert list(product.terms) == [(2, 0), (1, 0), (0, 2), (0, 1), (2, 1), (1, 2), (1, 1)]
    f = Polynomial(3, {(1, 0, 0): 1, (0, 0, 0): 3, (0, 1, 0): -1, (0, 0, 1): 2})
    assert list(f.map_vars([0, 0, 0], 1).terms.items()) == [((1,), Fraction(2)),
                                                            ((0,), Fraction(3))]
    cancelled = Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): -1}).map_vars([0, 1, 0], 2)
    assert list(cancelled.terms.items()) == [((0, 1), Fraction(2))]


def test_public_constructor_validates():
    """Polynomial(nvars, terms) checks and normalizes what it is given."""
    with pytest.raises(PolyError):
        Polynomial(2, {(1, -1): 1})
    with pytest.raises(PolyError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(PolyError):
        Polynomial(2, {(1, 0): "1"})
    with pytest.raises(PolyError):
        Polynomial.monomial(2, (1,))
    with pytest.raises(PolyError):
        Polynomial(2, {(1, 0): 1}).divide_monomial((1,))
    for index in (2, -3):
        with pytest.raises(PolyError):
            Polynomial(2, {(1, 0): 1}).partial(index)
    f = Polynomial(2, {(1, 0): 0, (0, 1): 3, (np.int64(2), 0): 0.1})
    assert list(f.terms.items()) == [((0, 1), Fraction(3)), ((2, 0), Fraction(0.1))]
    assert all(type(e) is int for exp in f.terms for e in exp)
    assert all(type(c) is Fraction for c in f.terms.values())


def smooth_forms(n=3, p=1, degree=1):
    smooth_idx = st.lists(
        st.integers(p, n - 1), min_size=degree, max_size=degree, unique=True
    )
    return st.tuples(polys(n), smooth_idx).map(
        lambda t: LogForm.term(n, p, t[0], (), tuple(sorted(t[1])))
    )


@given(smooth_forms(p=0))
def test_d_squared_is_zero(psi):
    # p = 0: the first derivative must stay inside the smooth subalgebra,
    # since d of genuine dr/r terms is outside this artifact's scope.
    assert psi.exterior_d().exterior_d().is_zero()


@given(smooth_forms(degree=1), smooth_forms(degree=2))
def test_wedge_anticommutativity(w1, w2):
    left = w1.wedge(w2)
    sign = (-1) ** (w1.degree * w2.degree)
    right = w2.wedge(w1)
    if sign == 1:
        assert left == right
    else:
        assert left == -right


def random_towers():
    """Composable chart maps from random codim-2 blow-up substitutions."""
    from logvol import BlowupTower

    def build(choices):
        t = BlowupTower(3, 3, [(0, 1)] * 3)
        chart = "0"
        for pair in choices:
            kids = t.blow_up(chart, pair)
            chart = kids[0]
        return t.charts[chart]

    pairs = st.sampled_from([(0, 1), (0, 2), (1, 2)])
    return st.lists(pairs, min_size=1, max_size=3).map(build)


@given(random_towers(), random_towers())
def test_pullback_functoriality(c1, c2):
    composed = c1.map.compose(c2.map)
    w = LogForm.dlog(3, 3, 0).wedge(LogForm.dlog(3, 3, 2))
    once = w.pullback_monomial(composed, 3)
    staged = w.pullback_monomial(c1.map, 3).pullback_monomial(c2.map, 3)
    assert once == staged


@given(random_towers())
def test_pullback_wedge_compatibility(chart):
    w1 = LogForm.dlog(3, 3, 0)
    w2 = LogForm.dlog(3, 3, 1).wedge(LogForm.dlog(3, 3, 2))
    lhs = w1.wedge(w2).pullback_monomial(chart.map, 3)
    rhs = w1.pullback_monomial(chart.map, 3).wedge(w2.pullback_monomial(chart.map, 3))
    assert lhs == rhs
