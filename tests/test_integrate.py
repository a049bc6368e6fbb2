"""Excision ladders, quadrature, decay fits, bound checks."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import LI2_HALF, box_region, load_region, region_of
from logvol import (
    IntegrationError,
    LogForm,
    Polynomial,
    QuadConfig,
    Region,
    RegionError,
    deformation_limit_check,
    excision_ladder,
    fit_decay_exponent,
    integrate_abs,
    integrate_log_form,
    integrate_mc,
    parse_poly,
    pushforward_bound_check,
    slice_decay_report,
    linprog,
)
from logvol.integrate import quadrature_rung, slice_region_and_form


def dlog2():
    return LogForm.dlog(2, 2, 0).wedge(LogForm.dlog(2, 2, 1))


# ---------------------------------------------------------------------------
# reference values


def test_interval_log():
    res = integrate_log_form(load_region("interval_half_one"), LogForm.dlog(1, 1, 0))
    assert res.value == pytest.approx(math.log(2), abs=1e-9)
    assert res.ladder.verdict == "converged"


def test_s_half_dilogarithm():
    res = integrate_log_form(load_region("s_half"), dlog2())
    assert res.value == pytest.approx(LI2_HALF, abs=1e-6)
    assert res.ladder.verdict == "converged"
    assert res.absolute == pytest.approx(res.value, abs=1e-6)  # positive integrand
    assert not any("depth cap" in flag for flag in res.flags)


def test_box_less_region_solves_its_box_once(monkeypatch):
    """Without a declared box the bounding box takes 2n exact LPs; it is
    computed once per region, so the whole ladder on s_half makes 4 (every
    rung re-solving them made 100)."""
    boxed = load_region("s_half")
    region = Region(boxed.n, boxed.p, boxed.cells, boxed.kind, None, boxed.name)
    calls = []
    original = linprog.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linprog, "solve_lp", counted)
    res = integrate_log_form(region, dlog2())
    assert len(calls) <= 4
    assert region.bounding_box() == [(0.5, 1.0), (0.0, 0.5)]
    assert res.value == pytest.approx(LI2_HALF, abs=1e-6)
    assert res.verdict == "converged"


def test_depth_cap_hits_flagged(monkeypatch):
    """The graded cuts settle every s_half panel at depth 0, so the tolerance
    is set near float resolution to make panels reach the cap."""
    import logvol.integrate as integrate

    monkeypatch.setattr(integrate, "_MAX_DEPTH", 0)
    monkeypatch.setattr(integrate, "_QUAD_TOL", 1e-15)
    res = integrate_log_form(load_region("s_half"), dlog2())
    hits = [flag for flag in res.flags if flag.startswith("quadrature depth cap hit (")]
    assert len(hits) == 1 and hits[0].endswith(" panels)")
    assert sum(res.ladder.capped) + sum(res.abs_ladder.capped) == int(hits[0].split("(")[1].split()[0])


def test_shifted_square_product():
    res = integrate_log_form(load_region("shifted_square"), dlog2())
    assert res.value == pytest.approx(math.log(2) ** 2, abs=1e-9)


def test_degree_mismatch_rejected():
    with pytest.raises(IntegrationError):
        integrate_log_form(load_region("s_half"), LogForm.dlog(2, 2, 0))


# ---------------------------------------------------------------------------
# absolute integrals


def test_abs_strips_sign():
    A = load_region("interval_half_one")
    form = LogForm.dlog(1, 1, 0).scale(-1)
    assert integrate_abs(A, form) == pytest.approx(math.log(2), abs=1e-9)


def test_abs_positive_integrand_matches():
    assert integrate_abs(load_region("s_half"), dlog2()) == pytest.approx(
        LI2_HALF, abs=1e-6
    )


def test_two_sided_interval_cancels_signed():
    A = region_of(
        1, 1, None,
        [(-1, 1)],
        cells=[["r1 + 1/2 <= 0", "-1 - r1 <= 0"], ["1/2 - r1 <= 0", "r1 - 1 <= 0"]],
    )
    form = LogForm.dlog(1, 1, 0)
    res = integrate_log_form(A, form)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.absolute == pytest.approx(2 * math.log(2), abs=1e-9)


def s_a(a: Fraction, c: Fraction):
    """S_a = {0 <= r1 <= c, 0 <= r2 <= a c, r1 + r2 >= c}: dr1/r1 ^ dr2/r2
    integrates to Li2(a) at every scale c."""
    return region_of(2, 2, ["-r1 <= 0", f"r1 - {c} <= 0", "-r2 <= 0",
                            f"r2 - {a * c} <= 0", f"r1 + r2 >= {c}"],
                     [(0, c), (0, a * c)])


@settings(max_examples=6, deadline=None)
@given(a=st.fractions(Fraction(1, 12), Fraction(11, 12), max_denominator=12),
       k=st.integers(-3, 3))
@example(a=Fraction(1, 2), k=-3)
def test_dilog_ladder_is_scale_invariant(a, k):
    """The excision ladder is relative to the box, so S_a at c = 10^k gives
    Li2(a) with both ladders converged, the same as at c = 1."""
    res = integrate_log_form(s_a(a, Fraction(10) ** k), dlog2())
    assert res.ladder.verdict == res.abs_ladder.verdict == "converged"
    oracle = float(mpmath.polylog(2, mpmath.mpf(a.numerator) / a.denominator))
    assert abs(res.value - oracle) <= min(1e-6, res.error)
    unit = integrate_log_form(s_a(a, Fraction(1)), dlog2())
    assert res.value == pytest.approx(unit.value, rel=1e-12, abs=0)


def test_tiny_interval_is_not_excised_away():
    A = region_of(1, 1, ["1/1000000 - r1 <= 0", "r1 - 1/500000 <= 0"],
                  [(Fraction(1, 10**6), Fraction(2, 10**6))])
    res = integrate_log_form(A, LogForm.dlog(1, 1, 0))
    assert res.value == pytest.approx(math.log(2), abs=1e-12)
    assert res.verdict == "converged"


@pytest.mark.parametrize("low, blind", [(Fraction(1, 10**6), 12), (Fraction(1, 10**4), 9)])
def test_rungs_that_excise_a_whole_log_coordinate_are_no_evidence(low, blind):
    """dr1/r1 ^ dr2/r2 on [1/2, 1] x [low, 2 low] is (ln 2)^2, but the
    ladder scale is 1, so the first `blind` rungs keep nothing of r2 and
    are exactly 0.  A ladder with such a rung is inconclusive, with no
    limit and no error, even where its last rungs reach the value."""
    A = region_of(2, 2, ["1/2 - r1 <= 0", "r1 - 1 <= 0", f"{low} - r2 <= 0", f"r2 - {2 * low} <= 0"],
                  [(Fraction(1, 2), 1), (low, 2 * low)])
    res = integrate_log_form(A, dlog2())
    for ladder in (res.ladder, res.abs_ladder):
        assert ladder.values()[:blind] == [0.0] * blind
        assert (ladder.verdict, ladder.limit, ladder.error) == ("inconclusive", None, None)
    assert res.verdict == "inconclusive"
    if blind < len(res.ladder.entries):
        assert res.ladder.values()[-1] == pytest.approx(math.log(2) ** 2, abs=1e-9)


def test_signed_convergence_with_diverging_absolute_is_diverging():
    """dr1/r1 on [-1/2, 1]: the signed ladder settles on ln 2 (a principal
    value), the absolute one diverges, so the integral is not absolutely
    convergent."""
    A = region_of(1, 1, ["-1/2 - r1 <= 0", "r1 - 1 <= 0"], [(Fraction(-1, 2), 1)])
    res = integrate_log_form(A, LogForm.dlog(1, 1, 0))
    assert res.ladder.verdict == "converged"
    assert res.abs_ladder.verdict == "diverging"
    assert res.verdict == "diverging"


def test_one_pass_ladders_match_single_ladders():
    """Both ladders of integrate_log_form come from one quadrature program;
    on s_half each is entry for entry the ladder computed alone."""
    res = integrate_log_form(load_region("s_half"), dlog2())
    alone = excision_ladder(load_region("s_half"), dlog2())
    alone_abs = excision_ladder(load_region("s_half"), dlog2(), absolute=True)
    assert res.ladder.entries == alone.entries
    assert res.abs_ladder.entries == alone_abs.entries
    assert res.ladder.capped == alone.capped and res.abs_ladder.capped == alone_abs.capped


def test_one_pass_signed_and_absolute_differ():
    """x2 dr1/r1 ^ dx2 on [1/2, 1] x [-1, 1]: the signed integral cancels,
    the absolute one is ln 2."""
    A = box_region([(Fraction(1, 2), 1), (-1, 1)], p=1)
    form = LogForm.dlog(2, 1, 0).wedge(LogForm.dx(2, 1, 1)).scale(
        parse_poly("x2", ["r1", "x2"]))
    res = integrate_log_form(A, form)
    assert res.verdict == "converged"
    assert abs(res.value) <= res.error
    _, abs_error = res.abs_ladder.estimate()
    assert abs(res.absolute - math.log(2)) <= abs_error < 1e-6


@pytest.mark.parametrize("negative", [0, 1])
@pytest.mark.parametrize("pointwise", [False, True])
def test_one_pass_orients_only_the_signed_part(negative, pointwise):
    """dr1/r1 ^ dr2/r2 with one coordinate on [-1, -1/2] and the other on
    [1/2, 1]: signed -(ln 2)^2, absolute (ln 2)^2, whether the negative
    coordinate is the outer (r1) or the inner (r2) one, through the
    closed-form inner integral and through the pointwise one."""
    from logvol.integrate import Integrand

    bounds = [(Fraction(1, 2), 1), (Fraction(1, 2), 1)]
    bounds[negative] = (-1, Fraction(-1, 2))
    integrand = None
    if pointwise:
        integrand = Integrand(Polynomial.const(2, 1), (0, 1), lambda pts: np.ones(len(pts)))
    res = integrate_log_form(box_region(bounds, p=2), dlog2(), integrand=integrand)
    assert res.verdict == "converged"
    assert res.value == pytest.approx(-math.log(2) ** 2, abs=1e-9)
    assert res.absolute == pytest.approx(math.log(2) ** 2, abs=1e-9)


# ---------------------------------------------------------------------------
# ladders


def test_ladder_converges_on_s_half():
    lad = excision_ladder(load_region("s_half"), dlog2())
    assert lad.verdict == "converged"
    assert lad.limit == pytest.approx(LI2_HALF, abs=1e-4)


def test_ladder_diverges_on_box_with_log_squared_rungs():
    lad = excision_ladder(load_region("unit_box_p2"), dlog2())
    assert lad.verdict == "diverging"
    for eps, value, _ in lad.entries[5:]:
        assert value == pytest.approx(math.log(eps) ** 2, rel=1e-6)


def test_smooth_form_converges_immediately():
    A = box_region([(0, 1), (0, 1)])
    form = LogForm.term(2, 0, parse_poly("1 + x1^2", ["x1", "x2"]), (), (0, 1))
    lad = excision_ladder(A, form)
    assert lad.verdict == "converged"
    assert len(lad.entries) == 1  # no singular direction: settled at once
    assert lad.limit == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_ladder_csv_shape():
    lad = excision_ladder(load_region("s_half"), dlog2())
    lines = lad.to_csv().strip().splitlines()
    assert lines[0] == "param,value,stderr"
    assert lines[-1].startswith("verdict,converged")
    assert len(lines) == len(lad.entries) + 2


def test_overlapping_cells_integrate_as_a_union():
    A = region_of(
        2, 0, None, [(0, 1), (0, 1)],
        cells=[
            ["-x1 <= 0", "x1 - 7/10 <= 0", "-x2 <= 0", "x2 - 1 <= 0"],
            ["3/10 - x1 <= 0", "x1 - 1 <= 0", "-x2 <= 0", "x2 - 1 <= 0"],
        ],
    )
    form = LogForm.term(2, 0, Polynomial.const(2, 1), (), (0, 1))
    assert integrate_log_form(A, form).value == pytest.approx(1.0, abs=1e-9)


def test_polynomial_coefficient_closed_form():
    # r1 dr1/r1 ^ dr2/r2 over the dilogarithm region: int_0^{1/2} ln(1/(2u)) du = 1/2
    w = dlog2().scale(parse_poly("r1", ["r1", "r2"]))
    res = integrate_log_form(load_region("s_half"), w)
    assert res.value == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# invariants


def corpus_allowable():
    return [
        (load_region("s_half"), dlog2()),
        (load_region("s_one"), dlog2()),
        (load_region("shifted_square"), dlog2()),
        (
            load_region("triangle_p1"),
            LogForm.dlog(2, 1, 0).wedge(LogForm.dx(2, 1, 1)),
        ),
    ]


def test_allowable_implies_converged_box_diverges():
    for A, form in corpus_allowable():
        assert A.is_allowable().ok
        assert excision_ladder(A, form).verdict == "converged", A.name
    assert excision_ladder(load_region("unit_box_p2"), dlog2()).verdict == "diverging"


def test_triangle_p1_value():
    # fiber length along x2 equals r1, cancelling the 1/r1 singularity
    A = load_region("triangle_p1")
    form = LogForm.dlog(2, 1, 0).wedge(LogForm.dx(2, 1, 1))
    res = integrate_log_form(A, form)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_triangle_inequality_on_every_result():
    for A, form in corpus_allowable():
        res = integrate_log_form(A, form)
        assert abs(res.value) <= res.absolute + res.error + 1e-9


def test_linearity_within_errors():
    A = load_region("s_half")
    f1 = dlog2()
    f2 = dlog2().scale(parse_poly("r1", ["r1", "r2"]))
    lhs = integrate_log_form(A, f1 + f2)
    r1 = integrate_log_form(A, f1)
    r2 = integrate_log_form(A, f2)
    tol = lhs.error + r1.error + r2.error + 1e-7
    assert lhs.value == pytest.approx(r1.value + r2.value, abs=tol)


def test_monotone_excision_for_nonnegative_integrand():
    lad = excision_ladder(load_region("s_half"), dlog2(), absolute=True)
    values = lad.values()
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


def test_additivity_under_hyperplane_splits():
    """Splitting any corpus region by a hyperplane preserves both integrals."""
    cases = corpus_allowable()
    cuts = ["r1 - 3/4", "r1 - 7/8", "r1 - 3/2", "x2 - 1/2"]
    checked = 0
    for (A, form), cut_text in zip(cases * 3, cuts * 3):
        names = A.var_names()
        try:
            cut = parse_poly(cut_text, names)
        except Exception:
            continue
        from logvol.region import Constraint

        left = A.add_cell_constraints([Constraint(cut)])
        right = A.add_cell_constraints([Constraint(-cut)])
        total = integrate_log_form(A, form)
        l_res = integrate_log_form(left, form)
        r_res = integrate_log_form(right, form)
        tol = total.error + l_res.error + r_res.error + 1e-6
        assert l_res.value + r_res.value == pytest.approx(total.value, abs=tol)
        l_abs = integrate_abs(left, form)
        r_abs = integrate_abs(right, form)
        assert l_abs + r_abs == pytest.approx(total.absolute, abs=tol + 1e-6)
        checked += 1
    assert checked >= 10


def test_quadrature_matches_mc_oracle():
    """The tensor rung and the Monte-Carlo rung agree, also on a negative
    log side, where the signed parts carry the orientation of x -> log|x|."""
    cfg = QuadConfig(mc_budget=200000)
    eps = 2.0**-6
    for name, absolute in [("s_half", False), ("shifted_square", False),
                           ("negative_square", False), ("negative_square", True)]:
        A = load_region(name)
        quad, _ = quadrature_rung(A, dlog2(), eps, cfg, absolute)
        mc, stderr = integrate_mc(A, dlog2(), eps, cfg, absolute)
        assert abs(mc - quad) <= 3 * stderr + 1e-6
        if name == "negative_square":
            # [-1, -1/2] x [1/2, 1]: -(ln 2)^2 signed, (ln 2)^2 absolute
            assert quad == pytest.approx((1 if absolute else -1) * math.log(2) ** 2, abs=1e-9)


def test_rung_pieces_keep_each_side_of_the_excision():
    """A log coordinate keeps |x| >= eps (one eps, or one per range),
    positive side first within each range and the ranges in order, and
    maps each side to u = log|x| with x = sgn e^u; a linear one stays
    whole."""
    from logvol.integrate import _rung_pieces, _u_range, _x_of

    def pieces(ranges, log):
        return [tuple(x.tolist() for x in piece)
                for piece in zip(*_rung_pieces(ranges, 0.125, log))]

    pos, neg = pieces([(-0.5, 1.0)], True)
    assert pos == (0.125, 1.0, 1.0, 0)
    assert neg == (-0.5, -0.125, -1.0, 0)
    assert [u.tolist() for u in _u_range(*neg[:3])] == [math.log(0.125), math.log(0.5)]
    assert _x_of([math.log(0.5)], -1.0).tolist() == [-0.5]
    assert pieces([(0.0, 0.125), (-0.125, 0.1)], True) == []
    assert pieces([], True) == []
    assert pieces([(-1.0, -0.5), (0.0, 0.125), (-0.25, 2.0)], True) == [
        (-1.0, -0.5, -1.0, 0), (0.125, 2.0, 1.0, 2), (-0.25, -0.125, -1.0, 2)]
    lin, = pieces([(-0.5, 1.0)], False)
    assert [u.tolist() for u in _u_range(*lin[:3])] == [-0.5, 1.0]
    assert _x_of([0.25], lin[2]).tolist() == [0.25]
    # one eps per range, as the rows of several rungs carry them
    per_range = _rung_pieces([(-0.5, 1.0), (-0.5, 1.0)], np.array([0.125, 0.75]), True)
    assert [tuple(piece) for piece in zip(*(x.tolist() for x in per_range))] == [
        (0.125, 1.0, 1.0, 0), (-0.5, -0.125, -1.0, 0), (0.75, 1.0, 1.0, 1)]


@pytest.mark.parametrize("sgn", [1.0, -1.0])
def test_log_substitution_round_trips(sgn):
    """x = sgn e^u inverts u = log|x| to within 1e-14 relative over
    1e-8 <= |x| <= 1e3, elementwise with one sign per entry; a linear
    coordinate (sgn 0) passes through unchanged, with no floating-point
    warning even at x = 0 or where e^x would overflow."""
    from logvol.integrate import _u_of, _u_range, _x_of

    x = sgn * np.geomspace(1e-8, 1e3, 1001)
    back = _x_of(_u_of(x, sgn), sgn)
    assert np.all(np.abs(back - x) <= 1e-14 * np.abs(x))
    signs = np.full(len(x), sgn)
    assert np.array_equal(_x_of(_u_of(x, signs), signs), back)
    ends = np.sort(x)  # pieces (a, b) with a < b on the side of sgn
    lo, hi = _u_range(ends[:-1], ends[1:], sgn)
    assert np.all(lo < hi)
    linear = np.array([0.0, -1.0, 1e3, -1e3, 2.5])
    with np.errstate(all="raise"):
        assert np.array_equal(_u_of(linear, 0.0), linear)
        assert np.array_equal(_x_of(linear, 0.0), linear)
        assert [u.tolist() for u in _u_range(linear, linear + 1, 0.0)] == [
            linear.tolist(), (linear + 1).tolist()]
        # one linear entry among log ones
        mixed = np.array([sgn, 0.0])
        assert _x_of(_u_of([sgn * 0.5, 0.0], mixed), mixed).tolist() == [sgn * 0.5, 0.0]


def _depth_first_gauss(f, a, b, tol, depth, records):
    """The adaptive Gauss bisection one panel at a time, depth first: the
    reference order for _adaptive_1d's values and records.  Each panel is
    summed alone, with the library's contraction."""
    from logvol.integrate import _gauss_nodes, _panel_sums

    xs, ws = _gauss_nodes()

    def gauss(lo, hi):
        half = 0.5 * (hi - lo)
        nodes = 0.5 * (lo + hi) + half * xs
        records.extend(("node", x) for x in nodes.tolist())  # the records behind each node
        values = f(nodes)
        summed = _panel_sums(values, np.array([half]))[0]
        # the per-panel dot product the contraction replaced, to a 15-term sum's rounding
        bound = 16 * np.finfo(float).eps * abs(half) * (np.abs(values) @ ws)
        assert np.all(np.abs(summed - half * (values @ ws)) <= bound)
        return summed.tolist()

    def recurse(lo, hi, whole, budget, d):
        mid = 0.5 * (lo + hi)
        left, right = gauss(lo, mid), gauss(mid, hi)
        total = [x + y for x, y in zip(left, right)]
        err = [abs(t - w) for t, w in zip(total, whole)]
        if d <= 0 or all(e <= b for e, b in zip(err, budget)):
            records.append((err, budget))
            return total
        budget = [0.5 * b for b in budget]
        return [x + y for x, y in zip(recurse(lo, mid, left, budget, d - 1),
                                      recurse(mid, hi, right, budget, d - 1))]

    if a >= b:
        return [0.0, 0.0]
    whole = gauss(a, b)
    return recurse(a, b, whole, [tol * max(1.0, abs(w)) for w in whole], depth)


@given(jobs=st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.sampled_from([1e-3, 1e-8])),
                     min_size=1, max_size=6),
       depth=st.integers(0, 8))
@example(jobs=[(0.0, 1.0, 1e-8), (1.0, 1.0, 1e-8), (-1.5, 0.3, 1e-8)], depth=8)
def test_lockstep_gauss_matches_depth_first_bisection(jobs, depth):
    """_adaptive_1d runs many integrals in lockstep, one call of f per
    bisection round, yet gives each the value and the records of the
    depth-first recursion, float for float and in its order: its accepted
    panels (err, budget) interleaved with the records f reports behind
    each node (here one marker per node).  The integrand has a kink, so
    panels split unevenly."""
    from logvol.integrate import _adaptive_1d

    def g(x):
        return np.array([np.abs(x - 0.3) ** 1.5, np.cos(3.0 * x)])

    calls = []

    def f(nodes, owners):
        calls.append(len(owners))
        return g(nodes.ravel()), [[("node", x)] for x in nodes.ravel().tolist()]

    got = _adaptive_1d(f, jobs, depth, 2)
    for (a, b, tol), (value, records) in zip(jobs, got):
        want_records = []
        assert value == _depth_first_gauss(g, a, b, tol, depth, want_records)
        assert records == want_records
    assert len(calls) <= depth + 1


def _line_signed_reference(coeffs, a: float, b: float, log_weight: bool) -> float:
    """Exact integral of sum c_k x^k (over x if log_weight) on [a, b], one
    span at a time: the reference for the array closed form."""
    total = 0.0
    if log_weight:
        if coeffs and coeffs[0]:
            total += coeffs[0] * math.log(b / a)
        for k in range(1, len(coeffs)):
            if coeffs[k]:
                total += coeffs[k] * (b**k - a**k) / k
    else:
        for k, c in enumerate(coeffs):
            if c:
                total += c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    return total


def _line_integral_reference(coeffs, a: float, b: float, log_weight: bool,
                             absolute: bool) -> float:
    """The signed integral, or the absolute one summed over the pieces
    between the real roots inside [a, b]."""
    from logvol.slicing import _column_roots

    if a >= b:
        return 0.0
    if not absolute:
        return _line_signed_reference(coeffs, a, b, log_weight)
    cuts = [a] + [r for r in _column_roots(coeffs) if a < r < b] + [b]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        total += abs(_line_signed_reference(coeffs, lo, hi, log_weight))
    return total


_COEFF = st.one_of(st.just(0.0), st.floats(-4, 4, allow_nan=False))


@st.composite
def _line_spans(draw):
    """(log_weight, rows, spans): coefficient rows of one width from 1 to
    4, with zeros, and one span per row, a <= b; a log span lies on one
    side of 0, and both sides occur."""
    log_weight = draw(st.booleans())
    width = draw(st.integers(1, 4))
    count = draw(st.integers(1, 6))
    rows = [draw(st.lists(_COEFF, min_size=width, max_size=width)) for _ in range(count)]
    spans = []
    for _ in range(count):
        lo = 1e-3 if log_weight else -2.0
        a, b = sorted(draw(st.lists(st.floats(lo, 2.0), min_size=2, max_size=2)))
        if log_weight and draw(st.booleans()):
            a, b = -b, -a
        spans.append((a, b))
    return log_weight, rows, spans


@given(case=_line_spans())
@example(case=(False, [[-1 / 3, 1.0], [0.0, 0.0]], [(-1.0, 1.0), (0.0, 1.0)]))
@example(case=(True, [[-1 / 3, 1.0, 0.0], [0.25, 0.0, -1.0]], [(0.1, 1.0), (-1.5, -0.2)]))
def test_closed_form_matches_the_scalar_reference(case):
    """The array closed form of the inner integral, signed and absolute,
    equals the span-by-span reference within a few ulp of the sum of the
    magnitudes of its terms: numpy's log and power may round differently
    from libm's, and the operation order c * (b**k - a**k) / k is kept."""
    from logvol.integrate import _line_absolute, _line_signed

    log_weight, rows, spans = case
    coef = np.array(rows, dtype=float).T
    a, b = (np.array(x) for x in zip(*spans))
    signed = _line_signed(coef, a, b, log_weight)
    absolute = _line_absolute(coef, a, b, log_weight, signed)
    for i, (row, (lo, hi)) in enumerate(zip(rows, spans)):
        top = max(abs(lo), abs(hi))
        terms = sum(abs(c) * 2.0 * top ** (k + 1 - log_weight) / (k + 1 - log_weight)
                    for k, c in enumerate(row) if k or not log_weight)
        if log_weight and row[0]:
            terms += abs(row[0] * math.log(hi / lo))
        tol = 8 * len(row) * np.finfo(float).eps * terms
        assert abs(signed[i] - _line_integral_reference(row, lo, hi, log_weight, False)) <= tol
        assert abs(absolute[i] - _line_integral_reference(row, lo, hi, log_weight, True)) <= tol


def _fiber_integral_case(case):
    """(region, integrand, parts): dr1/r1 ^ dr2/r2 on s_half, whose inner
    integral is a closed form; the same with a coefficient quadratic in the
    inner coordinate on s_one, whose absolute part is cut at the
    coefficient's roots; the s_half integrand times a pointwise factor; or
    a complex task of the nested annulus, whose integrand is evaluated
    pointwise and has no log coordinate."""
    from logvol import ComplexLogForm, reduce_to_real_tasks
    from logvol.integrate import Integrand, _top_integrand

    if case == "closed_form":
        region = load_region("s_half")
        return region, _top_integrand(region, dlog2()), ("re", "abs")
    if case == "polynomial":
        region = load_region("s_one")
        coeff = parse_poly("r2*r2 - 1/3*r2 - 1/5*r1", ["r1", "r2"])
        return region, _top_integrand(region, dlog2().scale(coeff)), ("re", "abs")
    if case == "pointwise_log":
        region = load_region("s_half")
        top = _top_integrand(region, dlog2())

        def factor(pts):
            return np.cos(pts[:, 0] - 3 * pts[:, 1])

        return region, Integrand(top.coeff, top.log_vars, factor), ("re", "abs")
    task = reduce_to_real_tasks(load_region("nested_annulus_c2"),
                                ComplexLogForm.volume_like(2, (0, 1)), 4)[0]
    return task.region, task.integrand(), ("re", "im", "abs")


@pytest.mark.parametrize("case", ["closed_form", "polynomial", "pointwise_log", "pointwise"])
def test_fiber_integral_is_independent_of_the_batch(case):
    """One _fiber_integral call on the bases of three panels, each excised
    at its own eps as the panels of different rungs are, gives each base
    the column its own panel's call at that eps gives, float for float, so
    the lockstep levels may batch any set of panels of any rungs together."""
    from logvol.integrate import _FiberSolver, _fiber_integral
    from logvol.slicing import AxisRestriction

    region, integrand, parts = _fiber_integral_case(case)
    inner = region.p - 1 if region.p else region.n - 1
    solver = _FiberSolver(region, inner)
    line = None
    if integrand.pointwise is None:
        line = AxisRestriction([integrand.coeff], inner, integrand.coeff.nvars)
    box = region.bounding_box()
    rng = np.random.Generator(np.random.Philox(key=11))
    panels = [np.array([[rng.uniform(lo, hi) for lo, hi in box] for _ in range(size)])
              for size in (15, 30, 15)]
    epss = [2.0**-2, 2.0**-6, 2.0**-12]
    bases = np.concatenate(panels)
    row_eps = np.concatenate([np.full(len(panel), eps) for panel, eps in zip(panels, epss)])
    joint = _fiber_integral(solver, bases, row_eps, integrand, parts, line)
    alone = [_fiber_integral(solver, panel, np.full(len(panel), eps), integrand, parts, line)
             for panel, eps in zip(panels, epss)]
    assert np.any(joint)
    assert np.array_equal(joint, np.concatenate(alone, axis=1))
    # the rows' own eps matter exactly when the inner coordinate is a log one
    same = _fiber_integral(solver, bases, np.full(len(bases), epss[1]), integrand, parts, line)
    assert np.array_equal(joint, same) == (inner not in integrand.log_vars)


def _ladder_case(case, monkeypatch):
    """(region, integrand, cfg) of a ladder whose rungs are compared with
    the rungs computed alone."""
    import logvol.integrate as integrate
    from logvol import ComplexLogForm, reduce_to_real_tasks
    from logvol.integrate import _top_integrand

    if case == "corner_3d":
        # rows of different rungs meet in the nested level of r2
        region = region_of(3, 3, ["-r1 <= 0", "r1 - 1 <= 0", "-r2 <= 0", "r2 - 1 <= 0",
                                  "-r3 <= 0", "r3 - 1 <= 0", "r1 + r2 + r3 >= 1"],
                           [(0, 1)] * 3)
        form = LogForm.dlog(3, 3, 0).wedge(LogForm.dlog(3, 3, 1)).wedge(LogForm.dlog(3, 3, 2))
        monkeypatch.setattr(integrate, "_QUAD_TOL", 1e-6)
        return region, _top_integrand(region, form), QuadConfig(ladder_len=3)
    if case == "quadrant_disk_task":
        task = reduce_to_real_tasks(load_region("quadrant_disk_c1"),
                                    ComplexLogForm.volume_like(1, (0,)), 2)[0]
        return task.region, task.integrand(), QuadConfig()
    region = load_region(case)
    n = region.n
    form = LogForm.dlog(n, n, 0)
    for v in range(1, n):
        form = form.wedge(LogForm.dlog(n, n, v))
    # a small Monte-Carlo budget: only s_half_times_s_three_quarters (n = 4) uses it
    return region, _top_integrand(region, form), QuadConfig(mc_budget=4000)


@pytest.mark.parametrize("case", ["s_half", "interval_across_zero", "negative_square",
                                  "corner_3d", "quadrant_disk_task",
                                  "s_half_times_s_three_quarters"])
def test_ladder_rungs_equal_the_rungs_computed_alone(case, monkeypatch):
    """One lockstep program serves every rung of a ladder: each entry and
    capped count of _build_ladder is, float for float, what _rung_value
    gives for that eps alone.  Above three coordinates rung k keeps its
    own Monte-Carlo key, as _mc_rung at index k draws it."""
    from logvol.integrate import _build_ladder, _mc_rung, _rung_value

    region, integrand, cfg = _ladder_case(case, monkeypatch)
    ladders = ("signed", "absolute")
    built = _build_ladder(region, integrand, cfg, ladders)
    epss = built[0].params()
    assert len(epss) == (cfg.ladder_len if integrand.log_vars else 1)
    for k, eps in enumerate(epss):
        if region.n > 3:
            alone = _mc_rung(region, integrand, eps, ladders, cfg, k)
        else:
            alone, = _rung_value(region, integrand, [eps], ladders, cfg)
        for ladder, (value, err, stderr, capped) in zip(built, alone):
            assert ladder.entries[k] == (eps, value, stderr + err)
            assert ladder.capped[k] == capped


def test_s_half_ladder_is_one_program(monkeypatch):
    """Counters, which do not vary between runs: the twelve rungs of the
    default s_half ladder share one fiber solver and one bisection per
    level, so the ladder builds one _FiberSolver (one per rung made 12).
    The graded cuts toward the -log singularity of each rung settle every
    panel in the first round, so it makes at most 6 _fiber_integral calls
    on at most 2,790 fibers (18 calls on 5,580 fibers with bisection
    zooming onto the singularity; rung by rung made 78 calls)."""
    import logvol.integrate as integrate

    calls, fibers, builds = [], [], []
    fiber_integral, solver = integrate._fiber_integral, integrate._FiberSolver

    def counted(fiber_solver, bases, *args):
        calls.append(1)
        fibers.append(len(bases))
        return fiber_integral(fiber_solver, bases, *args)

    class Counted(solver):
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    monkeypatch.setattr(integrate, "_fiber_integral", counted)
    monkeypatch.setattr(integrate, "_FiberSolver", Counted)
    res = integrate_log_form(load_region("s_half"), dlog2())
    assert res.value == pytest.approx(LI2_HALF, abs=1e-6)
    assert len(builds) == 1
    assert len(calls) <= 6
    assert sum(fibers) <= 2790


def test_deep_s_half_rungs_match_mpmath():
    """Oracle for deep rungs: 26 rungs of s_half reach eps of about 1.9e-9,
    where the outer integrand's -log singularity sits 1.9e-9 past the clip
    cut.  For eps < 1/2 the rung is the integral over 1/2 <= r1 <= 1 of
    (log(1/2) - log max(1 - r1, eps)) / r1, which mpmath integrates over
    the breakpoints [1/2, 1 - eps, 1]; every rung must match it within
    1e-10 relative, with no panel accepted at the depth cap."""
    res = integrate_log_form(load_region("s_half"), dlog2(), QuadConfig(ladder_len=26))
    assert not [flag for flag in res.flags if flag.startswith("quadrature depth cap hit")]
    assert res.ladder.params()[-1] == pytest.approx(2.0**-4 / 2**25)
    with mpmath.workdps(30):
        for eps, value in zip(res.ladder.params(), res.ladder.values()):
            e = mpmath.mpf(eps)
            exact = float(mpmath.quad(lambda r: (mpmath.log(0.5) - mpmath.log(max(1 - r, e))) / r,
                                      [0.5, 1 - e, 1]))
            assert value == pytest.approx(exact, rel=1e-10)


# ---------------------------------------------------------------------------
# decay fits


def test_fit_exact_power_law():
    fit = fit_decay_exponent([(t, t) for t in (0.5, 0.25, 0.125, 0.0625)])
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)
    assert fit.scale == pytest.approx(1.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_log_series():
    ts = [2.0**-k for k in range(3, 11)]
    fit = fit_decay_exponent([(t, -math.log(1 - t)) for t in ts])
    assert 0.95 <= fit.exponent <= 1.05


def test_fit_constant_flagged():
    fit = fit_decay_exponent([(t, 0.7) for t in (0.5, 0.25, 0.125, 0.0625)])
    assert abs(fit.exponent) < 0.05
    assert "no decay" in fit.flags


def test_fit_needs_four_entries():
    with pytest.raises(IntegrationError):
        fit_decay_exponent([(0.5, 1.0), (0.25, 0.5), (0.125, 0.0)])


# ---------------------------------------------------------------------------
# slice decay


def test_slice_decay_s_one():
    A = load_region("s_one")
    report = slice_decay_report(A, {0: 1}, LogForm.dlog(2, 2, 1))
    assert report.verdict == "decays to zero"
    assert 0.9 <= report.fit.exponent <= 1.1
    for t, vol in report.entries:
        assert vol == pytest.approx(-math.log(1 - t), abs=1e-6)


def test_slice_decay_identically_zero():
    A = load_region("s_half")
    report = slice_decay_report(A, {0: 1}, LogForm.dlog(2, 2, 1))
    assert report.verdict == "identically zero"


def test_slice_decay_needs_four_slice_values_before_any_slice(monkeypatch):
    import logvol.integrate as integrate

    calls = []
    integrate_abs_ = integrate.integrate_abs

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_abs_(*args, **kwargs)

    monkeypatch.setattr(integrate, "integrate_abs", counted)
    with pytest.raises(IntegrationError, match="at least 4"):
        slice_decay_report(load_region("s_one"), {0: 1}, LogForm.dlog(2, 2, 1), ts=[0.5, 0.25])
    assert calls == []


def test_slice_decay_gate_fires():
    with pytest.raises(RegionError, match="allowable"):
        slice_decay_report(load_region("unit_box_p2"), {0: 1}, LogForm.dlog(2, 2, 1))


def test_slice_decay_multivariable_monomial():
    """u = r1 r2 on the a=1 region: closed-form slice volumes."""
    A = load_region("s_one")
    report = slice_decay_report(
        A, {0: 1, 1: 1}, LogForm.dlog(2, 2, 0), ts=[2.0**-k for k in range(3, 9)]
    )
    assert 0.9 <= report.fit.exponent <= 1.15
    for t, vol in report.entries:
        root_m = (1 - math.sqrt(1 - 4 * t)) / 2
        root_p = (1 + math.sqrt(1 - 4 * t)) / 2
        expect = math.log(root_m / t) + math.log(1.0 / root_p)
        assert vol == pytest.approx(expect, abs=1e-5), t


def test_slice_form_restriction_drops_sliced_log():
    A = load_region("s_one")
    sliced, reduced = slice_region_and_form(A, {0: 1}, dlog2(), 0.25)
    assert reduced.is_zero()  # dr1/r1 restricts to zero on {r1 = t}


def test_unsupported_monomial_exponent():
    A = load_region("s_one")
    with pytest.raises(IntegrationError, match="unit exponent"):
        slice_region_and_form(A, {0: 2, 1: 2}, LogForm.dlog(2, 2, 1), 0.25)


# ---------------------------------------------------------------------------
# pushforward bound


def test_bound_square_map_on_unit_interval():
    S = region_of(1, 0, ["-x1 <= 0", "x1 - 1 <= 0"], [(0, 1)])
    f = parse_poly("x1^2", ["x1"])
    rep = pushforward_bound_check(S, [f], Polynomial.const(1, 1))
    assert rep.verdict == "pass"
    assert rep.lhs == pytest.approx(1.0, abs=1e-6)
    assert rep.delta == 1


def test_bound_square_map_on_symmetric_interval():
    S = region_of(1, 0, ["-1 - x1 <= 0", "x1 - 1 <= 0"], [(-1, 1)])
    f = parse_poly("x1^2", ["x1"])
    rep = pushforward_bound_check(S, [f], Polynomial.const(1, 1))
    assert rep.verdict == "pass"
    assert rep.lhs == pytest.approx(0.0, abs=1e-6)  # odd integrand cancels
    assert rep.delta == 2


def test_bound_three_sheets():
    # x (x - 7/10)(x - 4/5) folds [0, 1] three times over part of its image
    S = region_of(1, 0, ["-x1 <= 0", "x1 - 1 <= 0"], [(0, 1)])
    f = parse_poly("x1^3 - 3/2*x1^2 + 14/25*x1", ["x1"])
    rep = pushforward_bound_check(S, [f], Polynomial.const(1, 1))
    assert rep.verdict == "pass"
    assert rep.delta == 3
    assert rep.lhs == pytest.approx(0.06, abs=1e-6)  # f(1) - f(0)


def test_bound_zero_coefficient():
    S = region_of(1, 0, ["-x1 <= 0", "x1 - 1 <= 0"], [(0, 1)])
    f = parse_poly("x1", ["x1"])
    rep = pushforward_bound_check(S, [f], Polynomial.zero(1))
    assert rep.verdict == "pass"
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-9)


def _delta_probe_reference(region, f, samples, cap, seed):
    """The fiber-cardinality probe one sample at a time: f - u by Polynomial
    arithmetic, its roots through the one-column finder, stopping at the
    first sample over the cap."""
    from logvol.slicing import _column_roots

    xs = np.linspace(*region.bounding_box()[0], 512)
    fvals = f.eval_many(xs[:, None])[region.members(xs[:, None])]
    lo, hi = float(fvals.min()), float(fvals.max())
    rng = np.random.Generator(np.random.Philox(key=seed))
    best = hits = 0
    for _ in range(samples):
        shifted = f - Polynomial.const(1, float(rng.uniform(lo, hi)))
        coeffs = [0.0] * (shifted.degree() + 1)
        for (e,), c in shifted.terms.items():
            coeffs[e] = float(c)
        roots = _column_roots(coeffs)
        count = int(region.members(np.array(roots).reshape(-1, 1)).sum())
        hits += count > 0
        best = max(best, count)
        if best > cap:
            return best, hi - lo, (lo, hi)
    return best, (hi - lo) * hits / samples, (lo, hi)


@pytest.mark.parametrize("poly", ["x1^2", "x1^3 - 3/2*x1^2 + 14/25*x1", "2*x1 + 1/3", "1/7"])
@pytest.mark.parametrize("cap", [1, 64])
def test_delta_probe_matches_the_per_sample_loop(poly, cap):
    """All samples of the probe solved in one `real_roots` call give the
    per-sample loop's count, image volume and range, exactly, including the
    first sample over a cap of 1."""
    from logvol.integrate import _delta_probe_1d

    S = region_of(1, 0, ["-1 - x1 <= 0", "x1 - 1 <= 0"], [(-1, 1)])
    f = parse_poly(poly, ["x1"])
    assert _delta_probe_1d(S, f, 96, cap, 5) == _delta_probe_reference(S, f, 96, cap, 5)


# ---------------------------------------------------------------------------
# deformation limits


def test_deformation_shift_family():
    S = region_of(1, 0, ["-x1 <= 0", "x1 - 1 <= 0"], [(0, 1)])
    # h_t(x) = x + t, psi = y dy: int = 1/2 + t
    comps = [parse_poly("x1 + x2", ["x1", "x2"])]  # x2 is the parameter slot
    psi = LogForm.term(1, 0, Polynomial.var(1, 0), (), (0,))
    ladder, v0 = deformation_limit_check(S, comps, psi)
    assert v0 == pytest.approx(0.5, abs=1e-9)
    for t, value, _ in ladder.entries:
        assert value == pytest.approx(0.5 + t, abs=1e-9)
    assert ladder.verdict == "converged"
    assert ladder.limit == pytest.approx(0.5, abs=1e-3)


def test_deformation_constant_family():
    S = region_of(1, 0, ["-x1 <= 0", "x1 - 1 <= 0"], [(0, 1)])
    comps = [parse_poly("x1", ["x1", "x2"])]
    psi = LogForm.term(1, 0, Polynomial.var(1, 0), (), (0,))
    ladder, v0 = deformation_limit_check(S, comps, psi)
    assert ladder.verdict == "converged"
    assert ladder.limit == pytest.approx(v0, abs=1e-12)
