"""Boundary-versus-differential identities on simplices."""

import math
from fractions import Fraction

import pytest

from logvol import (
    LogForm,
    Polynomial,
    SimplexMap,
    StokesError,
    boundary_chain,
    check_stokes,
    deformation_limit_check,
    integrate_log_form,
    parse_poly,
    simplex_region,
    t_excision,
    t_excision_region,
)
from logvol.stokes import boundary_of_boundary_cancels

F = Fraction


# ---------------------------------------------------------------------------
# retraction


def test_t_excision_identity_at_zero():
    assert t_excision([0.3, 0.4], 0.0) == [pytest.approx(0.3), pytest.approx(0.4)]


def test_t_excision_moves_origin():
    assert t_excision([F(0), F(0)], F(1, 10)) == [F(1, 10), F(1, 10)]


def test_t_excision_vertex_lands_on_shrunken_boundary():
    image = t_excision([F(1), F(0)], F(1, 10))
    assert image == [F(4, 5), F(1, 10)]
    assert sum(image) == 1 - F(1, 10)


def test_t_excision_range_check():
    with pytest.raises(StokesError):
        t_excision([0.5, 0.5], 0.4)


def test_excision_exhaustion_matches_jacobian_scaling(monkeypatch):
    """vol(S_t) = (1 - (m+1) t)^m vol(simplex), to 1e-9 for m <= 2."""
    import logvol.integrate as integrate

    with monkeypatch.context() as tight:
        tight.setattr(integrate, "_QUAD_TOL", 1e-12)
        tight.setattr(integrate, "_MAX_DEPTH", 30)
        for m in (1, 2):
            vol_form = LogForm.term(m, 0, Polynomial.const(m, 1), (), tuple(range(m)))
            full = 1.0 / math.factorial(m)
            for t in (F(1, 10), F(1, 100)):
                res = integrate_log_form(t_excision_region(m, t), vol_form)
                expect = float((1 - (m + 1) * t)) ** m * full
                assert res.value == pytest.approx(expect, abs=1e-9), (m, t)
    # one three-dimensional spot check at a looser tolerance
    vol3 = LogForm.term(3, 0, Polynomial.const(3, 1), (), (0, 1, 2))
    res = integrate_log_form(t_excision_region(3, F(1, 10)), vol3)
    assert res.value == pytest.approx((1 - 0.4) ** 3 / 6, abs=1e-7)


# ---------------------------------------------------------------------------
# boundary chain


def test_boundary_of_interval_is_signed_points():
    chain = boundary_chain(1)
    ends = [(face.sign, float(face.components[0].eval([]))) for face in chain.faces]
    assert ends == [(1, 1.0), (-1, 0.0)]


def test_triangle_has_three_edges():
    assert len(boundary_chain(2).faces) == 3


@pytest.mark.parametrize("m", [2, 3, 4])
def test_boundary_of_boundary_cancels(m):
    assert boundary_of_boundary_cancels(m)


# ---------------------------------------------------------------------------
# the main identity


def test_calibration_case_half():
    h = SimplexMap.identity(2)
    psi = LogForm.term(2, 0, Polynomial.var(2, 0), (), (1,))
    rep = check_stokes(h, psi)
    assert rep.lhs == pytest.approx(0.5, abs=1e-9)
    assert rep.rhs == pytest.approx(0.5, abs=1e-9)
    assert rep.residual < 1e-9


def test_closed_form_gives_zero_both_sides():
    h = SimplexMap.identity(2)
    rep = check_stokes(h, LogForm.dx(2, 0, 1))
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_curved_map_residual():
    h = SimplexMap(2, [Polynomial.var(2, 0) ** 2, Polynomial.var(2, 1)])
    psi = LogForm.term(2, 0, Polynomial.var(2, 0), (), (1,))
    assert check_stokes(h, psi).residual < 1e-6


def corpus():
    """Ten (map, integrand) pairs with polynomial degree at most three."""
    x = [Polynomial.var(2, i) for i in range(2)]
    y3 = [Polynomial.var(3, i) for i in range(3)]
    u2 = ["x1", "x2"]
    cases = [
        (SimplexMap.identity(2), "x1 ^ dx2"),
        (SimplexMap.identity(2), "x2 ^ dx1"),
        (SimplexMap(2, [x[0] ** 2, x[1]]), "x1 ^ dx2"),
        (SimplexMap(2, [x[0], x[1] ** 3]), "x1 ^ dx2"),
        (SimplexMap(2, [x[0] * x[1], x[1]]), "x2 ^ dx1"),
        (SimplexMap(2, [x[0] + x[1] ** 2, x[1]]), "x1*x2 ^ dx2"),
        (SimplexMap(2, [x[0] ** 2 - x[1], x[0] + x[1]]), "x1 ^ dx2"),
        (SimplexMap(2, [x[0] ** 3, x[1] ** 2]), "x2 ^ dx2"),
        (SimplexMap(3, [y3[0], y3[1] * y3[2], y3[2]]), "x1 ^ dx2 ^ dx3"),
        (SimplexMap(3, [y3[0] ** 2, y3[1], y3[2]]), "x3 ^ dx1 ^ dx2"),
    ]
    out = []
    for h, text in cases:
        target_names = [f"x{i + 1}" for i in range(h.target_dim)]
        factors = text.split("^")
        coeff = parse_poly(factors[0].strip(), target_names)
        form = None
        for factor in factors[1:]:
            idx = int(factor.strip()[2:]) - 1
            piece = LogForm.dx(h.target_dim, 0, idx)
            form = piece if form is None else form.wedge(piece)
        out.append((h, form.scale(coeff)))
    return out


def test_corpus_residuals_below_tolerance():
    for h, psi in corpus():
        rep = check_stokes(h, psi)
        assert rep.residual < 1e-6, (h.components, rep)


# ---------------------------------------------------------------------------
# deformation of the boundary integral


def test_boundary_integral_converges_along_the_retraction():
    """The boundary integral of psi pulled through the excision retraction
    converges to the t = 0 boundary integral, face by face."""
    m = 2
    psi = LogForm.term(2, 0, Polynomial.var(2, 0), (), (1,))
    chain = boundary_chain(m)
    # the face domain is 1-dimensional, so the lifted maps live on (y, t)
    scale = Polynomial.const(2, 1) - (m + 1) * Polynomial.var(2, 1)

    total_limit = 0.0
    total_v0 = 0.0
    for face in chain.faces:
        comps = []
        for emb in face.components:
            lifted = emb.map_vars([0], 2)
            comps.append(scale * lifted + Polynomial.var(2, 1))
        face_domain = simplex_region(1)
        ladder, v0 = deformation_limit_check(
            face_domain, comps, psi, ts=[2.0**-k for k in range(2, 13)]
        )
        assert ladder.verdict == "converged"
        assert abs(ladder.limit - v0) <= ladder.error + 1e-9
        total_limit += face.sign * ladder.limit
        total_v0 += face.sign * v0
    assert total_limit == pytest.approx(total_v0, abs=2e-4)
    assert total_v0 == pytest.approx(0.5, abs=1e-9)
