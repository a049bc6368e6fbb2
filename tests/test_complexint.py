"""Sector reduction, polar pullbacks and admissible integration."""

import cmath
import contextlib
import io
import math
import re
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import REGIONS, annulus_slice_tasks, load_region, region_of
from logvol import (
    ComplexIntError,
    ComplexLogForm,
    Partition,
    Polynomial,
    ProbeConfig,
    QuadConfig,
    annulus_slice_decay,
    conjugate_region,
    integrate_admissible,
    polar_inverse,
    polar_map,
    reduce_to_real_tasks,
    sector_decompose,
    task_allowability,
)
from logvol import region as region_mod
from logvol.cli import run as cli_run
from logvol.complexint import (GATE_CONTRADICTION_FLAG, PROBE_GATE_FLAG, _lift_cells,
                               _lift_payload, _polar_factor, _reduce_lift, _sector_pieces,
                               sector_constraints, transform_piece)


# ---------------------------------------------------------------------------
# the polar map


def test_polar_axis_point():
    assert polar_map(1.0, 0.0, 1) == pytest.approx((1.0, 0.0))


def test_polar_diagonal_point():
    x, y = polar_map(1.0, 2**0.5 - 1, 1)  # t = tan(pi / 8)
    assert (x, y) == pytest.approx((2**-0.5, 2**-0.5))


def test_polar_collapses_origin():
    assert polar_map(0.0, 0.7, 2) == pytest.approx((0.0, 0.0))


def test_polar_inverse_examples():
    assert polar_inverse(1.0, 0.0, 1) == pytest.approx((1.0, 0.0))
    assert polar_inverse(2**-0.5, 2**-0.5, 1) == pytest.approx((1.0, 2**0.5 - 1))
    assert polar_inverse(0.0, 1.0, 1) == pytest.approx((1.0, 1.0))  # on the edge
    # the second half-plane is the first turned by a half turn
    assert polar_inverse(-1.0, 0.0, 2) == pytest.approx((1.0, 0.0))
    assert polar_inverse(0.0, 1.0, 2) == pytest.approx((1.0, -1.0))
    assert polar_inverse(-0.6, -0.8, 2) == pytest.approx((1.0, 0.5))


def test_polar_inverse_rejects_origin_and_outside():
    with pytest.raises(ComplexIntError):
        polar_inverse(0.0, 0.0, 1)
    with pytest.raises(ComplexIntError):
        polar_inverse(-0.5, 1.0, 1)  # half-plane 1 needs x >= 0
    with pytest.raises(ComplexIntError):
        polar_inverse(-1.0, 0.0, 1)  # the far axis, where r + x = 0


def test_polar_round_trip_all_sectors():
    rng = np.random.Generator(np.random.Philox(key=9))
    for sector in (1, 2):
        rs = rng.uniform(0.05, 3.0, size=1000)
        ts = rng.uniform(-1.0, 1.0, size=1000)
        for r, t in zip(rs, ts):
            x, y = polar_map(r, t, sector)
            r2, t2 = polar_inverse(x, y, sector)
            assert abs(r2 - r) <= 1e-14 * max(1.0, r)
            assert abs(t2 - t) <= 1e-13


@pytest.mark.parametrize("sector", [1, 2])
@pytest.mark.parametrize("edge", [1.0, -1.0])
def test_polar_round_trip_at_sector_edges(sector, edge):
    """A point on a half-plane edge (the imaginary axis), or within the
    edge tolerance beyond it, maps to a t that polar_map accepts, and back
    to the same point; a point further out is outside for both
    functions."""
    for beyond in (0.0, 5e-10):
        t = edge * (1.0 + beyond)
        x, y = polar_map(1.3, t, sector)
        r2, t2 = polar_inverse(x, y, sector)
        assert r2 == pytest.approx(1.3, rel=1e-15)
        assert t2 == pytest.approx(t, abs=1e-15)
        assert polar_map(r2, t2, sector) == pytest.approx((x, y), abs=1e-15)
    far = edge * (1.0 + 1e-8)
    with pytest.raises(ComplexIntError):
        polar_map(1.3, far, sector)
    # the point at t = far, written out by the half-angle formula
    sigma = polar_map(1.0, 0.0, sector)[0]
    x, y = sigma * (1 - far * far) / (1 + far * far), sigma * 2 * far / (1 + far * far)
    with pytest.raises(ComplexIntError, match="outside"):
        polar_inverse(x, y, sector)


def test_polar_jacobian_identity():
    """|det d(polar_map)| = 2r / (t^2 + 1), by central finite differences."""
    rng = np.random.Generator(np.random.Philox(key=4))
    h = 1e-6
    for _ in range(100):
        r = float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(-0.9, 0.9))
        sector = int(rng.integers(1, 3))

        def jac_col(dr, dt):
            x1, y1 = polar_map(r + dr, t + dt, sector)
            x0, y0 = polar_map(r - dr, t - dt, sector)
            return ((x1 - x0) / (2 * (dr + dt)), (y1 - y0) / (2 * (dr + dt)))

        a, c = jac_col(h, 0.0)
        b, d = jac_col(0.0, h)
        det = abs(a * d - b * c)
        assert det == pytest.approx(2 * r / (t**2 + 1), rel=1e-6)


# ---------------------------------------------------------------------------
# half-planes


def test_disk_decomposes_into_two_halves():
    pieces = sector_decompose(load_region("disk_c1"))
    assert len(pieces) == 2
    assert sorted(alphas for alphas, _ in pieces) == [(1,), (2,)]


def test_interior_region_single_sector():
    A = region_of(
        2, 1,
        ["zr1 - 1 <= 0", "1/2 - zr1 <= 0", "zi1 - 1/4 <= 0", "-1/4 - zi1 <= 0"],
        [(0, 1), (-1, 1)],
        kind="complex",
    )
    pieces = sector_decompose(A)
    assert [alphas for alphas, _ in pieces] == [(1,)]


def test_nested_annulus_keeps_four_pieces():
    pieces = sector_decompose(load_region("nested_annulus_c2"))
    assert len(pieces) == 4


def test_sector_tiling_measures_disk():
    """Monte-Carlo area of the disk equals the sum over its half-plane
    pieces."""
    rng = np.random.Generator(np.random.Philox(key=21))
    pts = rng.uniform(-1.0, 1.0, size=(200000, 2))
    disk = load_region("disk_c1")
    total_area = 4.0 * disk.members(pts).mean()
    pieces = sector_decompose(disk)
    piece_area = 0.0
    for _, piece in pieces:
        piece_area += 4.0 * piece.members(pts).mean()
    # the overlap is the imaginary axis: measure zero
    stderr = 4.0 * math.sqrt(0.25 / len(pts))
    assert piece_area == pytest.approx(total_area, abs=6 * stderr)
    assert total_area == pytest.approx(math.pi, abs=6 * stderr)


def test_sector_rows_match_the_hand_written_rows():
    """The row read off the sign table is each half-plane's sigma x >= 0,
    as written out by hand."""
    x = Polynomial.var(3, 0)
    want = {1: -x, 2: x}
    for sector, row in want.items():
        (got,) = sector_constraints(sector, 3, 0)
        assert got.payload == row and not got.equality
    with pytest.raises(ComplexIntError):
        sector_constraints(3, 3, 0)


# ---------------------------------------------------------------------------
# the exact polar lift

# Reference lift: a sparse algebra on sorted ((kind, index), exponent) keys
# that states the half-angle map z = sigma r (1 - t^2 + 2 i t) / (1 + t^2)
# with zr = sigma r (1 - t^2) / (1 + t^2) and zi = sigma r 2t / (1 + t^2),
# the numerators as {power of t: coefficient}.
_REF_SIGNS = {1: 1, 2: -1}


def _ref_mul_in(term_map, var, power):
    out = {}
    for key, c in term_map.items():
        kd = dict(key)
        kd[var] = kd.get(var, 0) + power
        out[tuple(sorted(kd.items()))] = c
    return out


def _ref_mul_poly(term_map, poly, t_var):
    out = {}
    for power, c0 in poly.items():
        shifted = _ref_mul_in(term_map, t_var, power) if power else term_map
        for key, c in shifted.items():
            out[key] = out.get(key, Fraction(0)) + c * c0
    return {k: v for k, v in out.items() if v != 0}


def _ref_factor(i, nc, sigma, a_e, b_e, d):
    """zr_i^a zi_i^b (1 + t_i^2)^d over (r, t) as {exponent: coefficient},
    every factor multiplied out."""
    t_var = ("v", nc + i)
    factor = _ref_mul_in({(): Fraction(1)}, ("v", i), a_e + b_e) if a_e + b_e else {(): 1}
    for _ in range(a_e):
        factor = _ref_mul_poly(factor, {0: sigma, 2: -sigma}, t_var)
    for _ in range(b_e):
        factor = _ref_mul_poly(factor, {1: 2 * sigma}, t_var)
    for _ in range(d - a_e - b_e):
        factor = _ref_mul_poly(factor, {0: 1, 2: 1}, t_var)
    out = {}
    for key, c in factor.items():
        exp = [0] * (2 * nc)
        for (_, idx), e in key:
            exp[idx] = e
        out[tuple(exp)] = c
    return out


def _ref_lift(payload, alphas, nc):
    """(the lift over (r, t) with its terms in order, the monomials whose
    running sum cancelled and came back).  Each coordinate factor is the
    reference algebra's, taken in the order of `_polar_factor`'s terms, and
    multiplied in as `_lift_payload` does, the last coordinate outermost;
    a monomial sits where it first appears, a cancelled one included."""
    degree = [max((e[2 * i] + e[2 * i + 1] for e in payload.terms), default=0)
              for i in range(nc)]
    work, returned = {}, set()
    for exp, coeff in payload.terms.items():
        factors = []
        for i in range(nc):
            a_e, b_e = exp[2 * i], exp[2 * i + 1]
            want = _ref_factor(i, nc, _REF_SIGNS[alphas[i]], a_e, b_e, degree[i])
            got = _polar_factor(nc, i, alphas[i], a_e, b_e, degree[i]).terms
            assert got == want
            factors.append(list(got.items()))
        for combo in iproduct(*reversed(factors)):
            key = tuple(map(sum, zip(*(e for e, _ in combo))))
            c = coeff * math.prod(c for _, c in combo)
            prev = work.get(key)
            if prev == 0:
                returned.add(key)
            work[key] = c if prev is None else prev + c
    terms = {key: c for key, c in work.items() if c}
    return Polynomial(2 * nc, terms), returned & set(terms)


@st.composite
def _payloads(draw):
    nc = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 3)] * (2 * nc))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=6))
    return nc, Polynomial(2 * nc, terms)


# zi1^2 zi2^2 / 4 + zi1^2 zr2^2 / 2 + zr1^2 zr2^2 / 2: the monomial
# r1^2 r2^2 t1^2 t2^2 of its lift reads 4, then 4 - 4 = 0, then 2
_RETURNING = Polynomial(4, {(0, 2, 0, 2): Fraction(1, 4), (0, 2, 2, 0): Fraction(1, 2),
                            (2, 0, 2, 0): Fraction(1, 2)})


@settings(max_examples=60)
@given(_payloads())
@example((2, _RETURNING))
def test_lift_matches_reference(case):
    """The same polynomial and the same term order as the reference
    algebra, with no zero term stored, for every half-plane assignment.  In
    the explicit example monomials cancel between payload terms and come
    back with later ones; each keeps its first position."""
    nc, payload = case
    for alphas in iproduct((1, 2), repeat=nc):
        got = _lift_payload(payload, alphas, nc)
        want, returned = _ref_lift(payload, alphas, nc)
        assert got.nvars == 2 * nc and all(got.terms.values())
        assert list(got.terms.items()) == list(want.terms.items())


def test_lift_keeps_the_first_position_of_a_returning_monomial():
    """The first payload term of the explicit example of
    test_lift_matches_reference lifts to the one monomial
    16 r1^2 r2^2 t1^2 t2^2 / 4; the second cancels it and the third brings
    it back.  It keeps the first position, ahead of the monomials the
    second term brought in."""
    for alphas in iproduct((1, 2), repeat=2):
        assert _ref_lift(_RETURNING, alphas, 2)[1] == {(2, 2, 2, 2)}
        lift = _lift_payload(_RETURNING, alphas, 2)
        assert next(iter(lift.terms.items())) == ((2, 2, 2, 2), 2)


def _polar_point(rng, nc: int, r_zero: bool, t_edge: bool):
    """An exact point (r, t) with each r > 0, or r >= 0 when r_zero, and
    each |t| < 1, or |t| <= 1 when t_edge."""
    r, t = [], []
    for _ in range(nc):
        q = int(rng.integers(1, 13))
        r.append(Fraction(int(rng.integers(0 if r_zero else 1, 40)), int(rng.integers(1, 20))))
        t.append(Fraction(int(rng.integers(-q if t_edge else 1 - q, q + 1 if t_edge else q)), q))
    return r + t


@settings(max_examples=30)
@given(_payloads(), st.integers(0, 2**32 - 1))
def test_lift_is_the_cleared_payload_at_the_polar_point(case, seed):
    """At rational (r, t), edges included, the lift equals
    prod (1 + t_i^2)^(d_i) payload(z) exactly, for the pair degrees d_i and
    z = sigma r (1 - t^2 + 2 i t) / (1 + t^2)."""
    nc, payload = case
    rng = np.random.Generator(np.random.Philox(key=seed))
    degree = [max(e[2 * i] + e[2 * i + 1] for e in payload.terms) for i in range(nc)]
    for alphas in iproduct((1, 2), repeat=nc):
        lifted = _lift_payload(payload, alphas, nc)
        for _ in range(8):
            point = _polar_point(rng, nc, r_zero=True, t_edge=True)
            z, clear = [], Fraction(1)
            for i, a in enumerate(alphas):
                r, t = point[i], point[nc + i]
                scale = _REF_SIGNS[a] * r / (1 + t * t)
                z += [scale * (1 - t * t), scale * 2 * t]
                clear *= (1 + t * t) ** degree[i]
            assert lifted.eval(point) == clear * payload.eval(z)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@settings(max_examples=40)
@given(_payloads(), st.integers(0, 2**32 - 1))
@example((1, Polynomial(2, {(2, 0): 1, (0, 2): 1, (0, 0): Fraction(-9, 4)})), 0)
@example((2, Polynomial(4, {(0, 0, 2, 0): 1, (0, 0, 0, 2): 1, (2, 0, 0, 0): -1,
                            (0, 2, 0, 0): -1})), 1)
@example((2, Polynomial(4, {(0, 0, 2, 0): 1, (0, 0, 0, 2): 1, (2, 0, 0, 0): -1,
                            (0, 2, 0, 0): -1, (0, 0, 0, 0): Fraction(-9, 4)})), 2)
@example((1, Polynomial(2, {(1, 0): 1, (0, 1): -1})), 3)
@example((2, Polynomial(4, {(0, 0, 2, 0): 1, (0, 0, 0, 2): 1, (2, 0, 0, 0): -4,
                            (0, 2, 0, 0): -4})), 4)
@example((2, Polynomial(4, {(2, 0, 0, 0): 9, (0, 2, 0, 0): 9, (0, 0, 2, 0): -1,
                            (0, 0, 0, 2): -1})), 5)
@example((2, Polynomial(4, {(2, 0, 1, 0): 1, (0, 2, 1, 0): 1, (0, 0, 1, 0): -1})), 6)
@example((1, Polynomial(2, {(1, 0): -1, (0, 1): 2})), 7)
@example((1, Polynomial(2, {(3, 0): 1, (1, 2): -3})), 8)
def test_reduced_lift_keeps_the_sign_of_the_lift(case, seed):
    """For every half-plane assignment, both kinds of row and both edge
    rules, the reduced row has the sign of the lifted row at exact polar
    points: with r > 0 for an inequality (its strict transform may differ
    on {r_i = 0}), and with |t| < 1 as well under the edge rule (which may
    differ on the edges t_i = +-1); with r >= 0 and |t| <= 1 for an
    equality, whose zero set on the polar domain is thus the same.
    Reducing a reduced row changes nothing."""
    nc, payload = case
    rng = np.random.Generator(np.random.Philox(key=seed))
    for alphas in iproduct((1, 2), repeat=nc):
        lifted = _lift_payload(payload, alphas, nc)
        for equality, full_dim in iproduct((False, True), repeat=2):
            reduced = _reduce_lift(lifted, equality, nc, full_dim)
            assert _reduce_lift(reduced, equality, nc, full_dim) == reduced
            for _ in range(6):
                point = _polar_point(rng, nc, r_zero=equality,
                                     t_edge=equality or not full_dim)
                assert _sign(reduced.eval(point)) == _sign(lifted.eval(point))


def _reduced(payload: Polynomial, alphas, equality=False, full_dim=True) -> Polynomial:
    return _reduce_lift(_lift_payload(payload, alphas, len(alphas)), equality, len(alphas),
                        full_dim)


def test_reduced_lift_examples():
    """The disk row lifts to r - rho and the annulus row to r2 - r1 in
    every half-plane.  Under the edge rule the half-plane row zr >= 0 reads
    -1 <= 0 in its own half-plane and 1 <= 0, which empties the cell, in
    the other; without it the row keeps the factor 1 - t^2, and the
    equality zr = 0 keeps its factors r and 1 - t^2 either way.  The cone
    row 2 zi <= zr becomes the quadratic t^2 + 4t - 1 <= 0."""
    zr, zi = Polynomial.var(2, 0), Polynomial.var(2, 1)
    r, t = Polynomial.var(2, 0), Polynomial.var(2, 1)
    for a in (1, 2):
        assert _reduced(zr * zr + zi * zi - Fraction(9, 4), (a,)) == r - Fraction(3, 2)
        assert _reduced(Fraction(9, 4) - zr * zr - zi * zi, (a,)) == Fraction(3, 2) - r
    z4 = [Polynomial.var(4, v) for v in range(4)]
    annulus = z4[2] ** 2 + z4[3] ** 2 - z4[0] ** 2 - z4[1] ** 2
    r1, r2 = Polynomial.var(4, 0), Polynomial.var(4, 1)
    for alphas in iproduct((1, 2), repeat=2):
        assert _reduced(annulus, alphas) == r2 - r1
        assert _reduced(annulus, alphas, equality=True) == r2 - r1
        assert _reduced(annulus - 3 * z4[0] ** 2 - 3 * z4[1] ** 2, alphas) == r2 - 2 * r1
        assert _reduced(-4 * annulus, alphas) == r1 - r2
        # zr2 (|z1|^2 - 1) <= 0 in half-plane 1 of z2: the content r2 and the
        # edge factor 1 - t2^2 go first
        assert _reduced(z4[2] * (z4[0] ** 2 + z4[1] ** 2 - 1), (alphas[0], 1)) == r1 - 1
    # either term order of a two-radius row gives the same row
    for first, second in (((2, 0), -4), ((0, 2), 1)), (((0, 2), 1), ((2, 0), -4)):
        row = Polynomial(4, {first[0] + (0,) * 2: first[1], second[0] + (0,) * 2: second[1]})
        assert _reduce_lift(row, False, 2) == r2 - 2 * r1
    assert _lift_payload(-zi, (1,), 1) == -2 * r * t
    assert _reduce_lift(-2 * r * t, False, 1) == -2 * t
    assert _reduce_lift(-2 * r * t, True, 1) == -2 * r * t
    assert _reduced(-zr, (1,)) == Polynomial.const(2, -1)
    assert _reduced(-zr, (2,)) == Polynomial.const(2, 1)
    assert _reduced(-zr, (2,), equality=True) == r - r * t * t
    assert _reduced(-zr, (1,), full_dim=False) == t * t - 1
    assert _reduced(-zr, (2,), full_dim=False) == 1 - t * t
    assert _reduced(-zr, (2,), equality=True, full_dim=False) == r - r * t * t
    assert _reduce_lift(r * r - 2, False, 1) == r * r - 2  # no rational root
    # a non-radial row stays as it lifts: zr >= 1/2 is (t^2 + 1)/2 - r (1 - t^2)
    assert _reduced(Fraction(1, 2) - zr, (1,)) == (t * t + 1) * Fraction(1, 2) - r * (1 - t * t)
    assert _reduced(2 * zi - zr, (1,)) == t * t + 4 * t - 1
    shell = region_of(2, 1, [], [(0, 2), (-1, 1)])
    assert region_mod.simplify_cell(shell, region_mod.Cell(
        [region_mod.Constraint(_reduced(-zr, (2,)))])) is None


def test_quadrant_half_plane_that_meets_it_on_its_edge_comes_out_empty():
    """The left half-plane meets the quadrant only on the segment zr = 0,
    the edge t = -1 of its polar domain; after the edge rule its row
    zr >= 0 reads 1 <= 0, so it makes no task."""
    region = load_region("quadrant_disk_c1")
    part = Partition((), (), (0,))
    cells = {alphas: transform_piece(piece, alphas, part,
                                     lifted=_lift_cells(piece, alphas, True)).cells
             for alphas, _aug, piece in _sector_pieces(region)}
    assert set(cells) == {(1,), (2,)}
    assert cells[(2,)] == [] and cells[(1,)]


def test_slice_cells_list_each_row_once():
    """On the slice |z1| = 1/4 the annulus row r2 - r1 <= 0 becomes the
    slice bound r2 - 1/4 <= 0, and each task cell lists that row once."""
    region = load_region("nested_annulus_c2")
    r1, r2 = Polynomial.var(4, 0), Polynomial.var(4, 1)
    rows = [(r1 - Fraction(1, 4), True), (r2 - Fraction(1, 4), False)]
    bound = region_mod.Constraint(Polynomial.var(3, 0) - Fraction(1, 4))
    for alphas, _aug, piece in _sector_pieces(region):
        for cell in transform_piece(piece, alphas, Partition((), (0,), (1,)), rows,
                                    {0: 0.25}).cells:
            assert cell.constraints.count(bound) == 1
            assert len(set(cell.constraints)) == len(cell.constraints)


@pytest.mark.parametrize("name, R, m, count", [
    ("disk_c1", (0,), 2, 2),
    ("quadrant_disk_c1", (0,), 2, 1),
    ("nested_annulus_c2", (0, 1), 4, 4),
])
def test_radial_regions_lift_to_linear_cells(name, R, m, count):
    """The disk, quadrant and annulus tasks are linear cells with no
    auxiliary."""
    tasks = reduce_to_real_tasks(load_region(name), ComplexLogForm.volume_like(len(R), R), m)
    assert len(tasks) == count
    for task in tasks:
        for cell in task.region.cells:
            assert cell.is_linear() and not cell.extra


# ---------------------------------------------------------------------------
# pullback structure


def test_volume_pair_pullback_matches_identity():
    """n = 1, R = {1}: the pulled-back coefficient is 4 i sigma (t + i)^2 =
    sigma (-8t + 4i (t^2 - 1)) against the prefactor (t^2 + 1)^(-2)."""
    from logvol import pullback_complex_log_form

    form = ComplexLogForm.volume_like(1, (0,))
    part = Partition((), (), (0,))
    t = Polynomial.var(2, 1)
    for sector, sigma in ((1, 1), (2, -1)):
        (pulled,) = pullback_complex_log_form(form, (sector,), part)
        assert pulled.poly_re == -8 * sigma * t
        assert pulled.poly_im == 4 * sigma * (t * t - 1)
        assert pulled.prefactor == [(1, 2)]
        assert pulled.log_positions == ()


def _pullback_cases():
    """(region, form, m, check_gate): the admissible corpus, the P/Q split of
    a single dz/z (whose m = 1 gate the 2-dimensional disk cannot pass) and
    the non-constant coefficient a = z1."""
    cases = [(region, form, m, True) for region, form, m in admissible_corpus()]
    cases.append((
        load_region("quadrant_disk_c1"),
        ComplexLogForm(1, 0, [(Polynomial.const(2, 1), Polynomial.zero(2), ())]),
        1, False,
    ))
    cases.append((
        load_region("disk_c1"),
        ComplexLogForm(1, 1, [(Polynomial.var(2, 0), Polynomial.var(2, 1), (0,))]),
        2, True,
    ))
    return cases


def test_pullback_matches_reduced_tasks():
    """pullback_complex_log_form and reduce_to_real_tasks build the same task
    data for every sector and partition the reduction keeps."""
    from logvol import pullback_complex_log_form

    rng = np.random.Generator(np.random.Philox(key=5))
    seen = set()
    for region, form, m, gate in _pullback_cases():
        for task in reduce_to_real_tasks(region, form, m, check_gate=gate):
            (pulled,) = pullback_complex_log_form(form, task.sector, task.partition)
            assert pulled.region is None
            assert pulled.sector == task.sector
            assert pulled.partition == task.partition
            assert pulled.poly_re == task.poly_re
            assert pulled.poly_im == task.poly_im
            assert pulled.prefactor == task.prefactor
            assert pulled.log_positions == task.log_positions
            assert (pulled.coeff_eval is None) == (task.coeff_eval is None)
            if task.coeff_eval is not None:
                pts = np.stack([rng.uniform(0.05, 1.0, size=20),
                                rng.uniform(-1.0, 1.0, size=20)], axis=1)
                assert np.array_equal(pulled.coeff_eval(pts), task.coeff_eval(pts))
            p = task.partition
            seen.add((bool(p.P), bool(p.Q), bool(p.R), task.coeff_eval is None))
    # P-only, Q-only, R-only and mixed partitions, constant and not
    assert {(True, False, False, True), (False, True, False, True),
            (False, False, True, True), (True, False, True, True),
            (False, True, True, True), (False, False, True, False)} <= seen


def test_pullback_partition_degree_validated():
    from logvol import pullback_complex_log_form

    form = ComplexLogForm.volume_like(1, (0,))
    with pytest.raises(ComplexIntError, match="degree"):
        pullback_complex_log_form(form, (1,), Partition((0,), (), ()))


def test_single_dz_splits_into_two_tasks():
    A = load_region("quadrant_disk_c1")
    form = ComplexLogForm(1, 0, [(Polynomial.const(2, 1), Polynomial.zero(2), ())])
    # structural check of the task split (the disk itself is 2-dimensional,
    # so the m = 1 admissibility gate is bypassed)
    tasks = reduce_to_real_tasks(A, form, 1, check_gate=False)
    kinds = {(t.partition.P, t.partition.Q) for t in tasks}
    assert ((0,), ()) in kinds and ((), (0,)) in kinds
    for t in tasks:
        if t.partition.P == (0,):
            assert t.log_positions == (0,)  # the dr/r task
        else:
            assert t.prefactor == [(0, 1)]  # the 2i dt/(t^2+1) task


def test_nonconstant_coefficient_matches_polar_composition():
    """a = z1 evaluated through the task pointwise factor agrees with
    a(polar_map(r, tau)) at sample points."""
    A = load_region("disk_c1")
    a_re = Polynomial.var(2, 0)  # zr1
    a_im = Polynomial.var(2, 1)  # zi1
    form = ComplexLogForm(1, 1, [(a_re, a_im, (0,))])
    tasks = reduce_to_real_tasks(A, form, 2)
    rng = np.random.Generator(np.random.Philox(key=2))
    for task in tasks:
        sector = task.sector[0]
        pts = np.stack(
            [rng.uniform(0.05, 1.0, size=50), rng.uniform(-1.0, 1.0, size=50)],
            axis=1,
        )
        got = task.coeff_eval(pts)
        for (r, tau), val in zip(pts, got):
            x, y = polar_map(r, tau, sector)
            assert abs(val - complex(x, y)) <= 1e-12


# ---------------------------------------------------------------------------
# reduced-region allowability (the structural content of the reduction)


def admissible_corpus():
    return [
        (load_region("disk_c1"), ComplexLogForm.volume_like(1, (0,)), 2),
        (load_region("quadrant_disk_c1"), ComplexLogForm.volume_like(1, (0,)), 2),
        (load_region("nested_annulus_c2"), ComplexLogForm.volume_like(2, (0, 1)), 4),
        (load_region("disk_times_circle_c2"), ComplexLogForm.volume_like(2, (0,)), 3),
    ]


def test_reduction_allowable_on_p_faces():
    for region, form, m in admissible_corpus():
        for task in reduce_to_real_tasks(region, form, m):
            verdict = task_allowability(task, faces="P")
            assert verdict.ok, (region.name, task.sector, task.partition)


def test_counterexample_fails_exactly_at_first_radius():
    region = load_region("disk_times_circle_c2")
    form = ComplexLogForm.volume_like(2, (0,))
    tasks = reduce_to_real_tasks(region, form, 3)
    hit = 0
    for task in tasks:
        if task.partition.R == (0,) and task.partition.P == (1,):
            verdict = task.region.is_allowable()
            assert not verdict.ok
            assert verdict.violations[0][0] == (0,)  # the face {r_1}
            hit += 1
    assert hit == 2  # one per half-plane of the disk factor


def test_unsliceable_tasks_give_an_inconclusive_verdict():
    """Every task of disk_times_circle_c2 keeps an existential auxiliary
    (tau2 where z2 is in P): the tasks are not integrated, and the answer
    is an inconclusive verdict with nan values and a flag naming them, not
    a RegionError; the CLI exits 2 on it."""
    region = load_region("disk_times_circle_c2")
    res = integrate_admissible(region, ComplexLogForm.volume_like(2, (0,)), 3)
    assert res.verdict == "inconclusive"
    assert any("not integrated" in flag and "tau2" in flag for flag in res.flags)
    assert math.isnan(res.error) and math.isnan(res.absolute) and cmath.isnan(res.value)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_run(["integrate-complex", str(REGIONS / "disk_times_circle_c2.region"),
                        "--form", "dz1/z1 ^ dz2/z2 ^ dzbar1", "--m", "3"])
    assert code == 2 and "verdict  inconclusive" in out.getvalue().splitlines()


def test_unsliceable_annulus_slices_give_an_inconclusive_verdict():
    """The annulus slices of disk_times_circle_c2 at m = 3 keep an
    existential auxiliary: they are left out, as integrate_admissible
    leaves such tasks out, and the report has nan volumes, no fit, the
    verdict inconclusive and a flag naming the auxiliaries, not a
    RegionError; decay-complex exits 2 on it.  The m = 4 slices stay
    identically zero."""
    region = load_region("disk_times_circle_c2")
    ts = [2.0**-k for k in range(2, 6)]
    report = annulus_slice_decay(region, ComplexLogForm.volume_like(2, ()), 3, ts=ts)
    assert report.verdict == "inconclusive" and report.fit is None
    assert [t for t, _ in report.entries] == ts
    assert all(math.isnan(v) for _, v in report.entries)
    assert any("not integrated" in flag and "tau2" in flag for flag in report.flags)
    for R in ((0,), (1,)):
        assert annulus_slice_decay(region, ComplexLogForm.volume_like(2, R), 4,
                                   ts=ts).verdict == "identically zero"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_run(["decay-complex", str(REGIONS / "disk_times_circle_c2.region"),
                        "--form", "dz1/z1 ^ dz2/z2", "--m", "3"])
    assert code == 2 and "annulus decay: inconclusive" in out.getvalue().splitlines()


def _reference_newton_project(cell, region, pts):
    """The Gauss-Newton projection with one eval_many call per equality and
    per partial in every iteration."""
    eqs = [c.payload for c in cell.constraints if c.equality]
    if not eqs:
        return pts
    total = pts.shape[1]
    partials = [[g.partial(v) for v in range(total)] for g in eqs]
    out = pts.copy()
    eye = np.eye(len(eqs))
    for _ in range(region_mod._NEWTON_ITERS):
        gvals = np.stack([g.eval_many(out) for g in eqs], axis=1)
        if np.max(np.abs(gvals)) < region_mod._EQ_TOL * 0.1:
            break
        jac = np.stack([np.stack([pg.eval_many(out) for pg in row], axis=1)
                        for row in partials], axis=1)
        gram = jac @ np.transpose(jac, (0, 2, 1)) + 1e-12 * eye
        y = np.linalg.solve(gram, gvals[:, :, None])
        step = (np.transpose(jac, (0, 2, 1)) @ y)[:, :, 0]
        for v in range(total):
            out[:, v] -= step[:, v]
    return out


def test_newton_projection_is_bit_identical_to_per_polynomial_evaluation():
    """One power table per Gauss-Newton iteration projects every point
    exactly as separate eval_many calls did: on the task cells of
    disk_times_circle_c2 (the counterexample ones keep the existential
    auxiliary tau2) and on a face cell of nested_annulus_c2."""
    region = load_region("disk_times_circle_c2")
    tasks = reduce_to_real_tasks(region, ComplexLogForm.volume_like(2, (0,)), 3)
    cases = [(t.region, cell) for t in tasks for cell in t.region.cells]
    annulus = load_region("nested_annulus_c2").face_intersection((1,))
    cases += [(annulus, cell) for cell in annulus.cells]
    rng = np.random.default_rng(7)
    checked = 0
    for sub, cell in cases:
        if not any(c.equality for c in cell.constraints):
            continue
        box = np.array(sub.cell_boxes(cell))
        pts = rng.uniform(box[:, 0], box[:, 1], size=(256, len(box)))
        got = region_mod._newton_project(cell, sub, pts)
        assert np.array_equal(got, _reference_newton_project(cell, sub, pts))
        checked += 1
    assert checked >= 5


def test_counterexample_verdicts_stable_over_seeds():
    region = load_region("disk_times_circle_c2")
    form = ComplexLogForm.volume_like(2, (0,))
    tasks = reduce_to_real_tasks(region, form, 3)
    bad = next(
        t for t in tasks if t.partition.R == (0,) and t.partition.P == (1,)
    )
    good = next(
        t for t in tasks if t.partition.R == (0,) and t.partition.Q == (1,)
    )
    for seed in range(10):
        cfg = ProbeConfig(seed=seed)
        assert not bad.region.is_allowable(cfg=cfg).ok
        assert task_allowability(good, probe=cfg).ok


def test_radius_ordering_grants_extra_face():
    """With |z2| <= |z1| and 1 in R, allowability additionally holds at the
    first radius hyperplane."""
    region = load_region("nested_annulus_c2")
    form = ComplexLogForm.volume_like(2, (0, 1))
    for task in reduce_to_real_tasks(region, form, 4):
        assert task.region.is_allowable(faces=[(0,)]).ok


def test_reduction_gate():
    # disk x circle through the origin is not 3-admissible
    bad = region_of(
        4, 2,
        ["zr1^2 + zi1^2 - 1 <= 0", "zr2^2 - 2*zr2 + zi2^2 = 0"],
        [(-1, 1), (-1, 1), (0, 2), (-1, 1)],
        kind="complex",
    )
    with pytest.raises(ComplexIntError, match="admissibility"):
        reduce_to_real_tasks(bad, ComplexLogForm.volume_like(2, (0,)), 3)


# ---------------------------------------------------------------------------
# admissible integration


def quarter_annulus():
    """{13/16 <= |z1|^2 <= 1} in the first quadrant.  Every candidate point
    of the interior certificate (the box centre, the quarter points around
    it and the feasible points found) has |z1|^2 <= 13/16, so its gate
    still rests on the sampled probe."""
    return region_of(2, 1, ["13/16 - zr1^2 - zi1^2 <= 0", "zr1^2 + zi1^2 - 1 <= 0",
                            "-zr1 <= 0", "-zi1 <= 0"], [(0, 1), (0, 1)], kind="complex")


def test_unsettled_task_ladder_is_inconclusive(monkeypatch):
    """A task whose ladder has not settled makes the whole result
    inconclusive with an unknown (nan) error, and its depth-cap count is
    reported, after the probe flag when the gate used the probe (the
    quarter annulus) and alone when it did not (the quarter disk)."""
    import logvol.complexint as ci
    from logvol import Ladder

    calls = []

    def unsettled(region, integrand, cfg, ladders):
        calls.extend(ladders)
        return [Ladder([(0.1, 1.0, 0.0), (0.01, 2.0, 0.0)], "inconclusive", capped=[1, 2])
                for _ in ladders]

    monkeypatch.setattr(ci, "_build_ladder", unsettled)
    for region, probed in ((load_region("quadrant_disk_c1"), False), (quarter_annulus(), True)):
        calls.clear()
        res = integrate_admissible(region, ComplexLogForm.volume_like(1, (0,)), 2)
        assert calls and calls.count("absolute") == calls.count("signed")
        assert res.verdict == "inconclusive"
        assert math.isnan(res.error)
        assert res.flags == [PROBE_GATE_FLAG] * probed + [
            f"quadrature depth cap hit ({3 * len(calls)} panels)"]


def _diverging_absolute_ladders(monkeypatch):
    import logvol.complexint as ci
    from logvol import Ladder

    def ladder(kind):
        if kind == "absolute":
            return Ladder([(0.1, 1.0, 0.0), (0.01, 5.0, 0.0)], "diverging", capped=[0, 0])
        return Ladder([(0.0, 1.0, 0.0)], "converged", 1.0, 1e-12, capped=[0])

    monkeypatch.setattr(ci, "_build_ladder",
                        lambda region, integrand, cfg, ladders: [ladder(k) for k in ladders])


def test_diverging_absolute_ladder_takes_precedence(monkeypatch):
    """With a gate that rests on the probe (the certificates switched off),
    a diverging absolute ladder makes the verdict "diverging"."""
    import logvol.certify as certify

    _diverging_absolute_ladders(monkeypatch)
    monkeypatch.setattr(certify, "certify_cell", lambda *args: None)
    res = integrate_admissible(
        load_region("quadrant_disk_c1"), ComplexLogForm.volume_like(1, (0,)), 2
    )
    assert res.verdict == "diverging"
    assert res.flags == [PROBE_GATE_FLAG]


def test_exact_gate_and_diverging_ladder_contradict(monkeypatch):
    """Part I as a cross-check: the exact gate says the quarter disk is
    admissible, so its integral converges absolutely; a diverging absolute
    ladder contradicts that, and the verdict is "inconclusive" with a flag
    naming the contradiction."""
    _diverging_absolute_ladders(monkeypatch)
    res = integrate_admissible(
        load_region("quadrant_disk_c1"), ComplexLogForm.volume_like(1, (0,)), 2
    )
    assert res.verdict == "inconclusive"
    assert res.flags == [GATE_CONTRADICTION_FLAG]


def test_gate_provenance_flag():
    """The flag appears exactly when the admissibility gate rests on the
    sampled probe: the quarter annulus keeps the probe, the quarter disk
    is certified exactly and the square is linear."""
    form = ComplexLogForm.volume_like(1, (0,))
    res = integrate_admissible(quarter_annulus(), form, 2)
    assert res.verdict == "converged" and res.flags == [PROBE_GATE_FLAG]
    res = integrate_admissible(load_region("quadrant_disk_c1"), form, 2)
    assert res.verdict == "converged" and res.flags == []
    square = region_of(2, 1, ["-zr1 <= 0", "zr1 - 1 <= 0", "-zi1 <= 0", "zi1 - 1 <= 0"],
                       [(0, 1), (0, 1)], kind="complex")
    res = integrate_admissible(square, form, 2)
    assert res.verdict == "converged" and res.flags == []


@pytest.mark.parametrize("cell,flagged", [
    # a square in z1 times a square off the z2 divisor: no divisor contact
    (["1/2 - zr1 <= 0", "zr1 - 1 <= 0", "-zi1 <= 0", "zi1 - 1/2 <= 0",
      "1/2 - zr2 <= 0", "zr2 - 1 <= 0", "-zi2 <= 0", "zi2 - 1/2 <= 0"], False),
    # |z2 - 1| <= |z1|: meets H_1 only at z2 = 1, where (zr2 - 1)^2 + zi2^2
    # <= 0 is a sum of squares, so the point is certified exactly
    (["(zr2 - 1)^2 + zi2^2 - zr1^2 - zi1^2 <= 0"], False),
    # |zr2^2 - 1| <= |z1|^2 and |zi2^2 + zi2| <= |z1|^2: meets H_1 only at
    # z2 = 1, cut out there by two nonlinear equalities, which keep the probe
    (["zr2^2 - 1 - zr1^2 - zi1^2 <= 0", "1 - zr2^2 - zr1^2 - zi1^2 <= 0",
      "zi2^2 + zi2 - zr1^2 - zi1^2 <= 0", "-zi2^2 - zi2 - zr1^2 - zi1^2 <= 0"], True),
])
def test_annulus_gate_provenance_through_fallback(monkeypatch, cell, flagged):
    """Both regions are full-dimensional, so not 3-admissible, and the
    annulus gate falls back to the divisor-locus test, which passes; the
    flag follows whether the gate used the probe.  Every slice task keeps
    the existential auxiliaries r2 and tau2, so each is left out and
    flagged after the gate's flag."""
    import logvol.complexint as ci
    from logvol import Ladder

    monkeypatch.setattr(ci, "_integrate_task", lambda task, cfg, ladders: [
        (1.0, 0.0, Ladder([(0.0, 1.0, 0.0)], "converged", 1.0, 0.0, capped=[0]))
        for _ in ladders])
    region = region_of(4, 1, cell, [(0, 1), (0, 1), (0, 2), (0, 1)], kind="complex")
    assert not region.is_admissible(3).ok
    assert region.meets_divisors_only_in_d() == (True, flagged)
    report = annulus_slice_decay(region, ComplexLogForm.volume_like(2, ()), 3,
                                 ts=[2.0**-k for k in range(2, 6)])
    assert report.flags[:-1] == ([PROBE_GATE_FLAG] if flagged else [])
    assert re.fullmatch(r"\d+ task\(s\) not integrated: existential auxiliary r2, tau2 "
                        r"cannot be sliced", report.flags[-1])
    assert report.verdict == "inconclusive"


@pytest.mark.parametrize("name", ["quadrant_disk_c1", "disk_c1"])
def test_one_pass_complex_ladders_match_part_by_part(name):
    """A complex task's signed ladder (real and imaginary parts) and its
    absolute ladder come from one quadrature program; each part
    equals that part integrated on its own, as a real-valued integrand
    that reads the task's coordinates."""
    from logvol.integrate import Integrand, _build_ladder

    cfg = QuadConfig()
    tasks = reduce_to_real_tasks(load_region(name), ComplexLogForm.volume_like(1, (0,)), 2)
    assert tasks
    for task in tasks:
        integrand = task.integrand()
        signed, absolute = _build_ladder(task.region, integrand, cfg, ("signed", "absolute"))
        pw = integrand.pointwise

        def part(take):
            return Integrand(integrand.coeff, integrand.log_vars, lambda pts: take(pw(pts)),
                             reads=integrand.reads)

        re, = _build_ladder(task.region, part(np.real), cfg, ("signed",))
        im, = _build_ladder(task.region, part(np.imag), cfg, ("signed",))
        alone, = _build_ladder(task.region, integrand, cfg, ("absolute",))
        assert signed.entries == [(eps, complex(a, b), ea + eb)
                                  for (eps, a, ea), (_, b, eb) in zip(re.entries, im.entries)]
        assert absolute.entries == alone.entries


def _closed_form_tasks(case):
    """The tasks of integrate_admissible on disk_c1 and quadrant_disk_c1
    (m = 2) and on nested_annulus_c2 (m = 4), or the slice tasks of
    annulus_slice_decay on nested_annulus_c2."""
    if case == "annulus_slices":
        return annulus_slice_tasks()
    if case == "nested_annulus_c2":
        return reduce_to_real_tasks(load_region(case), ComplexLogForm.volume_like(2, (0, 1)), 4)
    return reduce_to_real_tasks(load_region(case), ComplexLogForm.volume_like(1, (0,)), 2)


def _inner(region):
    """The coordinate _rung_value integrates innermost."""
    return region.p - 1 if region.p else region.n - 1


def _redraw(region, pts, keep, rng):
    """pts with every coordinate outside `keep` drawn anew."""
    out = pts.copy()
    for v, (lo, hi) in enumerate(region.bounding_box()):
        if v not in keep:
            out[:, v] = rng.uniform(float(lo), float(hi), size=len(out))
    return out


@pytest.mark.parametrize("case", ["disk_c1", "quadrant_disk_c1", "nested_annulus_c2",
                                  "annulus_slices"])
def test_task_factor_reads_only_its_declared_coordinates(case):
    """A task's pointwise factor declares the coordinates it reads, and the
    declaration is true: redrawing every other coordinate, the inner r
    among them, leaves its values bit for bit.  None of these factors
    reads the inner coordinate, so their fibers keep the closed form."""
    rng = np.random.Generator(np.random.Philox(key=29))
    tasks = _closed_form_tasks(case)
    assert tasks
    for task in tasks:
        integrand = task.integrand()
        region = task.region
        assert integrand.reads is not None and not integrand.factor_reads(_inner(region))
        pts = _redraw(region, np.zeros((64, region.n)), (), rng)
        moved = _redraw(region, pts, integrand.reads, rng)
        assert not np.array_equal(pts[:, _inner(region)], moved[:, _inner(region)])
        assert np.array_equal(integrand.pointwise(pts), integrand.pointwise(moved))


def test_nonconstant_coefficient_declares_its_radius():
    """A coefficient a = z1 on the R block reads r1 through the polar map:
    its task declares every coordinate as read, and redrawing r alone
    does move its factor, so its fibers take the inner Gauss rule."""
    region = load_region("disk_c1")
    form = ComplexLogForm(1, 1, [(Polynomial.var(2, 0), Polynomial.var(2, 1), (0,))])
    rng = np.random.Generator(np.random.Philox(key=29))
    for task in reduce_to_real_tasks(region, form, 2):
        integrand = task.integrand()
        r = _inner(task.region)
        assert integrand.reads is None and integrand.factor_reads(r)
        pts = _redraw(task.region, np.zeros((64, task.region.n)), (), rng)
        moved = _redraw(task.region, pts, set(range(task.region.n)) - {r}, rng)
        assert not np.array_equal(integrand.pointwise(pts), integrand.pointwise(moved))


@pytest.mark.parametrize("case", ["disk_c1", "quadrant_disk_c1", "nested_annulus_c2",
                                  "annulus_slices"])
def test_closed_form_fibers_match_the_inner_gauss_rule(case):
    """Every rung of every ladder of a task whose factor leaves the fiber
    integral lies within 1e-12 relative (of the absolute rung) of the same
    rung with the inner coordinate declared as read, which evaluates the
    factor at the inner Gauss nodes, at more points than the one per fiber
    of the closed form; the capped panels agree.  The 4-d tasks of
    nested_annulus_c2 take the Monte-Carlo rung, which reads no fibers, so
    theirs agree exactly, at as many points."""
    from logvol.integrate import Integrand, _build_ladder

    cfg = QuadConfig(mc_budget=256)
    for task in _closed_form_tasks(case):
        closed = task.integrand()
        points = []

        def counted(pts, factor=closed.pointwise):
            points[-1] += len(pts)
            return factor(pts)

        ladders = []
        for reads in (closed.reads, closed.reads | {_inner(task.region)}):
            points.append(0)
            integrand = Integrand(closed.coeff, closed.log_vars, counted, True, reads)
            ladders.append(_build_ladder(task.region, integrand, cfg, ("signed", "absolute")))
        assert (points[1] > points[0]) == (task.region.n <= 3)
        (signed, absolute), (signed_g, absolute_g) = ladders
        for ours, theirs in ((signed, signed_g), (absolute, absolute_g)):
            assert ours.params() == theirs.params() and ours.capped == theirs.capped
            for a, b, scale in zip(ours.values(), theirs.values(), absolute_g.values()):
                assert abs(a - b) <= 1e-12 * scale


def test_full_disk_vanishes():
    res = integrate_admissible(load_region("disk_c1"), ComplexLogForm.volume_like(1, (0,)), 2)
    assert res.value.real == pytest.approx(0.0, abs=1e-9)
    assert res.value.imag == pytest.approx(0.0, abs=1e-9)
    assert res.absolute == pytest.approx(4 * math.pi, abs=1e-6)


def test_quadrant_disk_value():
    res = integrate_admissible(
        load_region("quadrant_disk_c1"), ComplexLogForm.volume_like(1, (0,)), 2
    )
    assert res.value.real == pytest.approx(-2.0, abs=1e-9)
    assert res.value.imag == pytest.approx(-2.0, abs=1e-9)
    assert res.verdict == "converged"


def _quadrant_or_half_disk(which):
    """The unit quarter disk turned by `which` quarter turns, or the
    "right" or "left" half disk."""
    if which in ("right", "left"):
        sr = 1 if which == "right" else -1
        return region_of(2, 1, ["zr1^2 + zi1^2 - 1 <= 0", f"{-sr}*zr1 <= 0"],
                         [sorted((0, sr)), (-1, 1)], kind="complex")
    sr, si = ((1, 1), (-1, 1), (-1, -1), (1, -1))[which]
    return region_of(2, 1, ["zr1^2 + zi1^2 - 1 <= 0", f"{-sr}*zr1 <= 0", f"{-si}*zi1 <= 0"],
                     [sorted((0, sr)), sorted((0, si))], kind="complex")


@pytest.mark.parametrize("which, value", [
    (0, complex(-2, -2)), (1, complex(-2, 2)), (2, complex(2, 2)), (3, complex(2, -2)),
    ("right", complex(0, -4)), ("left", complex(0, 4)),
])
def test_quadrants_and_half_disks_run_one_task(which, value):
    """dz/z ^ dzbar over the unit quadrant turned by k quarter turns is
    (-i)^k (-2 - 2i), over the right half disk -4i and over the left one
    4i: each lies in one half-plane and meets the other only on the edge
    zr = 0, from either side, so it runs one task."""
    region = _quadrant_or_half_disk(which)
    res = integrate_admissible(region, ComplexLogForm.volume_like(1, (0,)), 2)
    assert res.tasks_run == 1
    assert abs(res.value - value) <= 1e-9
    assert res.verdict == "converged"


def test_cone_value_through_a_quadratic_row():
    """The cone {0 <= 2 zi <= zr, |z| <= 1} of angle atan(1/2): its row
    2 zi <= zr lifts to the quadratic t^2 + 4t - 1 <= 0, with the
    irrational root sqrt(5) - 2, and dz/z ^ dzbar over it is
    2 (e^(-i atan(1/2)) - 1) = 2 ((2 - i) / sqrt(5) - 1)."""
    region = region_of(2, 1, ["zr1^2 + zi1^2 - 1 <= 0", "-zi1 <= 0", "2*zi1 - zr1 <= 0"],
                       [(0, 1), (0, Fraction(1, 2))], kind="complex")
    res = integrate_admissible(region, ComplexLogForm.volume_like(1, (0,)), 2)
    assert abs(res.value - 2 * ((2 - 1j) / math.sqrt(5) - 1)) <= 1e-9
    assert res.verdict == "converged"


@pytest.mark.parametrize("rows", [["zr1 <= 0", "-zr1 <= 0"], ["zr1^2 <= 0"]])
def test_segment_on_the_imaginary_axis_is_not_cut_by_the_edge_rule(rows):
    """A = {zr = 0, 1/4 <= |z|^2 <= 1, zi >= 0} is a segment on the edge
    of both half-planes, and dz/z over it at m = 1 is ln 2.  Its P tasks
    project t out, so the edge rule would empty both half-planes and report
    0; without it the rows pin t = +-1 through 1 - t^2, t stays an
    existential auxiliary, and the verdict is inconclusive, not a value."""
    region = region_of(2, 1, rows + ["zr1^2 + zi1^2 - 1 <= 0", "1/4 - zr1^2 - zi1^2 <= 0",
                                     "-zi1 <= 0"], [(-1, 1), (-1, 1)], kind="complex")
    form = ComplexLogForm.volume_like(1, ())
    assert len(reduce_to_real_tasks(region, form, 1)) == 4
    res = integrate_admissible(region, form, 1)
    assert res.verdict == "inconclusive" and cmath.isnan(res.value)
    assert any("not integrated" in flag and "tau1" in flag for flag in res.flags)


def test_product_of_quadrant_disks_matches_square():
    """Fubini on the product: the value is minus the square of the quadrant
    value, hence -8i; the 4-d tasks run through the Monte-Carlo path."""
    prod = region_of(
        4, 2,
        ["zr1^2 + zi1^2 - 1 <= 0", "-zr1 <= 0", "-zi1 <= 0",
         "zr2^2 + zi2^2 - 1 <= 0", "-zr2 <= 0", "-zi2 <= 0"],
        [(0, 1), (0, 1), (0, 1), (0, 1)],
        kind="complex",
    )
    cfg = QuadConfig(mc_budget=60000)
    res = integrate_admissible(prod, ComplexLogForm.volume_like(2, (0, 1)), 4, cfg)
    assert abs(res.value - complex(0, -8)) <= max(3 * res.error, 0.2)


@pytest.mark.parametrize("seed, value", [
    (0, complex(-0.1597509165081302, -7.865570124040222)),
    (1, complex(-0.06719070975307576, -8.222780431699917)),
])
def test_product_of_quadrant_disks_runs_one_task(seed, value):
    """The edge rule leaves one task, the right half-plane of each factor
    (each left one meets its quadrant only on the edge zr = 0), and its
    Monte-Carlo value at each seed is pinned."""
    prod = region_of(
        4, 2,
        ["zr1^2 + zi1^2 - 1 <= 0", "-zr1 <= 0", "-zi1 <= 0",
         "zr2^2 + zi2^2 - 1 <= 0", "-zr2 <= 0", "-zi2 <= 0"],
        [(0, 1), (0, 1), (0, 1), (0, 1)],
        kind="complex",
    )
    cfg = QuadConfig(mc_budget=60000, seed=seed)
    res = integrate_admissible(prod, ComplexLogForm.volume_like(2, (0, 1)), 4, cfg)
    assert res.tasks_run == 1
    assert abs(res.value - value) <= 1e-12


def test_annulus_value_against_mc_oracle():
    """The nested annulus integral vanishes by rotational symmetry; two
    independent Monte-Carlo streams must agree within combined error."""
    region = load_region("nested_annulus_c2")
    form = ComplexLogForm.volume_like(2, (0, 1))
    r1 = integrate_admissible(region, form, 4, QuadConfig(mc_budget=40000, seed=0))
    r2 = integrate_admissible(region, form, 4, QuadConfig(mc_budget=40000, seed=1))
    tol = 3 * (r1.error + r2.error) + 1e-9
    assert abs(r1.value - r2.value) <= tol
    assert abs(r1.value) <= tol


def test_conjugation_symmetry():
    cases = [
        (load_region("disk_c1"), ComplexLogForm.volume_like(1, (0,)), 2),
        (load_region("quadrant_disk_c1"), ComplexLogForm.volume_like(1, (0,)), 2),
        (
            load_region("quadrant_disk_c1"),
            ComplexLogForm(1, 1, [(Polynomial.const(2, 2), Polynomial.const(2, 1), (0,))]),
            2,
        ),
        (
            load_region("quadrant_disk_c1"),
            ComplexLogForm(1, 1, [(Polynomial.var(2, 0), Polynomial.zero(2), (0,))]),
            2,
        ),
        (
            region_of(2, 1, ["zr1^2 + zi1^2 - 1 <= 0", "-zi1 <= 0"],
                      [(-1, 1), (0, 1)], kind="complex"),
            ComplexLogForm.volume_like(1, (0,)),
            2,
        ),
    ]
    for region, form, m in cases:
        base = integrate_admissible(region, form, m)
        conj = integrate_admissible(conjugate_region(region), form.conjugate(), m)
        tol = base.error + conj.error + 1e-6
        assert conj.value.real == pytest.approx(base.value.real, abs=tol)
        assert conj.value.imag == pytest.approx(-base.value.imag, abs=tol)


# ---------------------------------------------------------------------------
# annulus slices


def test_annulus_decay_linear_rate():
    region = load_region("nested_annulus_c2")
    form = ComplexLogForm.volume_like(2, (1,))  # dz1/z1 ^ dz2/z2 ^ dzbar2
    report = annulus_slice_decay(region, form, 4, ts=[2.0**-k for k in range(2, 7)])
    assert report.verdict == "decays to zero"
    assert 0.8 <= report.fit.exponent <= 1.2
    assert report.monotone
    for t, vol in report.entries:
        assert vol == pytest.approx(8 * math.pi**2 * t, rel=1e-3)


def test_annulus_decay_solves_each_rung_level_in_few_batches(monkeypatch):
    """Counters, which do not vary between runs: on the annulus slices the
    4 half-plane pieces of a radius lift to equal cells, and their
    integrands agree, so of the 16 slice tasks 4 are transformed and 4 rungs
    are integrated, one per radius; the rest share them.  Each outer level of
    a rung runs as one lockstep program, so the 2,025 fibers of each rung
    are solved in four _fiber_integral calls of at most 512 fibers (one
    call per Gauss panel made 8,640 per 64 rungs): 8,100 fibers."""
    import logvol.complexint as ci
    import logvol.integrate as integrate

    original = integrate._fiber_integral
    calls, fibers, rungs, transforms = [], [], [], []

    def counted(solver, bases, *args):
        calls.append(1)
        fibers.append(len(bases))
        return original(solver, bases, *args)

    def counter(fn, log):
        def wrapped(*args, **kwargs):
            log.append(1)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(integrate, "_fiber_integral", counted)
    monkeypatch.setattr(integrate, "_rung_value", counter(integrate._rung_value, rungs))
    monkeypatch.setattr(ci, "transform_piece", counter(ci.transform_piece, transforms))
    form = ComplexLogForm.volume_like(2, (1,))
    report = annulus_slice_decay(load_region("nested_annulus_c2"), form, 4,
                                 ts=[1 / 4, 1 / 8, 1 / 16, 1 / 32])
    assert len(calls) == 16
    assert max(fibers) <= 512
    assert sum(fibers) == 8_100
    assert len(rungs) == 4
    assert len(transforms) == 4
    assert (report.tasks_run, report.ladders_computed) == (16, 4)
    for t, vol in report.entries:
        assert vol == pytest.approx(8 * math.pi**2 * t, rel=1e-9)


def _assert_same_result(shared, solo):
    """(value, error, ladder) triples equal float for float, signed zeros
    and nan included."""
    (value, error, ladder), (value0, error0, ladder0) = shared, solo
    np.testing.assert_equal((value, error), (value0, error0))
    np.testing.assert_equal(ladder.entries, ladder0.entries)
    np.testing.assert_equal((ladder.limit, ladder.error), (ladder0.limit, ladder0.error))
    assert (ladder.verdict, ladder.capped) == (ladder0.verdict, ladder0.capped)


def _shared_and_solo(tasks, kinds, cfg=None):
    """Each task's results through one _Quadratures, and alone."""
    from logvol.complexint import _Quadratures, _integrate_task

    cfg = cfg or QuadConfig()
    quadrature = _Quadratures(cfg, kinds)
    for task in tasks:
        for shared, solo in zip(quadrature(task), _integrate_task(task, cfg, kinds)):
            _assert_same_result(shared, solo)
    return quadrature


def test_annulus_decay_shares_equal_slice_tasks():
    """Each slice volume is, float for float, the in-order sum over the 4
    half-plane pieces of their tasks integrated alone, and every shared
    task's ladder equals its own."""
    from dataclasses import replace

    from logvol.complexint import (_Quadratures, _integrate_task, _lifted_piece, _partitions,
                                   _pull_back, _sector_pieces, _transform_once, transform_piece)

    region = load_region("nested_annulus_c2")
    form = ComplexLogForm.volume_like(2, (1,))
    ts = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
    report = annulus_slice_decay(region, form, 4, ts=ts)
    cfg = QuadConfig()
    r1, r2 = Polynomial.var(4, 0), Polynomial.var(4, 1)
    quadrature = _Quadratures(cfg, ("absolute",))
    made = {}
    for (t, vol), t0 in zip(report.entries, ts):
        rows = [(r1 - Fraction(t0), True), (r2 - Fraction(t0), False)]
        alone = 0.0
        for alphas, _aug, piece in _sector_pieces(region):
            lifted = _lifted_piece(made, piece, alphas, True)
            for re, im, part in _partitions(form):
                if 0 not in part.Q:
                    continue
                task = _pull_back(re, im, part, alphas, eliminated={("r", 0)})
                solo, = _integrate_task(
                    replace(task, region=transform_piece(piece, alphas, part, rows, {0: t0})),
                    cfg, ("absolute",))
                shared, = quadrature(replace(task, region=_transform_once(made, lifted, part,
                                                                          t0, True)))
                _assert_same_result(shared, solo)
                alone += abs(solo[0])
        assert t == t0 and vol == alone
    assert (quadrature.tasks_run, quadrature.ladders_computed) == (16, 4)
    assert (report.tasks_run, report.ladders_computed) == (16, 4)


def test_disk_sectors_share_with_a_phase():
    """On the full disk, the two half-planes lift to the same region, and
    their integrands differ by the unit phase -1 = i^2: half-plane 2 reuses
    the ladders of half-plane 1 turned by i^2, each equal to its own."""
    from logvol.complexint import _integrate_task

    region = load_region("disk_c1")
    form = ComplexLogForm.volume_like(1, (0,))
    kinds = ("signed", "absolute")
    res = integrate_admissible(region, form, 2)
    assert (res.tasks_run, res.ladders_computed) == (2, 1)
    total, absolute = 0j, 0.0
    for task, value, err in res.tasks:
        (value0, err0, _), (abs0, _, _) = _integrate_task(task, QuadConfig(), kinds)
        np.testing.assert_equal((value, err), (value0, err0))
        total += complex(value0)
        absolute += abs(abs0)
    assert (res.value, res.absolute) == (total, absolute)
    tasks = reduce_to_real_tasks(region, form, 2)
    assert _shared_and_solo(tasks, kinds).ladders_computed == 1


def test_shared_ladders_turn_a_multi_rung_signed_ladder():
    """Terms whose coefficients differ by a unit phase (3 - i and 1 + 3i
    by i, 2 and -2 by i^2) pull back to tasks on one region per partition.
    The dr/r task's twelve-rung signed ladder (it diverges: the cell leaves
    r free down to 0) of the second term of each pair is the first's
    turned, entry for entry and zero part for zero part, as computed
    alone."""
    from logvol.complexint import _integrate_task

    def const(re, im):
        return (Polynomial.const(2, re), Polynomial.const(2, im), ())

    region = region_of(2, 1, [], [(-1, 1), (-1, 1)], kind="complex")
    form = ComplexLogForm(1, 0, [const(3, -1), const(1, 3), const(2, 0), const(-2, 0)])
    tasks = reduce_to_real_tasks(region, form, 1, check_gate=False)
    signed = [_integrate_task(task, QuadConfig(), ("signed",))[0][2] for task in tasks]
    assert {len(ladder.entries) for ladder in signed} == {1, 12}
    assert any(complex(v).imag == 0 for ladder in signed for _, v, _ in ladder.entries)
    quadrature = _shared_and_solo(tasks, ("signed", "absolute"))
    assert (quadrature.ladders_computed, quadrature.tasks_run) == (4, len(tasks))


def test_monte_carlo_tasks_share_with_a_phase():
    """The C^2 volume form on the nested annulus has four task coordinates,
    so each task takes the Monte-Carlo rung, whose sample stream is the
    same for every task: its 4 tasks run 1 quadrature, each shared ladder
    equal to the task's own."""
    tasks = reduce_to_real_tasks(load_region("nested_annulus_c2"),
                                 ComplexLogForm.volume_like(2, (0, 1)), 4)
    quadrature = _shared_and_solo(tasks, ("signed", "absolute"), QuadConfig(mc_budget=4000))
    assert (quadrature.tasks_run, quadrature.ladders_computed) == (4, 1)


def test_quadrant_disk_shares_nothing(monkeypatch):
    """The quarter disk keeps one half-plane: nothing is shared, and one
    rung program runs per task, as before sharing."""
    import logvol.integrate as integrate

    rungs = []
    original = integrate._rung_value

    def counted(*args):
        rungs.append(1)
        return original(*args)

    region = load_region("quadrant_disk_c1")
    form = ComplexLogForm.volume_like(1, (0,))
    monkeypatch.setattr(integrate, "_rung_value", counted)
    res = integrate_admissible(region, form, 2)
    monkeypatch.undo()
    tasks = reduce_to_real_tasks(region, form, 2)
    assert res.tasks_run == res.ladders_computed == len(rungs) == len(tasks)
    assert _shared_and_solo(tasks, ("signed", "absolute")).ladders_computed == len(tasks)


def test_pointwise_coefficient_is_never_shared():
    """A non-constant coefficient rides along as a closure: its tasks run
    their own quadratures even where the regions are shared."""
    region = load_region("disk_c1")
    form = ComplexLogForm(1, 1, [(Polynomial.var(2, 0), Polynomial.var(2, 1), (0,))])
    tasks = reduce_to_real_tasks(region, form, 2)
    assert len({id(task.region) for task in tasks}) < len(tasks)
    quadrature = _shared_and_solo(tasks, ("signed", "absolute"))
    assert quadrature.ladders_computed == quadrature.tasks_run == len(tasks)
    res = integrate_admissible(region, form, 2)
    assert res.ladders_computed == res.tasks_run == len(tasks)


def test_annulus_gate_decides_each_face_once(monkeypatch):
    """The two halves of the annulus gate, is_admissible(m) and then
    meets_divisors_only_in_d, share one per-face memo: on
    nested_annulus_c2 at m = 3 (not admissible) the faces the second half
    reads are not simplified again (4 simplify_cell calls, not 5), and
    the verdicts are those of the two calls made alone.  A cell that fills
    its affine hull is tested against D by the hull, not simplified again
    with each D_t (10 and 14 calls before that)."""
    import logvol.region as region_module

    region = load_region("nested_annulus_c2")
    alone = (str(region.is_admissible(3)), region.meets_divisors_only_in_d())
    original = region_module.simplify_cell
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(region_module, "simplify_cell", counted)
    memo = {}
    shared = (str(region.is_admissible(3, memo=memo)), region.meets_divisors_only_in_d(memo=memo))
    assert shared == alone
    assert len(calls) == 4


def test_annulus_decay_rejects_nonconstant_coefficient_first(monkeypatch):
    import logvol.complexint as ci

    calls = []
    transform = ci.transform_piece

    def counted(*args, **kwargs):
        calls.append(args)
        return transform(*args, **kwargs)

    monkeypatch.setattr(ci, "transform_piece", counted)
    form = ComplexLogForm.volume_like(2, (1,), coeff_re=Polynomial.var(4, 2))
    with pytest.raises(ComplexIntError, match="constant coefficients"):
        annulus_slice_decay(load_region("nested_annulus_c2"), form, 4, ts=[0.25])
    assert calls == []


def test_annulus_decay_needs_four_radii_before_any_slice(monkeypatch):
    """Fewer than four radii cannot fit a decay law; that is rejected
    before any slice task is integrated."""
    import logvol.complexint as ci
    from logvol import IntegrationError

    calls = []
    integrate_task = ci._integrate_task

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_task(*args, **kwargs)

    monkeypatch.setattr(ci, "_integrate_task", counted)
    form = ComplexLogForm.volume_like(2, (1,))
    with pytest.raises(IntegrationError, match="at least 4"):
        annulus_slice_decay(load_region("nested_annulus_c2"), form, 4, ts=[0.5, 0.125])
    assert calls == []


def test_annulus_decay_empty_slices():
    region = region_of(
        4, 2,
        ["zr1^2 + zi1^2 - 1 <= 0", "1/4 - zr1^2 - zi1^2 <= 0",
         "zr2^2 + zi2^2 - zr1^2 - zi1^2 <= 0"],
        [(-1, 1), (-1, 1), (-1, 1), (-1, 1)],
        kind="complex",
    )
    form = ComplexLogForm.volume_like(2, (1,))
    report = annulus_slice_decay(region, form, 4, ts=[2.0**-k for k in range(3, 8)])
    assert report.verdict == "identically zero"


def test_projective_chart_split_outer_piece():
    """{1 <= |z1| <= 2} read in the chart at infinity becomes the annulus
    {1/2 <= |w1| <= 1}, and dz1/z1 flips sign; integrals then agree up to
    that sign."""
    from logvol import split_projective_charts

    outer = region_of(
        2, 1,
        ["1 - zr1^2 - zi1^2 <= 0", "zr1^2 + zi1^2 - 4 <= 0", "-zi1 <= 0"],
        [(-2, 2), (-2, 2)],
        kind="complex",
    )
    form = ComplexLogForm.volume_like(1, (0,))
    piece, flipped = split_projective_charts(outer, form, inverted=())
    # no inversion: a dzbar factor is allowed and nothing changes but the
    # unit-disc clipping (empty here apart from the circle |z| = 1)
    assert flipped.terms[0][0] == form.terms[0][0]

    half_form = ComplexLogForm(1, 0, [(Polynomial.const(2, 1), Polynomial.zero(2), ())])
    with pytest.raises(ComplexIntError, match="dzbar"):
        split_projective_charts(outer, form, inverted=(0,))
    piece, flipped = split_projective_charts(outer, half_form, inverted=(0,))
    # the inverted region is the annulus 1/2 <= |w| <= 1 in the upper -w half
    pts = np.array([[0.0, -0.7], [0.0, -0.3], [0.0, 0.7], [0.0, -1.2]])
    inside = piece.members(pts)
    assert inside.tolist() == [True, False, False, False]
    assert flipped.terms[0][0] == -half_form.terms[0][0]


def test_annulus_gate_failure():
    # disk x circle through the origin: the second divisor intersection is
    # two-dimensional, so the region is not 3-admissible, and it does not
    # meet the divisors inside D either
    bad = region_of(
        4, 2,
        ["zr1^2 + zi1^2 - 1 <= 0", "zr2^2 - 2*zr2 + zi2^2 = 0"],
        [(-1, 1), (-1, 1), (0, 2), (-1, 1)],
        kind="complex",
    )
    with pytest.raises(ComplexIntError, match="gate"):
        annulus_slice_decay(bad, ComplexLogForm.volume_like(2, ()), 3)
