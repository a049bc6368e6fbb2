"""Reduction of complex logarithmic integrals to real quadrature tasks.

The complex plane is covered by four closed sectors S_a = i^(a-1) * S_1
with S_1 = {x >= |y|}; on each sector the semi-algebraic polar change of
variables (r, tau) -> i^(a-1) * (r + i r tau) / sqrt(tau^2 + 1) is an
isomorphism off the origin.  Under it

    dz/z = dr/r + i dtau/(tau^2 + 1)
    dz/z ^ dzbar = i^(1-a) * (-2)(tau + i) / (tau^2 + 1)^(3/2) dr ^ dtau

so a logarithmic (n, m-n)-form pulls back, per sector assignment and per
partition (P, Q, R) of the coordinates, to a constant times a polynomial
coefficient times bounded smooth prefactors against the real measure

    prod_P dr_i/r_i  prod_Q dtau_j  prod_R dr_k dtau_k .

With a constant coefficient the task's pointwise factor is angular,
prod_R (tau_k + i) prod (tau^2+1)^(-e/2), and reads no radius, so it
declares the tau positions it reads (`RealTask.reads`) and leaves the
fiber integral over the radius integrated innermost: it is evaluated once
per fiber and multiplies the closed form.  A non-constant coefficient
reads the radii through the polar map and keeps the inner Gauss rule.

Regions transform exactly: a z-monomial of pair degree d contributes
r^d * (affine in tau)^d / (tau^2+1)^(d/2); multiplying each constraint by
the positive power (tau^2+1)^ceil(D/2) clears the denominators, with an
auxiliary coordinate s_i = sqrt(tau_i^2 + 1) (s_i in [1, sqrt(2)],
s_i^2 = tau_i^2 + 1) absorbing odd parities.  Each lifted row is then
reduced once (`_reduce_lift`): the positive factors s_i and tau_i^2 + 1
that divide it are divided out, an inequality row takes its strict
transform (its monomial content in r is divided out, which changes the
set only over z_i = 0), and a radial row c r_i^k + c0 or
c r_i^k + c' r_j^k becomes linear when its root is rational.  The disk
row |z|^2 <= rho^2 lifts to r <= rho and the annulus row
|z2|^2 <= |z1|^2 to r2 <= r1, so s_i survives only on rows that are not
radial, such as zr >= 1/2.  Dropped coordinates (tau_i for i in P, r_j
for j in Q) are eliminated exactly when they enter every constraint
affinely, and kept as existentially quantified auxiliaries otherwise.

There is one map and one lift.  `_ROTATIONS` is the only statement of the
sector rotation: `sector_constraints` reads the rows |y1| <= x1 off it,
`_polar_xy` is the float map behind `polar_map` and pointwise
coefficients, and `_polar_factor` gives the exact image of
zr_i^a zi_i^b s_i^(2 mult) as a `Polynomial`, from which `_lift_payload`
builds every lifted constraint, which `_lift_cells` reduces.

One construction path serves every entry point: `_partitions` enumerates
the (term, partition) choices of a form, and `_pull_back` turns a (sector
assignment, term, partition) into a `RealTask` laid out by `_task_index`,
the same layout `transform_piece` gives the transformed region.
`reduce_to_real_tasks` attaches each sector piece's transformed region,
`annulus_slice_decay` builds its tasks and lifts each piece once and
transforms it per radius, and `pullback_complex_log_form` returns the
tasks without a region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import Callable, Mapping, Sequence

import numpy as np

from .integrate import (
    ABS_TOL,
    Integrand,
    QuadConfig,
    DecayFit,
    _build_ladder,
    _cap_flags,
    _decay_ts,
    _decay_verdict,
    combined_verdict,
)
from .polyform import LogForm, Polynomial
from .region import (
    Cell,
    Constraint,
    ExtraVar,
    ProbeConfig,
    Region,
    eliminate_var_linear,
    simplify_cell,
)


class ComplexIntError(ValueError):
    pass


# ---------------------------------------------------------------------------
# sectors and the polar map


# rotation z = i^(a-1) zeta: (zr, zi) in terms of (x1, y1) = (re, im of zeta).
# The only statement of the sector map: the exact lift, the float map and
# the sector rows are all read off this table.
_ROTATIONS = {
    1: ((1, 0), (0, 1)),    # zr = x1,  zi = y1
    2: ((0, -1), (1, 0)),   # zr = -y1, zi = x1
    3: ((-1, 0), (0, -1)),  # zr = -x1, zi = -y1
    4: ((0, 1), (-1, 0)),   # zr = y1,  zi = -x1
}


def _polar_xy(r, tau, sector: int):
    """(zr, zi) of the polar point (r, tau) of a sector, elementwise on
    arrays: x1 = r/s and y1 = r tau/s with s = sqrt(tau^2 + 1), rotated."""
    s = np.sqrt(tau * tau + 1.0)
    x1, y1 = r / s, r * tau / s
    (a11, a12), (a21, a22) = _ROTATIONS[sector]
    return a11 * x1 + a12 * y1, a21 * x1 + a22 * y1


# how far beyond a sector edge, relative to |tau| = 1, a point still counts
# as on the edge: polar_inverse accepts such points and polar_map their tau
_EDGE_TOL = 1e-9


def polar_map(r: float, tau: float, sector: int = 1):
    """Point of the closed sector with |z| = r and angular parameter tau."""
    if not abs(tau) <= 1.0 + _EDGE_TOL:
        raise ComplexIntError("tau must lie in [-1, 1]")
    if r < 0:
        raise ComplexIntError("r must be nonnegative")
    zr, zi = _polar_xy(r, tau, sector)
    return (float(zr), float(zi))


def polar_inverse(x: float, y: float, sector: int = 1):
    """Inverse of polar_map on the closed sector minus the origin."""
    if x == 0.0 and y == 0.0:
        raise ComplexIntError("the polar map collapses the origin")
    (a11, a12), (a21, a22) = _ROTATIONS[sector]
    # rotate back: zeta = i^(1-a) z; the rotation matrix is orthogonal
    x1 = a11 * x + a21 * y
    y1 = a12 * x + a22 * y
    if not x1 > 0 or abs(y1 / x1) > 1.0 + _EDGE_TOL:
        raise ComplexIntError(f"point ({x}, {y}) is outside sector {sector}")
    return (math.hypot(x, y), y1 / x1)


def sector_constraints(sector: int, nvars: int, zr: int, zi: int) -> list:
    """Two linear inequalities cutting the closed sector out of the plane:
    |y1| <= x1 for zeta = i^(1-a) z, whose x1 = a11 zr + a21 zi and
    y1 = a12 zr + a22 zi each read one coordinate."""
    if sector not in _ROTATIONS:
        raise ComplexIntError(f"unknown sector {sector}")
    (a11, a12), (a21, a22) = _ROTATIONS[sector]
    y_var = zr if a12 else zi
    x_var, x_sign = (zr, a11) if a11 else (zi, a21)

    def unit(v):
        return tuple(int(k == v) for k in range(nvars))

    return [Constraint(Polynomial(nvars, {unit(y_var): sign, unit(x_var): -x_sign}),
                       equality=False)
            for sign in (1, -1)]


def sector_decompose(region: Region) -> list:
    """Pieces A cap (S_a1 x ... x S_an); provably empty pieces dropped,
    undecided ones kept."""
    if region.kind != "complex":
        raise ComplexIntError("sector decomposition expects a complex region")
    out = []
    for alphas, piece, _orig in _sector_pieces(region):
        out.append((alphas, piece))
    return out


def _sector_pieces(region: Region):
    """(assignment, augmented piece, surviving original cells) triples.

    The original cells are what the polar transform consumes: the polar
    domain {r >= 0, |tau| <= 1} maps onto the closed sector, so the sector
    membership rows are implied and would only smuggle auxiliary variables
    into the transformed constraints.
    """
    nc = region.n // 2
    for alphas in iproduct((1, 2, 3, 4), repeat=nc):
        cells = []
        originals = []
        for cell in region.cells:
            nv = cell.nvars_total(region.n)
            consts = list(cell.constraints)
            for i, a in enumerate(alphas):
                consts.extend(sector_constraints(a, nv, 2 * i, 2 * i + 1))
            simp = simplify_cell(region, Cell(consts, cell.extra))
            if simp is not None:
                cells.append(simp)
                originals.append(cell)
        if cells:
            yield alphas, region.with_cells(cells), region.with_cells(originals)


# ---------------------------------------------------------------------------
# forms


@dataclass
class Partition:
    P: tuple
    Q: tuple
    R: tuple

    def __post_init__(self):
        self.P = tuple(sorted(self.P))
        self.Q = tuple(sorted(self.Q))
        self.R = tuple(sorted(self.R))
        pieces = self.P + self.Q + self.R
        if len(set(pieces)) != len(pieces):
            raise ComplexIntError("partition blocks must be disjoint")

    def degree(self) -> int:
        return len(self.P) + len(self.Q) + 2 * len(self.R)


class ComplexLogForm:
    """Sum of terms a(zr, zi) * (dz_1/z_1 ^ ... ^ dz_n/z_n) ^ dzbar_R."""

    def __init__(self, n: int, anti_degree: int, terms: Sequence[tuple]):
        self.n = int(n)
        self.anti_degree = int(anti_degree)
        self.terms = []
        for re, im, R in terms:
            R = tuple(sorted(set(int(k) for k in R)))
            if len(R) != self.anti_degree:
                raise ComplexIntError("every term must carry |R| = m - n dzbar factors")
            if any(not 0 <= k < self.n for k in R):
                raise ComplexIntError("dzbar index out of range")
            if re.nvars != 2 * self.n or im.nvars != 2 * self.n:
                raise ComplexIntError("coefficients live on the 2n real coordinates")
            self.terms.append((re, im, R))

    @property
    def degree(self) -> int:
        return self.n + self.anti_degree

    @staticmethod
    def volume_like(n: int, R: Sequence[int], coeff_re=None, coeff_im=None) -> "ComplexLogForm":
        re = coeff_re if coeff_re is not None else Polynomial.const(2 * n, 1)
        im = coeff_im if coeff_im is not None else Polynomial.zero(2 * n)
        return ComplexLogForm(n, len(tuple(R)), [(re, im, tuple(R))])

    def conjugate(self) -> "ComplexLogForm":
        """The transported complex conjugate: integrating this form over the
        conjugated region gives the conjugate of the original integral.

        Coordinate conjugation has Jacobian determinant (-1)^n, so the
        transport carries that sign besides conjugating the coefficient and
        evaluating it at the conjugate point.
        """
        sign = -1 if self.n % 2 else 1
        comps = _conjugation(2 * self.n)
        flips = [(sign * re.compose(comps), -sign * im.compose(comps), R)
                 for re, im, R in self.terms]
        return ComplexLogForm(self.n, self.anti_degree, flips)


def _conjugation(nvars: int) -> list:
    """Components of (zr, zi) -> (zr, -zi) on every coordinate pair."""
    return [-Polynomial.var(nvars, v) if v % 2 else Polynomial.var(nvars, v)
            for v in range(nvars)]


def conjugate_region(region: Region) -> Region:
    if region.kind != "complex":
        raise ComplexIntError("conjugation expects a complex region")
    comps = _conjugation(region.n)
    cells = []
    for cell in region.cells:
        if cell.extra:
            raise ComplexIntError("cells with auxiliaries cannot be conjugated")
        cells.append(
            Cell([Constraint(c.payload.compose(comps), c.equality) for c in cell.constraints])
        )
    box = None
    if region.box is not None:
        box = []
        for v, (lo, hi) in enumerate(region.box):
            box.append((-hi, -lo) if v % 2 else (lo, hi))
    return Region(region.n, region.p, cells, "complex", box, region.name)


# ---------------------------------------------------------------------------
# the exact polar lift of constraints


@lru_cache(maxsize=None)
def _polar_factor(nc: int, i: int, sector: int, a: int, b: int, mult: int) -> Polynomial:
    """zr_i^a zi_i^b s_i^(2 mult) over (r_1..r_n, tau_1..tau_n, s_1..s_n).

    The polar map gives zr_i = r_i c1(tau_i) / s_i and zi_i = r_i c2(tau_i)
    / s_i with c1, c2 the rows of the sector's rotation, so the factor is
    r^(a+b) c1^a c2^b (tau^2 + 1)^k s^e with 2k + e = 2 mult - a - b.
    """
    nv = 3 * nc
    r = Polynomial.var(nv, i)
    tau = Polynomial.var(nv, nc + i)
    (a11, a12), (a21, a22) = _ROTATIONS[sector]
    k, e = divmod(2 * mult - a - b, 2)
    return (r ** (a + b) * (a11 + a12 * tau) ** a * (a21 + a22 * tau) ** b
            * (tau * tau + 1) ** k * Polynomial.var(nv, 2 * nc + i) ** e)


def _lift_payload(payload: Polynomial, alphas, nc: int) -> Polynomial:
    """A constraint payload over (zr, zi) pulled back to (r_1..r_n,
    tau_1..tau_n, s_1..s_n) with its denominators cleared: the payload at
    the polar point times prod_i s_i^(2 mult_i), mult_i = ceil(d_i / 2) for
    the pair degree d_i."""
    mult = [(max((exp[2 * i] + exp[2 * i + 1] for exp in payload.terms), default=0) + 1) // 2
            for i in range(nc)]
    # summed in one dict: cheaper than repeated additions; zero sums go last,
    # so a term that cancels and comes back keeps its place
    work: dict = {}
    for exp, coeff in payload.terms.items():
        term = Polynomial.const(3 * nc, coeff)
        for i in range(nc):
            term = _polar_factor(nc, i, alphas[i], exp[2 * i], exp[2 * i + 1], mult[i]) * term
        for key, c in term.terms.items():
            prev = work.get(key)
            work[key] = c if prev is None else prev + c
    return Polynomial._of(3 * nc, {key: c for key, c in work.items() if c})


def _reduce_lift(payload: Polynomial, equality: bool, nc: int) -> Polynomial:
    """A lifted row over (r, tau, s) in its reduced form, worked on the term
    dict: with the sign of the row on the polar domain {r >= 0} (off
    {r_i = 0} for an inequality), so it cuts out the same lifted set there.

    - The positive factors go: the power of s_i >= 1 that every term
      carries and each exact power of tau_i^2 + 1.
    - An inequality row takes its strict transform: its monomial content
      in r is divided out, which changes the set only inside {r_i = 0},
      the preimage of z_i = 0.  An equality row keeps its r factors.
    - A radial row c r_i^k + c0 or c r_i^k + c' r_j^k, k >= 2, becomes
      +-(r_i - lam) or r_i - lam r_j (r_i the term with c > 0), with
      lam = (-c0/c)^(1/k) or (-c'/c)^(1/k), when lam is rational.

    Reducing a reduced row gives it back unchanged."""
    terms = payload.terms
    if not terms:
        return payload
    # the content in s, and in r for an inequality, divides out at once:
    # it commutes with the divisions by tau^2 + 1
    s_vars = range(2 * nc, 3 * nc)
    terms = _divided_by_content(terms, s_vars if equality else [*range(nc), *s_vars])
    for t in range(nc, 2 * nc):
        divided = _divided_by_tau_square(terms, t)
        while divided is not None:
            terms, divided = divided, _divided_by_tau_square(divided, t)
    terms = _collapsed_radial(terms, nc) or terms
    return payload if terms is payload.terms else Polynomial._of(3 * nc, terms)


def _divided_by_content(terms: dict, variables) -> dict:
    """terms divided by the largest monomial in `variables` that divides
    every term; `terms` itself when that monomial is 1."""
    content = [(v, min(exp[v] for exp in terms)) for v in variables]
    content = [(v, e) for v, e in content if e]
    if not content:
        return terms
    out = {}
    for exp, c in terms.items():
        exp = list(exp)
        for v, e in content:
            exp[v] -= e
        out[tuple(exp)] = c
    return out


def _divided_by_tau_square(terms: dict, t: int) -> dict | None:
    """terms / (x_t^2 + 1) when the division is exact, else None: synthetic
    division in x_t, highest power first, each power of x_t a coefficient
    over the other variables."""
    top = max(exp[t] for exp in terms)
    if top < 2:
        return None
    rest = dict(terms)
    quotient = {}
    for k in range(top, 1, -1):
        for exp in [e for e in rest if e[t] == k]:
            c = rest.pop(exp)
            low = exp[:t] + (k - 2,) + exp[t + 1:]
            quotient[low] = c
            left = rest.get(low, 0) - c
            if left:
                rest[low] = left
            else:
                del rest[low]
    return None if rest else quotient


def _collapsed_radial(terms: dict, nc: int) -> dict | None:
    """The linear row with the sign of a radial row c r_i^k + c0 or
    c r_i^k + c' r_j^k (k >= 2) on {r >= 0}; None for any other row or an
    irrational root."""
    if len(terms) != 2:
        return None
    (e1, c1), (e2, c2) = terms.items()
    radii = []
    for exp in (e1, e2):
        used = [v for v in range(nc) if exp[v]]
        if len(used) > 1 or any(exp[nc:]):
            return None
        radii.append(used[0] if used else None)
    v, w = radii
    if v is None:  # the constant goes second
        (v, e1, c1), (w, e2, c2) = (w, e2, c2), (v, e1, c1)
    k = e1[v]
    if k < 2 or (w is not None and e2[w] != k):
        return None
    lam = _rational_root(-c2 / c1, k)
    if lam is None:
        return None
    unit_v = e1[:v] + (1,) + e1[v + 1:]
    if w is None:  # sign(c) (r_v - lam)
        sign = 1 if c1 > 0 else -1
        return {unit_v: Fraction(sign), e2: -sign * lam}
    unit_w = e2[:w] + (1,) + e2[w + 1:]
    if c1 < 0:
        unit_v, unit_w, lam = unit_w, unit_v, 1 / lam
    return {unit_v: Fraction(1), unit_w: -lam}


def _rational_root(x: Fraction, k: int) -> Fraction | None:
    """The positive rational k-th root of x, None when there is none."""
    if x <= 0:
        return None
    roots = []
    for n in (x.numerator, x.denominator):  # Newton's iteration from above
        root = 1 << -(-n.bit_length() // k)
        while (step := ((k - 1) * root + n // root ** (k - 1)) // k) < root:
            root = step
        if root ** k != n:
            return None
        roots.append(root)
    return Fraction(*roots)


def _radius_bound(region: Region, i: int) -> float:
    box = region.bounding_box()
    zr_lo, zr_hi = box[2 * i]
    zi_lo, zi_hi = box[2 * i + 1]
    return math.hypot(max(abs(zr_lo), abs(zr_hi)), max(abs(zi_lo), abs(zi_hi)))


def _lift_cells(piece: Region, alphas) -> list:
    """The lifted and reduced (payload, equality) constraints of each cell
    of a sector piece; they do not depend on the partition or on any
    slice."""
    nc = piece.n // 2
    lifted = []
    for cell in piece.cells:
        if cell.extra:
            raise ComplexIntError("complex cells with auxiliaries are not supported")
        lifted.append([(_reduce_lift(_lift_payload(c.payload, alphas, nc), c.equality, nc),
                        c.equality) for c in cell.constraints])
    return lifted


def transform_piece(piece: Region, alphas, partition: Partition,
                    extra_polar_constraints: Sequence[tuple] = (),
                    eliminate: Mapping[int, float] | None = None,
                    lifted: Sequence | None = None) -> Region:
    """One sector piece in the task coordinates of a partition.

    extra_polar_constraints are (payload-over-(r, tau), equality) pairs in
    the full polar variable order r_1..r_n, tau_1..tau_n, applied before
    projection (used for annulus slices).  `eliminate` fixes full-polar
    coordinates to values before projection.  `lifted` is
    `_lift_cells(piece, alphas)` when the caller already has it.
    """
    nc = piece.n // 2
    if sorted(partition.P + partition.Q + partition.R) != list(range(nc)):
        raise ComplexIntError("the partition must cover every complex coordinate")
    eliminate = eliminate or {}
    eliminated = {("r", v) if v < nc else ("tau", v - nc) for v in eliminate}
    index, n_task = _task_index(partition, eliminated)
    # full polar order: r_1..r_n, tau_1..tau_n
    layout = {(i if kind == "r" else nc + i): pos for (kind, i), pos in index.items()}
    drops = [v for v in range(2 * nc) if v not in layout and v not in eliminate]
    radius = [_radius_bound(piece, i) * (1 + 1e-9) for i in range(nc)]

    task_cells = []
    for cell_rows in lifted if lifted is not None else _lift_cells(piece, alphas):
        # keep the s_i some constraint uses, packed after r and tau
        s_order = [i for i in range(nc)
                   if any(p.uses_var(2 * nc + i) for p, _ in cell_rows)]
        nv = 2 * nc + len(s_order)
        pack = list(range(2 * nc)) + [0] * nc
        for j, i in enumerate(s_order):
            pack[2 * nc + i] = 2 * nc + j
        constraints = [Constraint(p.map_vars(pack, nv), eq) for p, eq in cell_rows]
        for payload, eq in extra_polar_constraints:
            constraints.append(Constraint(payload.map_vars(list(range(2 * nc)), nv), eq))
        # polar domain rows
        for i in range(nc):
            r = Polynomial.var(nv, i)
            constraints.append(Constraint(-r, equality=False))
            constraints.append(Constraint(r - Fraction(radius[i]), equality=False))
            t = Polynomial.var(nv, nc + i)
            constraints.append(Constraint(t - 1, equality=False))
            constraints.append(Constraint(-t - 1, equality=False))

        if eliminate:
            fixed = {v: Fraction(val) for v, val in eliminate.items()}
            constraints = [
                Constraint(c.payload.partial_eval(fixed), c.equality)
                for c in constraints
            ]

        existential = []
        for v in drops:
            tau_of_s = v - nc if v >= nc else None
            if tau_of_s is not None and tau_of_s in s_order:
                existential.append(v)  # an s depends on this tau: keep it
                continue
            attempt = eliminate_var_linear(constraints, v, nv)
            if attempt is None:
                existential.append(v)
            else:
                constraints = attempt

        # task coordinates, then existential auxiliaries, then the s_i
        mapping = dict(layout)
        extras = []
        for pos, v in enumerate(existential):
            mapping[v] = n_task + pos
            if v >= nc:
                extras.append(ExtraVar(f"tau{v - nc + 1}", -1.0, 1.0))
            else:
                extras.append(ExtraVar(f"r{v + 1}", 0.0, radius[v]))
        for j, i in enumerate(s_order):
            mapping[2 * nc + j] = n_task + len(existential) + j
        total = n_task + len(existential) + len(s_order)
        for j, i in enumerate(s_order):
            tau_idx = mapping.get(nc + i)
            if tau_idx is None:
                raise ComplexIntError("internal: s-variable without its tau")
            extras.append(
                ExtraVar(f"s{i + 1}", 1.0, math.sqrt(2.0) + 1e-12, derived_from=tau_idx)
            )

        full_map = [mapping.get(v, 0) for v in range(nv)]
        final = []
        drop_ok = True
        for c in constraints:
            for v in range(nv):
                if v not in mapping and c.payload.uses_var(v):
                    drop_ok = False  # eliminated variable resurfaced
            final.append(Constraint(c.payload.map_vars(full_map, total), c.equality))
        if not drop_ok:
            raise ComplexIntError("projection left a dangling variable")
        # each row once: a lifted row and a slice bound may agree
        task_cells.append(Cell(list(dict.fromkeys(final)), tuple(extras)))

    box = [
        (Fraction(0), Fraction(radius[i])) if kind == "r" else (Fraction(-1), Fraction(1))
        for kind, i in index
    ]
    p_task = sum(kind == "r" for kind, _ in index)
    shell = Region(n_task, p_task, [], "real", box, piece.name)
    cells = []
    for cell in task_cells:
        simp = simplify_cell(shell, cell)
        if simp is not None:
            cells.append(simp)
    return Region(n_task, p_task, cells, "real", box, piece.name)


def _task_index(partition: Partition, eliminated=frozenset()):
    """Task coordinate layout of a partition: {("r", i) | ("tau", j): position}
    with r_(P+R) first, then tau_(Q+R), each ascending; coordinates listed in
    `eliminated` are fixed and take no position."""
    keep_r = sorted(set(partition.P) | set(partition.R))
    keep_tau = sorted(set(partition.Q) | set(partition.R))
    labels = [("r", i) for i in keep_r] + [("tau", j) for j in keep_tau]
    index = {}
    for label in labels:
        if label not in eliminated:
            index[label] = len(index)
    return index, len(index)


# ---------------------------------------------------------------------------
# one transform and one quadrature per distinct task of a call


@dataclass(frozen=True)
class _LiftedPiece:
    """A sector piece with its cells lifted once.  `key` is all that
    transform_piece reads of the piece: the lifted constraints and the
    radius bounds of the polar domain."""

    piece: Region
    alphas: tuple
    cells: list
    key: tuple


def _lifted_piece(piece: Region, alphas) -> _LiftedPiece:
    cells = _lift_cells(piece, alphas)
    key = (tuple(tuple(rows) for rows in cells),
           tuple(_radius_bound(piece, i) for i in range(piece.n // 2)))
    return _LiftedPiece(piece, tuple(alphas), cells, key)


def _transform_once(made: dict, lifted: _LiftedPiece, partition: Partition,
                    rows: Sequence[tuple] = (), eliminate: Mapping[int, float] | None = None
                    ) -> Region:
    """transform_piece of a lifted piece, made once per distinct (lifted
    cells, partition, polar rows, eliminated values) within the call that
    owns `made`: sector pieces that lift alike share one Region."""
    key = (lifted.key, partition.P, partition.Q, partition.R,
           tuple(rows), tuple(sorted((eliminate or {}).items())))
    if key not in made:
        made[key] = transform_piece(lifted.piece, lifted.alphas, partition, rows, eliminate,
                                    lifted=lifted.cells)
    return made[key]


def _turned(value, k: int) -> complex:
    """i^k * value, exactly: each quarter turn swaps the parts and negates
    one, as 0.0 - x, so that a zero part stays +0.0 as a quadrature sum
    leaves it."""
    re, im = value.real, value.imag
    for _ in range(k):
        re, im = 0.0 - im, re
    return complex(re, im)


class _Quadratures:
    """`_integrate_task` over the tasks of one call, each distinct
    quadrature run once.

    Two tasks share when they have the same transformed Region object, the
    same prefactor and log positions, and polynomial parts that agree up to
    a unit phase: task = i^k * other.  Then each quadrature sum of the task
    is the other's with its parts swapped and negated, float for float
    (equal polynomials evaluate alike), so the shared ladders are the
    task's own: an absolute ladder as it is, a signed one with its entries
    and limit turned by i^k.  A task with a pointwise coefficient
    (`coeff_eval`, a closure) never shares.  `tasks_run` counts the calls
    and `ladders_computed` the quadratures actually run.
    """

    def __init__(self, cfg: QuadConfig, kinds: Sequence[str]):
        self.cfg = cfg
        self.kinds = tuple(kinds)
        # key -> (region, results, k): the key's task is i^k times the results'
        self._done: dict = {}
        self.tasks_run = 0
        self.ladders_computed = 0

    def __call__(self, task: "RealTask") -> list:
        self.tasks_run += 1
        if task.coeff_eval is not None:
            self.ladders_computed += 1
            return _integrate_task(task, self.cfg, self.kinds)
        base = (id(task.region), tuple(task.prefactor), task.log_positions)
        re, im = task.poly_re, task.poly_im
        hit = self._done.get((base, re, im))
        if hit is not None:
            _region, results, k = hit
            return [self._turn(kind, result, k) for kind, result in zip(self.kinds, results)]
        results = _integrate_task(task, self.cfg, self.kinds)
        self.ladders_computed += 1
        for k in range(4):
            # the region rides along: its id stays unique while the key lives
            self._done[(base, re, im)] = (task.region, results, k)
            re, im = -im, re  # i * (re + i im) = -im + i re
        return results

    @staticmethod
    def _turn(kind: str, result: tuple, k: int) -> tuple:
        value, error, ladder = result
        if kind == "absolute" or k == 0:
            return result
        limit = None if ladder.limit is None else _turned(ladder.limit, k)
        entries = [(eps, _turned(v, k), stderr) for eps, v, stderr in ladder.entries]
        return _turned(value, k), error, replace(ladder, entries=entries, limit=limit)


# ---------------------------------------------------------------------------
# task assembly


@dataclass
class RealTask:
    """phi_{P,Q,R} of one (sector, term, partition) choice as a quadrature
    job in real coordinates: a polynomial complex coefficient (split into
    real and imaginary parts over the task coordinates), the bounded smooth
    prefactor prod (tau^2+1)^(-e/2), and the positions of the task
    coordinates carrying dr/r factors.  `region` is the transformed sector
    piece, None when the record comes from pullback_complex_log_form."""

    sector: tuple
    partition: Partition
    region: Region | None
    poly_re: Polynomial        # over task + auxiliary variables
    poly_im: Polynomial
    prefactor: list            # (tau position, half power e): (tau^2+1)^(-e/2)
    log_positions: tuple       # task positions carrying dr/r
    coeff_eval: Callable | None = None

    def pointwise(self) -> Callable:
        pre = list(self.prefactor)
        re, im = self.poly_re, self.poly_im
        extra = self.coeff_eval
        width = re.nvars  # auxiliary columns (if any) are appended after

        def f(pts: np.ndarray) -> np.ndarray:
            ambient = pts[:, :width]
            vals = re.eval_many(ambient) + 1j * im.eval_many(ambient)
            for pos, e in pre:
                vals = vals * (pts[:, pos] ** 2 + 1.0) ** (-0.5 * e)
            if extra is not None:
                vals = vals * extra(pts)
            return vals

        return f

    def reads(self) -> frozenset | None:
        """The task positions `pointwise` reads: the tau positions of the
        prefactor and of the polynomial part, or None (every coordinate)
        with a pointwise coefficient."""
        if self.coeff_eval is not None:
            return None
        used = {v for poly in (self.poly_re, self.poly_im) for v in range(poly.nvars)
                if poly.uses_var(v)}
        return frozenset(used.union(pos for pos, _ in self.prefactor))

    def integrand(self) -> Integrand:
        one = Polynomial.const(self.region.n, 1)
        return Integrand(one, self.log_positions, self.pointwise(), complex_valued=True,
                         reads=self.reads())


_I_POWERS = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}


def _cx(re=0, im=0):
    return (Fraction(re), Fraction(im))


def _cx_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _i_power(k: int):
    return _cx(*_I_POWERS[k % 4])


def _partition_form(partition: Partition, alphas, n_task: int, task_index: Mapping,
                    nc: int):
    """(poly_re, poly_im, prefactor, log_positions) of one pulled-back task.

    The task is integrated against Lebesgue measure in the parametrization
    order (r_P, tau_Q, (r, tau)_R), which the sector maps carry with
    positive Jacobian; reordering the coordinates flips the form
    coefficient and the orientation by the same parity, so no permutation
    sign appears here.  Only the sign from moving each dzbar_k next to its
    dz_k/z_k survives.
    """
    P, Q, R = partition.P, partition.Q, partition.R
    const = _cx(1)
    # moving each dzbar_k (ascending k) next to its dz_k/z_k
    for k in R:
        if (nc - 1 - k) % 2:
            const = _cx_mul(const, _cx(-1))
    # i per Q factor, i^(1-alpha) and -2 per R pair
    const = _cx_mul(const, _i_power(len(Q)))
    for k in R:
        const = _cx_mul(const, _i_power(1 - alphas[k]))
        const = _cx_mul(const, _cx(-2))

    # polynomial part: prod over R of (tau_k + i)
    re = Polynomial.const(n_task, const[0])
    im = Polynomial.const(n_task, const[1])
    for k in R:
        tau = Polynomial.var(n_task, task_index[("tau", k)])
        re, im = re * tau - im, im * tau + re

    prefactor = [(task_index[("tau", j)], 2) for j in Q]
    prefactor += [(task_index[("tau", k)], 3) for k in R]
    log_positions = tuple(task_index[("r", i)] for i in P)
    return re, im, prefactor, log_positions


def _coefficient_eval(re: Polynomial, im: Polynomial, partition: Partition,
                      alphas, task_index: Mapping, nc: int) -> Callable | None:
    """Pointwise a(polar point) for non-constant coefficients; supported when
    the coefficient only involves coordinates whose r and tau both survive."""
    if re.is_constant() and im.is_constant():
        return None
    needed = set()
    for poly in (re, im):
        for exp in poly.terms:
            for v, e in enumerate(exp):
                if e:
                    needed.add(v // 2)
    for i in needed:
        if i not in partition.R:
            raise ComplexIntError(
                "non-constant coefficients are supported only on coordinates whose "
                "polar pair is kept (the R block)"
            )

    def f(pts: np.ndarray) -> np.ndarray:
        zpts = np.zeros((pts.shape[0], 2 * nc))
        for i in needed:
            zpts[:, 2 * i], zpts[:, 2 * i + 1] = _polar_xy(
                pts[:, task_index[("r", i)]], pts[:, task_index[("tau", i)]], alphas[i])
        return re.eval_many(zpts) + 1j * im.eval_many(zpts)

    return f


def _partitions(form: ComplexLogForm):
    """(re, im, partition) for every term a * (dz/z ...) ^ dzbar_R of the form
    and every split of its remaining coordinates into dr/r (P) and dtau (Q)."""
    for re, im, R in form.terms:
        rest = [i for i in range(form.n) if i not in R]
        for bits in iproduct((0, 1), repeat=len(rest)):
            P = tuple(i for i, b in zip(rest, bits) if b == 0)
            Q = tuple(i for i, b in zip(rest, bits) if b == 1)
            yield re, im, Partition(P, Q, R)


def _pull_back(re: Polynomial, im: Polynomial, partition: Partition, alphas,
               region: Region | None = None, eliminated=frozenset()) -> RealTask:
    """The task of one (sector assignment, term, partition) choice, in the
    layout transform_piece gives the region when it eliminates `eliminated`.

    A constant coefficient is folded into the polynomial part; any other is
    kept as a pointwise factor.
    """
    nc = len(alphas)
    index, n_task = _task_index(partition, eliminated)
    pre, pim, prefactor, logpos = _partition_form(partition, alphas, n_task, index, nc)
    coeff = _coefficient_eval(re, im, partition, alphas, index, nc)
    if coeff is None:
        c0, c1 = re.constant_value(), im.constant_value()
        pre, pim = pre * c0 - pim * c1, pim * c0 + pre * c1
    return RealTask(alphas, partition, region, pre, pim, prefactor, logpos, coeff)


def pullback_complex_log_form(form: ComplexLogForm, alphas,
                              partition: Partition) -> list:
    """Pull one sector's worth of the form back to real task data.

    Returns one RealTask (without a region) per form term whose dzbar block
    matches the partition's R; the polynomial part carries i per dtau factor
    and i^(1-alpha) (-2)(tau_k + i) per paired block, and the denominators
    (tau^2+1) and (tau^2+1)^(3/2) ride along as pointwise prefactors.
    """
    if partition.degree() != form.degree:
        raise ComplexIntError(
            f"partition degree {partition.degree()} does not match the form "
            f"degree {form.degree}"
        )
    return [_pull_back(re, im, part, alphas)
            for re, im, part in _partitions(form) if part == partition]


def split_projective_charts(region: Region, form: ComplexLogForm,
                            inverted: Sequence[int]):
    """The affine piece of a product-of-lines input for one chart choice.

    The listed coordinates are read in the chart at infinity: the region is
    intersected with {|z_i| >= 1} there (and {|z_i| <= 1} elsewhere) and the
    substitution z_i = 1/w_i is applied, clearing the positive denominators
    (wr^2 + wi^2)^deg.  The form transform flips the sign of dz_i/z_i, so
    inversion is supported exactly when no inverted coordinate carries a
    dzbar factor (otherwise the coefficient turns rational).
    """
    inverted = sorted(set(int(i) for i in inverted))
    nc = region.n // 2
    if any(not 0 <= i < nc for i in inverted):
        raise ComplexIntError("inverted coordinate out of range")
    for _re, _im, R in form.terms:
        for i in inverted:
            if i in R:
                raise ComplexIntError(
                    "cannot invert a coordinate carrying a dzbar factor"
                )
            if _re.uses_var(2 * i) or _re.uses_var(2 * i + 1) or \
                    _im.uses_var(2 * i) or _im.uses_var(2 * i + 1):
                raise ComplexIntError(
                    "cannot invert a coordinate the coefficient depends on"
                )
    n = region.n

    def invert_payload(payload: Polynomial) -> Polynomial:
        # z = 1/w: zr -> wr / |w|^2, zi -> -wi / |w|^2; multiply through by
        # |w|^(2 max-pair-degree) per inverted coordinate.
        out = Polynomial.zero(n)
        degs = {}
        for i in inverted:
            degs[i] = max(
                (exp[2 * i] + exp[2 * i + 1] for exp in payload.terms), default=0
            )
        for exp, c in payload.terms.items():
            term = Polynomial.const(n, c)
            for i in range(nc):
                a_e, b_e = exp[2 * i], exp[2 * i + 1]
                zr = Polynomial.var(n, 2 * i)
                zi = Polynomial.var(n, 2 * i + 1)
                if i in inverted:
                    norm = zr * zr + zi * zi
                    term = term * zr**a_e * (-zi) ** b_e
                    term = term * norm ** (degs[i] - a_e - b_e)
                else:
                    term = term * zr**a_e * zi**b_e
            out = out + term
        return out

    cells = []
    for cell in region.cells:
        if cell.extra:
            raise ComplexIntError("cells with auxiliaries cannot be chart-split")
        consts = [Constraint(invert_payload(c.payload), c.equality)
                  for c in cell.constraints]
        for i in range(nc):
            zr = Polynomial.var(n, 2 * i)
            zi = Polynomial.var(n, 2 * i + 1)
            # after inversion every chart keeps its unit polydisc piece
            consts.append(Constraint(zr * zr + zi * zi - 1, equality=False))
        cells.append(Cell(consts))
    box = [(Fraction(-1), Fraction(1))] * n
    piece = Region(n, region.p, cells, "complex", box, region.name)

    sign = -1 if len(inverted) % 2 else 1
    flipped = ComplexLogForm(
        form.n, form.anti_degree,
        [(sign * re, sign * im, R) for re, im, R in form.terms],
    )
    return piece, flipped


PROBE_GATE_FLAG = "admissibility gate used the sampled probe"
GATE_CONTRADICTION_FLAG = ("contradiction: the exact gate says admissible, so the integral "
                           "converges absolutely, but an absolute ladder diverges")


def _check_degrees(region: Region, form: ComplexLogForm, m: int):
    if form.n != region.n // 2:
        raise ComplexIntError("form and region have different complex dimensions")
    if form.degree != m:
        raise ComplexIntError(f"form degree {form.degree} does not match m={m}")


def _admissibility_gate(region: Region, m: int, probe: ProbeConfig | None):
    """The region's m-admissibility verdict; raise unless it is admissible."""
    verdict = region.is_admissible(m, probe)
    if not verdict.ok:
        raise ComplexIntError(f"admissibility gate failed: {verdict}")
    return verdict


def reduce_to_real_tasks(region: Region, form: ComplexLogForm, m: int,
                         probe: ProbeConfig | None = None,
                         check_gate: bool = True) -> list:
    """All (sector, term, partition) tasks of an admissible integral."""
    _check_degrees(region, form, m)
    if check_gate:
        _admissibility_gate(region, m, probe)
    made: dict = {}
    tasks = []
    for alphas, _piece, originals in _sector_pieces(region):
        lifted = _lifted_piece(originals, alphas)
        for re, im, part in _partitions(form):
            task_region = _transform_once(made, lifted, part)
            if task_region.cells:
                tasks.append(_pull_back(re, im, part, alphas, task_region))
    return tasks


def task_allowability(task: RealTask, probe: ProbeConfig | None = None,
                      faces: str = "P"):
    """is_allowable of the transformed region, restricted by default to the
    faces guaranteed by the reduction (subsets of the P block)."""
    region = task.region
    if faces == "P":
        from itertools import combinations

        ppos = list(task.log_positions)
        face_list = []
        for k in range(1, len(ppos) + 1):
            face_list.extend(combinations(ppos, k))
        return region.is_allowable(faces=face_list, cfg=probe)
    return region.is_allowable(cfg=probe)


# ---------------------------------------------------------------------------
# admissible integration


@dataclass
class ComplexIntegralResult:
    value: complex
    error: float
    absolute: float
    verdict: str
    tasks: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    tasks_run: int = 0         # real tasks integrated
    ladders_computed: int = 0  # of them, those whose quadrature ran (the rest shared one)

    def __str__(self):
        return (
            f"value={self.value.real:.8g}{self.value.imag:+.8g}i "
            f"+/- {self.error:.2g} (abs {self.absolute:.6g}, {self.verdict})"
        )


def _integrate_task(task: RealTask, cfg: QuadConfig, ladders: Sequence[str]) -> list:
    """(value, error, ladder) for each requested ladder ("signed" or
    "absolute"), all from one quadrature program per ladder; the error is nan
    while a ladder has not settled on a limit."""
    return [(*ladder.estimate(), ladder)
            for ladder in _build_ladder(task.region, task.integrand(), cfg, ladders)]


def _existentials(region: Region) -> set:
    """The names of the existential auxiliaries of a task's cells: a task
    that keeps one cannot be sliced, so it is left out of the sums."""
    return {e.name for cell in region.cells for e in cell.extra if e.derived_from is None}


def _unsliced_flag(unsliced: Sequence[set]) -> str:
    """The flag naming the tasks left out, one set of auxiliaries each."""
    return (f"{sum(map(bool, unsliced))} task(s) not integrated: existential "
            f"auxiliary {', '.join(sorted(set().union(*unsliced)))} cannot be sliced")


def integrate_admissible(region: Region, form: ComplexLogForm, m: int,
                         cfg: QuadConfig | None = None,
                         probe: ProbeConfig | None = None) -> ComplexIntegralResult:
    """Sum of the reduced real tasks.  Each task's signed ladder (real and
    imaginary parts) and absolute ladder come from one quadrature program
    over every rung.

    The verdict is combined_verdict over every task's signed and absolute
    ladders: "converged" only when all of them converge, "diverging" when
    any of them diverges, and "inconclusive" otherwise.  Part I of the
    paper is the cross-check: an admissible region's integral converges
    absolutely, so when the gate is exact (no probe) and an absolute
    ladder diverges anyway, one of the two is wrong; the verdict is then
    "inconclusive" and a flag names the contradiction.  A task with an
    existential auxiliary cannot be sliced: it is left out, which makes
    the verdict at best "inconclusive", the sums nan and a flag name it.
    """
    cfg = cfg or QuadConfig()
    _check_degrees(region, form, m)
    gate = _admissibility_gate(region, m, probe)
    flags = [PROBE_GATE_FLAG] if gate.heuristic else []
    tasks = reduce_to_real_tasks(region, form, m, probe, check_gate=False)
    quadrature = _Quadratures(cfg, ("signed", "absolute"))
    total = 0j
    error = 0.0
    absolute = 0.0
    ladders = []
    detail = []
    unsliced = []  # the existential auxiliaries of each task left out
    for task in tasks:
        unsliced.append(_existentials(task.region))
        if unsliced[-1]:
            continue
        (value, err, ladder), (abs_val, _, abs_ladder) = quadrature(task)
        ladders += [ladder, abs_ladder]
        total += complex(value)
        error += err
        absolute += abs(abs_val)
        detail.append((task, value, err))
    verdict = combined_verdict(ladders)
    if not gate.heuristic and any(lad.verdict == "diverging"
                                  for lad in ladders[1::2]):  # the absolute ladders
        flags = flags + [GATE_CONTRADICTION_FLAG]
        verdict = "inconclusive"
    if any(unsliced):
        flags = flags + [_unsliced_flag(unsliced)]
        verdict = "diverging" if verdict == "diverging" else "inconclusive"
        total, error, absolute = complex(math.nan, math.nan), math.nan, math.nan
    return ComplexIntegralResult(total, error, absolute, verdict, detail,
                                 flags + _cap_flags(ladders), quadrature.tasks_run,
                                 quadrature.ladders_computed)


# ---------------------------------------------------------------------------
# annulus slices


@dataclass
class AnnulusDecayReport:
    entries: list
    fit: DecayFit | None
    verdict: str
    monotone: bool
    flags: list = field(default_factory=list)
    tasks_run: int = 0         # slice tasks integrated, over every radius
    ladders_computed: int = 0  # of them, those whose quadrature ran (the rest shared one)

    def __str__(self):
        if self.fit is None:
            return f"annulus decay: {self.verdict}"
        return (
            f"annulus decay: {self.verdict} alpha={self.fit.exponent:.4f} "
            f"(monotone={self.monotone})"
        )


def annulus_slice_decay(region: Region, form: ComplexLogForm, m: int,
                        ts: Sequence[float] | None = None,
                        cfg: QuadConfig | None = None,
                        probe: ProbeConfig | None = None) -> AnnulusDecayReport:
    """vol(A cap {|z_1| = t >= |z_2|}; |form|) along a ladder of radii.

    Gate: either m-admissibility of the region (the |z_2| <= t bound is
    then added) or A cap (union H_i) inside D, in which case the slice is
    just {|z_1| = t}.  A slice task that keeps an existential auxiliary
    cannot be sliced, as in integrate_admissible: it is left out, which
    makes every volume nan, the fit None, the verdict "inconclusive" and a
    flag name the auxiliaries.
    """
    cfg = cfg or QuadConfig()
    nc = region.n // 2
    if nc < 2:
        raise ComplexIntError("annulus slices need at least two complex coordinates")
    if form.degree != m - 1:
        raise ComplexIntError("the slice form must have total degree m - 1")
    if not all(re.is_constant() and im.is_constant() for re, im, _ in form.terms):
        raise ComplexIntError("annulus decay supports constant coefficients")
    ts = _decay_ts(ts)
    bound_z2 = True
    memo: dict = {}  # the two halves of the gate share each face's answer
    verdict = region.is_admissible(m, probe, memo)
    heuristic = verdict.heuristic
    if not verdict.ok:
        inside, h = region.meets_divisors_only_in_d(probe, memo)
        heuristic = heuristic or h
        if inside:
            bound_z2 = False
        else:
            raise ComplexIntError(f"gate failed: not admissible ({verdict}) and "
                                  "the divisor locus is not inside D")

    # r_1 = t is fixed on the slice, so dr_1 restricts to zero: only the
    # partitions with z_1 in Q contribute.  The lift does not depend on t,
    # so each piece is lifted once.
    pieces = [
        (_lifted_piece(orig, alphas),
         [_pull_back(re, im, part, alphas, eliminated={("r", 0)})
          for re, im, part in _partitions(form) if 0 in part.Q])
        for alphas, _aug, orig in _sector_pieces(region)
    ]
    r1 = Polynomial.var(2 * nc, 0)
    r2 = Polynomial.var(2 * nc, 1)
    made: dict = {}
    quadrature = _Quadratures(cfg, ("absolute",))
    entries = []
    ladders = []
    unsliced = []
    for t in ts:
        rows = [(r1 - Fraction(t), True)]
        if bound_z2:
            rows.append((r2 - Fraction(t), False))
        vol = 0.0
        for lifted, tasks in pieces:
            for task in tasks:
                task_region = _transform_once(made, lifted, task.partition, rows, {0: t})
                if not task_region.cells:
                    continue
                unsliced.append(_existentials(task_region))
                if unsliced[-1]:
                    continue
                (abs_val, _, ladder), = quadrature(replace(task, region=task_region))
                ladders.append(ladder)
                vol += abs(abs_val)
        entries.append((t, vol))
    flags = ([PROBE_GATE_FLAG] if heuristic else []) + _cap_flags(ladders)
    if any(unsliced):
        entries = [(t, math.nan) for t, _ in entries]
        fit, verdict_txt = None, "inconclusive"
        flags.append(_unsliced_flag(unsliced))
    else:
        fit, verdict_txt = _decay_verdict(entries)
    ordered = sorted(entries)  # ascending t
    monotone = all(a[1] <= b[1] + ABS_TOL for a, b in zip(ordered, ordered[1:]))
    return AnnulusDecayReport(entries, fit, verdict_txt, monotone, flags,
                              quadrature.tasks_run, quadrature.ladders_computed)
