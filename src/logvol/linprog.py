"""Small exact linear programming over the rationals.

Two-phase dense simplex with Bland's rule, used for cell feasibility,
implicit-equality detection (affine hulls) and sign certification.  Problem
sizes here are tiny (a handful of variables and constraints), so clarity
beats sparsity.

The simplex pivots on integers (fraction-free, as in Edmonds 1967 and
Bareiss 1968, and as lrs does).  Each constraint row and its rhs is scaled
to integers by the lcm of their denominators, while slack and artificial
coefficients stay +-1: that rescales each slack and artificial variable by
a positive factor.  The integer tableau T keeps one common denominator
d > 0 with T = d * tableau, where tableau is the rational simplex tableau
of the rescaled problem.  A pivot on p = T[r][c] maps every other row i,
the cost row included, to (T_i * p - T_ic * T_r) // d, exact by Sylvester's
identity (d is the determinant of the current basis, up to sign), keeps
the pivot row, and sets d = p; a negative p, which can occur only when an
artificial is pivoted out after phase 1, negates every row and d.

The positive rescalings and the positive d change no sign of a tableau or
reduced-cost entry and no order or tie among the ratios of one column
(compared by cross-multiplying), so Bland's rule makes the same pivots as
the rational simplex on the unscaled rows, with the same basis-index
tie-break, and every result (status, value, point) is the same.  Phase 1
weighs each artificial by the inverse of its row's scale to keep that
objective, the sum of the unscaled artificials.

Rows kept in that form are passed as they are: a_ub (a_eq) holds the
pairs `_as_integers([*row, rhs])` and b_ub (b_eq) is None, for the same
tableau and result.

Phase 1 runs once per linear system.  Phase 1 never reads the objective,
so a `LinearSystem` keeps the tableau it ends with, and each objective
asked of the system starts its phase 2 there (the two-phase warm start of
Chvatal, Linear Programming, 1983, ch. 8).  Each result is the one
`solve_lp` gives on the rows alone, and every objective still goes through
`solve_lp`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult:
    def __init__(self, status: str, value: Fraction | None = None, point: list | None = None):
        self.status = status
        self.value = value
        self.point = point

    def __repr__(self):
        return f"LPResult({self.status}, value={self.value})"


def _as_integers(values):
    """(the values times s as ints, s) for s the lcm of their denominators."""
    s = lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


def _reduced(ints, d):
    """`_as_integers` of the values ints / d, for integers ints and d != 0."""
    g = gcd(d, *ints) if d > 0 else -gcd(d, *ints)
    return [v // g for v in ints], d // g


def _scaled(a, b):
    """The rows a.x (<= or =) b as `_as_integers` pairs; a when b is None."""
    return a or [] if b is None else [_as_integers([*row, rhs]) for row, rhs in zip(a or [], b)]


def _pivot(rows, basis, row, col, d):
    """Pivot the integer tableau `rows` (cost row included) on
    p = rows[row][col] over the common denominator d; returns the new one."""
    prow = rows[row]
    p = prow[col]
    for i, vec in enumerate(rows):
        if i == row:
            continue
        factor = vec[col]
        if factor:
            rows[i] = [(a * p - factor * b) // d for a, b in zip(vec, prow)]
        elif p != d:
            rows[i] = [a * p // d for a in vec]
    basis[row] = col
    if p < 0:
        rows[:] = [[-a for a in vec] for vec in rows]
        p = -p
    return p


def _simplex(rows, basis, d):
    """Maximize.  rows: the constraint rows (rhs last), then the cost row of
    reduced costs over all columns, rhs last holding the current value
    (negated); all over the common denominator d.  Returns (status, d)."""
    while True:
        cost = rows[-1]
        # Bland's rule: the entering column is the first improving one
        col = next((j for j in range(len(cost) - 1) if cost[j] > 0), None)
        if col is None:
            return OPTIMAL, d
        best = None
        for r in range(len(basis)):
            a = rows[r][col]
            if a > 0:
                if best is None:
                    best = r
                    continue
                lhs, rhs = rows[r][-1] * rows[best][col], rows[best][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best]):
                    best = r
        if best is None:
            return UNBOUNDED, d
        d = _pivot(rows, basis, best, col, d)


_NOT_RUN = object()


class LinearSystem:
    """The rows a.x <= b and a.x = b of LPs over nvars free variables,
    asked for several objectives.  Phase 1 runs once, on the first
    objective `solve_lp` is asked of the system, and every objective's
    phase 2 starts from its final tableau.  Phase 1 does not depend on the
    objective, so each result is the one-shot `solve_lp` result.  The
    tableau lives as long as the system does; nothing is cached elsewhere.
    """

    def __init__(self, nvars: int, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
        self.nvars = nvars
        self._rows = (a_ub, b_ub, a_eq, b_eq)
        self._start = _NOT_RUN

    def start(self):
        """(rows, basis, d, nslack) after phase 1, or None when infeasible."""
        if self._start is _NOT_RUN:
            self._start = _phase_1(self.nvars, *self._rows)
        return self._start


def _phase_1(n, a_ub, b_ub, a_eq, b_eq):
    """The integer tableau of the rows with their artificials driven to
    zero: (rows, basis, d, nslack) with the artificial columns and the
    rows whose artificial stayed basic dropped, or None when infeasible."""
    cons = [(row, True) for row in _scaled(a_ub, b_ub)]
    cons += [(row, False) for row in _scaled(a_eq, b_eq)]
    nslack = sum(1 for _, ub in cons if ub)
    art0 = 2 * n + nslack  # split vars, slacks, then artificials
    width = art0 + sum(1 for (vals, _), ub in cons if not ub or vals[-1] < 0)

    # Integer rows with rhs >= 0: a ub row with rhs >= 0 starts with its
    # slack basic, every other row with an artificial.
    rows, basis, arts = [], [], []
    slack, art = 2 * n, art0
    for (vals, scale), ub in cons:
        flip = -1 if vals[-1] < 0 else 1
        if flip < 0:
            vals = [-v for v in vals]
        vec = vals[:-1] + [-v for v in vals[:-1]] + [0] * (width - 2 * n) + vals[-1:]
        if ub:
            vec[slack] = flip
            slack += 1
        if ub and flip == 1:
            basis.append(slack - 1)
        else:
            vec[art] = 1
            arts.append((len(rows), scale))
            basis.append(art)
            art += 1
        rows.append(vec)

    d = 1
    if arts:
        # maximize minus the sum of the unscaled artificials (each one of
        # the tableau over its row's scale), times the lcm of the scales,
        # expressed over the current basis
        big = lcm(*(scale for _, scale in arts))
        cost = [0] * (width + 1)
        for r, scale in arts:
            w = big // scale
            cost[basis[r]] = -w
            cost = [a + w * t for a, t in zip(cost, rows[r])]
        rows.append(cost)
        _, d = _simplex(rows, basis, d)
        if rows[-1][-1] != 0:  # the optimal -sum(artificials), negated
            return None
        # pivot artificials out of the basis when possible
        for r, b in enumerate(basis):
            if b >= art0:
                col = next((j for j in range(art0) if rows[r][j] != 0), None)
                if col is not None:
                    d = _pivot(rows, basis, r, col, d)
        # drop artificial columns, the rows whose artificial stayed basic
        # and the phase-1 cost row
        live = [r for r, b in enumerate(basis) if b < art0]
        rows = [rows[r][:art0] + rows[r][-1:] for r in live]
        basis = [basis[r] for r in live]
    return rows, basis, d, nslack


def solve_lp(
    objective: Sequence,
    a_ub: Sequence[Sequence] | None = None,
    b_ub: Sequence | None = None,
    a_eq: Sequence[Sequence] | None = None,
    b_eq: Sequence | None = None,
    maximize: bool = True,
    system: LinearSystem | None = None,
) -> LPResult:
    """Maximize (or minimize) objective . x over free variables x.

    Free variables are split x = u - v with u, v >= 0; equalities are kept as
    exact rows with artificial variables in phase 1.  Coefficients are ints
    or Fractions (or rows scaled already); the value and point are Fractions.
    The rows are given either as a_ub, b_ub, a_eq, b_eq or as a
    `LinearSystem` whose phase 1 serves every objective asked of it.
    """
    n = len(objective)
    start = (system or LinearSystem(n, a_ub, b_ub, a_eq, b_eq)).start()
    if start is None:
        return LPResult(INFEASIBLE)
    rows, basis, d, nslack = start
    # phase 2 pivots on copies: _pivot replaces rows, never edits one
    rows, basis = list(rows), list(basis)

    # The integer objective times d, expressed over the basis.
    obj, scale = _as_integers(objective)
    if not maximize:
        obj = [-v for v in obj]
    cost = [d * v for v in obj] + [-d * v for v in obj] + [0] * (nslack + 1)
    for r, b in enumerate(basis):
        factor = obj[b] if b < n else -obj[b - n] if b < 2 * n else 0
        if factor:
            cost = [a - factor * t for a, t in zip(cost, rows[r])]
    rows.append(cost)
    status, d = _simplex(rows, basis, d)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [0] * (2 * n)
    for r, b in enumerate(basis):
        if b < 2 * n:
            x[b] = rows[r][-1]
    point = [Fraction(x[j] - x[n + j], d) for j in range(n)]
    value = Fraction(-rows[-1][-1], scale * d)
    return LPResult(OPTIMAL, value if maximize else -value, point)


def feasible_point(system: LinearSystem):
    """A feasible point of the system, or None."""
    res = solve_lp([Fraction(0)] * system.nvars, system=system)
    if res.status == INFEASIBLE:
        return None
    return res.point


def _rref(mat: list, ncols: int) -> list:
    """Exact Gauss-Jordan elimination of `mat` in place over its first ncols
    columns (later columns ride along); returns the pivot columns, pivot r
    being the leading 1 of row r.  Rows past the pivots are zero there."""
    pivots = []
    for col in range(ncols):
        row_at = len(pivots)
        if row_at == len(mat):
            break
        pivot = next((r for r in range(row_at, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row_at], mat[pivot] = mat[pivot], mat[row_at]
        piv = mat[row_at][col]
        mat[row_at] = [v / piv for v in mat[row_at]]
        for r in range(len(mat)):
            if r != row_at and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row_at])]
        pivots.append(col)
    return pivots


def rank_of_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank via Gaussian elimination."""
    mat = [list(map(Fraction, row)) for row in rows]
    return len(_rref(mat, len(mat[0]) if mat else 0))


def particular_solution(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction],
                        nvars: int):
    """One exact solution of rows . x = rhs, or None when inconsistent."""
    mat = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = _rref(mat, nvars)
    if any(row[-1] != 0 for row in mat[len(pivots):]):
        return None
    x = [Fraction(0)] * nvars
    for row, col in zip(mat, pivots):
        x[col] = row[-1]
    return x


def nullspace_basis(rows: Sequence[Sequence[Fraction]], nvars: int) -> list:
    """Exact basis of the homogeneous solution space of rows . x = 0."""
    mat = [list(map(Fraction, row)) for row in rows]
    pivots = _rref(mat, nvars)
    basis = []
    for f in range(nvars):
        if f in pivots:
            continue
        vec = [Fraction(0)] * nvars
        vec[f] = Fraction(1)
        for row, col in zip(mat, pivots):
            vec[col] = -row[f]
        basis.append(vec)
    return basis
