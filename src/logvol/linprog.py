"""Small exact linear programming over the rationals.

Two-phase dense simplex with Bland's rule, used for cell feasibility,
implicit-equality detection (affine hulls) and sign certification.  Problem
sizes here are tiny (a handful of variables and constraints), so clarity
beats sparsity.
"""

from __future__ import annotations

from fractions import Fraction
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


def _pivot(tableau, basis, row, col):
    m = len(tableau)
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r in range(m):
        if r != row and tableau[r][col] != 0:
            factor = tableau[r][col]
            tableau[r] = [a - factor * b for a, b in zip(tableau[r], tableau[row])]
    basis[row] = col


def _simplex(tableau, basis, cost):
    """Maximize. tableau rows: constraints (with rhs last); cost: objective row
    expressed over all columns, rhs last holding the current value (negated)."""
    ncols = len(cost) - 1
    while True:
        col = next((j for j in range(ncols) if cost[j] > 0), None)
        if col is None:
            return OPTIMAL
        best_row, best_ratio = None, None
        for r, rowvec in enumerate(tableau):
            if rowvec[col] > 0:
                ratio = rowvec[-1] / rowvec[col]
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[best_row]
                ):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            return UNBOUNDED
        _pivot(tableau, basis, best_row, col)
        piv = cost[col]
        cost[:] = [a - piv * b for a, b in zip(cost, tableau[best_row] + [])]
        # keep Bland's rule honest: entering column chosen by minimum index


def solve_lp(
    objective: Sequence,
    a_ub: Sequence[Sequence] | None = None,
    b_ub: Sequence | None = None,
    a_eq: Sequence[Sequence] | None = None,
    b_eq: Sequence | None = None,
    maximize: bool = True,
) -> LPResult:
    """Maximize (or minimize) objective . x over free variables x.

    Free variables are split x = u - v with u, v >= 0; equalities are kept as
    exact rows with artificial variables in phase 1.
    """
    a_ub = [list(map(Fraction, row)) for row in (a_ub or [])]
    b_ub = [Fraction(v) for v in (b_ub or [])]
    a_eq = [list(map(Fraction, row)) for row in (a_eq or [])]
    b_eq = [Fraction(v) for v in (b_eq or [])]
    obj = [Fraction(v) for v in objective]
    if not maximize:
        obj = [-v for v in obj]
    n = len(obj)

    # Build standard rows: each ub row gets a slack; each eq row none.
    raw = [(row, rhs, "ub") for row, rhs in zip(a_ub, b_ub)]
    raw += [(row, rhs, "eq") for row, rhs in zip(a_eq, b_eq)]
    m = len(raw)
    nslack = sum(1 for _, _, kind in raw if kind == "ub")

    # Normalize rhs >= 0.
    normed = []
    for row, rhs, kind in raw:
        if rhs < 0:
            normed.append(([-v for v in row], -rhs, kind, -1))
        else:
            normed.append((row, rhs, kind, 1))

    width = 2 * n + nslack + m  # split vars, slacks, artificials
    tableau = []
    basis = []
    slack_idx = 2 * n
    art_idx = 2 * n + nslack
    art_cols = []
    for row, rhs, kind, flip in normed:
        vec = [Fraction(0)] * (width + 1)
        for j, v in enumerate(row):
            vec[j] = v
            vec[n + j] = -v
        if kind == "ub":
            vec[slack_idx] = Fraction(flip)
            slack_here = slack_idx
            slack_idx += 1
        else:
            slack_here = None
        vec[-1] = rhs
        if kind == "ub" and flip == 1:
            basis.append(slack_here)
            tableau.append(vec)
        else:
            vec[art_idx] = Fraction(1)
            art_cols.append(art_idx)
            basis.append(art_idx)
            art_idx += 1
            tableau.append(vec)

    # Phase 1: drive artificials to zero.
    if art_cols:
        cost = [Fraction(0)] * (width + 1)
        for col in art_cols:
            cost[col] = Fraction(-1)
        # express cost over the current basis
        for r, b in enumerate(basis):
            if cost[b] != 0:
                factor = cost[b]
                cost = [a - factor * t for a, t in zip(cost, tableau[r] + [])]
        status = _simplex(tableau, basis, cost)
        value = -cost[-1]  # current value of -sum(artificials)
        if value != 0:
            return LPResult(INFEASIBLE)
        # pivot artificials out of the basis when possible
        for r, b in enumerate(basis):
            if b in art_cols:
                col = next(
                    (
                        j
                        for j in range(2 * n + nslack)
                        if tableau[r][j] != 0
                    ),
                    None,
                )
                if col is not None:
                    _pivot(tableau, basis, r, col)
        # drop artificial columns
        keep = list(range(2 * n + nslack)) + [width]
        tableau = [[row[j] for j in keep] for row in tableau]
        live = []
        for r, b in enumerate(basis):
            if b in art_cols:
                continue
            live.append(r)
        tableau = [tableau[r] for r in live]
        basis = [basis[r] for r in live]
        width = 2 * n + nslack

    # Phase 2.
    cost = [Fraction(0)] * (width + 1)
    for j in range(n):
        cost[j] = obj[j]
        cost[n + j] = -obj[j]
    for r, b in enumerate(basis):
        if b < len(cost) - 1 and cost[b] != 0:
            factor = cost[b]
            cost = [a - factor * t for a, t in zip(cost, tableau[r] + [])]
    status = _simplex(tableau, basis, cost)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * (2 * n + nslack)
    for r, b in enumerate(basis):
        if b < len(x):
            x[b] = tableau[r][-1]
    point = [x[j] - x[n + j] for j in range(n)]
    value = sum(o * v for o, v in zip(obj, point))
    if not maximize:
        value = -value
    return LPResult(OPTIMAL, value, point)


def feasible_point(a_ub, b_ub, a_eq, b_eq, nvars: int):
    """A feasible point of the system, or None."""
    res = solve_lp([Fraction(0)] * nvars, a_ub, b_ub, a_eq, b_eq)
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
