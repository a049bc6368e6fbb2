"""Exact dimension certificates for nonlinear cells.

`region._decide_cell` hands a nonlinear cell without auxiliaries to
`certify_cell` once `simplify_cell` has run on it.  The cell is rewritten
into an equivalent system (`rewrite_nonlinear`), H is the affine hull of
its linear part P, and a bounded list of rational candidate points of H
is searched for a point that proves the dimension: dim H (the interior
certificate) or dim H - 1 (the hypersurface certificate).  No answer
means the caller falls back to the sampled probe.  The cell itself is
left as it is: the rewrites serve only this decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

from .linprog import _as_integers, _rref
from .polyform import Polynomial
from .region import (Cell, Constraint, Region, _affine_hull_rows, _Decision, _holds,
                     _hull_rank, _linear_system, _slack)


def certify_cell(region: Region, cell: Cell, found: list) -> _Decision | None:
    """An exact decision for a nonlinear cell without auxiliaries, or None.

    The cell is rewritten (`rewrite_nonlinear`); H is the affine hull of
    its linear part P.  A linear result is decided by rank.  With no
    nonlinear equality, a candidate point of P at which every nonlinear
    inequality is strict shows dim = dim H: P meets a small ball around it
    in dimension dim P.  With one, g = 0, a rational point of the relative
    interior of P with g = 0, every nonlinear inequality strict and grad g
    not in the row space of H shows dim = dim H - 1: near it, H cap {g = 0}
    is a smooth hypersurface of H inside the cell, and the cell lies in
    H cap {g = 0}, whose dimension is dim H - 1 as g does not vanish on H.
    """
    n = region.n
    linear, ineqs, eqs = rewrite_nonlinear(cell.constraints, n)
    if len(eqs) > 1:
        return None
    system = _linear_system(region, Cell(linear))
    centre = None
    if region.box is not None:
        lo, hi, _ = region._box_bounds(())
        centre = [(a + b) / 2 for a, b in zip(lo, hi)]
        found = found + [_as_integers(centre)]
    rows = _affine_hull_rows(n, system, found)
    if rows is None:
        return _Decision(-1, False, None, "empty")
    if not ineqs and not eqs:
        return _Decision(n - _hull_rank(rows), False, rows, "rank")

    # H as a point plus directions: the free coordinates of the RREF of its
    # rows take the box centre's values (0 without a box), each basis
    # direction moves one free coordinate
    mat = [[Fraction(x) for x in a] + [Fraction(b)] for a, b in rows]
    pivots = _rref(mat, n)
    free = [v for v in range(n) if v not in pivots]
    base = list(centre) if centre is not None else [Fraction(0)] * n
    basis = []
    for f in free:
        vec = [Fraction(0)] * n
        vec[f] = Fraction(1)
        basis.append(vec)
    for r, col in enumerate(pivots):
        base[col] = mat[r][-1] - sum(mat[r][f] * base[f] for f in free)
        for vec, f in zip(basis, free):
            vec[col] = -mat[r][f]
    ub = [a for a, _ in system[0]]
    # the candidate points, all in H: the feasible points found, their
    # centroid, the base point and the base point moved a quarter of the
    # box's width either way along each basis direction
    starts = [[Fraction(x, q) for x in ints[:n]] for ints, q in found if _holds(system, (ints, q))]
    if len(starts) > 1:
        starts.append([sum(xs) / len(starts) for xs in zip(*starts)])
    starts.append(base)
    widths = [(b - a) / 4 for a, b in zip(lo, hi)] if centre is not None else [1] * n
    starts += [[x + sign * widths[f] * y for x, y in zip(base, vec)]
               for f, vec in zip(free, basis) for sign in (1, -1)]

    def strict(point):
        return all(g.eval(point) < 0 for g in ineqs)

    if not eqs:
        for point in starts:
            if _holds(system, _as_integers(point)) and strict(point):
                return _Decision(len(free), False, rows, "interior")
        return None
    g, = eqs
    grad = [g.partial(v) for v in range(n)]
    # a row of P that is constant on H (an implicit equality) may be tight
    implicit = [not any(_dot(a, vec) for vec in basis) for a in ub]

    def certifies(point):
        if g.eval(point) != 0 or not strict(point):
            return False
        w = _as_integers(point)
        for a, imp in zip(ub, implicit):
            slack = _slack(a, w)
            if slack < 0 or (slack == 0 and not imp):
                return False
        normal = [d.eval(point) for d in grad]
        return any(_dot(normal, vec) for vec in basis)

    hypersurface = _Decision(len(free) - 1, False, None, "hypersurface")
    on_g = [point for point in starts if g.eval(point) == 0]
    if any(map(certifies, on_g)):
        return hypersurface
    # the rational roots of g on the lines through the start points along
    # the basis directions, then on rational secants through the first few
    # points of g = 0 met (for a quadric the second root is rational)
    for point in starts:
        for d in basis:
            for t in line_roots(g, point, d):
                on_g.append([x + t * y for x, y in zip(point, d)])
                if certifies(on_g[-1]):
                    return hypersurface
    secants = basis + [[x * a + y * b for a, b in zip(u, w)]
                       for i, u in enumerate(basis) for w in basis[i + 1:]
                       for x, y in ((1, 1), (1, -1), (2, 1), (2, -1), (1, 2), (1, -2))]
    for point in on_g[:_SECANT_POINTS]:
        for d in secants:
            for t in line_roots(g, point, d):
                if certifies([x + t * y for x, y in zip(point, d)]):
                    return hypersurface
    return None


_SECANT_POINTS = 2  # points of g = 0 through which rational secants are tried


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v) if x)


def line_roots(g: Polynomial, point, d) -> list:
    """The rational t != 0 with g(point + t d) = 0, when that polynomial in
    t has degree 1 or 2; none otherwise."""
    coeffs = [Fraction(0)] * (g.degree() + 1)
    for exp, c in g.terms.items():
        poly = [c]
        for x, y, e in zip(point, d, exp):
            for _ in range(e):  # times (x + t y)
                poly = [a * x + b * y for a, b in zip(poly + [0], [0] + poly)]
        for k, a in enumerate(poly):
            coeffs[k] += a
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) == 2:
        roots = [-coeffs[0] / coeffs[1]]
    elif len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        num, den = disc.numerator, disc.denominator
        root_num, root_den = isqrt(num), isqrt(den)
        if root_num * root_num != num or root_den * root_den != den:
            return []
        root = Fraction(root_num, root_den)
        roots = [(-b - root) / (2 * a), (-b + root) / (2 * a)]
    else:
        return []
    return [t for t in roots if t]


def rewrite_nonlinear(constraints: Sequence[Constraint], n: int):
    """(linear constraints, nonlinear inequality payloads, nonlinear equality
    payloads) of a cell without auxiliaries, rewritten for the
    certificates into an equivalent system: g <= 0 together with -g <= 0
    (up to a positive factor) becomes g = 0, and an inequality implied by
    an equality is dropped; a degree-2 g <= 0 or g = 0 that is a
    nonnegative sum of squares of affine forms becomes the linear
    equalities it forces, and a degree-2 g <= 0 whose negative is one
    always holds and is dropped.  Used only to decide dimensions: the cell
    itself is left as it is."""
    linear = [c for c in constraints if c.row is not None]
    eqs = {}
    signs = {}
    for c in constraints:
        if c.row is None:
            unit, positive = _unit(c.payload)
            if c.equality:
                eqs[unit] = None
            else:
                signs.setdefault(unit, set()).add(positive)
    eqs.update((unit, None) for unit, s in signs.items() if len(s) == 2)
    ineqs = [c.payload for c in constraints
             if c.row is None and not c.equality and _unit(c.payload)[0] not in eqs]
    kept_ineqs, kept_eqs = [], []
    for g, equality in [(g, False) for g in ineqs] + [(g, True) for g in eqs]:
        forced = sos_rows(g, n)
        if forced is None and equality:
            forced = sos_rows(-g, n)
        if forced is not None:
            linear += [Constraint(None, True, row) for row in forced]
        elif not equality and sos_rows(-g, n) is not None:
            continue  # -g is a sum of squares: g <= 0 always holds
        else:
            (kept_eqs if equality else kept_ineqs).append(g)
    return linear, kept_ineqs, kept_eqs


def _unit(g: Polynomial):
    """(g over its leading coefficient, whether that coefficient is
    positive), the leading term the one of the largest exponent: g <= 0
    and -k g <= 0 (k > 0) share the first and differ in the second."""
    lead = g.terms[max(g.terms)]
    return g * (1 / lead), lead > 0


def sos_rows(g: Polynomial, n: int):
    """The integer rows (`Constraint.row`) of the affine equalities l_k = 0
    that g <= 0 forces when g is a degree-2 polynomial in n variables and
    a sum d_k l_k^2 with every d_k > 0, else None.

    An exact LDL^T of the homogenised Gram matrix G, g(x) = (x, 1) G (x, 1)^T,
    decides it: G is positive semidefinite exactly when every pivot is
    nonnegative and a zero pivot has a zero column below it.  A positive
    last pivot is a positive constant square: the row 0 = 1 says g <= 0 is
    infeasible."""
    if g.degree() != 2:
        return None
    size = n + 1
    gram = [[Fraction(0)] * size for _ in range(size)]
    for exp, c in g.terms.items():
        i, j = [v for v, e in enumerate(exp) for _ in range(e)] + [n] * (2 - sum(exp))
        gram[i][j] += c if i == j else c / 2
        if i != j:
            gram[j][i] += c / 2
    rows = []
    for k in range(size):
        d = gram[k][k]
        below = [gram[j][k] / d if d else gram[j][k] for j in range(k + 1, size)]
        if d < 0 or (d == 0 and any(below)):
            return None
        if d == 0:
            continue
        for i, li in enumerate(below, k + 1):
            for j, lj in enumerate(below, k + 1):
                gram[i][j] -= li * lj * d
        # l_k = x_k + sum_{j > k} below_j x_j, the homogenising x_n = 1
        coeffs = [Fraction(0)] * k + [Fraction(1)] + below
        rows.append(_as_integers([*coeffs[:n], -coeffs[n]]))
    return rows
