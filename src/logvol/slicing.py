"""Real-root isolation and fiberwise slicing of a region along one axis.

Root isolation is exact: Descartes sign-variation counts on interval
transforms of the square-free part, bisected until each interval holds one
root, with multiplicities recovered from the square-free decomposition.
Slicing substitutes a base point into every constraint and keeps the
intervals between critical values whose midpoints satisfy the cell, and
`merge_spans` merges the pieces of all cells; exact and float slicing share
both rules and differ only in arithmetic.

Float slicing, the quadrature inner loop, goes through a FiberKernel
compiled once per (region, axis) into float exponent and coefficient
matrices (AxisRestriction), so restricting to the lines through a whole
Gauss panel is one matrix product, and each cell is cut and tested for all
of its rows and points at once.  A kernel call returns one span table for
all its fibers: flat arrays (a, b, owner) of the merged intervals, owner
the base point of each, which the quadrature, float slicing, the sup-volume
bound and the finiteness probe all read; when the pieces all come from one
cell of inequalities, they are sorted already and `join_touching` merges
them without the sort.  `real_roots` is the one scalar float root finder:
closed forms for degree 1 and 2, np.roots above, and one relative
tolerance for imaginary parts.  `quadratic_roots` states its
closed forms for a whole batch of rows of degree at most 2, root for root
the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .polyform import Polynomial, PolyError, power_table
from .region import Region, RegionError, fill_derived


# ---------------------------------------------------------------------------
# univariate helpers over Fraction coefficient lists (ascending degree)


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _derive(coeffs):
    return _trim([coeffs[i] * i for i in range(1, len(coeffs))])


def _eval(coeffs, x):
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _divmod_poly(num, den):
    num = list(num)
    den = _trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and _trim(list(num)):
        num = _trim(num)
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        q[shift] = factor
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        num = num[:-1]
    return _trim(q), _trim(num)


def _gcd_poly(a, b):
    a = _trim(list(a))
    b = _trim(list(b))
    while b:
        _, r = _divmod_poly(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _square_free_decomposition(coeffs):
    """Yun's algorithm: list of (factor, multiplicity)."""
    a = _trim(list(coeffs))
    if len(a) <= 1:
        return []
    d = _gcd_poly(a, _derive(a))
    b, _ = _divmod_poly(a, d)
    c, _ = _divmod_poly(_derive(a), d)
    z = _trim([ci - bi for ci, bi in _pad(c, _derive(b))])
    out = []
    k = 1
    while len(b) > 1:
        g = _gcd_poly(b, z)
        if len(g) > 1:
            out.append((g, k))
        b, _ = _divmod_poly(b, g)
        c, _ = _divmod_poly(z, g)
        z = _trim([ci - bi for ci, bi in _pad(c, _derive(b))])
        k += 1
    return out


def _pad(a, b):
    width = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (width - len(a))
    b = list(b) + [Fraction(0)] * (width - len(b))
    return zip(a, b)


def _taylor_shift(coeffs, t):
    """Coefficients of f(x + t)."""
    out = list(coeffs)
    n = len(out)
    for i in range(n - 1, -1, -1):
        for j in range(i, n - 1):
            out[j] += t * out[j + 1]
    return out


def _scale(coeffs, s):
    return [c * s**i for i, c in enumerate(coeffs)]


def _sign_variations(coeffs):
    signs = [c for c in coeffs if c != 0]
    count = 0
    for a, b in zip(signs, signs[1:]):
        if (a < 0) != (b < 0):
            count += 1
    return count


def _descartes_count(coeffs, a, b):
    """Upper bound (exact when 0 or 1) for the roots in the open interval."""
    shifted = _taylor_shift(coeffs, a)
    scaled = _scale(shifted, b - a)
    rev = list(reversed(scaled))
    return _sign_variations(_taylor_shift(rev, Fraction(1)))


@dataclass
class RootIntervals:
    """Sorted disjoint rational intervals, one real root each."""

    intervals: list  # (lo, hi, multiplicity); lo == hi marks an exact root

    def __len__(self):
        return len(self.intervals)


def isolate_real_roots(poly, tol=Fraction(1, 10**12)) -> RootIntervals:
    """Isolate all real roots of a univariate polynomial.

    Accepts a one-variable Polynomial or an ascending coefficient list of
    Fractions.  Each returned interval has width <= tol and carries the
    multiplicity of its root.
    """
    if isinstance(poly, Polynomial):
        if poly.nvars != 1:
            raise PolyError("root isolation needs a univariate polynomial")
        coeffs = [Fraction(0)] * (poly.degree() + 1)
        for exp, c in poly.terms.items():
            coeffs[exp[0]] = c
    else:
        coeffs = [Fraction(c) for c in poly]
    coeffs = _trim(list(coeffs))
    if not coeffs:
        raise PolyError("zero polynomial has no isolated roots")
    if len(coeffs) == 1:
        return RootIntervals([])
    tol = Fraction(tol)

    factors = _square_free_decomposition(coeffs)
    sf = [Fraction(1)]
    for g, _ in factors:
        prod = [Fraction(0)] * (len(sf) + len(g) - 1)
        for i, ci in enumerate(sf):
            for j, cj in enumerate(g):
                prod[i + j] += ci * cj
        sf = prod
    if len(sf) <= 1:
        return RootIntervals([])

    exact_roots = []

    def deflate(poly, root):
        # exact synthetic division by (Y - root)
        out = [Fraction(0)] * (len(poly) - 1)
        carry = Fraction(0)
        for i in range(len(poly) - 1, 0, -1):
            carry = poly[i] + carry
            out[i - 1] = carry
            carry = carry * root
        return out

    # Exact rational roots found at bisection midpoints are divided out and
    # the walk restarts, so isolating-interval endpoints are never roots.
    isolating = []
    while True:
        if len(sf) <= 1:
            break
        if len(sf) == 2:
            exact_roots.append(-sf[0] / sf[1])
            break
        bound = Fraction(1) + max(abs(c) for c in sf[:-1]) / abs(sf[-1])
        isolating = []
        restart = False
        stack = [(-bound, bound)]
        while stack:
            a, b = stack.pop()
            count = _descartes_count(sf, a, b)
            if count == 0:
                continue
            if count == 1:
                isolating.append((a, b))
                continue
            mid = (a + b) / 2
            if _eval(sf, mid) == 0:
                exact_roots.append(mid)
                sf = deflate(sf, mid)
                restart = True
                break
            stack.append((a, mid))
            stack.append((mid, b))
        if not restart:
            break

    refined = []
    for a, b in isolating:
        exact_here = None
        while b - a > tol:
            mid = (a + b) / 2
            v = _eval(sf, mid)
            if v == 0:
                exact_here = mid
                break
            if (_eval(sf, a) < 0) != (v < 0):
                b = mid
            else:
                a = mid
        if exact_here is not None:
            exact_roots.append(exact_here)
        else:
            refined.append((a, b))

    out = [(r, r) for r in exact_roots] + refined
    out.sort()

    def multiplicity(lo, hi):
        for g, k in factors:
            if lo == hi:
                if _eval(g, lo) == 0:
                    return k
            else:
                va, vb = _eval(g, lo), _eval(g, hi)
                if va == 0 or vb == 0 or (va < 0) != (vb < 0):
                    return k
        return 1

    return RootIntervals([(lo, hi, multiplicity(lo, hi)) for lo, hi in out])


# ---------------------------------------------------------------------------
# float roots and compiled line restrictions


def real_roots(coeffs) -> list:
    """Sorted real roots of an ascending float coefficient list.

    Trailing coefficients below 1e-300 are dropped.  Degrees 1 and 2 use
    closed forms, the quadratic through the cancellation-free
    q = -(b + sign(b) sqrt(disc)) / 2; higher degrees use np.roots.  A root
    counts as real when its imaginary part is below 1e-9 * max(1, max|c|),
    so a quadratic whose complex pair lies inside that window gives the
    double root -b / 2a, twice, as np.roots would.
    """
    c = list(coeffs)
    while c and abs(c[-1]) < 1e-300:
        c.pop()
    if len(c) <= 1:
        return []
    if len(c) == 2:
        return [-c[0] / c[1]]
    big = max(abs(v) for v in c)
    window = 1e-9 * max(1.0, big)
    if len(c) > 3:
        roots = np.roots(c[::-1])
        return sorted(float(r.real) for r in roots if abs(r.imag) < window)
    # roots do not change under scaling; unit-size coefficients keep b^2 finite
    c0, b, a = c[0] / big, c[1] / big, c[2] / big
    disc = b * b - 4.0 * a * c0
    if disc < 0.0:
        if math.sqrt(-disc) / (2.0 * abs(a)) < window:
            x = -b / (2.0 * a)
            return [x, x]
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    if q == 0.0:  # b = c0 = 0
        return [0.0, 0.0]
    x1, x2 = q / a, c0 / q
    return [x1, x2] if x1 <= x2 else [x2, x1]


def quadratic_roots(coef: np.ndarray) -> np.ndarray:
    """`real_roots` of each column of a (3, k) array of ascending
    coefficients, all columns at once: a (2, k) array holding each column's
    roots, nan where it has fewer than two.  The same trim, scaling, closed
    forms and imaginary window as `real_roots` give the same floats."""
    c0, c1, c2 = coef
    out = np.full((2, coef.shape[1]), np.nan)
    quad = np.abs(c2) >= 1e-300
    lin = ~quad & (np.abs(c1) >= 1e-300)
    # Python floats overflow to inf without a warning; so do these
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out[0, lin] = -c0[lin] / c1[lin]
        c0, b, a = c0[quad], c1[quad], c2[quad]
        big = np.maximum(np.maximum(np.abs(c0), np.abs(b)), np.abs(a))
        window = 1e-9 * np.maximum(1.0, big)
        c0, b, a = c0 / big, b / big, a / big
        disc = b * b - 4.0 * a * c0
        neg = disc < 0.0
        pair = np.sqrt(np.where(neg, -disc, 0.0)) / (2.0 * np.abs(a)) < window
        q = -0.5 * (b + np.copysign(np.sqrt(np.where(neg, 0.0, disc)), b))
        zero = q == 0.0  # b = c0 = 0
        x1 = np.where(neg, -b / (2.0 * a), np.where(zero, 0.0, q / a))
        x2 = np.where(neg, x1, np.where(zero, 0.0, c0 / q))
    real = ~neg | pair
    out[:, quad] = np.where(real, [x1, x2], np.nan)
    return out


class AxisRestriction:
    """Polynomials restricted to the lines parallel to one axis, compiled
    once into float arrays.

    A term c * x^e adds c * prod_{v != axis} base_v^e_v to the coefficient
    of x_axis^e_axis.  The distinct base monomials of all the polynomials
    are the rows of one exponent matrix, so restricting at k base points is
    one power table and one matrix product.  Polynomial i has widths[i]
    ascending coefficients, zero-padded to a common width of at least 2;
    groups index the polynomials of width 2, of width 3 and of width above 3.
    Terms are read in their float order (Polynomial.float_form) and base
    monomials numbered by first appearance, so equal polynomials restrict
    alike.
    """

    def __init__(self, polys, axis: int, nvars: int):
        self.widths = w = np.array([poly.degree_in(axis) + 1 for poly in polys], dtype=np.int64)
        self.width = max(2, w.max(initial=0))
        self.groups = (np.flatnonzero(w == 2), np.flatnonzero(w == 3), np.flatnonzero(w > 3))
        monos: dict = {}
        entries = []  # (slot, monomial column, coefficient)
        for i, poly in enumerate(polys):
            exps, coeffs = poly.float_form()
            for exp, c in zip(exps.tolist(), coeffs.tolist()):
                key = tuple(0 if v == axis else e for v, e in enumerate(exp))
                key += (0,) * (nvars - len(key))
                entries.append((i * self.width + exp[axis], monos.setdefault(key, len(monos)), c))
        self.exps = np.array(list(monos), dtype=np.int64).reshape(len(monos), nvars)
        self.matrix = np.zeros((len(polys) * self.width, len(monos)))
        for row, col, c in entries:
            self.matrix[row, col] = c

    def table(self, points: np.ndarray) -> np.ndarray:
        """(polys, width, k) coefficients on the lines through the k rows
        of `points` (values for all nvars coordinates; the axis entry is
        ignored), summed in an order that does not depend on k
        (power_table)."""
        flat = np.einsum("sm,km->sk", self.matrix, power_table(points, self.exps))
        return flat.reshape(len(self.widths), self.width, len(points))


# ---------------------------------------------------------------------------
# fibers


@dataclass
class FiberSlices:
    base: dict
    axis: int
    intervals: list  # [(lo, hi)] sorted, disjoint, floats or Fractions
    degenerate: bool = False

    def total_length(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))


def _cell_fiber(restricted, lo_box, hi_box, roots, zero, feasible, pieces) -> bool:
    """Append the fiber pieces of one cell to `pieces`.

    restricted holds (ascending coefficients, equality) per constraint on
    the line.  A coefficient of magnitude at most `zero` vanishes and an
    inequality payload at most `feasible` holds (both 0 in exact
    arithmetic).  With an equality constraint the fiber is the roots of the
    first one that satisfy the rest; otherwise it is the intervals between
    consecutive critical values whose midpoints satisfy the cell.  Returns
    True when every constraint vanishes on the line (vacuously so for a cell
    without constraints): the cell then contributes the whole box interval.
    """
    lines = []
    all_zero = True
    for coeffs, equality in restricted:
        if max(map(abs, coeffs), default=0) <= zero:
            continue
        all_zero = False
        if len(coeffs) == 1:
            v = coeffs[0]
            if (v != 0) if equality else (v > feasible):
                return False
            continue
        lines.append((coeffs, equality))
    if all_zero:
        pieces.append((lo_box, hi_box))
        return True

    eq = next((coeffs for coeffs, equality in lines if equality), None)
    if eq is not None:
        # candidate roots are localized to width <= _ROOT_TOL, so acceptance
        # of the remaining constraints uses a matching tolerance
        for root in roots(eq):
            slack = _acceptance_slack(lines, root)
            if lo_box <= root <= hi_box and not any(
                abs(v) > slack if equality else v > slack
                for v, equality in ((_eval(c, root), e) for c, e in lines)
            ):
                pieces.append((root, root))
        return False

    critical = {r for coeffs, _ in lines for r in roots(coeffs) if lo_box < r < hi_box}
    points = sorted(critical | {lo_box, hi_box})
    for a, b in zip(points, points[1:]):
        mid = (a + b) / 2
        if not any(_eval(coeffs, mid) > feasible for coeffs, _ in lines):
            pieces.append((a, b))
    return False


def merge_spans(a: np.ndarray, b: np.ndarray, owner: np.ndarray) -> tuple:
    """The merged spans (a, b, owner) of the spans [a, b] of each owner,
    sorted by owner and then by a; the ends are floats or Fractions.  A
    sweep over the ends, starts before ends at equal x so that touching
    spans and points (r, r) merge, runs each merged span from a start at
    depth 1 to the next end at depth 0."""
    x = np.concatenate([a, b])
    step = np.repeat(np.array([1, -1]), len(a))
    owner = np.concatenate([owner, owner])
    order = np.lexsort((-step, x, owner))
    x, step, owner = x[order], step[order], owner[order]
    depth = np.cumsum(step)
    first = (step > 0) & (depth == 1)
    return x[first], x[depth == 0], owner[first]


def join_touching(a: np.ndarray, b: np.ndarray, owner: np.ndarray) -> tuple:
    """`merge_spans` of spans that are already sorted by owner and then by a
    and can only touch, such as the kept pieces of one cell of inequalities:
    one pass joins each span to the one before it when both have the same
    owner and the earlier one ends where it starts."""
    start = np.ones(len(a), dtype=bool)
    start[1:] = (a[1:] != b[:-1]) | (owner[1:] != owner[:-1])
    end = np.ones(len(a), dtype=bool)
    end[:-1] = start[1:]
    return a[start], b[end], owner[start]


def _check_sliceable(cell, axis: int):
    if any(e.derived_from is None for e in cell.extra):
        raise RegionError("cannot slice a cell with existential variables")
    if any(e.derived_from == axis for e in cell.extra):
        raise RegionError("cannot slice along a coordinate with a derived companion")


_ZERO = 1e-12      # a restricted coefficient this small vanishes
_FEASIBLE = 1e-9   # an inequality payload this small holds
_ROOT_TOL = Fraction(1, 10**12)  # width of an exactly isolated root's interval


class FiberKernel:
    """Float fibers of a region along one axis, compiled once per
    (region, axis) and solved for many base points (a Gauss panel, a
    sample) in one call.

    A solve completes each cell's derived auxiliaries s = sqrt(t^2 + 1),
    restricts its constraints (one AxisRestriction per cell) to every line
    at once and applies `_cell_fiber`'s rule, with a coefficient up to
    1e-12 vanishing and a payload up to 1e-9 holding: point by point for a
    cell with an equality, for all rows and points together otherwise.
    """

    def __init__(self, region: Region, axis: int):
        lo, hi = region.bounding_box()[axis]
        self.lo_box, self.hi_box = float(lo), float(hi)
        self.n = region.n
        self.cells = []
        for cell in region.cells:
            _check_sliceable(cell, axis)
            restriction = AxisRestriction([c.payload for c in cell.constraints], axis,
                                          cell.nvars_total(region.n))
            self.cells.append((cell.extra, restriction, [c.equality for c in cell.constraints]))

    def intervals_many(self, points: np.ndarray) -> tuple:
        """(a, b, owner, degenerate): the span table of the fibers through
        the rows of `points` (ambient coordinates; the axis entry is
        ignored), flat float arrays of the merged intervals, owner the row
        of each, sorted by owner and then by a, and the (k,) bool mask of
        rows on whose line some cell vanishes."""
        k = len(points)
        degenerate = np.zeros(k, dtype=bool)
        spans = []  # (a, b, owner) of each inequality cell
        found = []  # (lo, hi, row) of the equality cells
        for extras, restriction, equalities in self.cells:
            full = points[:, : self.n]
            if extras:
                full = np.zeros((k, self.n + len(extras)))
                full[:, : self.n] = points[:, : self.n]
                fill_derived(full, extras, self.n)
            coef = restriction.table(full)
            if any(equalities):
                for j in range(k):
                    restricted = [(coef[i, :w, j].tolist(), eq)
                                  for i, (w, eq) in enumerate(zip(restriction.widths, equalities))]
                    pieces = []
                    degenerate[j] |= _cell_fiber(restricted, self.lo_box, self.hi_box,
                                                 real_roots, _ZERO, _FEASIBLE, pieces)
                    found += [(lo, hi, j) for lo, hi in pieces]
            else:
                a, b, owner, whole = self._inequality_pieces(coef, restriction)
                spans.append((a, b, owner))
                degenerate |= whole
        if len(spans) == 1 and not found:
            return (*join_touching(*spans[0]), degenerate)
        lo, hi, row = np.array(found, dtype=float).reshape(-1, 3).T
        spans.append((lo, hi, row.astype(np.int64)))
        a, b, owner = (np.concatenate(column) for column in zip(*spans))
        return (*merge_spans(a, b, owner), degenerate)

    def _inequality_pieces(self, coef: np.ndarray, restriction: AxisRestriction) -> tuple:
        """`_cell_fiber` for a cell of inequalities, coef (rows, width, k),
        at k points at once: degree-1 and degree-2 roots in numpy
        (`quadratic_roots`), higher ones through `real_roots`, candidates
        clipped to the box and sorted per point, one Horner pass at the
        midpoints.  Returns the kept pieces (a, b, owner), point by point
        and left to right, and the (k,) mask of lines on which every row
        vanishes; each of those keeps the whole box, in its first slot."""
        lin, quad, high = restriction.groups
        lo, hi = self.lo_box, self.hi_box
        k = coef.shape[2]
        # rows that do not vanish on the line; a failing constant row is then
        # over the tolerance at every midpoint
        active = np.abs(coef).max(axis=1) > _ZERO
        whole = ~active.any(axis=0)
        # the box ends, then up to width - 1 roots per row; unused slots hold lo
        first = 2 + len(lin) + 2 * len(quad)
        cands = np.full((first + int((restriction.widths[high] - 1).sum()), k), lo)
        cands[1] = hi
        c1 = coef[lin, 1]  # as in real_roots, |c1| < 1e-300 leaves no root
        np.divide(coef[lin, 0], -c1, out=cands[2: 2 + len(lin)],
                  where=active[lin] & (np.abs(c1) >= 1e-300))
        if len(quad):
            # all degree-2 rows as one batch of columns; their roots fill
            # 2 * len(quad) candidate rows, first roots before second roots
            roots = quadratic_roots(coef[quad, :3].transpose(1, 0, 2).reshape(3, -1))
            roots = roots.reshape(2 * len(quad), k)
            kept = np.tile(active[quad], (2, 1)) & ~np.isnan(roots)
            np.copyto(cands[2 + len(lin): first], roots, where=kept)
        fill = [first] * k
        for r in high.tolist():
            for j, (live, column) in enumerate(zip(active[r].tolist(), coef[r].T.tolist())):
                if live:
                    roots = real_roots(column)
                    cands[fill[j]: fill[j] + len(roots), j] = roots
                    fill[j] += len(roots)
        np.clip(cands, lo, hi, out=cands)
        cands.sort(axis=0)
        a, b = cands[:-1], cands[1:]
        mid = (a + b) / 2
        vals = coef[:, -1, None, :]
        for w in range(coef.shape[1] - 2, -1, -1):
            vals = vals * mid + coef[:, w, None, :]
        over = ((vals > _FEASIBLE) & active[:, None, :]).any(axis=0)
        keep = (b > a) & ~over & ~whole
        keep[0] |= whole
        b[0, whole] = hi  # a[0] is lo already
        owner, slot = np.nonzero(keep.T)
        return a[slot, owner], b[slot, owner], owner, whole


def _restrict_to_axis(payload: Polynomial, base: Mapping[int, object], axis: int):
    """Exact coefficient list (ascending) of the payload restricted to the line."""
    coeffs = [Fraction(0)] * (payload.degree_in(axis) + 1)
    for exp, c in payload.terms.items():
        value = c
        for v, e in enumerate(exp):
            if v != axis and e:
                value = value * base[v] ** e
        coeffs[exp[axis]] += value
    return coeffs


def _exact_roots(coeffs) -> list:
    trimmed = _trim(list(coeffs))
    if len(trimmed) <= 1:
        return []
    if len(trimmed) == 2:
        return [-trimmed[0] / trimmed[1]]
    return [(lo + hi) / 2 for lo, hi, _ in isolate_real_roots(trimmed, _ROOT_TOL).intervals]


def slice_fiber(region: Region, base, axis: int, mode: str = "exact") -> FiberSlices:
    """The fiber of the region over a base point, along one coordinate.

    base maps every ambient coordinate except `axis` to a value.  Exact mode
    requires rational base values and isolates roots exactly; float mode
    solves once with a FiberKernel (loops over many base points should build
    the kernel once and call it directly).  When every constraint of a cell
    vanishes identically on the line the cell contributes the whole box
    interval, flagged degenerate.
    """
    if isinstance(base, (list, tuple)):
        base = {v: x for v, x in enumerate(base) if v != axis}
    base = dict(base)
    n = region.n
    point = np.zeros(n + max((len(cell.extra) for cell in region.cells), default=0))
    for v, x in base.items():
        if v < n:
            point[v] = float(x)
    if mode != "exact":
        a, b, _, degenerate = FiberKernel(region, axis).intervals_many(point[None, :n])
        return FiberSlices(base, axis, list(zip(a.tolist(), b.tolist())), bool(degenerate[0]))

    base = {v: Fraction(x) for v, x in base.items()}
    lo, hi = region.bounding_box()[axis]
    lo_box, hi_box = Fraction(lo), Fraction(hi)
    pieces = []
    degenerate = False
    for cell in region.cells:
        _check_sliceable(cell, axis)
        derived = fill_derived(point.copy(), cell.extra, n)
        full_base = dict(base)
        full_base.update({n + i: Fraction(float(derived[n + i])) for i in range(len(cell.extra))})
        restricted = [(_restrict_to_axis(c.payload, full_base, axis), c.equality)
                      for c in cell.constraints]
        degenerate |= _cell_fiber(restricted, lo_box, hi_box, _exact_roots, 0, 0, pieces)
    a, b = np.array(pieces, dtype=object).reshape(-1, 2).T
    a, b, _ = merge_spans(a, b, np.zeros(len(a), dtype=np.int64))
    return FiberSlices(base, axis, list(zip(a.tolist(), b.tolist())), degenerate)


def _acceptance_slack(restricted, root):
    """Constraint tolerance matched to the root localization width: the
    payload can move by about |payload'| * _ROOT_TOL across the interval."""
    width = float(_ROOT_TOL)
    scale = 1.0
    for coeffs, _ in restricted:
        deriv = sum(
            abs(float(c)) * k * (abs(float(root)) + 1.0) ** (k - 1)
            for k, c in enumerate(coeffs)
            if k
        )
        scale = max(scale, deriv)
    return max(1e-9, 4.0 * width * scale)


@dataclass
class SupVolumeReport:
    value: float
    samples: int


def slice_sup_volume(region: Region, axis: int, fixed: Mapping[int, object],
                     samples: int = 256, seed: int = 0) -> SupVolumeReport:
    """Sampled lower bound of the supremum, over base points with the given
    divisor coordinates, of the 1-d measure of the fiber along `axis`."""
    box = region.bounding_box()
    free = [v for v in range(region.n) if v != axis and v not in fixed]
    rng = np.random.Generator(np.random.Philox(key=seed))
    count = max(1, samples) if free else 1
    points = np.zeros((count, region.n))
    for v, x in fixed.items():
        points[:, v] = float(x)
    lo, hi = np.array([box[v] for v in free], dtype=float).reshape(-1, 2).T
    points[:, free] = rng.uniform(lo, hi, size=(count, len(free)))
    a, b, owner, _ = FiberKernel(region, axis).intervals_many(points)
    best = np.bincount(owner, weights=b - a, minlength=count).max()
    return SupVolumeReport(float(best), count)
