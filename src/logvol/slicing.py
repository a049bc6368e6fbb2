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
bound and the finiteness probe all read (the last two through
`sample_fibers`, one seeded draw of base points); when the pieces all come
from one cell of inequalities, they are sorted already and `join_touching`
merges them without the sort.  `real_roots` is the one float root finder:
it solves every column of a coefficient array at once, by closed forms for
degree 1 and 2 and above by np.roots' companion matrices, one eigvals
call per matrix size, with one relative tolerance for imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .polyform import Polynomial, PolyError, power_table
from .region import Region, RegionError


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


def real_roots(coef) -> np.ndarray:
    """The real roots of every column of a (w, k) array of ascending float
    coefficients (a 1-d array is one column): a (w - 1, k) array holding
    each column's roots, nan where the column has fewer.

    Trailing coefficients below 1e-300 are dropped, column by column.
    Degrees 1 and 2 use closed forms, the quadratic through the
    cancellation-free q = -(b + sign(b) sqrt(disc)) / 2, roots q / a then
    c0 / q; higher degrees use np.roots' companion matrices, roots
    ascending (`_high_roots`).
    A root counts as real when its imaginary part is below
    1e-9 * max(1, max|c|), so a quadratic whose complex pair lies inside
    that window gives the double root -b / 2a, twice, as np.roots would.
    A quotient that overflows is inf, without a warning.
    """
    coef = np.asarray(coef, dtype=float)
    if coef.ndim == 1:
        return real_roots(coef[:, None])[:, 0]
    w, k = coef.shape
    out = np.full((max(w - 1, 0), k), np.nan)
    degree = np.zeros(k, dtype=np.int64)
    for i, kept in enumerate(np.abs(coef[1:]) >= 1e-300, 1):
        degree[kept] = i
    lin, quad = degree == 1, degree == 2
    if lin.any():
        with np.errstate(over="ignore"):
            out[0, lin] = -coef[0, lin] / coef[1, lin]
    if quad.any():
        c0, b, a = (row[quad] for row in coef[:3])
        # roots do not change under scaling; unit-size coefficients keep b^2
        # finite
        big = np.maximum(np.maximum(np.abs(c0), np.abs(b)), np.abs(a))
        window = 1e-9 * np.maximum(1.0, big)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            c0, b, a = c0 / big, b / big, a / big
            disc = b * b - 4.0 * a * c0
            neg = disc < 0.0
            pair = np.sqrt(np.where(neg, -disc, 0.0)) / (2.0 * np.abs(a)) < window
            q = -0.5 * (b + np.copysign(np.sqrt(np.where(neg, 0.0, disc)), b))
            zero = q == 0.0  # b = c0 = 0
            x1 = np.where(neg, -b / (2.0 * a), np.where(zero, 0.0, q / a))
            x2 = np.where(neg, x1, np.where(zero, 0.0, c0 / q))
        real = ~neg | pair
        out[0, quad] = np.where(real, x1, np.nan)
        out[1, quad] = np.where(real, x2, np.nan)
    if w > 3 and (degree > 2).any():
        high = np.flatnonzero(degree > 2)
        _high_roots(coef[:, high], degree[high], out, high)
    return out


def _high_roots(cols, degree, out, where):
    """np.roots, column by column, of the (w, m) ascending columns of
    degree > 2 (rows above `degree` negligible), the real ones written
    ascending into out[:, where].  As np.roots does, the zero coefficients
    below the first nonzero one are roots at 0, put after the eigenvalues
    of the companion matrix of the rest; the companion matrices of one
    size are stacked into one eigvals call, which solves each as alone."""
    window = 1e-9 * np.maximum(1.0, np.abs(cols).max(axis=0))
    size = degree - np.argmax(cols != 0.0, axis=0)
    for s in np.unique(size).tolist():
        group = np.flatnonzero(size == s)
        top = degree[group]
        # a column's slots: s eigenvalues, its roots at 0, then nan
        vals = np.where(np.arange(top.max()) < top[:, None], 0.0, np.nan)
        if s:
            p = cols[top[:, None] - np.arange(s + 1), group[:, None]]  # leading first
            companion = np.zeros((len(group), s, s))
            companion[:, np.arange(1, s), np.arange(s - 1)] = 1.0
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            roots = np.linalg.eigvals(companion)
            vals[:, :s] = np.where(np.abs(roots.imag) < window[group, None], roots.real, np.nan)
        vals.sort(axis=1, kind="stable")  # nan last
        out[:top.max(), where[group]] = vals.T


def _column_roots(coeffs) -> list:
    """`real_roots` of one ascending coefficient list, as a sorted list."""
    roots = real_roots(coeffs)
    return sorted(roots[~np.isnan(roots)].tolist())


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


def _check_axis(region: Region, axis: int):
    if not 0 <= axis < region.n:
        raise RegionError(f"axis {axis} is out of range 0..{region.n - 1}")


def _check_sliceable(cell):
    if cell.extra:
        raise RegionError("cannot slice a cell with existential variables")


_ZERO = 1e-12      # a restricted coefficient this small vanishes
_FEASIBLE = 1e-9   # an inequality payload this small holds
_ROOT_TOL = Fraction(1, 10**12)  # width of an exactly isolated root's interval


class FiberKernel:
    """Float fibers of a region along one axis, compiled once per
    (region, axis) and solved for many base points (a Gauss panel, a
    sample) in one call.

    A solve restricts each cell's constraints (one AxisRestriction per
    cell) to every line at once and applies `_cell_fiber`'s rule, with a
    coefficient up to 1e-12 vanishing and a payload up to 1e-9 holding:
    point by point for a cell with an equality, for all rows and points
    together otherwise.
    """

    def __init__(self, region: Region, axis: int):
        _check_axis(region, axis)
        lo, hi = region.bounding_box()[axis]
        self.lo_box, self.hi_box = float(lo), float(hi)
        self.n = region.n
        self.cells = []
        for cell in region.cells:
            _check_sliceable(cell)
            restriction = AxisRestriction([c.payload for c in cell.constraints], axis, region.n)
            self.cells.append((restriction, [c.equality for c in cell.constraints]))

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
        for restriction, equalities in self.cells:
            coef = restriction.table(points[:, : self.n])
            if any(equalities):
                for j in range(k):
                    restricted = [(coef[i, :w, j].tolist(), eq)
                                  for i, (w, eq) in enumerate(zip(restriction.widths, equalities))]
                    pieces = []
                    degenerate[j] |= _cell_fiber(restricted, self.lo_box, self.hi_box,
                                                 _column_roots, _ZERO, _FEASIBLE, pieces)
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
        at k points at once: the roots of each group of rows of one width
        from one `real_roots` call, candidates clipped to the box and sorted
        per point, one Horner pass at the midpoints.  Returns the kept
        pieces (a, b, owner), point by point and left to right, and the (k,)
        mask of lines on which every row vanishes; each of those keeps the
        whole box, in its first slot."""
        lin, quad, high = restriction.groups
        lo, hi = self.lo_box, self.hi_box
        k = coef.shape[2]
        # rows that do not vanish on the line; a failing constant row is then
        # over the tolerance at every midpoint
        active = np.abs(coef).max(axis=1) > _ZERO
        whole = ~active.any(axis=0)
        # the box ends, then width - 1 roots per row; unused slots hold lo
        groups = [(rows, w) for rows, w in ((quad, 3), (high, coef.shape[1])) if len(rows)]
        first = 2 + len(lin)
        cands = np.full((first + sum(len(rows) * (w - 1) for rows, w in groups), k), lo)
        cands[1] = hi
        # the degree-1 rows: real_roots' degree-1 case, one division straight
        # into the table
        c1 = coef[lin, 1]
        np.divide(coef[lin, 0], -c1, out=cands[2:first],
                  where=active[lin] & (np.abs(c1) >= 1e-300))
        for rows, w in groups:
            # the rows of one width as one batch of columns, those vanishing
            # on the line zeroed; root i of every row, then root i + 1
            live = np.where(active[rows, None, :], coef[rows, :w], 0.0)
            roots = real_roots(live.transpose(1, 0, 2).reshape(w, -1)).reshape(-1, k)
            np.copyto(cands[first: first + len(roots)], roots, where=~np.isnan(roots))
            first += len(roots)
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
    if mode != "exact":
        point = np.zeros((1, region.n))
        for v, x in base.items():
            point[0, v] = float(x)
        a, b, _, degenerate = FiberKernel(region, axis).intervals_many(point)
        return FiberSlices(base, axis, list(zip(a.tolist(), b.tolist())), bool(degenerate[0]))

    _check_axis(region, axis)
    base = {v: Fraction(x) for v, x in base.items()}
    lo, hi = region.bounding_box()[axis]
    lo_box, hi_box = Fraction(lo), Fraction(hi)
    pieces = []
    degenerate = False
    for cell in region.cells:
        _check_sliceable(cell)
        restricted = [(_restrict_to_axis(c.payload, base, axis), c.equality)
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


def sample_fibers(region: Region, axis: int, count: int, seed: int,
                  fixed: Mapping[int, object] | None = None) -> tuple:
    """(a, b, owner): the span table of the fibers along `axis` through
    `count` base points, the coordinates in `fixed` held at their values and
    the others drawn uniformly from the bounding box, in one
    `Philox(key=seed)` call."""
    fixed = fixed or {}
    box = region.bounding_box()
    free = [v for v in range(region.n) if v != axis and v not in fixed]
    rng = np.random.Generator(np.random.Philox(key=seed))
    points = np.zeros((count, region.n))
    for v, x in fixed.items():
        points[:, v] = float(x)
    lo, hi = np.array([box[v] for v in free], dtype=float).reshape(-1, 2).T
    points[:, free] = rng.uniform(lo, hi, size=(count, len(free)))
    return FiberKernel(region, axis).intervals_many(points)[:3]


def slice_sup_volume(region: Region, axis: int, fixed: Mapping[int, object],
                     samples: int = 256, seed: int = 0) -> SupVolumeReport:
    """Sampled lower bound of the supremum, over base points with the given
    divisor coordinates, of the 1-d measure of the fiber along `axis`."""
    free = any(v != axis and v not in fixed for v in range(region.n))
    count = max(1, samples) if free else 1
    a, b, owner = sample_fibers(region, axis, count, seed, fixed)
    best = np.bincount(owner, weights=b - a, minlength=count).max()
    return SupVolumeReport(float(best), count)
