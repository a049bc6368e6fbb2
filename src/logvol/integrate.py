"""Numerical integration of logarithmic forms over bounded regions.

The singular integral is approximated through an excision ladder: for a
decreasing sequence eps_k the form is integrated over the part of the
region with |r_i| >= eps_k for every divisor coordinate carrying a dr/r
factor, and the rung values are extrapolated.  eps_k is relative to the
region's scale (the largest |bound| of a log coordinate in the bounding
box), so a ladder is invariant under r_i -> c r_i.  Each integral gets a
signed and an absolute ladder; convergence of the absolute ladder is the
numerical counterpart of absolute convergence, and a result is
"converged" only when every ladder behind it converges (combined_verdict).
Divergence is a verdict, not an exception.

One lockstep quadrature program serves every rung of a ladder and every
ladder asked for: the integrand is vector valued, one component per
weighted part (the real and imaginary parts with the oriented measure, the
modulus with the unoriented one), so each panel solves its fibers and
evaluates its points once, and a panel is accepted only when every
component meets its own tolerance.

The outer coordinates are integrated by adaptive composite Gauss panels
(log-scaled on divisor coordinates, so dr/r becomes ds) and the innermost
coordinate exactly: the fiber is a union of intervals from slicing, and
the 1-d integral of poly(x)/x or poly(x) over each interval is a closed
form.  Fibers come from the compiled slicing.FiberKernel for every cell,
built once per ladder.  Each outer level is one array program over the
rows of every rung, each row carrying its rung's eps: `_adaptive_1d` runs
all of the level's 1-d integrals (every rung, base point, piece and
segment) in lockstep, and each bisection round sends the nodes of every
open panel through one call of the next level, or, on the last outer
level, through one kernel call that returns all their fibers as one span
table, over which the closed form runs as one array program.  A pointwise
factor that does not read the inner coordinate (`Integrand.reads`) leaves
the fiber integral: it is evaluated once per fiber, at the base point, and
multiplies the closed form; only a factor that reads it sends the spans to
the inner Gauss rule.  A fiber depends on its own base point and eps
alone, and each integral's value and error records are summed in
depth-first bisection order, so a rung does not depend on how its panels
were batched nor on the rungs computed beside it.  Panels accepted only
because the bisection reached _MAX_DEPTH are counted per rung and flagged.

On the last outer level the segments start at the breakpoints of the
fiber structure, every one an entry of one cut table per fiber solver,
affine in the base point and evaluated for all rows at once
(`_FiberSolver.cuts`).  When the inner coordinate is a log one, a fiber
bounded below by an affine l(x) = alpha + beta x gives the outer integrand
a term -log l(x), singular at l's zero x0, only eps / |beta| past the
excision cut.  Bisection would zoom onto x0 one level per round, so rung k
alone would take about k + 3 rounds; the cuts instead also grade
geometrically toward x0, with ratio _GRADE, and every panel of a ladder
passes the same halves-against-whole test in the first round, decided on
arrays.  The non-final outer levels of 3-d regions are not graded.

Above three dimensions a stratified Monte-Carlo estimator with a
counter-based generator replaces the tensor quadrature, rung by rung; it
too draws one sample set for every ladder of a rung.

Every rung path (the outer Gauss levels, the inner fibers and the
Monte-Carlo rung) reads the part of a coordinate range it integrates from
one helper, `_rung_pieces`: a log coordinate keeps |x| >= eps on each side
and is integrated in u = log|x|, a substitution stated once, by the array
maps `_u_of`, `_x_of` and `_u_range` that every path calls.  Each Gauss
round sums its panels in one contraction, `_panel_sums`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .polyform import LogForm, Polynomial
from .region import ProbeConfig, Region, RegionError
from .slicing import AxisRestriction, FiberKernel, real_roots
from .slicing import slice_fiber  # noqa: F401  (kept importable from this module)


class IntegrationError(ValueError):
    pass


# convergence verdict of a ladder: rung differences below
# ABS_TOL + REL_TOL * |value| are noise, and the last _WINDOW differences
# must each shrink by at least _SHRINK for a geometric extrapolation
ABS_TOL = 1e-9
REL_TOL = 1e-7
_WINDOW = 3
_SHRINK = 1.5
_NESTED_SHRINK = 0.02  # quadrature tolerance factor per nesting level
_MC_DIMENSION = 3  # tensor quadrature up to this many coordinates
_RATIO = 2.0  # eps_{k+1} = eps_k / _RATIO along the excision ladder
_NODES = 15  # points of the Gauss rule, on the outer panels and the inner fibers
_FIBER_BATCH = 512  # fibers per _fiber_integral call: bounds the arrays of one call
_MAX_DEPTH = 24  # bisections of an outer Gauss panel before it is accepted as capped
_QUAD_TOL = 1e-8  # relative error budget of an outermost Gauss integral
_GRADE = 8  # ratio of the graded cuts toward a log inner bound's zero (_FiberSolver.cuts)


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature and ladder settings.

    eps0 / ladder_len fix the excision rungs eps0 * _RATIO**-k, relative
    to the region's log-coordinate scale L: rung k excises
    |r_v| < eps0 * _RATIO**-k * L, L the largest max(|lo_v|, |hi_v|) of a
    log coordinate's bounding-box range.  mc_budget and seed drive the
    Monte-Carlo rung used above three coordinates.
    """

    eps0: float = 2.0**-4
    ladder_len: int = 12
    mc_budget: int = 40000
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.eps0) and self.eps0 > 0):
            raise IntegrationError("eps0 must be finite and positive")
        if self.ladder_len < 3:
            raise IntegrationError("the ladder needs at least 3 rungs")
        if self.eps0 * _RATIO**-(self.ladder_len - 1) < sys.float_info.min:
            raise IntegrationError("the last rung, eps0 * 2**-(ladder_len - 1), underflows: "
                                   "raise eps0 or shorten the ladder")
        if self.mc_budget < 1:
            raise IntegrationError("mc_budget must be at least 1")
        if self.seed < 0:
            raise IntegrationError("seed must be nonnegative")

    def rungs(self):
        return [self.eps0 * _RATIO**-k for k in range(self.ladder_len)]


@dataclass
class Ladder:
    entries: list  # (param, value, stderr)
    verdict: str = "inconclusive"  # converged | diverging | inconclusive
    limit: float | None = None
    error: float | None = None
    capped: list = field(default_factory=list)  # per rung: panels accepted at _MAX_DEPTH

    def params(self):
        return [p for p, _, _ in self.entries]

    def values(self):
        return [v for _, v, _ in self.entries]

    def estimate(self):
        """(value, error): the limit and its error, or the last rung and nan
        while the ladder has not settled on a limit."""
        value = self.limit if self.limit is not None else self.values()[-1]
        return value, self.error if self.error is not None else float("nan")

    def to_csv(self) -> str:
        lines = ["param,value,stderr"]
        for p, v, s in self.entries:
            lines.append(f"{float(p)!r},{complex(v).real!r},{float(s)!r}")
        if self.verdict == "converged":
            limit = complex(self.limit).real if self.limit is not None else float("nan")
            lines.append(f"verdict,converged,limit={limit!r},error={float(self.error)!r}")
        else:
            lines.append(f"verdict,{self.verdict},,")
        return "\n".join(lines) + "\n"


def classify_ladder(entries) -> Ladder:
    ladder = Ladder(list(entries))
    values = ladder.values()
    stderrs = [s for _, _, s in entries]
    if len(values) < 2:
        ladder.verdict = "inconclusive"
        return ladder
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    scale = max(1.0, abs(values[-1]))
    noise = ABS_TOL + REL_TOL * scale + 3.0 * max(stderrs)
    w = min(_WINDOW, len(diffs))
    tail = diffs[-w:]
    if all(abs(d) <= noise for d in tail):
        ladder.verdict = "converged"
        ladder.limit = values[-1]
        ladder.error = noise + max(abs(d) for d in tail)
        return ladder
    shrinking = all(
        abs(tail[i + 1]) <= abs(tail[i]) / _SHRINK for i in range(len(tail) - 1)
    )
    if shrinking and len(tail) >= 2:
        rho = abs(tail[-1]) / abs(tail[-2]) if abs(tail[-2]) else 0.0
        rho = min(rho, 1.0 / _SHRINK)
        geom = rho / (1.0 - rho)
        ladder.verdict = "converged"
        ladder.limit = values[-1] + tail[-1] * geom
        ladder.error = abs(tail[-1]) * (geom + 1.0) + noise
        return ladder
    growing = all(
        abs(tail[i + 1]) >= abs(tail[i]) * 0.999 for i in range(len(tail) - 1)
    )
    if growing and abs(values[-1]) > abs(values[0]) and abs(tail[-1]) > noise:
        ladder.verdict = "diverging"
        return ladder
    ladder.verdict = "inconclusive"
    return ladder


@dataclass
class IntegralResult:
    value: float
    error: float
    absolute: float
    ladder: Ladder
    abs_ladder: Ladder | None = None
    flags: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """The combined verdict of the signed and absolute ladders
        (combined_verdict): absolute convergence is the paper's notion."""
        return combined_verdict([lad for lad in (self.ladder, self.abs_ladder) if lad is not None])

    def __str__(self):
        return (
            f"value={self.value:.9g} +/- {self.error:.2g} "
            f"(abs integral {self.absolute:.9g}, {self.verdict})"
        )


# ---------------------------------------------------------------------------
# low level quadrature pieces


@lru_cache(maxsize=None)
def _gauss_nodes():
    """The _NODES-point Gauss rule, computed on first use: importing
    numpy.polynomial slows the import of logvol by tens of milliseconds."""
    return np.polynomial.legendre.leggauss(_NODES)


def _panel_sums(vals: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The (panels, k) Gauss sums of the (k, panels * _NODES) values on
    panels of half-width `half`: one contraction, which sums each panel in
    one order whatever the batch around it."""
    ws = _gauss_nodes()[1]
    return half[:, None] * np.einsum("kpm,m->pk", vals.reshape(len(vals), len(half), len(ws)), ws)


def _adaptive_1d(f: Callable, jobs: Sequence[tuple], depth: int, k: int) -> list:
    """Adaptive _NODES-point Gauss with bisection on a vector-valued
    integrand, run in lockstep on many independent 1-d integrals.

    jobs are (a, b, tol), a sequence or a (jobs, 3) array.  Each
    component's budget tol * max(1, |whole|) halves with each split, so its
    accepted panel errors sum below it, and a panel is accepted only when
    every component is within budget or the bisection has split it `depth`
    times.  Each round is one array program: one call f(nodes, owners)
    evaluates the halves of every open panel of every job (in the first
    round each whole range too), nodes the (panels, _NODES) array of their
    nodes and owners the job of each panel, and returns the (k, panels *
    _NODES) values with, per node, the list of accepted-panel records (err,
    budget) of the integrals behind that node (None when there are none);
    the sums (`_panel_sums`), errors, budgets and acceptance follow on arrays.

    Returns one (value, records) per job.  The value sums the accepted
    panels pairwise up the bisection tree, and the records list the job's
    accepted panels together with those behind its nodes, both in the
    order a depth-first bisection visits them (a range, its halves, then
    their (err, budget) or the subtrees), so neither depends on how the
    jobs were batched.
    """
    xs, _ = _gauss_nodes()
    m = len(xs)
    jobs = np.asarray(jobs, dtype=float).reshape(-1, 3)
    live = (jobs[:, 0] < jobs[:, 1]).nonzero()[0]
    job, ends, whole = live, jobs[live][:, [0, 0, 1]], None  # open panels: job, (lo, mid, hi)
    rounds = []  # per round and panel: accepted, total, err, budget, records, child
    while len(job):
        ends[:, 1] = 0.5 * (ends[:, 0] + ends[:, 2])
        ia, ib = ([0, 1], [1, 2]) if rounds else ([0, 0, 1], [2, 1, 2])  # (lo, mid, hi) columns
        a, b = ends[:, ia].ravel(), ends[:, ib].ravel()
        half = 0.5 * (b - a)
        vals, behind = f((0.5 * (a + b))[:, None] + half[:, None] * xs, job.repeat(len(ia)))
        sums = _panel_sums(vals, half).reshape(len(job), len(ia), k)
        if whole is None:
            whole = sums[:, 0]
            budget = jobs[live, 2:] * np.fmax(1.0, np.abs(whole))  # max(1.0, nan) is 1.0
        total = sums[:, -2] + sums[:, -1]
        err = np.abs(total - whole)
        ok = (err <= budget).all(1) | (len(rounds) >= depth)
        records = [()] * len(a) if behind is None else [
            [r for node in behind[p * m:p * m + m] for r in node] for p in range(len(a))]
        split = ~ok
        rounds.append((ok.tolist(), total, err, budget, records, (split.cumsum() - 1).tolist()))
        if not split.any():
            break
        # the halves of each rejected panel open the next round
        job, ends = job[split].repeat(2), ends[split][:, [0, 1, 1, 1, 2, 2]].reshape(-1, 3)
        whole, budget = sums[split, -2:].reshape(-1, k), (0.5 * budget[split]).repeat(2, 0)

    def walk(r, p, out):
        """The value of panel p of round r; its records and its subtree's join out."""
        ok, total, err, budget, records, child = rounds[r]
        g = len(records) // len(ok)  # records per panel, its halves' last
        out += records[g * p + g - 2]
        out += records[g * p + g - 1]
        if ok[p]:
            out.append((err[p].tolist(), budget[p].tolist()))
            return total[p].tolist()
        left, right = walk(r + 1, 2 * child[p], out), walk(r + 1, 2 * child[p] + 1, out)
        return [x + y for x, y in zip(left, right)]

    out = [([0.0] * k, []) for _ in range(len(jobs))]
    for p, j in enumerate(live.tolist()):
        records = list(rounds[0][4][3 * p])  # the whole range's
        out[j] = walk(0, p, records), records
    return out


def _rung_pieces(ranges, eps, log: bool) -> tuple:
    """The pieces of a coordinate's (lo, hi) ranges that the rung at eps
    integrates (eps one float, or an array of one per range), as arrays
    (a, b, sgn, owner), owner the index of each piece's range and the
    pieces in range order.  A log coordinate keeps |x| >= eps, the positive
    side of each range before the negative one; sgn is the sign of x on the
    piece, which is integrated in u = log|x| (x = sgn * e^u) and whose
    signed parts sgn orients.  A linear coordinate keeps each range whole,
    with sgn = 0 and u = x."""
    lo, hi = np.asarray(ranges, dtype=float).reshape(-1, 2).T
    if not log:
        return lo, hi, np.zeros(len(lo)), np.arange(len(lo))
    owner, side = np.nonzero(np.stack([hi > eps, lo < -eps], axis=1) & (hi > lo)[:, None])
    if np.ndim(eps):
        eps = eps[owner]
    positive = side == 0
    a = np.where(positive, np.maximum(lo[owner], eps), lo[owner])
    b = np.where(positive, hi[owner], np.minimum(hi[owner], -eps))
    return a, b, np.where(positive, 1.0, -1.0), owner


def _line_signed(coef: np.ndarray, a: np.ndarray, b: np.ndarray, log_weight: bool) -> np.ndarray:
    """The exact integral of sum_k coef[k] x^k (over x if log_weight) on
    each span [a, b], coef holding one column of coefficients per span.
    Each term is c * (b**k - a**k) / k, and a zero c adds nothing."""
    total = np.zeros(len(a))
    for k, c in enumerate(coef):
        if not c.any():
            continue
        if log_weight and k == 0:
            term = c * np.log(b / a)
        else:
            e = k if log_weight else k + 1
            term = c * (b**e - a**e) / e
        total += np.where(c != 0, term, 0.0)
    return total


def _line_absolute(coef: np.ndarray, a: np.ndarray, b: np.ndarray, log_weight: bool,
                   signed: np.ndarray) -> np.ndarray:
    """The exact integral of |sum_k coef[k] x^k| (over x if log_weight) on
    each span, given its signed integral: |signed| on a span with no real
    root inside, which a constant row never has, and on the others
    |_line_signed| summed, left to right, over the pieces between the
    roots."""
    out = np.abs(signed)
    rows = np.flatnonzero(np.any(coef[1:] != 0, axis=0))
    if not len(rows):
        return out
    roots = real_roots(coef[:, rows])
    inside = (a[rows] < roots) & (roots < b[rows])  # nan is never inside
    if not inside.any():
        return out
    cut = rows[inside.any(axis=0)]
    span = np.append(cut, np.broadcast_to(rows, roots.shape)[inside])
    lo = np.append(a[cut], roots[inside])
    order = np.lexsort((lo, span))  # span by span, left to right
    span, lo = span[order], lo[order]
    hi = np.where(np.append(span[1:] != span[:-1], True), b[span], np.roll(lo, -1))
    pieces = np.abs(_line_signed(coef[:, span], lo, hi, log_weight))
    out[cut] = np.bincount(span, weights=pieces, minlength=len(a))[cut]
    return out


# The substitution on pieces of sign sgn (_rung_pieces), elementwise: u = log|x|,
# x = sgn * e^u where sgn is +-1, and u = x where sgn is 0, unseen by log and exp.


def _u_of(x, sgn) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.log(np.abs(x), out=x.copy(), where=np.not_equal(sgn, 0))


def _x_of(u, sgn) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.exp(u, out=u.copy(), where=np.not_equal(sgn, 0)) * np.where(sgn, sgn, 1.0)


def _u_range(a, b, sgn) -> tuple:
    """The pieces' u-ranges (lo, hi): u falls as x rises where sgn < 0."""
    ua, ub, negative = _u_of(a, sgn), _u_of(b, sgn), np.less(sgn, 0)
    return np.where(negative, ub, ua), np.where(negative, ua, ub)


# ---------------------------------------------------------------------------
# the rung integral


class Integrand:
    """Polynomial coefficient (exact inner integral) or pointwise factor.

    `coeff` is the polynomial coefficient of the top-degree term; the
    measure carries one 1/x factor per log variable.  `pointwise`, when
    given, multiplies the polynomial part and is evaluated at points of the
    ambient coordinates.  `reads` lists the coordinates the factor reads;
    None, the default, means every coordinate.  A
    factor that does not read the inner coordinate leaves the fiber
    integral: it is evaluated once per fiber and the inner integral stays
    the closed form.  One that does sends the inner integral to Gauss nodes.
    """

    def __init__(self, coeff: Polynomial, log_vars: Sequence[int],
                 pointwise: Callable | None = None, complex_valued: bool = False,
                 reads: Sequence[int] | None = None):
        self.coeff = coeff
        self.log_vars = tuple(sorted(log_vars))
        self.pointwise = pointwise
        self.complex_valued = complex_valued
        self.reads = None if reads is None else frozenset(reads)

    def factor_reads(self, axis: int) -> bool:
        """Whether the pointwise factor reads coordinate `axis` (False
        without a factor)."""
        return self.pointwise is not None and (self.reads is None or axis in self.reads)


class _FiberSolver:
    """The fibers along one axis through the base points of one Gauss
    panel (FiberKernel) and, given the last outer coordinate, the cut
    table of the linear cells' fiber structure along it (`cuts`)."""

    def __init__(self, region: Region, axis: int, outer: int | None = None):
        self.region = region
        self.axis = axis
        self.kernel = FiberKernel(region, axis)
        self.table = None if outer is None else self._cut_table(outer)

    def intervals(self, points: np.ndarray) -> tuple:
        """The span table (a, b, owner) of the fibers through the rows of
        `points` (FiberKernel.intervals_many)."""
        return self.kernel.intervals_many(points)[:3]

    def _cut_table(self, var: int) -> tuple:
        """The cuts along `var` for every base point: with v = (rhs - base @
        weights) / div (alpha of each candidate, the zero of each flat row,
        x0 of each graded candidate) extended by (lo_box, hi_box, e, -e, 0),
        cut c is (v[J[c]] - v[I[c]]) / D[c].  Last, the graded |ci / cl|."""
        affine = [(i, *c.payload.as_affine()) for i, cell in enumerate(self.region.cells)
                  if cell.is_linear() for c in cell.constraints]
        rows = np.array([coeffs for _, coeffs, _ in affine], dtype=float).reshape(-1, self.region.n)
        rhs = 0.0 - np.array([offset for _, _, offset in affine], dtype=float)  # a 0 stays +0.0
        ci, cl = rows[:, self.axis].tolist(), rows[:, var].tolist()
        inner = [r for r, c in enumerate(ci) if abs(c) > 1e-12]
        flat = [r for r, c in enumerate(ci) if abs(c) <= 1e-12 and abs(cl[r]) > 1e-12]
        graded = [r for r in inner if abs(cl[r] / ci[r]) > 1e-12]
        cols = inner + flat + graded
        slope = [-cl[r] / ci[r] for r in inner]
        # a candidate crosses the box and the clip, of slope 0, and its cell's earlier candidates
        table = [(j, len(cols) + c, 0.0 - s) for j, s in enumerate(slope) if abs(0.0 - s) > 1e-12
                 for c in range(4)]
        table += [(j, i, slope[i] - slope[j]) for j in range(len(inner)) for i in range(j)
                  if affine[inner[i]][0] == affine[inner[j]][0]
                  and abs(slope[i] - slope[j]) > 1e-12]
        table += [(len(inner) + j, len(cols) + 4, 1.0) for j in range(len(flat))]  # flat zeros
        J, I, D = np.array(table, dtype=float).reshape(-1, 3).T
        weights = rows[cols].T
        weights[[self.axis, var]] = 0.0
        return (weights, rhs[cols],
                np.array([ci[r] for r in inner] + [cl[r] for r in flat + graded]),
                J.astype(np.int64), I.astype(np.int64), D, np.abs([ci[r] / cl[r] for r in graded]))

    def cuts(self, points, clip, a, b, owner) -> tuple:
        """The distinct breakpoints x, a + 1e-13 < x < b - 1e-13, of the
        linear cells' fiber structure along the table's outer coordinate on
        each piece (a, b) through the row `owner` of `points`, as (piece, x)
        by piece, ascending.  A row with a coefficient ci over 1e-12 on the
        inner axis bounds the fiber by a candidate l(x) = alpha + beta x; the
        cuts are its crossings, within a cell, with the other candidates,
        the box and the excision bounds +-e of the inner axis (e per row of
        points in `clip`; 0 clips nothing), the zeros of the rows without the
        inner axis and, with e > 0, the graded cuts x0 +- (e / |beta|) *
        _GRADE**j, j >= 1, toward l's zero x0 within the piece's reach of x0.
        One contraction, not a BLAS matmul that maps its buffers on first
        use, evaluates the table for all rows (n <= 3: each product has one
        nonzero factor)."""
        weights, rhs, div, J, I, D, ratio = self.table
        v = np.empty((len(points), len(div) + 5))
        v[:, :len(div)] = (rhs - np.einsum("pn,nc->pc", points[:, :self.region.n], weights)) / div
        v[:, len(div):] = self.kernel.lo_box, self.kernel.hi_box, np.nan, np.nan, 0.0
        e = np.where(clip > 0, clip, np.nan)  # nan makes no cut
        v[:, -3], v[:, -2] = e, -e
        v = v[owner]
        x = (v[:, J] - v[:, I]) / D
        if len(ratio) and (clip > 0).any():
            x0 = v[:, len(div) - len(ratio):len(div)]
            reach = np.maximum(np.abs(a[:, None] - x0), np.abs(b[:, None] - x0))
            step = v[:, -3:-2] * ratio * _GRADE
            step[step == 0] = np.nan  # an e that underflows grades nothing
            while (step < reach).any():
                near = np.where(step < reach, step, np.nan)
                x = np.concatenate([x, x0 + near, x0 - near], axis=1)
                step = step * _GRADE
        piece, col = ((a[:, None] + 1e-13 < x) & (x < b[:, None] - 1e-13)).nonzero()
        x = x[piece, col]
        order = np.lexsort((x, piece))
        piece, x = piece[order], x[order]
        new = np.ones(len(x), dtype=bool)  # distinct, as in a set
        new[1:] = (piece[1:] != piece[:-1]) | (x[1:] != x[:-1])
        return piece[new], x[new]


# the value each weighted part takes of a (complex) integrand value
_PART_OF = {"re": np.real, "im": np.imag, "abs": np.abs}


def _fiber_integral(solver: _FiberSolver, bases: np.ndarray, eps: np.ndarray,
                    integrand: Integrand, parts: Sequence[str],
                    line: AxisRestriction | None) -> np.ndarray:
    """Inner integrals over the fibers through the rows of `bases` (ambient
    base points; the inner coordinate is ignored), each fiber excised at
    its own row's entry of `eps`: a (len(parts), len(bases)) array.  Each
    column depends on its own row and eps alone, not on the batch around
    it, so one call may serve the bases of several rungs.

    Each part weights the same integrand values: "re" and "im" take the
    real and imaginary part with the oriented measure, "abs" the modulus
    with the unoriented one.  The kept pieces of all fibers form one span
    table.  Unless a pointwise factor reads the inner coordinate, a span's
    integral is a closed form in the coefficients `line` gives on the
    line, times the factor w at the fiber's base point, which leaves the
    integral by Fubini: "re" and "im" take Re(w) and Im(w) times the
    signed closed form, "abs" takes |w| times the absolute one.  Without a
    factor w = 1, so "im" is zero.  A factor that reads the inner
    coordinate is evaluated at the inner Gauss nodes of every span, in
    one batch.
    """
    axis = solver.axis
    log_inner = axis in integrand.log_vars
    a, b, fiber = solver.intervals(bases)
    out = np.zeros((len(parts), len(bases)))
    # the span table: the kept pieces of every fiber, fiber after fiber
    a, b, sgn, piece = _rung_pieces(np.stack([a, b], 1), eps[fiber], log_inner)
    owner = fiber[piece]
    if not len(owner):
        return out
    if not integrand.factor_reads(axis):
        coef = line.table(bases)[0][:, owner]
        signed = _line_signed(coef, a, b, log_inner)
        w = None if integrand.pointwise is None else integrand.pointwise(bases)[owner]
        for j, part in enumerate(parts):
            if part == "im" and w is None:
                continue
            weights = _line_absolute(coef, a, b, log_inner, signed) if part == "abs" else signed
            if w is not None:
                weights = _PART_OF[part](w) * weights
            out[j] = np.bincount(owner, weights=weights, minlength=len(bases))
        return out

    xs, ws = _gauss_nodes()
    u_lo, u_hi = _u_range(a, b, sgn)
    mid, half = 0.5 * (u_lo + u_hi), 0.5 * (u_hi - u_lo)
    weights = (half[:, None] * ws).ravel()
    # the signed parts carry the orientation of x -> u on the negative side
    oriented = ((half * sgn)[:, None] * ws).ravel() if log_inner else weights
    owner = np.repeat(owner, len(xs))
    pts = bases[owner]
    pts[:, axis] = _x_of(mid[:, None] + half[:, None] * xs, sgn[:, None]).ravel()
    coeff = integrand.coeff
    if coeff.is_constant():
        vals = float(coeff.constant_value()) * integrand.pointwise(pts)
    else:
        vals = coeff.eval_many(pts) * integrand.pointwise(pts)
    for j, part in enumerate(parts):
        weighted = (weights if part == "abs" else oriented) * _PART_OF[part](vals)
        out[j] = np.bincount(owner, weights=weighted, minlength=len(bases))
    return out


def _ladder_parts(integrand: Integrand, ladders: Sequence[str]) -> list:
    """The weighted parts (see _fiber_integral) behind each requested
    ladder: "re" and "im" for a signed ladder of a complex-valued
    integrand, "re" for a signed real one, "abs" for an absolute one."""
    parts = []
    for kind in ladders:
        if kind == "absolute":
            parts.append(("abs",))
        elif kind == "signed":
            parts.append(("re", "im") if integrand.complex_valued else ("re",))
        else:
            raise IntegrationError(f"unknown ladder {kind!r}")
    return parts


def _rung_value(region: Region, integrand: Integrand, epss: Sequence[float],
                ladders: Sequence[str], cfg: QuadConfig) -> list:
    """The excision rungs at each eps of `epss` of every requested ladder
    ("signed" or "absolute"), from one lockstep quadrature program: one
    list per eps of one (value, error_estimate, stderr, capped) per ladder,
    capped counting the Gauss panels accepted at the depth cap.  A complex
    signed value sums the errors and caps of its real and imaginary parts.
    Each rung is what this call gives for its eps alone, float for float."""
    box = region.bounding_box()
    n = region.n
    if n > _MC_DIMENSION:
        return [_mc_rung(region, integrand, eps, ladders, cfg, k) for k, eps in enumerate(epss)]
    groups = _ladder_parts(integrand, ladders)
    parts = [part for group in groups for part in group]
    # a negative log piece flips the orientation of the signed parts only
    flip = np.array([1.0 if part == "abs" else -1.0 for part in parts])
    # divisor coordinates go innermost: constraints coupling the radii then
    # produce kinks (not jumps) in the outer integrands, and the singular
    # direction is integrated by the exact closed form.
    quad_vars = [v for v in range(n) if v >= region.p] + list(range(region.p))
    inner = quad_vars[-1]
    outers = quad_vars[:-1]
    solver = _FiberSolver(region, inner, outers[-1] if outers else None)
    log_inner = inner in integrand.log_vars
    line = None
    if not integrand.factor_reads(inner):
        line = AxisRestriction([integrand.coeff], inner, integrand.coeff.nvars)

    def level(d: int, points: np.ndarray, eps: np.ndarray) -> tuple:
        """The integrals over outers[d:] and the inner fiber through each
        row of points (values set on outers[:d]), each row excised at its
        own entry of eps, as one array program: every (row, piece, segment)
        integral of the level runs in one _adaptive_1d lockstep.  Returns
        the (parts, rows) totals and, per row, the accepted-panel records
        behind it in depth-first order."""
        var = outers[d]
        tol_d = _QUAD_TOL * _NESTED_SHRINK**d
        final = d == len(outers) - 1
        ranges = np.broadcast_to(np.array(box[var], dtype=float), (len(points), 2))
        a, b, sgn, row = _rung_pieces(ranges, eps, var in integrand.log_vars)
        u_lo, u_hi = _u_range(a, b, sgn)
        piece, u = np.zeros(0, dtype=np.int64), np.zeros(0)
        if final:
            # the excision clips the fibers of a log inner variable at +-eps
            piece, x = solver.cuts(points, eps if log_inner else 0.0 * eps, a, b, row)
            u = _u_of(x, sgn[piece])
            inside = (u_lo[piece] < u) & (u < u_hi[piece])
            piece, u = piece[inside], u[inside]
        # each piece's segments run from u_lo over its cuts to u_hi and share its budget
        edge_piece = np.concatenate([np.arange(len(a)), piece, np.arange(len(a))])
        edges = np.concatenate([u_lo, u, u_hi])
        order = np.lexsort((edges, np.arange(len(edges)) >= len(a) + len(u), edge_piece))
        edge_piece, edges = edge_piece[order], edges[order]
        start = (edge_piece[1:] == edge_piece[:-1]).nonzero()[0]  # each segment's first edge
        piece_of = edge_piece[start]
        jobs = np.column_stack([edges[start], edges[start + 1],
                                tol_d / np.bincount(piece_of)[piece_of]])
        job_sgn, job_row = sgn[piece_of], row[piece_of]

        def f(nodes: np.ndarray, jobs_of: np.ndarray) -> tuple:
            picked = job_row[jobs_of]
            sub = np.repeat(points[picked], nodes.shape[1], axis=0)
            sub_eps = np.repeat(eps[picked], nodes.shape[1])
            sub[:, var] = _x_of(nodes, job_sgn[jobs_of, None]).ravel()
            if final:
                return np.concatenate([
                    _fiber_integral(solver, sub[i:i + _FIBER_BATCH], sub_eps[i:i + _FIBER_BATCH],
                                    integrand, parts, line)
                    for i in range(0, len(sub), _FIBER_BATCH)], axis=1), None
            return level(d + 1, sub, sub_eps)

        out = _adaptive_1d(f, jobs, _MAX_DEPTH, len(parts))
        values = np.array([value for value, _ in out]).reshape(len(out), len(parts))
        totals = np.zeros((len(parts), len(points)))
        np.add.at(totals.T, job_row, np.where(job_sgn[:, None] < 0, flip, 1.0) * values)
        records = [[] for _ in points]
        for r, (_, behind) in zip(job_row.tolist(), out):
            records[r] += behind
        return totals, records

    # one base row per rung
    eps = np.array(epss, dtype=float)
    bases = np.zeros((len(eps), n))
    if n > 1:
        totals, records = level(0, bases, eps)
    else:
        totals = _fiber_integral(solver, bases, eps, integrand, parts, line)
        records = [[] for _ in epss]
    rungs = []
    for k, rung_records in enumerate(records):
        err, capped = np.zeros(len(parts)), np.zeros(len(parts), dtype=int)
        for e, b in rung_records:
            err += e
            capped += np.greater(e, b)
        out, j = [], 0
        for group in groups:
            size = len(group)
            value = complex(totals[j, k], totals[j + 1, k]) if size == 2 else float(totals[j, k])
            out.append((value, sum(err[j:j + size].tolist()), 0.0, int(capped[j:j + size].sum())))
            j += size
        rungs.append(out)
    return rungs


def _mc_rung(region: Region, integrand: Integrand, eps: float,
             ladders: Sequence[str], cfg: QuadConfig, rung_index: int) -> list:
    """Stratified Monte-Carlo over the per-coordinate domain pieces: one
    sample set serves every requested ladder; one (value, stderr, stderr,
    0) per ladder."""
    absolute = [parts == ("abs",) for parts in _ladder_parts(integrand, ladders)]
    box = region.bounding_box()
    n = region.n
    if any(c.extra for c in region.cells):
        raise IntegrationError("Monte-Carlo path cannot handle existential variables")
    pieces = [_rung_pieces([box[v]], eps, v in integrand.log_vars) for v in range(n)]
    # the (u_lo, u_hi, sgn) of each piece of each coordinate
    per_var = [np.transpose([*_u_range(*p[:3]), p[2]]).tolist() for p in pieces]
    if not all(per_var):
        return [(0.0, 0.0, 0.0, 0)] * len(ladders)

    combos = [[]]
    for pieces in per_var:
        combos = [c + [p] for c in combos for p in pieces]
    rng = np.random.Generator(np.random.Philox(key=cfg.seed * 1000003 + rung_index))
    totals = [0j if integrand.complex_valued and not a else 0.0 for a in absolute]
    var_sums = [0.0] * len(ladders)
    budget = max(16, cfg.mc_budget // max(1, len(combos)))
    for combo in combos:
        vol = math.prod(b - a for a, b, _ in combo)
        orient = math.prod(sgn or 1.0 for _, _, sgn in combo)
        if vol <= 0:
            continue
        u = rng.uniform(0.0, 1.0, size=(budget, n))
        pts = np.zeros((budget, n))
        for v, (a, b, sgn) in enumerate(combo):
            pts[:, v] = _x_of(a + (b - a) * u[:, v], sgn)
        inside = region.members(pts)
        vals = integrand.coeff.eval_many(pts).astype(
            complex if integrand.complex_valued else float
        )
        if integrand.pointwise is not None:
            vals = vals * integrand.pointwise(pts)
        for j, absolute_j in enumerate(absolute):
            weighted = np.where(inside, np.abs(vals) if absolute_j else vals, 0.0)
            mean = weighted.mean()
            totals[j] += (1.0 if absolute_j else orient) * vol * mean
            spread = float(np.abs(weighted - mean).std()) if budget > 1 else 0.0
            var_sums[j] += (vol * spread) ** 2 / budget
    return [(total, math.sqrt(v), math.sqrt(v), 0) for total, v in zip(totals, var_sums)]


# ---------------------------------------------------------------------------
# public operations


def _top_integrand(region: Region, form: LogForm) -> Integrand:
    if form.n != region.n:
        raise IntegrationError("form ambient does not match the region")
    if form.degree != region.n:
        raise IntegrationError(
            f"need a top-degree form (degree {region.n}), got degree {form.degree}"
        )
    key = (tuple(range(form.p)), tuple(range(form.p, form.n)))
    if not form.terms:
        return Integrand(Polynomial.zero(region.n), ())
    coeff = form.terms.get(key)
    if coeff is None:
        raise IntegrationError("top-degree form has an unexpected term shape")
    return Integrand(coeff, tuple(range(form.p)))


def _log_scale(region: Region, integrand: Integrand) -> float:
    """The largest max(|lo|, |hi|) of the bounding box over the integrand's
    log coordinates: the excision ladder is relative to it."""
    box = region.bounding_box()
    return max(max(abs(box[v][0]), abs(box[v][1])) for v in integrand.log_vars) or 1.0


def _build_ladder(region: Region, integrand: Integrand, cfg: QuadConfig,
                  ladders: Sequence[str]) -> list:
    """One Ladder per requested kind ("signed" or "absolute"), all from one
    lockstep quadrature program over every rung (_rung_value).  Rung k
    excises |r_v| < eps0 * _RATIO**-k * L on every log coordinate, L the
    region's log-coordinate scale (_log_scale); the entries record the
    applied eps.

    A rung that keeps nothing of a log coordinate whose box range is
    nonempty says nothing about the limit, so every ladder with such a
    rung is "inconclusive".  eps falls along the ladder, so the first rung
    keeps the least."""
    if not integrand.log_vars or integrand.coeff.is_zero():
        return [Ladder([(0.0, value, stderr + err)], "converged", value, err + stderr, [capped])
                for value, err, stderr, capped
                in _rung_value(region, integrand, [0.0], ladders, cfg)[0]]
    scale = _log_scale(region, integrand)
    epss = [eps * scale for eps in cfg.rungs()]
    if epss[-1] < sys.float_info.min:
        raise IntegrationError(f"the last rung, eps0 * 2**-(ladder_len - 1) = {cfg.rungs()[-1]!r}, "
                               f"underflows at the region's scale {scale!r}: raise eps0")
    box = region.bounding_box()
    blind = any(box[v][0] < box[v][1] and not len(_rung_pieces([box[v]], epss[0], True)[3])
                for v in integrand.log_vars)
    rungs = _rung_value(region, integrand, epss, ladders, cfg)
    out = []
    for j in range(len(ladders)):
        entries = [(eps, rung[j][0], rung[j][2] + rung[j][1]) for eps, rung in zip(epss, rungs)]
        ladder = Ladder(entries) if blind else classify_ladder(entries)
        ladder.capped = [rung[j][3] for rung in rungs]
        out.append(ladder)
    return out


def combined_verdict(ladders: Sequence[Ladder]) -> str:
    """"diverging" when any ladder diverges, "converged" only when every
    ladder converges, "inconclusive" otherwise."""
    verdicts = {ladder.verdict for ladder in ladders}
    if "diverging" in verdicts:
        return "diverging"
    return "converged" if verdicts <= {"converged"} else "inconclusive"


def _cap_flags(ladders) -> list:
    """The depth-cap flag of a result built from these ladders, if any panel
    was accepted at _MAX_DEPTH."""
    capped = sum(sum(ladder.capped) for ladder in ladders)
    return [f"quadrature depth cap hit ({capped} panels)"] if capped else []


def integrate_log_form(region: Region, form: LogForm, cfg: QuadConfig | None = None,
                       integrand: Integrand | None = None) -> IntegralResult:
    """Signed integral with the standard orientation of R^n, plus the
    absolute integral and the excision ladders behind both."""
    cfg = cfg or QuadConfig()
    integrand = integrand or _top_integrand(region, form)
    ladder, abs_ladder = _build_ladder(region, integrand, cfg, ("signed", "absolute"))
    value, error = ladder.estimate()
    absolute, _ = abs_ladder.estimate()
    flags = ["orientation: standard orientation of R^n (signed references match up to orientation)"]
    if ladder.verdict == "diverging" or abs_ladder.verdict == "diverging":
        flags.append("diverging")
    flags += _cap_flags([ladder, abs_ladder])
    return IntegralResult(value, error, absolute, ladder, abs_ladder, flags)


def _kind(absolute: bool) -> str:
    return "absolute" if absolute else "signed"


def integrate_abs(region: Region, form: LogForm, cfg: QuadConfig | None = None) -> float:
    cfg = cfg or QuadConfig()
    integrand = _top_integrand(region, form)
    ladder, = _build_ladder(region, integrand, cfg, ("absolute",))
    return ladder.estimate()[0]


def excision_ladder(region: Region, form: LogForm, cfg: QuadConfig | None = None,
                    absolute: bool = False) -> Ladder:
    cfg = cfg or QuadConfig()
    integrand = _top_integrand(region, form)
    return _build_ladder(region, integrand, cfg, (_kind(absolute),))[0]


def integrate_mc(region: Region, form: LogForm, eps: float,
                 cfg: QuadConfig | None = None, absolute: bool = False):
    """Stratified Monte-Carlo estimate of a single rung (oracle use)."""
    cfg = cfg or QuadConfig()
    integrand = _top_integrand(region, form)
    value, err, stderr, _ = _mc_rung(region, integrand, eps, (_kind(absolute),), cfg, 0)[0]
    return value, stderr


def quadrature_rung(region: Region, form: LogForm, eps: float,
                    cfg: QuadConfig | None = None, absolute: bool = False):
    cfg = cfg or QuadConfig()
    integrand = _top_integrand(region, form)
    value, err, _, _ = _rung_value(region, integrand, [eps], (_kind(absolute),), cfg)[0][0]
    return value, err


# ---------------------------------------------------------------------------
# decay fits


@dataclass
class DecayFit:
    scale: float      # C
    exponent: float   # alpha
    residual: float
    used: int
    dropped: int
    flags: list = field(default_factory=list)


def fit_decay_exponent(pairs: Sequence[tuple]) -> DecayFit:
    """Least squares line on (log t, log vol); zero entries are dropped."""
    usable = [(t, v) for t, v in pairs if v > 0 and t > 0]
    dropped = len(pairs) - len(usable)
    if len(usable) < 4:
        raise IntegrationError(
            f"need at least 4 positive entries to fit a decay law, got {len(usable)}"
        )
    xs = np.log([t for t, _ in usable])
    ys = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    flags = []
    if slope < 0.05:
        flags.append("no decay")
    return DecayFit(float(np.exp(intercept)), float(slope), resid, len(usable), dropped, flags)


@dataclass
class DecayReport:
    monomial: dict
    entries: list  # (t, vol)
    fit: DecayFit | None
    verdict: str
    heuristic: bool = False

    def __str__(self):
        if self.fit is None:
            return f"decay: {self.verdict}"
        return (
            f"decay: {self.verdict} alpha={self.fit.exponent:.4f} "
            f"C={self.fit.scale:.4g} residual={self.fit.residual:.3g}"
        )


def default_t_ladder():
    return [2.0**-k for k in range(2, 11)]


def _decay_ts(ts: Sequence[float] | None) -> list:
    """The slice values of a decay report, `ts` or the default ladder.  A
    decay law needs four positive ones, and every value must be finite;
    both are checked before any slice is built."""
    ts = list(ts) if ts is not None else default_t_ladder()
    bad = [t for t in ts if not math.isfinite(t)]
    if bad:
        raise IntegrationError(f"slice values must be finite, got {bad[0]!r}")
    positive = sum(t > 0 for t in ts)
    if positive < 4:
        raise IntegrationError(
            f"need at least 4 positive slice values to fit a decay law, got {positive}"
        )
    return ts


def _decay_verdict(entries: Sequence[tuple]) -> tuple:
    """(fit, verdict) of (t, vol) slice entries; no fit when every volume
    is within ABS_TOL of zero."""
    if all(v <= ABS_TOL for _, v in entries):
        return None, "identically zero"
    fit = fit_decay_exponent(entries)
    return fit, "decays to zero" if fit.exponent > 0.05 else "no decay detected"


def slice_region_and_form(region: Region, u: Mapping[int, int], form: LogForm, t: float):
    """The slice {u = t} as a region in one fewer coordinate, with the form
    restricted to it.

    For u = r_j^k the coordinate is fixed to t^(1/k).  For a multi-variable
    monomial some exponent must be 1; that coordinate is eliminated through
    r_j = t * prod r_i^-m_i, clearing denominators against the positive
    orthant (the region must have nonnegative bounds on the participating
    coordinates), and dr_j/r_j restricts to -sum m_i dr_i/r_i.
    """
    u = {int(v): int(e) for v, e in u.items() if e}
    if not u:
        raise IntegrationError("the monomial u must be nontrivial")
    if any(not 0 <= v < region.p for v in u):
        raise IntegrationError("u must be a monomial in the divisor coordinates")
    if len(u) == 1:
        (j, k), = u.items()
        tj = t ** (1.0 / k) if k > 1 else t
        sub = region.substitute_coordinate(j, Fraction(tj))
        restricted = form.substitute_log_relation(j, [])
        out = LogForm.zero(form.n, form.p, form.degree)
        for (I, J), coeff in restricted.terms.items():
            out = out + LogForm.term(form.n, form.p,
                                     coeff.partial_eval({j: Fraction(tj)}), I, J)
        return sub, out.remove_coordinate(j)

    j = next((v for v, e in sorted(u.items()) if e == 1), None)
    if j is None:
        raise IntegrationError(
            "unsupported monomial: need a unit exponent to eliminate a coordinate"
        )
    box = region.bounding_box()
    for v in u:
        if box[v][0] < 0:
            raise IntegrationError(
                "multi-variable slices need the region inside the positive orthant"
            )
    others = [(v, e) for v, e in sorted(u.items()) if v != j]
    n = region.n
    t_frac = Fraction(t)

    def substitute(payload: Polynomial) -> Polynomial:
        d = payload.degree_in(j)
        out: dict = {}
        for exp, c in payload.terms.items():
            e = exp[j]
            new = list(exp)
            new[j] = 0
            for v, m in others:
                new[v] += m * (d - e)
            coeff = c * t_frac**e
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coeff
        return Polynomial(n, out)

    from .region import Cell, Constraint

    cells = []
    hi_j = Fraction(box[j][1])
    for cell in region.cells:
        if cell.extra:
            raise IntegrationError("cells with auxiliary variables cannot be sliced")
        consts = [Constraint(substitute(c.payload), c.equality) for c in cell.constraints]
        # keep the slice away from the cleared divisor locus: r_j <= hi_j
        # becomes t <= hi_j * prod r_i^m_i.
        guard = {(0,) * n: Fraction(t)}
        mono = [0] * n
        for v, m in others:
            mono[v] = m
        guard[tuple(mono)] = -hi_j
        consts.append(Constraint(Polynomial(n, guard), equality=False))
        cells.append(Cell(consts))
    sliced = Region(n, region.p, cells, region.kind, region.box, region.name)
    sliced = sliced.substitute_coordinate(j, 0)  # j no longer occurs

    relation = [(Fraction(-m), v) for v, m in others]
    restricted = form.substitute_log_relation(j, relation)
    for (I, J), coeff in restricted.terms.items():
        if coeff.uses_var(j):
            raise IntegrationError(
                "form coefficients may not involve the eliminated coordinate"
            )
    reduced = restricted.remove_coordinate(j)
    return sliced, reduced


def slice_decay_report(region: Region, u: Mapping[int, int], form: LogForm,
                       cfg: QuadConfig | None = None,
                       ts: Sequence[float] | None = None,
                       probe: ProbeConfig | None = None) -> DecayReport:
    """Fit vol(A cap {u = t}) ~ C t^alpha over a ladder of slice values."""
    cfg = cfg or QuadConfig()
    ts = _decay_ts(ts)
    verdict_allow = region.is_allowable(cfg=probe)
    if not verdict_allow.ok:
        raise RegionError(f"precondition: region is not allowable ({verdict_allow})")
    entries = []
    for t in ts:
        sliced, reduced = slice_region_and_form(region, u, form, t)
        if not sliced.cells:
            entries.append((t, 0.0))
            continue
        entries.append((t, integrate_abs(sliced, reduced, cfg)))
    fit, verdict = _decay_verdict(entries)
    return DecayReport(dict(u), entries, fit, verdict, verdict_allow.heuristic)


# ---------------------------------------------------------------------------
# pushforward bound and deformation limits


@dataclass
class BoundReport:
    lhs: float
    rhs: float
    delta: int | None
    max_coeff: float
    image_volume: float
    verdict: str  # pass | fail | inconclusive

    def __str__(self):
        return f"{self.verdict}: |integral|={self.lhs:.6g} <= {self.rhs:.6g}"


def _delta_probe_1d(region: Region, f: Polynomial, samples: int, cap: int, seed: int):
    """Max fiber cardinality of a scalar map on a 1-d region, by counting
    roots of f - u over sampled image values u; the first sample, in draw
    order, over the cap decides."""
    box = region.bounding_box()
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = np.linspace(box[0][0], box[0][1], 512)
    inside = region.members(xs[:, None])
    if not inside.any():
        return 0, 0.0, (0.0, 0.0)
    fvals = f.eval_many(xs[:, None])
    lo, hi = float(fvals[inside].min()), float(fvals[inside].max())
    us = rng.uniform(lo, hi, size=samples)
    # one column of f - u per sample, its constant term exact before rounding
    # as in Polynomial arithmetic
    coef = np.zeros((max(f.degree(), 0) + 1, samples))
    for (e,), c in f.terms.items():
        coef[e] = float(c)
    f0 = f.terms.get((0,), 0)
    coef[0] = [float(f0 - Fraction(u)) for u in us.tolist()]
    roots = real_roots(coef)
    real = ~np.isnan(roots)
    sample = np.broadcast_to(np.arange(samples), roots.shape)[real]
    counts = np.bincount(sample[region.members(roots[real][:, None])], minlength=samples)
    over = np.flatnonzero(counts > cap)
    if len(over):
        return int(counts[: over[0] + 1].max()), (hi - lo), (lo, hi)
    hits = int(np.count_nonzero(counts))
    return int(counts.max(initial=0)), (hi - lo) * hits / samples, (lo, hi)


def pushforward_bound_check(region: Region, fs: Sequence[Polynomial], a: Polynomial,
                            cfg: QuadConfig | None = None, samples: int = 256,
                            cap: int = 64) -> BoundReport:
    """Check |int a df_1 ^ ... ^ df_m| <= delta(f) * max|a| * vol(f(S))."""
    cfg = cfg or QuadConfig()
    m = len(fs)
    if region.n != m:
        raise IntegrationError("need dim S = m = number of map components")
    target = LogForm.term(m, 0, Polynomial.const(m, 1), (), tuple(range(m)))
    pulled = target.pullback_polymap(list(fs), p_source=region.p).scale(a)
    result = integrate_log_form(region, pulled, cfg)
    lhs = abs(result.value)

    box = region.bounding_box()
    rng = np.random.Generator(np.random.Philox(key=cfg.seed + 7))
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = rng.uniform(lo, hi, size=(4096, region.n))
    inside = region.members(pts)
    if inside.any():
        max_a = float(np.abs(a.eval_many(pts[inside])).max())
    else:
        max_a = 0.0
    if a.is_constant():
        max_a = abs(float(a.constant_value()))
    max_a *= 1.05

    if m == 1:
        delta, image_vol, _ = _delta_probe_1d(region, fs[0], samples, cap, cfg.seed)
        if delta > cap:
            return BoundReport(lhs, delta * max_a * image_vol, None, max_a,
                               image_vol, "inconclusive")
        rhs = delta * max_a * image_vol
        verdict = "pass" if lhs <= rhs + ABS_TOL else "fail"
        return BoundReport(lhs, rhs, delta, max_a, image_vol, verdict)
    return BoundReport(lhs, float("nan"), None, max_a, float("nan"), "inconclusive")


def deformation_limit_check(region: Region, comps: Sequence[Polynomial],
                            psi: LogForm, ts: Sequence[float] | None = None,
                            cfg: QuadConfig | None = None):
    """Values of int_S h_t^* psi along a ladder of deformation parameters,
    with the verdict comparing the extrapolated limit to the t = 0 value.

    Components are polynomials in the region coordinates plus a trailing
    deformation variable.
    """
    cfg = cfg or QuadConfig()
    ts = list(ts) if ts is not None else [2.0**-k for k in range(1, 9)]
    n = region.n

    def at(t: float) -> float:
        frozen = [h.partial_eval({n: Fraction(t)}).drop_vars([n]) for h in comps]
        pulled = psi.pullback_polymap(frozen, p_source=region.p)
        return integrate_log_form(region, pulled, cfg).value

    v0 = at(0.0)
    entries = [(t, at(t), 0.0) for t in sorted(ts, reverse=True)]
    ladder = classify_ladder(entries)
    limit = ladder.limit if ladder.limit is not None else entries[-1][1]
    tol = ABS_TOL + REL_TOL * max(1.0, abs(v0)) + (ladder.error or 0.0)
    if ladder.verdict == "converged" and abs(limit - v0) <= tol:
        ladder.verdict = "converged"
        ladder.limit = limit
    elif abs(entries[-1][1] - v0) <= tol:
        ladder.verdict = "converged"
        ladder.limit = entries[-1][1]
        ladder.error = tol
    else:
        ladder.verdict = "inconclusive"
    return ladder, v0
