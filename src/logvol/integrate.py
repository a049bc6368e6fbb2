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
fiber structure (`_final_level_cuts`).  When the inner coordinate is a log
one, a fiber bounded below by an affine l(x) = alpha + beta x gives the
outer integrand a term -log l(x), singular at l's zero x0, only
eps / |beta| past the excision cut.  Bisection would zoom onto x0 one
level per round, so rung k alone would take about k + 3 rounds; the cuts
instead also grade geometrically toward x0, with ratio _GRADE, and every
panel of a ladder passes the same halves-against-whole test in the first
round.  The non-final outer levels of 3-d regions are not graded.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .polyform import LogForm, Polynomial
from .region import ProbeConfig, Region, RegionError, fill_derived
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
_GRADE = 8  # ratio of the graded cuts toward a log inner bound's zero (_final_level_cuts)


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


class _Node:
    """A range of one lockstep integral: its Gauss value `whole`, error
    budget and remaining depth; the (value, records) of its two halves once
    evaluated; then either the accepted (total, record) or its two
    children."""

    __slots__ = ("job", "lo", "hi", "whole", "budget", "depth", "halves", "accepted", "children")

    def __init__(self, job: int, lo: float, hi: float, depth: int, whole=None, budget=None):
        self.job, self.lo, self.hi, self.depth = job, lo, hi, depth
        self.whole, self.budget = whole, budget
        self.accepted = self.children = None


def _adaptive_1d(f: Callable, jobs: Sequence[tuple], depth: int, k: int) -> list:
    """Adaptive _NODES-point Gauss with bisection on a vector-valued
    integrand, run in lockstep on many independent 1-d integrals.

    jobs are (a, b, tol).  Each component's budget tol * max(1, |whole|)
    halves with each split, so its accepted panel errors sum below it, and
    a panel is accepted only when every component is within budget or the
    bisection has split it `depth` times.  Each round evaluates the halves
    of every open panel of every job in one call f(nodes, owners): nodes
    is the (panels, _NODES) array of their nodes, owners the job of each
    panel, and f returns the (k, panels * _NODES) values with, per node,
    the list of accepted-panel records (err, budget) of the integrals
    behind that node (None when there are none).

    Returns one (value, records) per job.  The value sums the accepted
    panels pairwise up the bisection tree, and the records list the job's
    accepted panels together with those behind its nodes, both in the
    order a depth-first bisection visits them, so neither depends on how
    the jobs were batched.  `_panel_sums` states the Gauss sum once, as one
    contraction per round; past it, list arithmetic on the few components
    beats numpy on arrays this small.
    """
    xs, _ = _gauss_nodes()
    m = len(xs)

    def evaluate(spans):
        """(value, records) of the Gauss rule on each (job, lo, hi)."""
        if not spans:
            return iter(())
        job, lo, hi = np.array(spans).T
        half = 0.5 * (hi - lo)
        vals, behind = f(0.5 * (lo + hi)[:, None] + half[:, None] * xs, job.astype(np.int64))
        records = [[] if behind is None else [r for node in behind[p * m:p * m + m] for r in node]
                   for p in range(len(spans))]
        return zip(_panel_sums(vals, half).tolist(), records)

    def halves(node):
        mid = 0.5 * (node.lo + node.hi)
        return [(node.job, node.lo, mid), (node.job, mid, node.hi)]

    # the first round evaluates each job's whole range with its two halves
    roots = [_Node(j, a, b, depth) for j, (a, b, _) in enumerate(jobs) if a < b]
    evals = evaluate([span for node in roots for span in [(node.job, node.lo, node.hi), *halves(node)]])
    root_records = []
    for node in roots:
        node.whole, records = next(evals)
        node.budget = [jobs[node.job][2] * max(1.0, abs(w)) for w in node.whole]
        node.halves = next(evals), next(evals)
        root_records.append(records)
    fresh = roots
    while fresh:
        split = []
        for node in fresh:
            (left, _), (right, _) = node.halves
            total = [x + y for x, y in zip(left, right)]
            err = [abs(t - w) for t, w in zip(total, node.whole)]
            if node.depth <= 0 or all(e <= b for e, b in zip(err, node.budget)):
                node.accepted = total, (err, node.budget)
                continue
            budget = [0.5 * b for b in node.budget]
            (_, lo, mid), (_, _, hi) = halves(node)
            node.children = (_Node(node.job, lo, mid, node.depth - 1, left, budget),
                             _Node(node.job, mid, hi, node.depth - 1, right, budget))
            split += node.children
        evals = evaluate([span for node in split for span in halves(node)])
        for node in split:
            node.halves = next(evals), next(evals)
        fresh = split

    def walk(node, records):
        records += node.halves[0][1]
        records += node.halves[1][1]
        if node.accepted is not None:
            records.append(node.accepted[1])
            return node.accepted[0]
        left = walk(node.children[0], records)
        right = walk(node.children[1], records)
        return [x + y for x, y in zip(left, right)]

    out = [([0.0] * k, []) for _ in jobs]
    for node, records in zip(roots, root_records):
        out[node.job] = walk(node, records), records
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
    given, multiplies the polynomial part and is evaluated at full points
    (ambient plus derived auxiliaries).  `reads` lists the ambient
    coordinates the factor reads (reading a derived auxiliary reads its
    source coordinate); None, the default, means every coordinate.  A
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
    panel (FiberKernel), and the affine rows (coefficients, rhs) of the
    linear cells, which `_final_level_cuts` reads."""

    def __init__(self, region: Region, axis: int):
        self.region = region
        self.axis = axis
        self.kernel = FiberKernel(region, axis)
        affine = [[c.payload.as_affine() for c in cell.constraints]
                  for cell in region.cells if cell.is_linear()]
        self.linear = [[(np.array(coeffs, dtype=float), float(-offset)) for coeffs, offset in rows]
                       for rows in affine]

    def intervals(self, points: np.ndarray) -> tuple:
        """The span table (a, b, owner) of the fibers through the rows of
        `points` (FiberKernel.intervals_many)."""
        return self.kernel.intervals_many(points)[:3]


def _final_level_cuts(solver: "_FiberSolver", level_var: int, point: np.ndarray,
                      lo: float, hi: float, clip: Sequence[float] = ()) -> list:
    """Breakpoints, in the level variable, of the fiber structure of the
    linear cells through the base point (its ambient coordinates; those of
    the level and inner variables are ignored): crossings of the affine
    inner-bound candidates, the box and the excision bounds `clip` of the
    inner variable, and feasibility flips of rows without the inner
    variable.  Between consecutive cuts the one-level-up integrand is
    analytic.

    With a clip at +-e (a log inner variable), a fiber bounded by an affine
    candidate l(x) = alpha + beta x contributes -log l(x) to the level
    integrand, which is singular at l's zero x0, only e / |beta| past the
    clip cut.  The cuts then also grade toward x0, at x0 +- (e / |beta|) *
    _GRADE**j for j >= 1, so bisection starts from panels whose width
    follows the distance to the singularity instead of zooming onto it one
    level per round."""
    vec = point.copy()
    vec[solver.axis] = 0.0
    vec[level_var] = 0.0
    e = max((abs(c) for c in clip), default=0.0)
    cuts = set()
    for rows in solver.linear:
        cands = [(x, 0.0) for x in (solver.kernel.lo_box, solver.kernel.hi_box, *clip)]
        for a, rhs in rows:
            ci = a[solver.axis]
            cl = a[level_var]
            rem = rhs - float(a @ vec)
            if abs(ci) > 1e-12:
                cands.append((rem / ci, -cl / ci))
                if e > 0 and abs(cl / ci) > 1e-12:
                    # graded cuts x0 +- d toward the zero x0 of this candidate
                    x0, d = rem / cl, e * abs(ci / cl) * _GRADE
                    reach = max(abs(lo - x0), abs(hi - x0))
                    while d < reach:
                        cuts.update((x0 + d, x0 - d))
                        d *= _GRADE
            elif abs(cl) > 1e-12:
                cuts.add(rem / cl)
        for i in range(len(cands)):
            ai, bi = cands[i]
            for j in range(i + 1, len(cands)):
                aj, bj = cands[j]
                if abs(bi - bj) > 1e-12:
                    cuts.add((aj - ai) / (bi - bj))
    return sorted(x for x in cuts if lo + 1e-13 < x < hi - 1e-13)


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
    region, axis = solver.region, solver.axis
    n = region.n
    extras = region.cells[0].extra if region.cells else ()
    log_inner = axis in integrand.log_vars
    points = np.zeros((len(bases), n + len(extras)))
    points[:, :n] = bases[:, :n]
    a, b, fiber = solver.intervals(points)
    fill_derived(points, extras, n)
    out = np.zeros((len(parts), len(bases)))
    # the span table: the kept pieces of every fiber, fiber after fiber
    a, b, sgn, piece = _rung_pieces(np.stack([a, b], 1), eps[fiber], log_inner)
    owner = fiber[piece]
    if not len(owner):
        return out
    if not integrand.factor_reads(axis):
        coef = line.table(points[:, : integrand.coeff.nvars])[0][:, owner]
        signed = _line_signed(coef, a, b, log_inner)
        w = None if integrand.pointwise is None else integrand.pointwise(points)[owner]
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
    pts = points[owner]
    pts[:, axis] = _x_of(mid[:, None] + half[:, None] * xs, sgn[:, None]).ravel()
    fill_derived(pts, extras, n)
    coeff = integrand.coeff
    if coeff.is_constant():
        vals = float(coeff.constant_value()) * integrand.pointwise(pts)
    else:
        vals = coeff.eval_many(pts[:, : coeff.nvars]) * integrand.pointwise(pts)
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
    keep = np.ones(len(parts))
    # divisor coordinates go innermost: constraints coupling the radii then
    # produce kinks (not jumps) in the outer integrands, and the singular
    # direction is integrated by the exact closed form.
    quad_vars = [v for v in range(n) if v >= region.p] + list(range(region.p))
    inner = quad_vars[-1]
    outers = quad_vars[:-1]
    solver = _FiberSolver(region, inner)
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
        pieces = _rung_pieces(ranges, eps, var in integrand.log_vars)
        row_eps = eps.tolist()
        jobs, piece_of = [], []  # piece_of: the piece of each job
        for p, (a, b, sgn, row, u_lo, u_hi) in enumerate(
                zip(*(x.tolist() for x in (*pieces, *_u_range(*pieces[:3]))))):
            cuts = []
            if final:
                # the excision clips the fibers of a log inner variable at +-eps
                e = row_eps[row]
                clip = (e, -e) if log_inner and e > 0 else ()
                cuts = _u_of(_final_level_cuts(solver, var, points[row], a, b, clip), sgn).tolist()
            segs = [u_lo] + sorted(u for u in cuts if u_lo < u < u_hi) + [u_hi]
            budget = tol_d / max(1, len(segs) - 1)
            for a2, b2 in zip(segs, segs[1:]):
                jobs.append((a2, b2, budget))
                piece_of.append(p)
        job_sgn, job_row = pieces[2][piece_of], pieces[3][piece_of]

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

        totals = np.zeros((len(parts), len(points)))
        records = [[] for _ in points]
        for (value, behind), row, sgn in zip(_adaptive_1d(f, jobs, _MAX_DEPTH, len(parts)),
                                             job_row.tolist(), job_sgn.tolist()):
            totals[:, row] += (flip if sgn < 0 else keep) * value
            records[row] += behind
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
    if region.cells and any(e.derived_from is None for c in region.cells for e in c.extra):
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
