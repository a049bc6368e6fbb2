"""Semi-algebraic regions with distinguished divisor coordinates.

A Region is a finite union of conjunctive constraint cells in R^n.  The
first p coordinates r_1..r_p carry the divisors H_i = {r_i = 0}; a face is
an intersection H_I.  For complex regions the ambient has paired (zr_i,
zi_i) coordinates, the divisor H_i is {zr_i = zi_i = 0} and D_i is
{zr_i = 1, zi_i = 0}.

Every verdict rests on one question per cell: is it empty, and what are
its affine hull and dimension; `_cell_hull` alone simplifies the cell and
finds the hull of a linear one.  A linear cell only has its equalities
propagated: the positivity pass of `simplify_cell` could only drop sign
rows that hold strictly on it, or find an emptiness that the hull's own
feasibility LP finds.  `_decide_cell` then settles the
dimension in this order, each step exact unless it is the last:

1. rank: a linear cell (after `simplify_cell`, or after the local
   rewrites of `certify.rewrite_nonlinear`) has dimension n minus the rank
   of its affine hull H (rational LP, implicit-equality detection);
2. interior: with no nonlinear equality, a rational point of the linear
   part P at which every nonlinear inequality is strict shows dim = dim H;
3. hypersurface: with one nonlinear equality g = 0, a rational point of
   the relative interior of P on g = 0, where every nonlinear inequality
   is strict and grad g is not normal to H, shows dim = dim H - 1;
4. probe: otherwise (existential auxiliaries, two or more nonlinear
   equalities, or no candidate point certified) a seeded
   sampling probe answers, and every verdict that used it carries a
   "heuristic" flag and names the faces it touched.

Steps 2 and 3 and the rewrites live in `logvol.certify`.

Linear constraints travel as integer rows (`Constraint.row`) through all
of it.  The LPs asked of one linear system share one phase 1
(`linprog.LinearSystem`): the feasibility and positivity LPs of a
`simplify_cell` round, the feasibility and row LPs of `_affine_hull_rows`,
and the 2n bounds of a cell in `Region._bounding_box`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import linprog
from .linprog import _as_integers, _reduced
from .polyform import Polynomial, parse_poly, power_table


class RegionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# constraints and cells


_UNSET = object()


class Constraint:
    """payload <= 0 or payload = 0, payload an exact Polynomial.

    A linear one, a.x + c, also travels as an integer row (`row`): a and
    -c times the lcm of their denominators, as `linprog` scales LP rows.
    Either form may be given; the other is built on first use."""

    __slots__ = ("_payload", "equality", "_row")

    def __init__(self, payload: Polynomial | None, equality: bool = False, row=_UNSET):
        self._payload = payload
        self.equality = bool(equality)
        self._row = row

    @property
    def payload(self) -> Polynomial:
        if self._payload is None:  # (a.x - b) / scale, for the row ((*a, b), scale)
            (*a, b), scale = self._row
            terms = {tuple(int(u == v) for u in range(len(a))): Fraction(x, scale)
                     for v, x in enumerate(a) if x}
            if b:
                terms[(0,) * len(a)] = Fraction(-b, scale)
            self._payload = Polynomial._of(len(a), terms)
        return self._payload

    @property
    def row(self) -> tuple | None:
        """(ints, scale) of a linear payload, None for a nonlinear one."""
        if self._row is _UNSET:
            aff = self._payload.as_affine()
            self._row = None if aff is None else _as_integers([*aff[0], -aff[1]])
        return self._row

    @property
    def nvars(self) -> int:
        return self._payload.nvars if self._payload is not None else len(self._row[0]) - 1

    def is_linear(self) -> bool:
        return self.row is not None

    def __eq__(self, other):
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.equality == other.equality and self.payload == other.payload

    def __hash__(self):
        return hash((self.equality, self.payload))

    def __repr__(self):
        op = "=" if self.equality else "<="
        return f"Constraint({self.payload!r} {op} 0)"


@dataclass(frozen=True)
class ExtraVar:
    """Auxiliary cell variable beyond the ambient coordinates, existentially
    quantified over [lo, hi]: the cell is the projection of the lifted
    constraint set to the ambient.
    """

    name: str
    lo: float
    hi: float


class Cell:
    __slots__ = ("constraints", "extra")

    def __init__(self, constraints: Sequence[Constraint], extra: Sequence[ExtraVar] = ()):
        self.constraints = list(constraints)
        self.extra = tuple(extra)

    def nvars_total(self, n: int) -> int:
        return n + len(self.extra)

    def is_linear(self) -> bool:
        return not self.extra and all(c.is_linear() for c in self.constraints)

    def __eq__(self, other):
        if not isinstance(other, Cell):
            return NotImplemented
        return self.constraints == other.constraints and self.extra == other.extra

    def __repr__(self):
        return f"Cell({self.constraints!r})"


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class DimResult:
    value: int
    heuristic: bool = False

    def __int__(self):
        return self.value


@dataclass
class AllowVerdict:
    ok: bool
    violations: list = field(default_factory=list)  # (face tuple 0-based, dim, need)
    heuristic: bool = False
    probed_faces: tuple = ()  # the faces (0-based tuples) whose answer used the probe

    def __bool__(self):
        return self.ok

    def __str__(self):
        tag = " [heuristic]" if self.heuristic else ""
        if self.probed_faces:
            tag += " probe on " + " ".join(
                "{" + ",".join(str(i + 1) for i in face) + "}" for face in self.probed_faces)
        if self.ok:
            return "ALLOWABLE" + tag
        face, dim, need = self.violations[0]
        ids = ",".join(str(i + 1) for i in face)
        return f"VIOLATED face={{{ids}}} dim={dim} need<{need}" + tag


@dataclass
class StrictVerdict:
    status: str  # "strict" | "not_strict" | "unknown"
    face: tuple | None = None          # the face tested
    contained_face: tuple | None = None  # face found inside the Zariski closure

    def __bool__(self):
        return self.status == "strict"

    def __str__(self):
        if self.status == "strict":
            return "STRICT"
        if self.status == "unknown":
            return "UNKNOWN (nonlinear cell)"
        ids = ",".join(str(i + 1) for i in self.contained_face)
        return f"NOT-STRICT contains face={{{ids}}}"


@dataclass
class FiberReport:
    verdict: str  # "finite" | "infinite" | "cap exceeded"
    max_count: int
    samples: int

    def __str__(self):
        if self.verdict == "finite":
            return f"max fiber count {self.max_count} over {self.samples} samples"
        if self.verdict == "infinite":
            return "infinite fiber witnessed"
        return f"cap exceeded (> {self.max_count})"


@dataclass(frozen=True)
class ProbeConfig:
    """The seed of the sampled dimension probe; its other settings are the
    module constants below."""

    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise RegionError("the probe seed must be nonnegative")


# The probe projects _SAMPLES random points onto the equalities and reads
# the local dimension off a cloud of _LOCAL_CLOUD points around each of
# the first _CENTERS accepted ones: the count of singular values above
# _THETA times the largest.  That cutoff must sit above the curvature scale
# radius/diameter of the manifolds probed; with a radius of
# diameter/_RADIUS_DIVISOR, 0.2 separates tangent directions from
# curvature for the unit-scale corpus.
_SAMPLES = 4096
_THETA = 0.2
_RADIUS_DIVISOR = 64.0
_CENTERS = 8
_LOCAL_CLOUD = 64
_NEWTON_ITERS = 30  # Gauss-Newton steps of the projection
_EQ_TOL = 1e-8  # residual to which an equality holds
_INEQ_TOL = 1e-7  # slack to which an inequality holds
_LENGTH_TOL = 1e-9  # relative length of a fiber interval that is not a point


# ---------------------------------------------------------------------------
# region


class Region:
    def __init__(
        self,
        n: int,
        p: int,
        cells: Sequence[Cell],
        kind: str = "real",
        box: Sequence | None = None,
        name: str = "",
    ):
        if kind not in ("real", "complex"):
            raise RegionError(f"unknown region kind {kind!r}")
        if kind == "real" and not 0 <= p <= n:
            raise RegionError("need 0 <= p <= n")
        if kind == "complex":
            if n % 2:
                raise RegionError("complex regions need an even ambient dimension")
            if not 0 <= p <= n // 2:
                raise RegionError("complex divisor count exceeds coordinate pairs")
        self.n = int(n)
        self.p = int(p)
        self.kind = kind
        self.cells = list(cells)
        self.box = None if box is None else [
            (lo if isinstance(lo, (Fraction, float)) else Fraction(lo),
             hi if isinstance(hi, (Fraction, float)) else Fraction(hi))
            for lo, hi in box
        ]
        self.name = name
        self._bbox = None
        self._box_memo = {}
        for cell in self.cells:
            for c in cell.constraints:
                if c.nvars != cell.nvars_total(self.n):
                    raise RegionError("constraint ambient does not match the cell")

    # -- naming ----------------------------------------------------------

    def var_names(self) -> list:
        if self.kind == "complex":
            names = []
            for i in range(self.n // 2):
                names += [f"zr{i + 1}", f"zi{i + 1}"]
            return names
        return [f"r{i + 1}" for i in range(self.p)] + [
            f"x{i + 1}" for i in range(self.p, self.n)
        ]

    def divisor_var_indices(self, i: int) -> list:
        """Ambient coordinate indices pinned to zero on H_{i} (0-based i)."""
        if self.kind == "complex":
            return [2 * i, 2 * i + 1]
        return [i]

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return (
            (self.n, self.p, self.kind) == (other.n, other.p, other.kind)
            and self.cells == other.cells
            and self.box == other.box
        )

    def __repr__(self):
        return f"Region(n={self.n}, p={self.p}, kind={self.kind}, cells={len(self.cells)})"

    # -- structural operations --------------------------------------------

    def with_cells(self, cells: Sequence[Cell]) -> "Region":
        return Region(self.n, self.p, cells, self.kind, self.box, self.name)

    def face_intersection(self, face: Iterable[int]) -> "Region":
        """Add the equalities of H_I to every cell (0-based indices)."""
        face = tuple(sorted(set(int(i) for i in face)))
        if any(not 0 <= i < self.p for i in face):
            raise RegionError(f"face index out of range: {face}")
        cells = []
        for cell in self.cells:
            nv = cell.nvars_total(self.n)
            new = list(cell.constraints)
            for i in face:
                for v in self.divisor_var_indices(i):
                    unit = [int(u == v) for u in range(nv)] + [0]
                    new.append(Constraint(None, True, (unit, 1)))
            cells.append(Cell(new, cell.extra))
        return Region(self.n, self.p, cells, self.kind, self.box, self.name)

    def add_cell_constraints(self, constraints: Sequence[Constraint]) -> "Region":
        cells = []
        for cell in self.cells:
            if cell.extra:
                raise RegionError("cannot extend cells carrying auxiliary variables")
            cells.append(Cell(list(cell.constraints) + list(constraints), cell.extra))
        return self.with_cells(cells)

    def substitute_coordinate(self, index: int, value) -> "Region":
        """Fix coordinate `index` to an exact value and drop it."""
        value = Fraction(value)
        cells = []
        for cell in self.cells:
            nv = cell.nvars_total(self.n)
            consts = []
            empty = False
            for c in cell.constraints:
                payload = c.payload.partial_eval({index: value}).drop_vars([index])
                if payload.is_constant():
                    v = payload.constant_value()
                    if (c.equality and v != 0) or (not c.equality and v > 0):
                        empty = True
                        break
                    continue
                consts.append(Constraint(payload, c.equality))
            if empty:
                continue
            cells.append(Cell(consts, cell.extra))
        new_p = self.p - 1 if index < self.p and self.kind == "real" else self.p
        box = None
        if self.box is not None:
            box = [b for i, b in enumerate(self.box) if i != index]
        return Region(self.n - 1, new_p, cells, self.kind, box, self.name)

    # -- boxes --------------------------------------------------------------

    def bounding_box(self) -> list:
        """The declared box, or an exact one from LPs for linear regions;
        computed on first use, each call returns a fresh list."""
        if self._bbox is None:
            self._bbox = self._bounding_box()
        return list(self._bbox)

    def _box_bounds(self, extra: tuple) -> tuple:
        """(lo, hi, rows) of the declared box over the ambient coordinates
        followed by the `extra` variables (a cell's tuple of ExtraVar):
        their Fraction bounds, and the integer rows (v, sign, bound,
        (a, scale)) of x_v <= hi and -x_v <= -lo, variable by variable.
        Built once per region and tuple of extras, as `Constraint.row` is
        once per constraint."""
        if extra not in self._box_memo:
            boxes = list(self.box) + [(e.lo, e.hi) for e in extra]
            lo = [Fraction(b[0]) for b in boxes]
            hi = [Fraction(b[1]) for b in boxes]
            rows = []
            for v in range(len(boxes)):
                for sign, bound in ((1, hi[v]), (-1, -lo[v])):
                    a = [0] * (len(boxes) + 1)
                    a[v], a[-1] = sign * bound.denominator, bound.numerator
                    rows.append((v, sign, bound, (a, bound.denominator)))
            self._box_memo[extra] = lo, hi, rows
        return self._box_memo[extra]

    def _bounding_box(self) -> list:
        if self.box is not None:
            return [(float(lo), float(hi)) for lo, hi in self.box]
        box = []
        systems = [None] * len(self.cells)  # one phase 1 per cell
        for v in range(self.n):
            lo_best = None
            hi_best = None
            obj = [Fraction(0)] * self.n
            obj[v] = Fraction(1)
            any_cell = False
            for i, cell in enumerate(self.cells):
                if not cell.is_linear():
                    raise RegionError(
                        "bounding box required: nonlinear cell without a declared box"
                    )
                if systems[i] is None:
                    ub, eq = _linear_system(self, cell)
                    systems[i] = linprog.LinearSystem(self.n, ub, a_eq=eq)
                hi = linprog.solve_lp(obj, system=systems[i], maximize=True)
                lo = linprog.solve_lp(obj, system=systems[i], maximize=False)
                if hi.status == linprog.INFEASIBLE:
                    continue
                any_cell = True
                if hi.status != linprog.OPTIMAL or lo.status != linprog.OPTIMAL:
                    raise RegionError("region is unbounded; declare a bounding box")
                hi_best = hi.value if hi_best is None else max(hi_best, hi.value)
                lo_best = lo.value if lo_best is None else min(lo_best, lo.value)
            if not any_cell:
                box.append((0.0, 0.0))
            else:
                box.append((float(lo_best), float(hi_best)))
        return box

    def cell_boxes(self, cell: Cell) -> list:
        """Box rows of the full (ambient + extra) variable list, as floats."""
        base = self.bounding_box()
        return base + [(float(e.lo), float(e.hi)) for e in cell.extra]

    # -- membership ----------------------------------------------------------

    def members(self, pts: np.ndarray) -> np.ndarray:
        """Boolean membership for an (N, n) array of ambient points; a cell
        with existential auxiliaries raises RegionError."""
        inside = np.zeros(pts.shape[0], dtype=bool)
        for cell in self.cells:
            inside |= _cell_members(self, cell, pts)
        return inside

    # -- dimension -------------------------------------------------------------

    def dimension(self, cfg: ProbeConfig | None = None) -> DimResult:
        cfg = cfg or ProbeConfig()
        best = -1
        heuristic = False
        for cell in self.cells:
            d, h = _cell_dimension(self, cell, cfg)
            heuristic = heuristic or h
            best = max(best, d)
        return DimResult(best, heuristic)

    # -- checkers ---------------------------------------------------------------

    def faces(self, nonempty_only: bool = True):
        idx = range(self.p)
        sizes = range(1 if nonempty_only else 0, self.p + 1)
        for k in sizes:
            for comb in combinations(idx, k):
                yield comb

    def is_allowable(self, faces: Iterable[tuple] | None = None,
                     cfg: ProbeConfig | None = None) -> AllowVerdict:
        """dim(A cap H_I) < dim H_I for the listed faces (default: all).

        A face J containing an already checked face I with A cap H_I exactly
        empty is skipped: H_J lies in H_I, so A cap H_J is empty too.
        """
        if self.kind == "complex":
            raise RegionError("allowability is defined for real regions")
        cfg = cfg or ProbeConfig()
        face_list = list(faces) if faces is not None else list(self.faces())
        violations = []
        probed = []
        empty = []  # faces I with A cap H_I exactly empty
        for face in face_list:
            face = tuple(sorted(face))
            if any(set(I) <= set(face) for I in empty):
                continue
            sub = self.face_intersection(face)
            d = sub.dimension(cfg)
            if d.heuristic:
                probed.append(face)
            elif d.value < 0:
                empty.append(face)
            need = self.n - len(face)
            if d.value >= need:
                violations.append((face, d.value, need))
        return AllowVerdict(not violations, violations, bool(probed), tuple(probed))

    def is_strictly_allowable(self, face: Iterable[int]) -> StrictVerdict:
        """Whether the Zariski closure of A cap H_F contains no face.

        Exact for piecewise-linear intersections (the closure of a convex
        polyhedral cell is its affine hull); nonlinear cells that cannot be
        proved empty give the verdict "unknown".
        """
        if self.kind == "complex":
            raise RegionError("strict allowability is defined for real regions")
        face = tuple(sorted(set(face)))
        sub = self.face_intersection(face)
        hulls = []
        for cell in sub.cells:
            hull = _cell_hull(sub, cell)
            if hull is None:
                continue
            if hull[1] is None:
                return StrictVerdict("unknown", face)
            hulls.append(hull[1])
        candidates = [
            J
            for k in range(0, self.p + 1)
            for J in combinations(range(self.p), k)
            if set(J) >= set(face)
        ]
        for rows in hulls:
            for J in candidates:
                if _hull_contains_face(rows, J, self.n):
                    return StrictVerdict("not_strict", face, tuple(J))
        return StrictVerdict("strict", face)

    def is_almost_strictly_allowable(self) -> StrictVerdict:
        """Strict allowability w.r.t. every proper face; it suffices to test
        the codimension-one faces (restriction passes to smaller faces)."""
        for i in range(self.p):
            v = self.is_strictly_allowable((i,))
            if v.status != "strict":
                return v
        return StrictVerdict("strict", None)

    def is_admissible(self, m: int, cfg: ProbeConfig | None = None,
                      memo: dict | None = None) -> AllowVerdict:
        """dim(A cap H_I minus D) <= m - 2|I| for every nonempty face.

        The removal of D = union {z_t = 1} is dimension-theoretic: a cell
        whose intersection with some D_t has the cell's full dimension is
        treated as lying inside D_t (exact for convex cells).  A gate that
        also asks meets_divisors_only_in_d passes both one `memo` dict, so
        each face is decided once (see _dims_outside_d).
        """
        if self.kind != "complex":
            raise RegionError("admissibility is defined for complex regions")
        nc = self.n // 2
        if not nc <= m <= 2 * nc:
            raise RegionError(f"need {nc} <= m <= {2 * nc}")
        cfg = cfg or ProbeConfig()
        violations = []
        probed = []
        # nonempty faces first, then the empty face (whose condition is the
        # global bound dim(A minus D) <= m)
        for face in list(self.faces()) + [()]:
            d_excl = -1
            for d, h in self._dims_outside_d(face, cfg, memo):
                if h and face not in probed:
                    probed.append(face)
                d_excl = max(d_excl, d)
            need = m - 2 * len(face)
            if d_excl >= 0 and d_excl > need:
                violations.append((face, d_excl, need + 1))
        return AllowVerdict(not violations, violations, bool(probed), tuple(probed))

    def meets_divisors_only_in_d(self, cfg: ProbeConfig | None = None,
                                 memo: dict | None = None) -> tuple:
        """(inside, used_heuristic): whether A cap (union H_i) is contained
        in D (dimension-detected), and whether that used the sampled probe.
        The answer is settled at the first cell found outside D.  `memo`
        is the per-face memo of a gate that also asks is_admissible."""
        if self.kind != "complex":
            raise RegionError("only meaningful for complex regions")
        cfg = cfg or ProbeConfig()
        heuristic = False
        for i in range(self.p):
            for d, h in self._dims_outside_d((i,), cfg, memo):
                heuristic = heuristic or h
                if d >= 0:
                    return False, heuristic
        return True, heuristic

    def _dims_outside_d(self, face: tuple, cfg: ProbeConfig, memo: dict | None = None):
        """For each cell of A cap H_face in turn: (its dimension, or -1 when
        it is empty or lies in D; whether deciding that used the probe).
        A face read to its end is stored in `memo`, which later reads of
        the face (with the same cfg) replay instead of deciding it again."""
        if memo is not None and face in memo:
            yield from memo[face]
            return
        answers = []
        sub = self.face_intersection(face)
        for cell in sub.cells:
            d, h, hull, _ = _decide_cell(sub, cell, cfg)
            if d >= 0:
                inside, h2 = (_hull_in_divisor_locus(sub, hull) if hull is not None
                              else _in_divisor_locus(sub, cell, d, cfg))
                d, h = (-1 if inside else d), h or h2
            answers.append((d, h))
            yield d, h
        if memo is not None:
            memo[face] = answers

    # -- fiber probe ---------------------------------------------------------

    def fiber_finiteness_probe(
        self,
        axis: int,
        samples: int = 64,
        cap: int = 64,
        seed: int = 0,
    ) -> FiberReport:
        """Sample base points and count connected components of the fibers
        along `axis`; an interval longer than _LENGTH_TOL times the box's
        largest side witnesses an infinite fiber.  The first sample, in
        draw order, that is infinite or over the cap decides the verdict,
        "infinite" before "cap exceeded" within one fiber."""
        from .slicing import sample_fibers

        scale = max(hi - lo for lo, hi in self.bounding_box()) + 1e-30
        a, b, owner = sample_fibers(self, axis, samples, seed)
        counts = np.bincount(owner, minlength=samples)
        infinite = np.bincount(owner, weights=b - a > _LENGTH_TOL * scale, minlength=samples) > 0
        decided = np.flatnonzero(infinite | (counts > cap))
        if len(decided):
            j = decided[0]
            if infinite[j]:
                return FiberReport("infinite", 0, samples)
            return FiberReport("cap exceeded", int(counts[j]), samples)
        return FiberReport("finite", int(counts.max(initial=0)), samples)

    # -- documents ------------------------------------------------------------

    def to_document(self) -> dict:
        names = self.var_names()
        doc = {
            "ambient_dim": self.n,
            "divisor_count": self.p,
            "complex": self.kind == "complex",
        }
        if self.name:
            doc["name"] = self.name
        if self.box is not None:
            doc["box"] = [[_num_out(lo), _num_out(hi)] for lo, hi in self.box]
        cells_doc = []
        for cell in self.cells:
            if cell.extra:
                raise RegionError("cells with auxiliary variables do not serialize")
            rows = []
            for c in cell.constraints:
                op = "=" if c.equality else "<="
                rows.append(f"{c.payload.to_text(names)} {op} 0")
            cells_doc.append({"constraints": rows})
        doc["cells"] = cells_doc
        return doc


def _num_out(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else str(v)
    return v


# ---------------------------------------------------------------------------
# parsing


_OPS = ["<=", ">=", "==", "="]


def parse_constraint(text: str, names: Sequence[str]) -> Constraint:
    op = None
    for cand in _OPS:
        if cand in text:
            op = cand
            break
    if op is None:
        raise RegionError(f"constraint {text!r} has no comparison operator")
    left, right = text.split(op, 1)
    lhs = parse_poly(left.strip(), names)
    rhs = parse_poly(right.strip(), names)
    if op == ">=":
        return Constraint(rhs - lhs, equality=False)
    return Constraint(lhs - rhs, equality=(op in ("=", "==")))


def parse_region(document) -> Region:
    """Region file: UTF-8 JSON with ambient_dim, divisor_count, complex,
    box and cells; see the README for the grammar."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise RegionError(f"malformed region document: {exc}") from exc
    else:
        doc = document
    try:
        n = int(doc["ambient_dim"])
        p = int(doc["divisor_count"])
    except KeyError as exc:
        raise RegionError(f"region document missing field {exc}") from exc
    kind = "complex" if doc.get("complex") else "real"
    if kind == "real" and p > n:
        raise RegionError("divisor_count exceeds ambient_dim")
    box = None
    if "box" in doc and doc["box"] is not None:
        box = []
        for lo, hi in doc["box"]:
            box.append((_num_in(lo), _num_in(hi)))
        if len(box) != n:
            raise RegionError("box length must equal ambient_dim")
    shell = Region(n, p, [], kind, box, doc.get("name", ""))
    names = shell.var_names()
    cells = []
    for cell_doc in doc.get("cells", []):
        constraints = [parse_constraint(s, names) for s in cell_doc["constraints"]]
        cells.append(Cell(constraints))
    return Region(n, p, cells, kind, box, doc.get("name", ""))


def _num_in(v):
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        return v
    return Fraction(v)


# ---------------------------------------------------------------------------
# exact machinery


def _linear_system(region: Region, cell: Cell):
    """(ub, eq): the integer rows (`Constraint.row`) of a.x <= b and a.x = b
    over the full cell variable list, box rows last.  A box row is left out
    when a row of the cell (an equality counts as two) already bounds that
    variable at least as tightly."""
    ub, eq = [], []
    for c in cell.constraints:
        if c.row is not None:
            (eq if c.equality else ub).append(c.row)
    if region.box is not None:
        own = [a for a, _ in ub + eq] + [[-x for x in a] for a, _ in eq]
        for v, sign, bound, row in region._box_bounds(cell.extra)[2]:
            if not _bounds_var(own, v, sign, bound):
                ub.append(row)
    return ub, eq


def _bounds_var(rows, v: int, sign: int, bound) -> bool:
    """Some integer row k * x_v <= b (no other variable) with sign * k > 0
    implies sign * x_v <= bound."""
    for a in rows:
        k = sign * a[v]
        if k > 0 and a[-1] <= k * bound and not any(c for i, c in enumerate(a[:-1]) if i != v):
            return True
    return False


def _slack(a, w) -> int:
    """b - a.x of the integer row a (rhs b last) at the witness w = (ints, q),
    the point ints / q, times q and the row's scale (both > 0, signs kept)."""
    ints, q = w
    return a[-1] * q - sum(map(mul, a, ints))


def _holds(system, w) -> bool:
    ub, eq = system
    return all(_slack(a, w) >= 0 for a, _ in ub) and all(_slack(a, w) == 0 for a, _ in eq)


def _affine_hull_rows(n: int, system, witnesses=()):
    """Equality rows (a, b) cutting out the affine hull of a feasible linear
    cell, a.x = b over the first n (ambient) columns, each a positive
    multiple of its Fraction row.  Returns None when the cell is infeasible.

    The given `witnesses` that satisfy the system exactly are its first
    feasible points; only when none does is one solved for.  Each LP
    optimum joins them: a row a.x <= b with a.w < b at some witness w is
    not an implicit equality, so its LP is skipped.  All the LPs share one
    phase 1.
    """
    ub, eq = system
    nv = len((ub + eq)[0][0]) - 1 if ub or eq else n
    lp = linprog.LinearSystem(nv, ub, a_eq=eq)
    witnesses = [w for w in witnesses if _holds(system, w)]
    if not witnesses:
        first = linprog.feasible_point(lp)
        if first is None:
            return None
        witnesses.append(_as_integers(first))
    rows = [a for a, _ in eq]
    for a, s in ub:
        if not any(a[:-1]) or any(_slack(a, w) > 0 for w in witnesses):
            continue
        res = linprog.solve_lp([Fraction(-v, s) for v in a[:-1]], system=lp)
        if res.status != linprog.OPTIMAL:
            continue
        witnesses.append(_as_integers(res.point))
        if a[-1] + s * res.value == 0:
            rows.append(a)
    return [(a[:n], a[-1]) for a in rows]


def _hull_contains_face(rows, J, n) -> bool:
    """H_J = {x_j = 0, j in J} lies in every hyperplane {a.x = b} of rows."""
    J = set(J)
    for a, b in rows:
        if b != 0:
            return False
        for i, coef in enumerate(a):
            if coef != 0 and i not in J:
                return False
    return True


def _cell_hull(region: Region, cell: Cell, found: list | None = None):
    """None when the cell is empty, else (simplified cell, the equality
    rows (a, b) of its affine hull over the ambient coordinates, or None
    when the simplified cell is not linear).  The feasible points
    `simplify_cell` found are appended to `found`, when given.

    A linear cell only has its equalities propagated: on it the positivity
    pass of `simplify_cell` can only drop a sign row that holds strictly
    on the cell, or find an emptiness that the hull's own feasibility LP
    finds, so `_affine_hull_rows` decides emptiness and the hull on one
    system."""
    found = [] if found is None else found
    simp = _propagated(cell, region.n) if cell.is_linear() else simplify_cell(region, cell, found)
    if simp is None:
        return None
    if not simp.is_linear():
        return simp, None
    rows = _affine_hull_rows(region.n, _linear_system(region, simp), found)
    if rows is None:
        return None
    return simp, rows


# ---------------------------------------------------------------------------
# constraint simplification


def _positive_on_cell(region: Region, cell: Cell, var: int, lp, witnesses: list) -> bool:
    """Certify var > 0 on the cell via its linear subsystem, the
    `linprog.LinearSystem` lp, plus a one-step interval bound from
    constraints of the form c - k * monomial <= 0.

    `witnesses` are feasible points of lp.  One with w[var] <= 0 already
    bounds min var by 0, so the min-LP is skipped; otherwise the LP runs
    and its optimum joins the witnesses.
    """
    if all(w[0][var] > 0 for w in witnesses):
        obj = [0] * cell.nvars_total(region.n)
        obj[var] = 1
        res = linprog.solve_lp(obj, system=lp, maximize=False)
        if res.status == linprog.INFEASIBLE:
            return False
        if res.status == linprog.OPTIMAL:
            witnesses.append(_as_integers(res.point))
            if res.value > 0:
                return True
    return _positive_by_intervals(region, cell, var)


def _positive_by_intervals(region: Region, cell: Cell, var: int) -> bool:
    """Interval pass: c <= k * prod x^e with positive constant c forces each
    participating nonnegative variable away from zero once the others are
    bounded above by the box."""
    if region.box is None:
        return False
    lo, hi, _ = region._box_bounds(cell.extra)
    if lo[var] > 0:
        return True
    if lo[var] < 0:
        return False
    for c in cell.constraints:
        if c.equality or len(c.payload.terms) != 2:
            continue
        terms = sorted(c.payload.terms.items(), key=lambda t: sum(t[0]))
        (e0, c0), (e1, c1) = terms
        if any(e != 0 for e in e0):
            continue
        # c0 - |c1| * x^e1 <= 0 with c0 > 0
        if c0 <= 0 or c1 >= 0:
            continue
        if e1[var] == 0:
            continue
        bound = c0 / (-c1)
        ok = True
        for i, e in enumerate(e1):
            if i == var or e == 0:
                continue
            if lo[i] < 0 or hi[i] <= 0:
                ok = False
                break
            bound /= hi[i] ** e
        if ok and bound > 0:
            return True
    return False


def simplify_cell(region: Region, cell: Cell, found: list | None = None) -> Cell | None:
    """Equivalent cell with linear equalities propagated, constants
    resolved and certified-positive monomial factors divided out.
    Returns None when the cell is provably empty.

    Each round runs `_propagate`, then the positivity pass, whose
    feasibility and positivity LPs share one phase 1.  The feasible points
    of linear subsystems met on the way are appended to `found`, when
    given, as witnesses (ints, q) of ints / q; those that satisfy the
    returned cell's linear system spare `_affine_hull_rows` its first LP."""
    constraints = list(cell.constraints)
    nv = cell.nvars_total(region.n)
    solved: set[int] = set()
    proven = None  # the constraint list last shown feasible
    witnesses = []  # feasible points of the linear subsystem
    for _ in range(max(8, 2 * len(constraints))):
        step = _propagate(constraints, nv, solved)
        if step is None:
            return None
        constraints, changed = step

        # divide out certified-positive monomial factors.  Feasible points
        # of the round's linear system settle most positivity LPs; they are
        # kept across rounds while they still satisfy the system, and an
        # infeasible system makes the cell empty (no later step enlarges it)
        probe_cell = Cell(constraints, cell.extra)
        contents = [_content(c) for c in constraints]
        if any(any(e) for e in contents):
            system = _linear_system(region, probe_cell)
            lp = linprog.LinearSystem(nv, system[0], a_eq=system[1])
            witnesses = [w for w in witnesses if _holds(system, w)]
            if not witnesses and (system[0] or system[1]):
                point = linprog.feasible_point(lp)
                if point is None:
                    return None
                witnesses.append(_as_integers(point))
            if witnesses:
                proven = constraints
        new_constraints = []
        for c, content in zip(constraints, contents):
            if not content:  # the zero payload
                changed = True
                continue
            divisor = [0] * nv
            for v, e in enumerate(content):
                if e > 0 and _positive_on_cell(region, probe_cell, v, lp, witnesses):
                    divisor[v] = e
            if any(divisor):  # a linear k x_v becomes the constant k
                c = (Constraint(c.payload.divide_monomial(divisor), c.equality) if c.row is None
                     else Constraint(None, c.equality, ([0] * nv + [-c.row[0][divisor.index(1)]],
                                                        c.row[1])))
                changed = True
            new_constraints.append(c)
        if not changed:
            break
        constraints = new_constraints

    # exact infeasibility of the linear subsystem settles emptiness, unless
    # the last round already found a point of this very system
    probe_cell = Cell(constraints, cell.extra)
    if constraints is not proven:
        ub, eq = _linear_system(region, probe_cell)
        if ub or eq:
            point = linprog.feasible_point(linprog.LinearSystem(nv, ub, a_eq=eq))
            if point is None:
                return None
            witnesses.append(_as_integers(point))
    if found is not None:
        found.extend(witnesses)
    return probe_cell


def _propagate(constraints: list, nv: int, solved: set):
    """One round of the linear rewrites of a cell's constraints: constant
    rows resolved, then one linear equality e.x = e_b propagated on a
    pivot not in `solved`, which gains it.  (constraints, changed), or None
    when a constant row fails.

    Linear constraints are worked on as integer rows (`Constraint.row`),
    one row operation each; only nonlinear ones are composed."""
    changed = False
    kept = []
    for c in constraints:
        if c.row is not None and not any(c.row[0][:-1]):
            if c.row[0][-1] < 0 or (c.equality and c.row[0][-1]):
                return None
            changed = True
            continue
        kept.append(c)
    constraints = kept

    for idx, c in enumerate(constraints):
        if not c.equality or c.row is None:
            continue
        e = c.row[0]
        pivot = next((v for v in range(nv) if e[v] and v not in solved), None)
        if pivot is None:
            continue
        comps = None
        new_constraints = []
        for j, other in enumerate(constraints):
            row = other.row
            if j != idx and (row[0][pivot] if row else other.payload.uses_var(pivot)):
                if row:  # a - (a_pivot / e_pivot) e, over the scale s * e_pivot
                    (a, s), p = row, e[pivot]
                    other = Constraint(None, other.equality, _reduced(
                        [x * p - a[pivot] * y for x, y in zip(a, e)], s * p))
                else:
                    if comps is None:  # x_pivot = (e_b - sum_{v != pivot} e_v x_v) / e_pivot
                        comps = [Polynomial.var(nv, v) for v in range(nv)]
                        comps[pivot] = Constraint(None, row=(
                            [x * (v != pivot) for v, x in enumerate(e)], -e[pivot])).payload
                    other = Constraint(other.payload.compose(comps), other.equality)
                changed = True
            new_constraints.append(other)
        constraints = new_constraints
        solved.add(pivot)
        if changed:
            break
    return constraints, changed


def _propagated(cell: Cell, n: int) -> Cell | None:
    """The cell after `_propagate` rounds until one changes nothing (each
    round that changes drops a row or solves a pivot), or None when a
    constant row fails."""
    constraints, solved, changed = list(cell.constraints), set(), True
    while changed:
        step = _propagate(constraints, cell.nvars_total(n), solved)
        if step is None:
            return None
        constraints, changed = step
    return Cell(constraints, cell.extra)


def _content(c: Constraint) -> tuple:
    """The content monomial of c's payload, () for the zero payload: a
    linear one has one only when it is a multiple of one variable."""
    if c.row is None:
        return c.payload.content_monomial()
    *a, b = c.row[0]
    unit = not b and sum(map(bool, a)) == 1
    return tuple(int(unit and x != 0) for x in a) if b or any(a) else ()


# ---------------------------------------------------------------------------
# sampled dimension probe


def _cell_members(region: Region, cell: Cell, pts: np.ndarray) -> np.ndarray:
    """Membership of ambient points; a cell with existential extras has no
    pointwise membership test."""
    if cell.extra:
        raise RegionError("cannot test membership in a cell with existential variables")
    return _eval_constraints(cell, pts)


def _eval_constraints(cell: Cell, full: np.ndarray, eq_tol_scale: float = 1.0) -> np.ndarray:
    ok = np.ones(full.shape[0], dtype=bool)
    for c in cell.constraints:
        vals = c.payload.eval_many(full)
        if c.equality:
            ok &= np.abs(vals) <= _EQ_TOL * eq_tol_scale
        else:
            ok &= vals <= _INEQ_TOL
    return ok


def _newton_project(cell: Cell, region: Region, pts: np.ndarray) -> np.ndarray:
    """Project points onto the zero set of the cell's equality constraints.

    Gauss-Newton with the minimum-norm step, batched over all points.
    """
    eqs = [c.payload for c in cell.constraints if c.equality]
    if not eqs:
        return pts
    total = pts.shape[1]
    # the equalities, then their partials, as columns of one power table:
    # each is summed as eval_many sums it, bit for bit, from its own columns
    # taken C-ordered (einsum rounds an F-ordered fancy-index slice otherwise)
    rows: dict = {}
    cols = [([rows.setdefault(e, len(rows)) for e in map(tuple, g_exps.tolist())], coeffs)
            for g_exps, coeffs in (g.float_form() for g in
                                   eqs + [g.partial(v) for g in eqs for v in range(total)])]
    exps = np.array(list(rows), dtype=np.int64).reshape(len(rows), total)

    def values(table, part):
        return np.stack([np.einsum("km,m->k", table.take(idx, axis=1), coeffs)
                         for idx, coeffs in part], axis=1)

    out = pts.copy()
    k = len(eqs)
    eye = np.eye(k)
    for _ in range(_NEWTON_ITERS):
        table = power_table(out, exps)
        gvals = values(table, cols[:k])  # (N, k)
        if np.max(np.abs(gvals)) < _EQ_TOL * 0.1:
            break
        jac = values(table, cols[k:]).reshape(len(out), k, total)
        gram = jac @ np.transpose(jac, (0, 2, 1)) + 1e-12 * eye
        y = np.linalg.solve(gram, gvals[:, :, None])
        out -= (np.transpose(jac, (0, 2, 1)) @ y)[:, :, 0]  # (N, total)
    return out


def _cell_dimension(region: Region, cell: Cell, cfg: ProbeConfig):
    """(dimension, used_heuristic) of one cell, as `_decide_cell` settles it."""
    return _decide_cell(region, cell, cfg)[:2]


def _in_divisor_locus(region: Region, cell: Cell, dim: int, cfg: ProbeConfig):
    """(inside, used_heuristic): whether the cell, of dimension dim, lies in
    some D_t = {z_t = 1} in the dimension-theoretic sense, i.e. its
    intersection with D_t keeps the full dimension."""
    nv = cell.nvars_total(region.n)
    heuristic = False
    for t in range(region.n // 2):
        dt = [
            Constraint(Polynomial.var(nv, 2 * t) - 1, equality=True),
            Constraint(Polynomial.var(nv, 2 * t + 1), equality=True),
        ]
        d_dt, h = _cell_dimension(region, Cell(list(cell.constraints) + dt, cell.extra), cfg)
        heuristic = heuristic or h
        if d_dt == dim:
            return True, heuristic
    return False, heuristic


def _hull_in_divisor_locus(region: Region, hull: list):
    """_in_divisor_locus of a cell of dimension dim H, H its affine hull
    given by the equality rows `hull`: then cell cap D_t keeps the cell's
    dimension exactly when H lies in D_t, that is when the rows of
    zr_t = 1 and zi_t = 0 are in the row span of H's (rhs included)."""
    mat = [[*a, b] for a, b in hull]
    rank = linprog.rank_of_rows(mat) if mat else 0
    for t in range(region.n // 2):
        d_t = [[int(v == 2 * t) for v in range(region.n)] + [1],
               [int(v == 2 * t + 1) for v in range(region.n)] + [0]]
        if linprog.rank_of_rows(mat + d_t) == rank:
            return True, False
    return False, False


# ---------------------------------------------------------------------------
# deciding a cell's dimension


class _Decision(NamedTuple):
    """How `_decide_cell` settled one cell: its dimension; whether the
    sampled probe gave it; the equality rows (a, b) of the cell's affine
    hull H when the cell is known to fill H (the rank and interior paths),
    else None; and the path, "empty", "rank", "interior", "hypersurface" or
    "probe"."""

    dim: int
    probed: bool
    hull: list | None
    path: str


def _decide_cell(region: Region, cell: Cell, cfg: ProbeConfig) -> _Decision:
    """The dimension of one cell, decided in the order the module docstring
    gives: rank, interior, hypersurface, probe.  The cell is simplified
    once; the certificates reuse the simplified cell and the feasible
    points `simplify_cell` found."""
    found = []
    hull = _cell_hull(region, cell, found)
    if hull is None:
        return _Decision(-1, False, None, "empty")
    simp, rows = hull
    if rows is not None:
        return _Decision(region.n - _hull_rank(rows), False, rows, "rank")
    # imported here: a run that meets no nonlinear cell never loads it
    from .certify import certify_cell

    decision = None if simp.extra else certify_cell(region, simp, found)
    return decision or _Decision(_probe_cell_dimension(region, simp, cfg), True, None, "probe")


def _hull_rank(rows) -> int:
    return linprog.rank_of_rows([a for a, _ in rows if any(a)])


def _probe_cell_dimension(region: Region, cell: Cell, cfg: ProbeConfig) -> int:
    n = region.n
    boxes = region.cell_boxes(cell)
    total = cell.nvars_total(n)
    lo = np.array([b[0] for b in boxes])
    hi = np.array([b[1] for b in boxes])
    diam = float(np.linalg.norm(hi - lo)) or 1.0
    radius = diam / _RADIUS_DIVISOR
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))

    pts = _newton_project(cell, region, rng.uniform(lo, hi, size=(_SAMPLES, total)))
    good = _eval_constraints(cell, pts, eq_tol_scale=10.0)
    inside_box = np.all((pts >= lo - radius) & (pts <= hi + radius), axis=1)
    accepted = pts[good & inside_box]
    if accepted.shape[0] == 0:
        return -1

    best = 0
    centers = accepted[:_CENTERS]
    for center in centers:
        ball = rng.uniform(-radius, radius, size=(_LOCAL_CLOUD, total))
        cloud = center[None, :] + ball
        np.clip(cloud, lo, hi, out=cloud)
        cloud = _newton_project(cell, region, cloud)
        keep = _eval_constraints(cell, cloud, eq_tol_scale=10.0)
        keep &= np.linalg.norm(cloud - center[None, :], axis=1) <= 2.5 * radius
        local = cloud[keep]
        if local.shape[0] < max(4, n + 1):
            continue
        disp = (local - local.mean(axis=0)) / radius
        disp = disp[:, :n]  # dimension of the projection to the ambient block
        sv = np.linalg.svd(disp, compute_uv=False)
        if sv.size == 0 or sv[0] == 0:
            continue
        dim = int(np.sum(sv >= _THETA * sv[0]))
        best = max(best, dim)
    return best


# ---------------------------------------------------------------------------
# linear variable elimination (projection of polyhedral cells)


def eliminate_var_linear(constraints: Sequence[Constraint], var: int, nv: int):
    """Fourier-Motzkin style exact elimination of one variable.

    Requires the variable to enter every constraint affinely with a constant
    coefficient.  Returns the new constraint list (still over nv variables,
    with `var` unused) or None when elimination is not possible.
    """
    with_var = []
    without = []
    for c in constraints:
        if not c.payload.uses_var(var):
            without.append(c)
            continue
        if c.payload.degree_in(var) > 1:
            return None
        coef_poly = c.payload.partial(var)
        if not coef_poly.is_constant():
            return None
        coef = coef_poly.constant_value()
        rest = c.payload.partial_eval({var: 0})
        with_var.append((coef, rest, c.equality))
    # a linear equality solves the variable outright
    for pos, (coef, rest, eq) in enumerate(with_var):
        if eq:
            expr = rest * (Fraction(-1) / coef)
            out = list(without)
            for pos2, (coef2, rest2, eq2) in enumerate(with_var):
                if pos2 == pos:
                    continue
                out.append(Constraint(rest2 + coef2 * expr, eq2))
            return out
    lowers = []  # var >= expr
    uppers = []  # var <= expr
    for coef, rest, _ in with_var:
        expr = rest * (Fraction(-1) / coef)
        if coef > 0:
            uppers.append(expr)
        else:
            lowers.append(expr)
    out = list(without)
    for lo_e in lowers:
        for up_e in uppers:
            out.append(Constraint(lo_e - up_e, equality=False))
    return out
