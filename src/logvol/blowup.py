"""Blow-ups of coordinate faces: towers, strict transforms, properness.

A face blow-up with center {i1 < ... < ik} (k >= 2, divisor coordinates)
produces k monomial charts; the pivot-l chart substitutes r_i <- r_l * r_i
for the other center coordinates and keeps r_l, whose vanishing locus is
the exceptional divisor there.  Towers store fully composed maps to the
base, so pullbacks and preimages are single substitutions.

Chart boxes tile: the pivot coordinate inherits the parent range and every
other center coordinate becomes a ratio in [-1, 1] (clipped to the parent
sign), so distinct leaf charts overlap only where some ratio is +-1, a
measure-zero set.  Summed leaf integrals therefore reproduce the base
integral without explicit overlap excision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linprog
from .polyform import LogForm, MonomialMap, Polynomial, newton_exponents
from .region import (
    Cell,
    Constraint,
    ProbeConfig,
    Region,
    RegionError,
    simplify_cell,
    _cell_hull,
)


class BlowupError(ValueError):
    pass


@dataclass
class Chart:
    id: str
    map: MonomialMap                  # chart coordinates -> base coordinates
    local_map: MonomialMap            # chart coordinates -> parent coordinates
    exceptional: frozenset            # chart divisor coords that are exceptional
    parent: str | None
    pivot: int | None                 # center coordinate kept by this chart
    box: list                         # per-coordinate (lo, hi)


class BlowupTower:
    def __init__(self, n: int, p: int, base_box: Sequence | None = None):
        self.n = int(n)
        self.p = int(p)
        if base_box is None:
            base_box = [(Fraction(0), Fraction(1))] * n
        box = [(Fraction(lo) if not isinstance(lo, float) else lo,
                hi if isinstance(hi, float) else Fraction(hi))
               for lo, hi in base_box]
        root = Chart("0", MonomialMap.identity(n), MonomialMap.identity(n),
                     frozenset(), None, None, box)
        self.charts: dict[str, Chart] = {"0": root}
        self.children: dict[str, list] = {"0": []}
        self.stages: list = []  # (chart_id, center tuple, child ids)
        self.log: list = []
        self.failed: bool = False
        self.failure: str = ""

    # -- structure -----------------------------------------------------------

    def leaves(self) -> list:
        return [c for cid, c in sorted(self.charts.items()) if not self.children[cid]]

    def depth(self) -> int:
        def chain(cid):
            kids = self.children[cid]
            if not kids:
                return 0
            return 1 + max(chain(k) for k in kids)

        return chain("0")

    def blow_up(self, chart_id: str, center: Sequence[int]) -> list:
        """Append one permissible blow-up stage; returns the new chart ids."""
        center = tuple(sorted(set(int(i) for i in center)))
        if len(center) < 2:
            raise BlowupError("permissible centers have codimension >= 2")
        if any(not 0 <= i < self.p for i in center):
            raise BlowupError(f"center {center} is not inside the divisor block")
        if chart_id not in self.charts:
            raise BlowupError(f"unknown chart {chart_id!r}")
        if self.children[chart_id]:
            raise BlowupError(f"chart {chart_id!r} was already blown up")
        parent = self.charts[chart_id]
        new_ids = []
        for pivot in center:
            local = _pivot_chart(self.n, center, pivot)
            composed = parent.map.compose(local)
            box = []
            for v in range(self.n):
                lo, hi = parent.box[v]
                if v in center and v != pivot:
                    lo_r = Fraction(-1) if lo < 0 else Fraction(0)
                    hi_r = Fraction(1) if hi > 0 else Fraction(0)
                    box.append((lo_r, hi_r))
                else:
                    box.append((lo, hi))
            cid = f"{chart_id}/{pivot + 1}"
            chart = Chart(cid, composed, local,
                          parent.exceptional | {pivot}, chart_id, pivot, box)
            self.charts[cid] = chart
            self.children[cid] = []
            self.children[chart_id].append(cid)
            new_ids.append(cid)
        self.stages.append((chart_id, center, new_ids))
        return new_ids

    # -- reports ----------------------------------------------------------------

    def serialize(self, names: Sequence[str] | None = None) -> str:
        names = names or [f"r{i + 1}" for i in range(self.p)] + [
            f"x{i + 1}" for i in range(self.p, self.n)
        ]
        lines = []
        for k, (chart_id, center, kids) in enumerate(self.stages):
            ids = ",".join(str(i + 1) for i in center)
            lines.append(f"stage {k + 1}: chart {chart_id} center {{{ids}}}")
            for cid in kids:
                chart = self.charts[cid]
                subs = []
                for v in range(self.n):
                    coeff, exps = chart.local_map.components[v]
                    mono = Polynomial.monomial(self.n, exps, coeff)
                    subs.append(f"{names[v]} <- {mono.to_text(names)}")
                lines.append(f"  chart {cid}: " + ", ".join(subs))
        if not self.stages:
            lines.append("empty tower")
        if self.failed:
            lines.append(f"FAILED: {self.failure}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        lines = ["digraph tower {"]
        for cid, chart in sorted(self.charts.items()):
            exc = ",".join(str(i + 1) for i in sorted(chart.exceptional))
            lines.append(f'  "{cid}" [label="{cid}\\nexc={{{exc}}}"];')
        for cid, kids in sorted(self.children.items()):
            for k in kids:
                lines.append(f'  "{cid}" -> "{k}";')
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# transforms


def strict_transform(f: Polynomial, chart: Chart) -> Polynomial:
    """Pull back along the chart and divide out the exceptional monomial."""
    if f.is_zero():
        raise BlowupError("the zero polynomial has no strict transform")
    return _strict_part(f, chart.map, chart.exceptional)


def _strict_part(f: Polynomial, chart_map: MonomialMap, exceptional) -> Polynomial:
    """f composed with chart_map, with the content of the exceptional
    coordinates divided out."""
    total = f.compose([chart_map.component_poly(i) for i in range(chart_map.n_target)])
    content = total.content_monomial()
    divisor = [content[v] if v in exceptional else 0 for v in range(chart_map.n_source)]
    if any(divisor):
        total = total.divide_monomial(divisor)
    return total


def preimage_region(region: Region, chart: Chart, box: Sequence | None = None) -> Region:
    """mu^-1(A) within the chart, cut to the chart box (appended as
    constraints so the leaf pieces tile the preimage)."""
    if region.kind != "real":
        raise RegionError("blow-up preimages are defined for real regions")
    if region.n != chart.map.n_target:
        raise BlowupError("chart and region dimensions differ")
    n = region.n
    comps = [chart.map.component_poly(i) for i in range(n)]
    chart_box = box if box is not None else chart.box
    shell = Region(n, region.p, [], "real", chart_box, region.name)
    cells = []
    for cell in region.cells:
        if cell.extra:
            raise RegionError("cells with auxiliary variables have no preimage")
        consts = [
            Constraint(c.payload.compose(comps), c.equality) for c in cell.constraints
        ]
        for v, (lo, hi) in enumerate(chart_box):
            var = Polynomial.var(n, v)
            consts.append(Constraint(var - Fraction(hi), equality=False))
            consts.append(Constraint(Fraction(lo) - var, equality=False))
        simp = simplify_cell(shell, Cell(consts))
        if simp is not None:
            cells.append(simp)
    return Region(n, region.p, cells, "real", chart_box, region.name)


# ---------------------------------------------------------------------------
# properness (Newton polyhedron descent)


def _min_degree_over(f: Polynomial, divisors: Sequence[int]) -> int:
    return min(sum(exp[i] for i in divisors) for exp in f.terms)


def _is_proper(f: Polynomial, divisors: Sequence[int]) -> bool:
    return _min_degree_over(f, divisors) == 0


def _pivot_chart(n: int, center, pivot: int) -> MonomialMap:
    """The chart of the blow-up along `center` that keeps `pivot`:
    r_v -> r_v r_pivot for the other center coordinates, the rest fixed."""
    comps = []
    for v in range(n):
        exps = [0] * n
        exps[v] = 1
        if v in center and v != pivot:
            exps[pivot] += 1
        comps.append((Fraction(1), tuple(exps)))
    return MonomialMap(n, comps)


def make_proper(f: Polynomial, p: int, cap: int = 64,
                base_box: Sequence | None = None,
                divisors: Sequence[int] | None = None) -> BlowupTower:
    """Blow up codimension-two faces until the strict transform of f has a
    nonzero constant term in the divisor coordinates in every leaf chart.

    Greedy descent: among centers {i, j} pick the one whose worst child
    minimizes the remaining minimum total divisor degree (ties broken
    lexicographically).  Aborts with a failure flag after `cap` stages.
    """
    if f.is_zero():
        raise BlowupError("cannot make the zero polynomial proper")
    n = f.nvars
    if not 0 <= p <= n:
        raise BlowupError(f"divisor count {p} outside 0..{n}")
    divisors = tuple(divisors) if divisors is not None else tuple(range(p))
    if any(not 0 <= i < p for i in divisors):
        raise BlowupError(f"divisor indices {divisors} outside 0..{p - 1}")
    content = f.content_monomial()
    for i in divisors:
        if content[i] > 0:
            raise BlowupError(
                f"polynomial is divisible by divisor coordinate {i + 1}"
            )
    tower = BlowupTower(n, p, base_box)
    queue = ["0"]
    while queue:
        cid = queue.pop(0)
        g = strict_transform(f, tower.charts[cid])
        if _is_proper(g, divisors):
            continue
        if len(tower.stages) >= cap:
            tower.failed = True
            tower.failure = f"stage cap {cap} exceeded"
            return tower
        cur = _min_degree_over(g, divisors)
        best = None
        for center in combinations(divisors, 2):
            # the strict transform of g in each child chart
            worst = max(
                _min_degree_over(
                    _strict_part(g, _pivot_chart(n, center, pivot), {pivot}), divisors
                )
                for pivot in center
            )
            score = cur - worst
            if best is None or score > best[0]:
                best = (score, center)
        _, center = best
        queue.extend(tower.blow_up(cid, center))
    return tower


def verify_proper(f: Polynomial, tower: BlowupTower,
                  divisors: Sequence[int] | None = None) -> bool:
    """Independent re-scan: the zero exponent vector lies in the divisor
    support of the strict transform in every leaf chart."""
    divisors = tuple(divisors) if divisors is not None else tuple(range(tower.p))
    for chart in tower.leaves():
        g = strict_transform(f, chart)
        nd = newton_exponents(g, tower.p)
        if not any(all(pt[i] == 0 for i in divisors) for pt in nd.points):
            return False
    return True


# ---------------------------------------------------------------------------
# witness checks for the strictness induction


def _vanishes_on_cell_hull(region: Region, cell: Cell, poly: Polynomial) -> bool:
    hull = _cell_hull(region, cell)
    if hull is None:
        return True  # empty cell: vacuous
    rows = hull[1]
    if rows is None:
        raise BlowupError("witness verification needs piecewise-linear intersections")
    hom = [a for a, _ in rows]
    rhs = [b for _, b in rows]
    x0 = linprog.particular_solution(hom, rhs, region.n)
    if x0 is None:
        return True
    basis = linprog.nullspace_basis(hom, region.n)
    k = len(basis)
    comps = []
    for v in range(region.n):
        terms = {(0,) * k: Fraction(x0[v])}
        for t, vec in enumerate(basis):
            if vec[v] != 0:
                e = [0] * k
                e[t] = 1
                terms[tuple(e)] = Fraction(vec[v])
        comps.append(Polynomial(max(k, 0), terms) if k else Polynomial.const(0, x0[v]))
    if k == 0:
        return poly.eval(x0) == 0
    return poly.compose(comps).is_zero()


def _witness_for_face(region: Region, face, witnesses, p) -> Polynomial | None:
    """A polynomial vanishing on A cap H_face whose restriction to the face
    is nonzero and not divisible by any remaining divisor coordinate."""
    sub = region.face_intersection(face)
    for w in witnesses:
        restricted = w.partial_eval({i: 0 for i in face})
        if restricted.is_zero():
            continue
        content = restricted.content_monomial()
        if any(content[i] > 0 for i in range(p) if i not in face):
            continue
        if all(_vanishes_on_cell_hull(sub, cell, w) for cell in sub.cells):
            return w
    return None


def make_almost_strictly_allowable(
    region: Region,
    witnesses: Sequence[Polynomial],
    cap: int = 64,
    probe: ProbeConfig | None = None,
) -> BlowupTower:
    """Ascending-dimension induction: while a face of dimension d fails
    strictness in some leaf chart, blow up with centers lifted from a
    properness run of a caller-supplied witness restricted to that face.

    The failing-face counter at fixed dimension strictly decreases per
    iteration (recorded in tower.log); the run fails loudly when no
    supplied witness fits or the cap is reached.
    """
    n, p = region.n, region.p
    verdict = region.is_allowable(cfg=probe)
    if verdict.heuristic:
        raise BlowupError("precondition: allowability could only be checked heuristically")
    if not verdict.ok:
        raise BlowupError(f"precondition: region is not allowable ({verdict})")
    box = region.bounding_box()
    tower = BlowupTower(n, p, box)

    def failing_faces(d: int) -> list:
        out = []
        size = n - d
        if not 1 <= size <= p:
            return out
        for chart in tower.leaves():
            pre = preimage_region(region, chart)
            for face in combinations(range(p), size):
                v = pre.is_strictly_allowable(face)
                if v.status == "unknown":
                    raise BlowupError(
                        f"nonlinear intersection at face {face} in chart {chart.id}; "
                        "exact strictness undecidable"
                    )
                if v.status == "not_strict":
                    out.append((chart.id, face))
        return out

    for d in range(n - p, n):
        while True:
            failing = failing_faces(d)
            tower.log.append({"d": d, "failing": len(failing)})
            if not failing:
                break
            if len(tower.stages) >= cap:
                tower.failed = True
                tower.failure = f"stage cap {cap} exceeded at dimension {d}"
                return tower
            chart_id, face = failing[0]
            chart = tower.charts[chart_id]
            pre = preimage_region(region, chart)
            local = [strict_transform(w, chart) for w in witnesses]
            w = _witness_for_face(pre, face, local, p)
            if w is None:
                raise BlowupError(f"missing witness for face {tuple(i + 1 for i in face)}")
            restricted = w.partial_eval({i: 0 for i in face})
            face_divisors = tuple(i for i in range(p) if i not in face)
            sub = make_proper(restricted, p, cap=cap, base_box=chart.box,
                              divisors=face_divisors)
            if sub.failed:
                tower.failed = True
                tower.failure = f"witness properness failed: {sub.failure}"
                return tower
            if not sub.stages:
                raise BlowupError(
                    f"witness for face {tuple(i + 1 for i in face)} is already proper; "
                    "strictness failure cannot be repaired by it"
                )
            # lift the face-level stages with ambient centers face ∪ K
            lift = {"0": chart_id}
            for fc_id, center, kids in sub.stages:
                target = lift.get(fc_id)
                if target is None:
                    continue
                ambient_center = tuple(sorted(set(center) | set(face)))
                new_ids = tower.blow_up(target, ambient_center)
                for kid_id in kids:
                    pivot = sub.charts[kid_id].pivot
                    match = next(
                        nid for nid in new_ids if tower.charts[nid].pivot == pivot
                    )
                    lift[kid_id] = match

    for chart in tower.leaves():
        pre = preimage_region(region, chart)
        v = pre.is_almost_strictly_allowable()
        if v.status != "strict":
            raise BlowupError(
                f"leaf chart {chart.id} is not almost strictly allowable ({v})"
            )
    return tower


# ---------------------------------------------------------------------------
# integral invariance


@dataclass
class InvarianceReport:
    base_value: float
    chart_sum: float
    base_error: float
    chart_error: float
    pieces: list
    ok: bool

    def __str__(self):
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status}: base {self.base_value:.8g} vs chart sum {self.chart_sum:.8g} "
            f"(tolerance {3 * (self.base_error + self.chart_error):.2g})"
        )


def integral_invariance_check(region: Region, form: LogForm, tower: BlowupTower,
                              cfg=None) -> InvarianceReport:
    """Compare the base integral with the sum over leaf-chart preimages of
    the pulled-back form; chart boxes tile, overlaps are measure zero."""
    from .integrate import QuadConfig, integrate_log_form

    cfg = cfg or QuadConfig()
    base = integrate_log_form(region, form, cfg)
    total = 0.0
    err = 0.0
    pieces = []
    for chart in tower.leaves():
        pre = preimage_region(region, chart)
        pulled = form.pullback_monomial(chart.map, region.p)
        if not pre.cells:
            pieces.append((chart.id, 0.0, 0.0))
            continue
        res = integrate_log_form(pre, pulled, cfg)
        pieces.append((chart.id, res.value, res.error))
        total += res.value
        err += res.error
    ok = abs(total - base.value) <= 3.0 * (base.error + err) + 1e-9
    return InvarianceReport(base.value, total, base.error, err, pieces, ok)
