"""The integer-pivoting simplex of `linprog.solve_lp` against the rational
simplex it replaced, kept here as the reference: the same pivots, so the
same status, value and point on every LP."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logvol import linprog
from logvol.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED


def _reference_pivot(tableau, basis, row, col):
    m = len(tableau)
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r in range(m):
        if r != row and tableau[r][col] != 0:
            factor = tableau[r][col]
            tableau[r] = [a - factor * b for a, b in zip(tableau[r], tableau[row])]
    basis[row] = col


def _reference_simplex(tableau, basis, cost):
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
        _reference_pivot(tableau, basis, best_row, col)
        piv = cost[col]
        cost[:] = [a - piv * b for a, b in zip(cost, tableau[best_row])]


def reference_solve_lp(objective, a_ub=None, b_ub=None, a_eq=None, b_eq=None, maximize=True):
    """The two-phase Fraction simplex with Bland's rule."""
    a_ub = [list(map(Fraction, row)) for row in (a_ub or [])]
    b_ub = [Fraction(v) for v in (b_ub or [])]
    a_eq = [list(map(Fraction, row)) for row in (a_eq or [])]
    b_eq = [Fraction(v) for v in (b_eq or [])]
    obj = [Fraction(v) for v in objective]
    if not maximize:
        obj = [-v for v in obj]
    n = len(obj)
    raw = [(row, rhs, "ub") for row, rhs in zip(a_ub, b_ub)]
    raw += [(row, rhs, "eq") for row, rhs in zip(a_eq, b_eq)]
    m = len(raw)
    nslack = sum(1 for _, _, kind in raw if kind == "ub")
    normed = [([-v for v in row], -rhs, kind, -1) if rhs < 0 else (row, rhs, kind, 1)
              for row, rhs, kind in raw]
    width = 2 * n + nslack + m
    tableau, basis, art_cols = [], [], []
    slack_idx, art_idx = 2 * n, 2 * n + nslack
    for row, rhs, kind, flip in normed:
        vec = [Fraction(0)] * (width + 1)
        for j, v in enumerate(row):
            vec[j] = v
            vec[n + j] = -v
        if kind == "ub":
            vec[slack_idx] = Fraction(flip)
            slack_here = slack_idx
            slack_idx += 1
        vec[-1] = rhs
        if kind == "ub" and flip == 1:
            basis.append(slack_here)
        else:
            vec[art_idx] = Fraction(1)
            art_cols.append(art_idx)
            basis.append(art_idx)
            art_idx += 1
        tableau.append(vec)
    if art_cols:
        cost = [Fraction(0)] * (width + 1)
        for col in art_cols:
            cost[col] = Fraction(-1)
        for r, b in enumerate(basis):
            if cost[b] != 0:
                factor = cost[b]
                cost = [a - factor * t for a, t in zip(cost, tableau[r])]
        _reference_simplex(tableau, basis, cost)
        if cost[-1] != 0:
            return linprog.LPResult(INFEASIBLE)
        for r, b in enumerate(basis):
            if b in art_cols:
                col = next((j for j in range(2 * n + nslack) if tableau[r][j] != 0), None)
                if col is not None:
                    _reference_pivot(tableau, basis, r, col)
        keep = list(range(2 * n + nslack)) + [width]
        live = [r for r, b in enumerate(basis) if b not in art_cols]
        tableau = [[tableau[r][j] for j in keep] for r in live]
        basis = [basis[r] for r in live]
        width = 2 * n + nslack
    cost = [Fraction(0)] * (width + 1)
    for j in range(n):
        cost[j] = obj[j]
        cost[n + j] = -obj[j]
    for r, b in enumerate(basis):
        if cost[b] != 0:
            factor = cost[b]
            cost = [a - factor * t for a, t in zip(cost, tableau[r])]
    if _reference_simplex(tableau, basis, cost) == UNBOUNDED:
        return linprog.LPResult(UNBOUNDED)
    x = [Fraction(0)] * (2 * n + nslack)
    for r, b in enumerate(basis):
        if b < len(x):
            x[b] = tableau[r][-1]
    point = [x[j] - x[n + j] for j in range(n)]
    value = sum((o * v for o, v in zip(obj, point)), Fraction(0))
    return linprog.LPResult(OPTIMAL, value if maximize else -value, point)


def _assert_same(lp):
    got = linprog.solve_lp(**lp)
    want = reference_solve_lp(**lp)
    assert got.status == want.status
    assert got.value == want.value and got.point == want.point
    # the same rows passed already scaled, as the exact layer passes them
    scaled = dict(lp)
    for a, b in (("a_ub", "b_ub"), ("a_eq", "b_eq")):
        scaled[a] = [linprog._as_integers([*row, rhs])
                     for row, rhs in zip(lp.get(a) or [], lp.get(b) or [])]
        scaled[b] = None
    again = linprog.solve_lp(**scaled)
    assert (again.status, again.value, again.point) == (got.status, got.value, got.point)
    if got.status == OPTIMAL:
        assert type(got.value) is Fraction
        assert all(type(v) is Fraction for v in got.point)
    else:
        assert got.value is None and got.point is None
    return got


# rationals with denominators up to 12, and a few plain ints
_number = st.one_of(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)),
                    st.integers(-3, 3))


@st.composite
def _lps(draw):
    """A small LP: free variables, ub rows and eq rows with rhs of either
    sign, sometimes a box (so that more LPs are bounded), and sometimes an
    eq row that is a combination of the others (so that an artificial stays
    basic after phase 1 and its row is dropped)."""
    n = draw(st.integers(0, 4))
    row = st.lists(_number, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=5))
    b_ub = draw(st.lists(_number, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=3))
    b_eq = draw(st.lists(_number, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq and draw(st.booleans()):
        q = draw(st.lists(_number, min_size=len(a_eq), max_size=len(a_eq)))
        a_eq.append([sum(w * a[j] for w, a in zip(q, a_eq)) for j in range(n)])
        b_eq.append(sum(w * b for w, b in zip(q, b_eq)))
    if draw(st.booleans()):
        bound = draw(st.integers(1, 4))
        for j in range(n):
            for sign in (1, -1):
                a_ub.append([sign if i == j else 0 for i in range(n)])
                b_ub.append(bound)
    return dict(objective=draw(row), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                maximize=draw(st.booleans()))


@settings(max_examples=400)
@given(lp=_lps())
@example(lp=dict(objective=[], a_ub=[], b_ub=[], a_eq=[], b_eq=[], maximize=True))
@example(lp=dict(objective=[Fraction(1, 3)], a_ub=[[Fraction(-1, 2)]], b_ub=[Fraction(1, 7)],
                 a_eq=[[-1]], b_eq=[Fraction(1, 5)], maximize=True))
def test_solve_lp_matches_the_rational_simplex(lp):
    _assert_same(lp)


_CASES = {
    # phase 1 ends with the artificial of x1/2 - x2/3 <= -1/4 (rhs < 0)
    # basic at value 0, and pivoting it out takes the entry -38 of the
    # integer tableau; phase 2 then reads signs over the denominator
    "negative_drive_out": dict(objective=[-2, Fraction(1, 5)],
                               a_ub=[[-1, Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 3)],
                                     [Fraction(1, 2), Fraction(1, 6)]],
                               b_ub=[Fraction(1, 2), Fraction(-1, 4), 1],
                               a_eq=[[Fraction(2, 3), Fraction(-3, 2)]], b_eq=[Fraction(-1, 3)],
                               maximize=False),
    # the third eq row is the sum of the first two: after phase 1 its
    # artificial stays basic at value 0, and its row is dropped
    "dependent_equalities": dict(objective=[1, Fraction(2, 3), Fraction(-1, 4)],
                                 a_ub=[[1, 1, 1]], b_ub=[5],
                                 a_eq=[[1, Fraction(1, 2), 0], [0, Fraction(1, 3), -1],
                                       [1, Fraction(5, 6), -1]],
                                 b_eq=[Fraction(3, 2), Fraction(-2, 7), Fraction(17, 14)],
                                 maximize=True),
    # two artificials on rows of scales 66 and 3: phase 1 that weighs them
    # equally, not as the unscaled artificials, ends at another basis, and
    # phase 2 at another optimal point (x2 = -41/36, not -38/99)
    "weighted_phase_1": dict(objective=[Fraction(1, 7), 0],
                             a_ub=[[Fraction(1, 7), Fraction(1, 7)], [Fraction(1, 6), 1],
                                   [Fraction(-4, 3), -1]],
                             b_ub=[Fraction(4, 7), Fraction(-3, 11), Fraction(1, 4)],
                             a_eq=[[1, 0]], b_eq=[Fraction(2, 3)], maximize=True),
    "infeasible": dict(objective=[1, 1], a_ub=[[1, 1], [-1, -1]],
                       b_ub=[Fraction(1, 3), Fraction(-1, 2)], maximize=True),
    "unbounded": dict(objective=[Fraction(1, 5), 0], a_ub=[[-1, Fraction(1, 3)]],
                      b_ub=[Fraction(-7, 11)], maximize=True),
    "no_rows_zero_objective": dict(objective=[0, 0], maximize=False),
    "no_rows_unbounded": dict(objective=[0, Fraction(-1, 9)], maximize=False),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_solve_lp_named_cases(name, monkeypatch):
    """Each named system gives the reference answer with the status its name
    says, an optimal point satisfies every row, and only the drive-out case
    pivots on a negative entry (every simplex pivot is positive)."""
    pivots = []
    original = linprog._pivot

    def recording(rows, basis, row, col, d):
        pivots.append(rows[row][col])
        return original(rows, basis, row, col, d)

    monkeypatch.setattr(linprog, "_pivot", recording)
    got = _assert_same(_CASES[name])
    want = {"infeasible": INFEASIBLE, "unbounded": UNBOUNDED,
            "no_rows_unbounded": UNBOUNDED}.get(name, OPTIMAL)
    assert got.status == want
    assert any(p < 0 for p in pivots) == (name == "negative_drive_out")
    if got.status == OPTIMAL:
        lp = _CASES[name]
        for a, b in zip(lp.get("a_ub", []), lp.get("b_ub", [])):
            assert sum(u * v for u, v in zip(a, got.point)) <= b
        for a, b in zip(lp.get("a_eq", []), lp.get("b_eq", [])):
            assert sum(u * v for u, v in zip(a, got.point)) == b


def _objectives(n):
    return st.lists(st.tuples(st.lists(_number, min_size=n, max_size=n), st.booleans()),
                    min_size=1, max_size=4)


def _ask_shared(system, objectives):
    """Every objective asked of one LinearSystem, counting its phase 1s."""
    with mock.patch.object(linprog, "_phase_1", wraps=linprog._phase_1) as phase_1:
        got = [linprog.solve_lp(obj, system=system, maximize=mx) for obj, mx in objectives]
    assert phase_1.call_count == 1
    return got


@settings(max_examples=150)
@given(data=st.data())
def test_shared_phase_1_matches_one_shot_lps(data):
    """Several objectives, max and min, asked of one system (its rows given
    as Fractions, or scaled already) run phase 1 once, and each gives the
    one-shot solve_lp result and the rational simplex's, in status, value
    and point."""
    lp = data.draw(_lps())
    n = len(lp["objective"])
    objectives = [(lp["objective"], lp["maximize"])] + data.draw(_objectives(n))
    rows = [lp[k] for k in ("a_ub", "b_ub", "a_eq", "b_eq")]
    scaled = [[linprog._as_integers([*row, rhs]) for row, rhs in zip(a, b)]
              for a, b in ((rows[0], rows[1]), (rows[2], rows[3]))]
    for system_rows in (rows, [scaled[0], None, scaled[1], None]):
        got = _ask_shared(linprog.LinearSystem(n, *system_rows), objectives)
        for res, (obj, mx) in zip(got, objectives):
            alone = linprog.solve_lp(obj, *rows, maximize=mx)
            want = reference_solve_lp(obj, *rows, maximize=mx)
            for other in (alone, want):
                assert (res.status, res.value, res.point) == (other.status, other.value,
                                                             other.point)


@pytest.mark.parametrize("name", ["infeasible", "unbounded"])
def test_shared_phase_1_answers_every_objective(name):
    """An infeasible system answers infeasible to every objective, and an
    unbounded one unbounded or optimal as each objective is, all after one
    phase 1."""
    lp = _CASES[name]
    rows = [lp.get(k) for k in ("a_ub", "b_ub", "a_eq", "b_eq")]
    objectives = [([1, 1], True), ([1, 1], False), ([0, 0], True), ([Fraction(1, 5), 0], True),
                  ([Fraction(1, 5), 0], False), ([0, 1], False)]
    got = _ask_shared(linprog.LinearSystem(2, *rows), objectives)
    statuses = [res.status for res in got]
    for res, (obj, mx) in zip(got, objectives):
        want = reference_solve_lp(obj, *rows, maximize=mx)
        assert (res.status, res.value, res.point) == (want.status, want.value, want.point)
    if name == "infeasible":
        assert statuses == [INFEASIBLE] * len(objectives)
    else:
        assert UNBOUNDED in statuses and OPTIMAL in statuses
