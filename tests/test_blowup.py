"""Blow-up towers, strict transforms, properness and the strictness loop."""

import numpy as np
import pytest

from helpers import LI2_HALF, load_region, region_of
from logvol import (
    BlowupError,
    BlowupTower,
    LogForm,
    integral_invariance_check,
    make_almost_strictly_allowable,
    make_proper,
    parse_poly,
    preimage_region,
    strict_transform,
    verify_proper,
)
from logvol.polyform import MonomialMap, PolyError

R2 = ["r1", "r2"]


def two_chart_tower(box=((0, 1), (0, 1))):
    t = BlowupTower(2, 2, list(box))
    t.blow_up("0", (0, 1))
    return t


# ---------------------------------------------------------------------------
# charts


def test_standard_charts():
    t = two_chart_tower()
    a, b = (t.charts["0/1"], t.charts["0/2"])
    assert a.map.components == [(1, (1, 0)), (1, (1, 1))]
    assert b.map.components == [(1, (1, 1)), (0 + 1, (0, 1))]
    assert a.exceptional == {0} and b.exceptional == {1}


def test_second_blowup_composes():
    t = two_chart_tower()
    t.blow_up("0/1", (0, 1))
    # chart 0/1 then its pivot-1 child: (u, v) -> (u, u^2 v)
    chart = t.charts["0/1/1"]
    assert chart.map.components == [(1, (1, 0)), (1, (2, 1))]


def test_codim_one_center_rejected():
    t = BlowupTower(2, 2)
    with pytest.raises(BlowupError):
        t.blow_up("0", (0,))


def test_chart_round_trip_numeric_inverse():
    rng = np.random.Generator(np.random.Philox(key=5))
    t = two_chart_tower()
    t.blow_up("0/1", (0, 1))
    for chart_id in ("0/2", "0/1/1", "0/1/2"):
        chart = t.charts[chart_id]
        for _ in range(100):
            pt = rng.uniform(0.05, 1.0, size=2)
            target = chart.map.apply(list(pt))
            back = chart.map.numeric_inverse(target)
            assert np.allclose(back, pt, rtol=1e-12, atol=1e-12)


def test_singular_chart_map_has_no_inverse():
    chart = MonomialMap(2, [(1, (1, 1)), (2, (2, 2))])
    with pytest.raises(PolyError, match="chart exponent matrix is singular"):
        chart.numeric_inverse([1.0, 2.0])


# ---------------------------------------------------------------------------
# strict transforms


def test_strict_transform_linear():
    t = two_chart_tower()
    f = parse_poly("r1 + r2", R2)
    assert strict_transform(f, t.charts["0/1"]) == parse_poly("1 + r2", R2)


def test_strict_transform_quadratic_chart_a():
    t = two_chart_tower()
    g = parse_poly("r1 + r2^2", R2)
    assert strict_transform(g, t.charts["0/1"]) == parse_poly("1 + r1*r2^2", R2)


def test_strict_transform_quadratic_chart_b():
    t = two_chart_tower()
    g = parse_poly("r1 + r2^2", R2)
    assert strict_transform(g, t.charts["0/2"]) == parse_poly("r1 + r2", R2)


def test_strict_transform_rejects_zero():
    t = two_chart_tower()
    with pytest.raises(BlowupError):
        strict_transform(parse_poly("0*r1", R2), t.charts["0/1"])


# ---------------------------------------------------------------------------
# preimages


def test_preimage_diagonal():
    A = region_of(2, 2, ["r1 - r2 = 0", "-r1 <= 0", "r1 - 1 <= 0"], [(0, 1), (0, 1)])
    t = two_chart_tower()
    pre = preimage_region(A, t.charts["0/1"])
    # u = u v with u > 0 somewhere forces v = 1 after simplification; the
    # surviving cell keeps an equivalent constraint set
    assert len(pre.cells) == 1
    names = pre.var_names()
    texts = {c.payload.to_text(names) for c in pre.cells[0].constraints}
    assert any("r1*r2 - r1" in s or "r1 - r1*r2" in s or "r2 - 1" in s for s in texts)


def test_preimage_identity_chart():
    A = load_region("unit_box_p2")
    t = BlowupTower(2, 2, A.bounding_box())
    pre = preimage_region(A, t.charts["0"])
    assert pre.dimension().value == 2


def test_preimage_substitutes_polynomials():
    A = region_of(2, 2, ["r1 + r2 >= 1"], [(0, 1), (0, 1)])
    t = two_chart_tower()
    pre = preimage_region(A, t.charts["0/1"])
    names = pre.var_names()
    texts = {c.payload.to_text(names) for c in pre.cells[0].constraints}
    assert any("r1*r2" in s and "1" in s for s in texts)  # 1 - u - uv <= 0


# ---------------------------------------------------------------------------
# make_proper


def test_make_proper_linear_depth_one():
    f = parse_poly("r1 + r2", R2)
    t = make_proper(f, 2, base_box=[(0, 1), (0, 1)])
    assert t.depth() == 1 and len(t.stages) == 1 and not t.failed
    assert verify_proper(f, t)


def test_make_proper_quadratic_depth_two():
    g = parse_poly("r1 + r2^2", R2)
    t = make_proper(g, 2, base_box=[(0, 1), (0, 1)])
    assert t.depth() == 2 and not t.failed
    assert verify_proper(g, t)


def test_make_proper_already_proper():
    t = make_proper(parse_poly("1 + r1", R2), 2, base_box=[(0, 1), (0, 1)])
    assert len(t.stages) == 0


def test_make_proper_divisibility_precondition():
    with pytest.raises(BlowupError):
        make_proper(parse_poly("r1*r2 + r1", R2), 2)


@pytest.mark.parametrize("p,divisors", [(-1, None), (3, None), (2, [2]), (2, [-1]),
                                        (1, [0, 1])])
def test_make_proper_rejects_divisors_outside_the_ambient(p, divisors):
    """0 <= p <= nvars and every divisor index in 0..p-1, or a
    BlowupError: a negative p used to check no divisor and return an
    empty tower."""
    with pytest.raises(BlowupError):
        make_proper(parse_poly("1 + r1*r2", R2), p, divisors=divisors)


def test_make_proper_cap_flag():
    g = parse_poly("r1 + r2^2", R2)
    t = make_proper(g, 2, cap=1, base_box=[(0, 1), (0, 1)])
    assert t.failed and "cap" in t.failure


def test_make_proper_three_variables():
    names = ["r1", "r2", "r3"]
    f = parse_poly("r1 + r2*r3", names)
    t = make_proper(f, 3, base_box=[(0, 1)] * 3)
    assert not t.failed
    assert verify_proper(f, t)


def test_serialization_mentions_stages_and_charts():
    t = make_proper(parse_poly("r1 + r2", R2), 2, base_box=[(0, 1), (0, 1)])
    text = t.serialize(R2)
    assert "stage 1" in text and "chart 0/1" in text and "r1*r2" in text
    dot = t.to_dot()
    assert dot.startswith("digraph") and '"0" -> "0/1"' in dot


# ---------------------------------------------------------------------------
# the strictness loop


def test_loop_rejects_non_allowable():
    diag = region_of(2, 2, ["r2 - r1 = 0", "-r1 <= 0", "r1 - 1/2 <= 0"],
                     [(0, 1), (0, 1)])
    with pytest.raises(BlowupError, match="not allowable"):
        make_almost_strictly_allowable(diag, [])


def test_loop_trivial_when_already_strict():
    seg = region_of(2, 2, ["r2 - r1 = 0", "1/4 - r1 <= 0", "r1 - 1/2 <= 0"],
                    [(0, 1), (0, 1)])
    t = make_almost_strictly_allowable(seg, [])
    assert len(t.stages) == 0


def test_loop_trivial_for_curve_missing_faces():
    names = R2
    curve = region_of(2, 2, ["r2 - r1^2 = 0", "1/4 - r1 <= 0", "r1 - 1 <= 0"],
                      [(0, 1), (0, 1)])
    t = make_almost_strictly_allowable(curve, [parse_poly("r2 - r1^2", names)])
    assert len(t.stages) == 0


def plane_piece_region():
    return region_of(
        4, 3,
        ["r1 = 0", "r2 - r3 = 0", "1 - r2 <= 0", "r2 - 2 <= 0",
         "-x4 <= 0", "x4 - 1 <= 0"],
        [(0, 4), (0, 4), (0, 4), (0, 1)],
    )


def test_loop_repairs_plane_piece():
    A = plane_piece_region()
    assert A.is_allowable().ok
    assert A.is_almost_strictly_allowable().status == "not_strict"
    witness = parse_poly("r2 - r3", ["r1", "r2", "r3", "x4"])
    t = make_almost_strictly_allowable(A, [witness])
    assert not t.failed
    assert [len(stage[1]) for stage in t.stages] == [3]  # one codim-3 center
    for chart in t.leaves():
        pre = preimage_region(A, chart)
        assert pre.is_almost_strictly_allowable().status == "strict"


def test_loop_counter_strictly_decreases():
    A = plane_piece_region()
    witness = parse_poly("r2 - r3", ["r1", "r2", "r3", "x4"])
    t = make_almost_strictly_allowable(A, [witness])
    by_d = {}
    for entry in t.log:
        by_d.setdefault(entry["d"], []).append(entry["failing"])
    for d, counts in by_d.items():
        assert all(a > b for a, b in zip(counts, counts[1:])), (d, counts)


def test_loop_missing_witness():
    A = plane_piece_region()
    with pytest.raises(BlowupError, match="witness"):
        make_almost_strictly_allowable(A, [])


# ---------------------------------------------------------------------------
# integral invariance


def s_half_form():
    return LogForm.dlog(2, 2, 0).wedge(LogForm.dlog(2, 2, 1))


def test_invariance_s_half_one_blowup():
    A = load_region("s_half")
    t = BlowupTower(2, 2, A.bounding_box())
    t.blow_up("0", (0, 1))
    rep = integral_invariance_check(A, s_half_form(), t)
    assert rep.ok
    assert rep.chart_sum == pytest.approx(LI2_HALF, abs=2e-3)


def test_invariance_empty_tower():
    A = load_region("s_half")
    t = BlowupTower(2, 2, A.bounding_box())
    rep = integral_invariance_check(A, s_half_form(), t)
    assert rep.ok
    assert rep.chart_sum == pytest.approx(rep.base_value, abs=1e-9)


def test_invariance_shifted_square():
    import math

    A = load_region("shifted_square")
    t = BlowupTower(2, 2, A.bounding_box())
    t.blow_up("0", (0, 1))
    rep = integral_invariance_check(A, s_half_form(), t)
    assert rep.ok
    assert rep.base_value == pytest.approx(math.log(2) ** 2, abs=1e-7)
    assert rep.chart_sum == pytest.approx(math.log(2) ** 2, abs=1e-6)
    # both charts carry a genuine piece of the square
    values = {pid: v for pid, v, _ in rep.pieces}
    assert all(abs(v) > 0.05 for v in values.values())
