"""Command line surface: verdicts, exit codes, determinism."""

import contextlib
import io
import json

import pytest

from helpers import REGIONS
from logvol import IntegrationError, ProbeConfig, QuadConfig, RegionError, parse_region
from logvol.cli import run


def invoke(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


S_HALF = str(REGIONS / "s_half.region")
BOX = str(REGIONS / "unit_box_p2.region")
INTERVAL = str(REGIONS / "interval_half_one.region")
QUAD = str(REGIONS / "quadrant_disk_c1.region")


def test_check_allowable_exit_zero():
    code, out = invoke("check", S_HALF)
    assert code == 0 and out.strip() == "ALLOWABLE"


def test_check_violated_exit_two():
    code, out = invoke("check", BOX)
    assert code == 2 and out.startswith("VIOLATED face={1}")


@pytest.mark.parametrize("name,m,want", [
    ("disk_c1", 1, "VIOLATED face={1} dim=0 need<0"), ("disk_c1", 2, "ALLOWABLE"),
    ("quadrant_disk_c1", 2, "ALLOWABLE"),
    ("nested_annulus_c2", 3, "VIOLATED face={2} dim=2 need<2"),
    ("nested_annulus_c2", 4, "ALLOWABLE"),
    ("disk_times_circle_c2", 2, "VIOLATED face={1} dim=1 need<1"),
    ("disk_times_circle_c2", 3, "ALLOWABLE"),
])
def test_check_complex_corpus_is_exact(name, m, want):
    """The complex corpus verdicts rest on exact certificates: no
    [heuristic] tag."""
    code, out = invoke("check", str(REGIONS / f"{name}.region"), "--m", str(m))
    assert out.strip() == f"m={m}: {want}"
    assert code == (0 if want == "ALLOWABLE" else 2)


def test_integrate_s_half():
    code, out = invoke("integrate", S_HALF, "--form", "dr1/r1 ^ dr2/r2")
    assert code == 0
    value = float(out.splitlines()[0].split()[1])
    assert value == pytest.approx(0.582241, abs=1e-4)


def test_integrate_box_diverges_exit_two():
    code, out = invoke("integrate", BOX, "--form", "dr1/r1 ^ dr2/r2")
    assert code == 2 and "diverging" in out


def test_integrate_with_blind_rungs_is_inconclusive():
    """mixed_extent's first rungs keep nothing of r2 (its extent is 2e-6 of
    a ladder scale of 1): the verdict is inconclusive and the exit code 2."""
    code, out = invoke("integrate", str(REGIONS / "mixed_extent.region"),
                       "--form", "dr1/r1 ^ dr2/r2")
    assert "verdict  inconclusive" in out.splitlines()
    assert code == 2


def test_integrate_absolute_divergence_exits_two(tmp_path):
    """dr1/r1 on [-1/2, 1]: the signed ladder settles on ln 2, the absolute
    one diverges, so the verdict is diverging and the exit code 2."""
    region = tmp_path / "two_sided.region"
    region.write_text(json.dumps({
        "ambient_dim": 1, "divisor_count": 1, "box": [["-1/2", 1]],
        "cells": [{"constraints": ["-1/2 - r1 <= 0", "r1 - 1 <= 0"]}],
    }))
    code, out = invoke("integrate", str(region), "--form", "dr1/r1")
    assert "verdict  diverging" in out.splitlines()
    assert code == 2


def test_integrate_writes_ladder_csv(tmp_path):
    out_file = tmp_path / "ladder.csv"
    code, _ = invoke("integrate", INTERVAL, "--form", "dr1/r1", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "param,value,stderr"
    assert lines[-1].startswith("verdict,")


def test_integrate_complex_quadrant():
    code, out = invoke("integrate-complex", QUAD, "--form", "dz1/z1 ^ dzbar1", "--m", "2")
    assert code == 0
    assert out.splitlines()[0].split()[1] == "-2"


def test_complex_commands_print_their_task_counts():
    """integrate-complex and decay-complex say how many real tasks ran and
    how many quadratures they took: the quarter disk runs one task, and the
    annulus slices four per radius, sharing one quadrature per radius."""
    code, out = invoke("integrate-complex", QUAD, "--form", "dz1/z1 ^ dzbar1", "--m", "2")
    assert code == 0 and "tasks    1 run, 1 quadrature(s)" in out.splitlines()
    code, out = invoke("decay-complex", str(REGIONS / "nested_annulus_c2.region"),
                       "--form", "dz1/z1 ^ dz2/z2 ^ dzbar2", "--m", "4")
    lines = out.splitlines()
    radii = sum(line.startswith("  t=") for line in lines)
    assert code == 0 and f"tasks    {4 * radii} run, {radii} quadrature(s)" in lines


def test_blowup_poly_mode():
    code, out = invoke("blowup", "--poly", "r1 + r2^2", "--p", "2")
    assert code == 0
    assert "stage 2" in out and "proper in every leaf: yes" in out


def test_decay_command():
    code, out = invoke("decay", str(REGIONS / "s_one.region"), "--u", "r1",
                       "--form", "dr2/r2")
    assert code == 0 and "decays to zero" in out


def test_stokes_command_default_calibration():
    code, out = invoke("stokes", "--m", "2")
    assert code == 0 and "residual" in out


def test_probe_fibers_command():
    code, out = invoke("probe-fibers", str(REGIONS / "triangle_p2.region"),
                       "--axis", "r2", "--samples", "16")
    assert code == 2 and "infinite" in out


def test_bad_input_exit_one(tmp_path):
    missing = tmp_path / "nope.region"
    code, _ = invoke("check", str(missing))
    assert code == 1
    bad = tmp_path / "bad.region"
    bad.write_text("not json")
    code, _ = invoke("check", str(bad))
    assert code == 1


def test_reports_are_deterministic():
    runs = [invoke("integrate", S_HALF, "--form", "dr1/r1 ^ dr2/r2", "--seed", "7")
            for _ in range(2)]
    assert runs[0] == runs[1]
    probes = [invoke("probe-fibers", str(REGIONS / "triangle_p2.region"),
                     "--axis", "r2", "--samples", "8", "--seed", "3")
              for _ in range(2)]
    assert probes[0] == probes[1]


@pytest.mark.parametrize("argv", [
    ("check", S_HALF, "--eps0", "0.1"),
    ("integrate", S_HALF, "--form", "dr1/r1 ^ dr2/r2", "--cap", "3"),
    ("blowup", "--poly", "r1 + r2^2", "--p", "2", "--seed", "1"),
])
def test_flags_a_command_ignores_are_rejected(argv):
    """A subcommand accepts only the flags its handler reads."""
    code, out = invoke(*argv)
    assert code == 1 and out == ""


def test_explicit_zero_cap_is_kept():
    """--cap 0 allows no stage: it is not replaced by the default of 64."""
    code, out = invoke("blowup", "--poly", "r1 + r2^2", "--p", "2", "--cap", "0")
    assert code == 2
    assert "stage 1" not in out and "stage cap 0 exceeded" in out


@pytest.mark.parametrize("argv", [
    ("probe-fibers", S_HALF, "--axis", "r1", "--samples", "-3"),
    ("probe-fibers", S_HALF, "--axis", "r1", "--samples", "0"),
    ("probe-fibers", S_HALF, "--axis", "r1", "--samples", "many"),
    ("probe-fibers", S_HALF, "--axis", "r1", "--cap", "-1"),
    ("blowup", "--poly", "r1 + r2^2", "--p", "2", "--cap", "-1"),
    ("blowup", "--poly", "x1*x2", "--p", "-1", "--n", "2"),
    ("blowup", "--poly", "r1 + r2^2", "--p", "2", "--n", "-1"),
    ("blowup", "--poly", "r1 + r2^2", "--p", "2", "--n", "1"),
    ("stokes", "--m", "0"),
])
def test_out_of_range_counts_are_usage_errors(argv):
    """Counts below their least value exit 1 with an error and no output:
    --samples >= 1, --cap >= 0, blowup --p >= 0 and --n >= --p, stokes
    --m >= 1.  (A negative --p used to name the variables x0, x1, x2,
    check no divisor and report a proper tower.)"""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(*argv)
    assert code == 1 and out == ""
    assert "error:" in err.getvalue()


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_mc_budget_below_one_is_a_usage_error(budget):
    """--mc-budget is a sample count >= 1: a smaller one exits 1 with an
    error and no output (it used to run 16 samples per combination and
    print a converged verdict)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke("integrate-complex", str(REGIONS / "nested_annulus_c2.region"),
                           "--form", "dz1/z1 ^ dz2/z2 ^ dzbar1 ^ dzbar2", "--m", "4",
                           "--mc-budget", budget)
    assert code == 1 and out == ""
    assert "--mc-budget" in err.getvalue()
    with pytest.raises(IntegrationError, match="mc_budget"):
        QuadConfig(mc_budget=int(budget))


@pytest.mark.parametrize("argv", [
    ("check", str(REGIONS / "nested_annulus_c2.region"), "--m", "4"),
    ("integrate", S_HALF, "--form", "dr1/r1 ^ dr2/r2"),
])
def test_negative_seed_is_a_usage_error(argv):
    """--seed keys a counter-based generator, which takes no negative key:
    -1 exits 1 with an error naming the flag and no output (it used to end
    in a traceback from np.random.Philox).  Both configs reject it too."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(*argv, "--seed", "-1")
    assert code == 1 and out == ""
    assert "--seed" in err.getvalue()
    with pytest.raises(IntegrationError, match="seed"):
        QuadConfig(seed=-1)
    with pytest.raises(RegionError, match="seed"):
        ProbeConfig(seed=-1)


@pytest.mark.parametrize("axis", ["3", "0", "-1"])
def test_out_of_range_axis_is_a_usage_error(axis):
    """--axis takes a coordinate name or a number 1..n: another number exits
    1 with an error naming the flag and no output (3 used to end in a
    traceback, and 0 and -1 gave a verdict about another coordinate)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke("probe-fibers", str(REGIONS / "triangle_p2.region"), "--axis", axis)
    assert code == 1 and out == ""
    assert "--axis" in err.getvalue() and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("eps0", ["nan", "inf"])
def test_non_finite_eps0_is_a_usage_error(eps0):
    """--eps0 is a finite positive radius: nan or inf exits 1 with an error
    naming it and no output (nan and inf used to run and print an
    inconclusive verdict).  QuadConfig rejects it too."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke("integrate", S_HALF, "--form", "dr1/r1 ^ dr2/r2", "--eps0", eps0)
    assert code == 1 and out == ""
    assert "eps0" in err.getvalue()
    with pytest.raises(IntegrationError, match="eps0"):
        QuadConfig(eps0=float(eps0))



@pytest.mark.parametrize("args", [("--eps0", "1e-310"), ("--eps0", "5e-324", "--ladder", "3"),
                                  ("--ladder", "1085")])
def test_an_underflowing_last_rung_is_a_usage_error(args):
    """A last rung eps0 * 2**-(ladder - 1) below the least normal float
    exits 1 with an error naming --eps0 and --ladder, no output and no
    traceback (each of these used to end in a numpy MemoryError)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke("integrate", S_HALF, "--form", "dr1/r1 ^ dr2/r2", *args)
    assert code == 1 and out == ""
    assert "eps0" in err.getvalue() and "ladder" in err.getvalue()
    assert "Traceback" not in err.getvalue()

def test_every_shipped_region_round_trips():
    for path in sorted(REGIONS.glob("*.region")):
        region = parse_region(path.read_text())
        again = parse_region(json.dumps(region.to_document()))
        assert again == region, path.name
