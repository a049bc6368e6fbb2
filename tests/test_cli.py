"""Command line surface: verdicts, exit codes, determinism."""

import contextlib
import io
import json

import pytest

from helpers import REGIONS
from logvol import parse_region
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
    ("stokes", "--m", "0"),
])
def test_out_of_range_counts_are_usage_errors(argv):
    """Counts below their least value exit 1 with an error and no output:
    --samples >= 1, --cap >= 0, stokes --m >= 1."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(*argv)
    assert code == 1 and out == ""
    assert "error:" in err.getvalue()


def test_every_shipped_region_round_trips():
    for path in sorted(REGIONS.glob("*.region")):
        region = parse_region(path.read_text())
        again = parse_region(json.dumps(region.to_document()))
        assert again == region, path.name
