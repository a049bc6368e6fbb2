"""Self-tests of the benchmark: oracles, checks, tracing and determinism.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's own test run; the
determinism test runs every workload traced twice and takes a few minutes.
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
lv = run.load_logvol()


# -- oracles -----------------------------------------------------------------


def test_li2_matches_the_frozen_reference_and_the_closed_form():
    half = oracles.li2(Fraction(1, 2))
    assert abs(half - 0.5822405) < 5e-8
    assert abs(half - (math.pi**2 / 12 - math.log(2) ** 2 / 2)) < 1e-12


def test_li2_cross_check_holds_on_both_sides_of_one_half():
    for den in range(2, 13):
        for num in range(1, den):
            oracles.li2(Fraction(num, den))  # raises OracleError on disagreement


def test_face_rule_counts_25_violations_on_the_unit_corner():
    assert len(oracles.violated_faces([Fraction(1)] * 5, Fraction(1))) == 25


def test_face_rule_agrees_with_logvol_on_small_corners():
    for job in workloads.make_batch("exact_allow", 0)[:4]:
        verdict = lv.parse_region(job.doc).is_allowable()
        assert {face for face, _, _ in verdict.violations} == job.oracle


def test_closed_forms():
    assert oracles.quarter_disk_value(Fraction(1)) == complex(-2, -2)
    assert oracles.annulus_slice_volume(0.25) == pytest.approx(2 * math.pi**2, rel=1e-15)
    assert oracles.box_rung(Fraction(1), math.exp(-2)) == pytest.approx(4.0, rel=1e-15)
    assert oracles.box_rung(Fraction(1, 100), 0.0625) == 0.0


# -- generators and checks -----------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batches_depend_only_on_the_seed(workload):
    docs = lambda seed: [(j.id, j.doc, j.params) for j in workloads.make_batch(workload, seed)]
    assert docs(3) == docs(3)
    assert [d[1:] for d in docs(3)] != [d[1:] for d in docs(4)]


def test_exact_allow_mixes_allowable_and_violated_instances():
    for seed in range(5):
        sets = [job.oracle for job in workloads.make_batch("exact_allow", seed)]
        assert [bool(s) for s in sets] == [False, True] * 3


def _answer(workload, index, seed=0):
    job = workloads.make_batch(workload, seed)[index]
    return job, workloads.summarize(job, workloads.run_job(lv, job))


def test_checks_pass_right_answers_and_reject_wrong_ones():
    job, res = _answer("real_ladder", 8)  # c near 1: no known defect
    assert job.known_defect is None and workloads.check(job, res) == []
    assert workloads.check(job, dict(res, value=res["value"] * (1 + 1e-5)))
    assert workloads.check(job, dict(res, error=0.0, value=res["value"] + 1e-9))
    assert workloads.check(job, dict(res, verdict="inconclusive"))

    job, res = _answer("real_ladder", 13)  # a non-allowable box
    assert workloads.check(job, res) == []
    rungs = [[eps, v * 1.001] for eps, v in res["rungs"]]
    assert workloads.check(job, dict(res, rungs=rungs))

    job, res = _answer("exact_allow", 1)
    assert workloads.check(job, res) == []
    assert workloads.check(job, dict(res, violations=res["violations"][1:]))
    assert workloads.check(job, dict(res, heuristic=True))

    job, res = _answer("complex_ladder", 0)
    assert workloads.check(job, res) == []
    re, im = res["value"]
    assert workloads.check(job, dict(res, value=[re, -im]))


# -- tracing -------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them():
    import logvol.complexint as complexint
    import logvol.integrate as integrate
    import logvol.region as region
    import logvol.slicing as slicing

    before = (slicing.slice_fiber, integrate.slice_fiber, complexint.simplify_cell,
              integrate._FiberSolver.__dict__["intervals"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == []
        assert integrate.slice_fiber is slicing.slice_fiber is lv.slice_fiber
        assert slicing.slice_fiber.__wrapped__ is before[0]
        assert complexint.simplify_cell is region.simplify_cell
        assert complexint.simplify_cell.__wrapped__ is before[2]
        assert integrate._FiberSolver.__dict__["intervals"].__wrapped__ is before[3]
    finally:
        tracer.uninstall()
    after = (slicing.slice_fiber, integrate.slice_fiber, complexint.simplify_cell,
             integrate._FiberSolver.__dict__["intervals"])
    assert after == before


def test_self_times_partition_the_job_span():
    job = workloads.make_batch("complex_ladder", 0)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.job_span(0):
            workloads.run_job(lv, job)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    total = tracer.end[0] - tracer.start[0]
    layer_self = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert 0 < layer_self <= total
    # nested adaptive_1d levels and re/im rungs are inside other spans of
    # their own layer; summed self time never exceeds the outermost span
    assert metrics["integrate.rung.calls"][0] > metrics["integrate.ladder.calls"][0]
    assert metrics["integrate.rung.self_s"][0] < total
    assert all(parent < sid for sid, parent in enumerate(tracer.parent))


# -- the benchmark command -----------------------------------------------------


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_agree_on_counts_and_answers(workload):
    outs = []
    for _ in range(2):
        proc = _bench(HERE.parent, "--workload", workload, "--seed", "5",
                      "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        counts = {k: v["value"] for k, v in result["metrics"].items()
                  if not k.endswith("_s")}
        outs.append((counts, [l for l in lines if l.startswith("job ")], result["attempted"]))
    assert outs[0] == outs[1]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "real_ladder", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
