"""Seeded job batches for the logvol benchmark, how to run each job through
logvol's public API, and how to check its answer against an oracle.

Every batch is stratified: its random draws vary the inputs inside fixed
strata (scale decades, face counts, sample radii), so that the work in a
batch barely changes from seed to seed while the inputs do.  README.md in
this directory gives the reason for each workload.
"""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import oracles

WORKLOADS = ("real_ladder", "exact_allow", "complex_slices", "complex_ladder")

# Every value must reach the oracle within this share of the job's scale.
REL_TOL = 1e-6
# A reported error bar must cover the true error, up to float rounding.
ROUNDING = 1e-12
# Below this scale the fixed excision ladder (eps from 1/16 down to about
# 3e-5, the same at every scale) no longer reaches 1e-6 on S_a; failures of
# these members are reported but recorded as this known defect.
SMALL_SCALE = Fraction(1, 10)
SCALE_DEFECT = "fixed excision ladder is not relative to the region scale"


@dataclass
class Job:
    id: str
    kind: str      # dilog | box | corner | cdisk | annulus
    doc: str       # the region document logvol parses
    params: dict   # generated parameters, for reports
    oracle: object
    known_defect: str | None = None


def make_batch(workload: str, seed: int) -> list:
    """The job batch of one workload; the same seed gives the same batch."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _GENERATORS[workload](rng)
    for i, job in enumerate(jobs):
        job.id = f"{workload}-{seed}-{i:02d}"
    return jobs


def _sig3(x: float) -> Fraction:
    """x rounded to three significant digits, as an exact rational."""
    return Fraction(f"{x:.3g}")


def _log_strata(rng, lo_exp: float, hi_exp: float, count: int) -> list:
    """One log-uniform draw from each of `count` equal slices of the
    exponent range [lo_exp, hi_exp]."""
    width = (hi_exp - lo_exp) / count
    return [_sig3(10 ** rng.uniform(lo_exp + i * width, lo_exp + (i + 1) * width))
            for i in range(count)]


def _region_doc(n, p, constraints, box=None, complex_=False) -> str:
    doc = {"ambient_dim": n, "divisor_count": p, "cells": [{"constraints": constraints}]}
    if complex_:
        doc["complex"] = True
    if box is not None:
        doc["box"] = [[str(lo), str(hi)] for lo, hi in box]
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# generators


def _real_ladder(rng) -> list:
    jobs = []
    # S_a = {0 <= r1 <= c, 0 <= r2 <= a c, r1 + r2 >= c}: dr1/r1 ^ dr2/r2
    # is scale invariant, so the value is Li2(a) at every c.
    for c in _log_strata(rng, -3, 3, 12):
        den = rng.randint(2, 12)
        a = Fraction(rng.randint(1, den - 1), den)
        doc = _region_doc(2, 2, [
            "-r1 <= 0", f"r1 - {c} <= 0", "-r2 <= 0", f"r2 - {a * c} <= 0",
            f"r1 + r2 >= {c}",
        ], box=[(0, c), (0, a * c)])
        jobs.append(Job("", "dilog", doc, {"a": str(a), "c": str(c)}, oracles.li2(a),
                        SCALE_DEFECT if c < SMALL_SCALE else None))
    # [0, c]^2 is not allowable: the ladder must diverge like (ln(c/eps))^2.
    for c in _log_strata(rng, -3, 3, 2):
        doc = _region_doc(2, 2, ["-r1 <= 0", f"r1 - {c} <= 0", "-r2 <= 0", f"r2 - {c} <= 0"],
                          box=[(0, c), (0, c)])
        jobs.append(Job("", "box", doc, {"c": str(c)}, c))
    return jobs


def _exact_allow(rng) -> list:
    jobs = []
    for n in (3, 4, 5):
        for violated in (False, True):
            w = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            c = _corner_level(rng, w, violated)
            cons = []
            for i in range(n):
                cons += [f"-r{i + 1} <= 0", f"r{i + 1} - 1 <= 0"]
            cons.append(" + ".join(f"{wi}*r{i + 1}" for i, wi in enumerate(w)) + f" >= {c}")
            jobs.append(Job("", "corner", _region_doc(n, n, cons),
                            {"w": [str(x) for x in w], "c": str(c)},
                            oracles.violated_faces(w, c)))
    return jobs


def _corner_level(rng, w, violated: bool) -> Fraction:
    """A cut level c strictly between two consecutive face sums.

    Allowable: c lies in [W - min w, W), so every face sum is <= c while
    the region stays nonempty.  Violated: c lies below the k-th largest
    face sum for a random k, so exactly k faces are violated.
    """
    n = len(w)
    # face sums of the proper faces, then 0 for the full face
    levels = sorted(
        (sum(w[j] for j in range(n) if j not in face)
         for k in range(1, n) for face in combinations(range(n), k)),
        reverse=True,
    ) + [Fraction(0)]
    if not violated:
        return levels[0] + (sum(w) - levels[0]) * Fraction(rng.randint(0, 9), 10)
    # levels[k - 1] > c >= levels[k] violates exactly k faces
    k = rng.choice([k for k in range(1, len(levels)) if levels[k - 1] > levels[k]])
    return levels[k] + (levels[k - 1] - levels[k]) * Fraction(rng.randint(1, 9), 10)


_ANNULUS = _region_doc(4, 2, [
    "zr1^2 + zi1^2 - 1 <= 0",
    "zr2^2 + zi2^2 - zr1^2 - zi1^2 <= 0",
], box=[(-1, 1)] * 4, complex_=True)


def _complex_slices(rng) -> list:
    # one dyadic radius from each pair of octaves of (2^-9, 2^-1]
    ts = [rng.randint(17, 64) / 2 ** (2 * s + 7) for s in range(4)]
    return [Job("", "annulus", _ANNULUS, {"ts": ts}, [oracles.annulus_slice_volume(t) for t in ts])]


def _complex_ladder(rng) -> list:
    jobs = []
    for full in (False, True):
        for rho in _log_strata(rng, -3, 3, 4):
            cons = [f"zr1^2 + zi1^2 - {rho * rho} <= 0"]
            if full:
                box = [(-rho, rho), (-rho, rho)]
            else:
                cons += ["-zr1 <= 0", "-zi1 <= 0"]
                box = [(0, rho), (0, rho)]
            jobs.append(Job("", "cdisk", _region_doc(2, 1, cons, box=box, complex_=True),
                            {"rho": str(rho), "full": full},
                            0j if full else oracles.quarter_disk_value(rho)))
    return jobs


_GENERATORS = {
    "real_ladder": _real_ladder,
    "exact_allow": _exact_allow,
    "complex_slices": _complex_slices,
    "complex_ladder": _complex_ladder,
}


# ---------------------------------------------------------------------------
# running a job


def run_job(lv, job: Job):
    """Parse the job's region and make its one public-API call."""
    region = lv.parse_region(job.doc)
    if job.kind in ("dilog", "box"):
        form = lv.LogForm.dlog(2, 2, 0).wedge(lv.LogForm.dlog(2, 2, 1))
        return lv.integrate_log_form(region, form)
    if job.kind == "corner":
        return region.is_allowable()
    if job.kind == "cdisk":
        return lv.integrate_admissible(region, lv.ComplexLogForm.volume_like(1, (0,)), 2)
    if job.kind == "annulus":
        form = lv.ComplexLogForm.volume_like(2, (1,))
        return lv.annulus_slice_decay(region, form, 4, ts=job.params["ts"])
    raise ValueError(f"unknown job kind {job.kind!r}")


def summarize(job: Job, out) -> dict:
    """The answer of one job as plain JSON data (floats kept exactly)."""
    if job.kind in ("dilog", "box"):
        return {
            "value": float(out.value), "error": float(out.error),
            "verdict": out.ladder.verdict, "abs_verdict": out.abs_ladder.verdict,
            "rungs": [[float(e), float(v)] for e, v, _ in out.ladder.entries],
            "flags": list(out.flags),
        }
    if job.kind == "corner":
        return {
            "ok": bool(out.ok), "heuristic": bool(out.heuristic),
            "violations": [[list(face), int(d), int(need)] for face, d, need in out.violations],
        }
    if job.kind == "cdisk":
        return {"value": [out.value.real, out.value.imag], "error": float(out.error),
                "verdict": out.verdict}
    return {
        "entries": [[float(t), float(v)] for t, v in out.entries],
        "alpha": None if out.fit is None else float(out.fit.exponent),
        "verdict": out.verdict, "monotone": bool(out.monotone),
    }


def check(job: Job, res: dict) -> list:
    """Problems with a summarized answer; an empty list means it passed."""
    problems = []
    if job.kind == "dilog":
        if (res["verdict"], res["abs_verdict"]) != ("converged", "converged"):
            problems.append(f"verdicts {res['verdict']}/{res['abs_verdict']}, want converged")
        _close(problems, res["value"], res["error"], job.oracle, abs(job.oracle))
    elif job.kind == "box":
        if (res["verdict"], res["abs_verdict"]) != ("diverging", "diverging"):
            problems.append(f"verdicts {res['verdict']}/{res['abs_verdict']}, want diverging")
        want = [oracles.box_rung(job.oracle, eps) for eps, _ in res["rungs"]]
        scale = max(want + [1.0])
        for (eps, got), ref in zip(res["rungs"], want):
            if abs(got - ref) > REL_TOL * scale:
                problems.append(f"rung eps={eps:.3g}: {got!r} vs (ln(c/eps))^2 = {ref!r}")
    elif job.kind == "corner":
        got = {tuple(face) for face, _, _ in res["violations"]}
        if res["heuristic"]:
            problems.append("verdict used the sampled probe")
        if res["ok"] != (not job.oracle) or got != job.oracle:
            problems.append(f"violated faces {sorted(got)} vs {sorted(job.oracle)}")
    elif job.kind == "cdisk":
        if res["verdict"] != "converged":
            problems.append(f"verdict {res['verdict']}, want converged")
        scale = 2 * math.sqrt(2) * float(Fraction(job.params["rho"]))
        _close(problems, complex(*res["value"]), res["error"], job.oracle, scale)
    else:
        if res["alpha"] is None or not 0.8 <= res["alpha"] <= 1.2:
            problems.append(f"alpha {res['alpha']} outside [0.8, 1.2]")
        if res["verdict"] != "decays to zero" or not res["monotone"]:
            problems.append(f"verdict {res['verdict']!r}, monotone={res['monotone']}")
        for (t, vol), ref, t_in in zip(res["entries"], job.oracle, job.params["ts"]):
            if t != t_in or abs(vol - ref) > REL_TOL * ref:
                problems.append(f"slice t={t!r}: {vol!r} vs 8 pi^2 t = {ref!r}")
    return problems


def _close(problems, value, error, oracle, scale):
    diff = abs(value - oracle)
    if not diff <= REL_TOL * scale:
        problems.append(f"{value!r} vs oracle {oracle!r}: off by {diff:.3g}, "
                        f"more than {REL_TOL:g} relative")
    if not diff <= error + ROUNDING * scale:
        problems.append(f"{value!r} vs oracle {oracle!r}: off by {diff:.3g}, "
                        f"outside the reported error {error:.3g}")
