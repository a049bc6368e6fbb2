"""logvol benchmark: run one workload for one seed and print one result line.

    python3 perfbench/run.py --workload real_ladder --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: logvol is imported from the
checkout's src/ directory, never from an installed copy.  Everything runs in
this one process on one thread, except the set-up measurement, which starts
fresh interpreters one after another and waits for each.

--trace 0 measures the end-to-end metrics: set-up time (median of several
fresh-process imports plus parsing), the batch's time to solution (each
job's median time over repeated passes of the batch, summed), and peak RSS.
Both times are calibrated against the host's momentary speed (see
calibrate.py); raw wall times go to standard error.  --trace 1 runs the
batch once untraced and once with span tracing installed and reports the
per-layer calls, self times and ratios, plus the tracing overhead.  Every
job answer is checked against its oracle; the last line of standard output
is the JSON result.
"""

import os

# Pin native thread pools before numpy is first imported, here and in the
# set-up children, which inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 9

# Times, inside a fresh interpreter, importing logvol and parsing the batch.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import logvol
for doc in json.load(sys.stdin):
    logvol.parse_region(doc)
print(repr(time.perf_counter() - t0))
"""


def load_logvol():
    if not (SRC / "logvol" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no logvol sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import logvol

    if Path(logvol.__file__).resolve().parent != SRC / "logvol":
        raise SystemExit(f"run.py: imported logvol from {logvol.__file__}, not {SRC}")
    return logvol


def measure_setup(batch, probe) -> float:
    """Median calibrated time of importing logvol and parsing the batch in
    fresh interpreters, started one after another."""
    docs = json.dumps([job.doc for job in batch])

    def child():
        return subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC)], input=docs,
                              capture_output=True, text=True, timeout=120, check=True)

    def own_time(proc):
        return float(proc.stdout.strip().splitlines()[-1])

    runs = [probe.time(child, own_time)[1:] for _ in range(SETUP_REPEATS)]
    print("setup wall s " + " ".join(f"{wall:.3f}" for wall, _ in runs), file=sys.stderr)
    return statistics.median(cal for _, cal in runs)


def execute(lv, job, probe):
    """(summarized answer or None, problems, raised, wall s, calibrated s) of one job."""
    gc.collect()

    def call():
        try:
            return workloads.run_job(lv, job), None
        except Exception as exc:  # a failing job is reported and the run goes on
            traceback.print_exc(file=sys.stderr)
            return None, exc

    (out, exc), wall, cal = probe.time(call)
    if exc is not None:
        return None, [f"raised {type(exc).__name__}: {exc}"], True, wall, cal
    res = workloads.summarize(job, out)
    return res, workloads.check(job, res), False, wall, cal


class Tally:
    """Counts job executions and failures, and prints each outcome once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []   # failures outside a recorded known defect
        self.failed_ids = []
        self.first = {}        # job id -> JSON answer of its first execution
        self._printed = set()

    def record(self, job, res, problems, raised):
        answer = json.dumps(res)  # compared as text, so NaN equals NaN
        differs = job.id in self.first and answer != self.first[job.id]
        if differs:
            problems = problems + ["answer differs from this job's first execution"]
        self.first.setdefault(job.id, answer)
        self.attempted += 1
        if problems:
            self.failed += 1
            known = job.known_defect is not None and not raised and not differs
            if not known:
                self.unexpected.append(job.id)
            if job.id not in self.failed_ids:
                self.failed_ids.append(job.id)
            status = f"FAIL (known defect: {job.known_defect})" if known else "FAIL"
        else:
            status = "ok"
        key = (job.id, tuple(problems))
        if key not in self._printed:
            self._printed.add(key)
            print(f"job {job.id} {status} {json.dumps(job.params)} {answer}")
            for p in problems:
                print(f"    {job.id}: {p}")


def run_pass(lv, batch, tally, probe, tracer=None) -> list:
    """(wall s, calibrated s) of each job of one pass over the batch."""
    times = []
    for i, job in enumerate(batch):
        if tracer is None:
            res, problems, raised, wall, cal = execute(lv, job, probe)
        else:
            with tracer.job_span(i):
                res, problems, raised, wall, cal = execute(lv, job, probe)
        tally.record(job, res, problems, raised)
        times.append((wall, cal))
    return times


def measure(lv, batch, seconds, tally) -> dict:
    probe = calibrate.SpeedProbe()
    setup_s = measure_setup(batch, probe)  # the alarm stays off here
    per_job = [[] for _ in batch]
    pass_walls = []
    t0 = time.perf_counter()
    with probe:
        while not pass_walls or \
                time.perf_counter() - t0 + statistics.mean(pass_walls) <= seconds:
            times = run_pass(lv, batch, tally, probe)
            for acc, (_, cal) in zip(per_job, times):
                acc.append(cal)
            pass_walls.append(sum(wall for wall, _ in times))
    print(f"passes {len(pass_walls)}, wall s " + " ".join(f"{w:.3f}" for w in pass_walls)
          + f", kernel {probe.typical() * 1e3:.3f} ms", file=sys.stderr)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(statistics.median(cals) for cals in per_job), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }


def measure_traced(lv, batch, tally) -> dict:
    with calibrate.SpeedProbe() as probe:
        untraced = sum(cal for _, cal in run_pass(lv, batch, tally, probe))
        tracer = spans.Tracer()
        try:
            tracer.install()
            missed = tracer.unwrapped_bindings()
            if missed:
                raise RuntimeError(f"layer bindings left unwrapped: {missed}")
            traced = sum(cal for _, cal in run_pass(lv, batch, tally, probe, tracer))
        finally:
            tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lv = load_logvol()
    batch = workloads.make_batch(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        metrics = measure_traced(lv, batch, tally)
    else:
        metrics = measure(lv, batch, args.seconds, tally)
    if tally.failed_ids:
        print("failed jobs: " + " ".join(tally.failed_ids))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
