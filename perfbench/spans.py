"""Span tracing of logvol's layers, installed from the benchmark's side.

`Tracer.install` wraps each layer entry point listed in LAYERS at every
binding the library calls it through: a module-level function is replaced
in every logvol module that holds it (``slicing.slice_fiber`` and
``integrate.slice_fiber`` alike), a method on its class.  Each call records
a span (layer, parent span, job, start, end, note) in flat arrays kept in
memory; self time is the span's duration minus the durations of its child
spans, so nested levels of one layer (``_adaptive_1d`` inside
``_adaptive_1d``, the real/imaginary passes of ``_rung_value``) are not
counted twice.
"""

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _is_none(args, kwargs, out):
    return out is None


def _is_empty(args, kwargs, out):
    return not out


def _no_cells(args, kwargs, out):
    return not out.cells


def _faces_checked(args, kwargs, out):
    faces = args[1] if len(args) > 1 else kwargs.get("faces")
    return len(faces) if faces is not None else 2 ** args[0].p - 1


# (metric prefix, module, qualified name, note recorded per call)
LAYERS = (
    ("linprog.solve_lp", "logvol.linprog", "solve_lp", None),
    ("region.simplify_cell", "logvol.region", "simplify_cell", _is_none),
    ("region.is_allowable", "logvol.region", "Region.is_allowable", _faces_checked),
    ("region.is_admissible", "logvol.region", "Region.is_admissible", None),
    ("slicing.slice_fiber", "logvol.slicing", "slice_fiber", None),
    ("integrate.fiber_intervals", "logvol.integrate", "_FiberSolver.intervals", _is_empty),
    ("integrate.fiber_integral", "logvol.integrate", "_fiber_integral", None),
    ("integrate.adaptive_1d", "logvol.integrate", "_adaptive_1d", None),
    ("integrate.rung", "logvol.integrate", "_rung_value", None),
    ("integrate.ladder", "logvol.integrate", "_build_ladder", None),
    ("complexint.transform_piece", "logvol.complexint", "transform_piece", _no_cells),
    ("complexint.reduce_to_real_tasks", "logvol.complexint", "reduce_to_real_tasks", None),
    ("polyform.Polynomial.eval_many", "logvol.polyform", "Polynomial.eval_many", None),
    ("region.parse_region", "logvol.region", "parse_region", None),
)
_JOB = len(LAYERS)  # layer id of the per-job root span
_INDEX = {name: i for i, (name, _, _, _) in enumerate(LAYERS)}


def _logvol_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "logvol" or name.startswith("logvol."))]


class Tracer:
    def __init__(self):
        self.layer = array("H")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.note = array("q")
        self._stack = []
        self._job = -1
        self._patches = []   # (owner, attribute, original)

    # -- installation ----------------------------------------------------

    def _wrap(self, layer_id, fn, note):
        layer, parent, job = self.layer, self.parent, self.job
        start, end, notes, stack = self.start, self.end, self.note, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            job.append(self._job)
            notes.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if note is not None:
                notes[sid] = int(note(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _resolve(module, qualname):
        owner = sys.modules[module]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr

    def install(self):
        """Wrap every binding of every layer; `uninstall` restores them."""
        modules = _logvol_modules()
        for layer_id, (_, module, qualname, note) in enumerate(LAYERS):
            owner, attr = self._resolve(module, qualname)
            original = vars(owner)[attr]
            traced = self._wrap(layer_id, original, note)
            for holder in [owner] if isinstance(owner, type) else modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, traced)
                        self._patches.append((holder, name, original))

    def uninstall(self):
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    def unwrapped_bindings(self) -> list:
        """(module, attribute) pairs still bound to an unwrapped layer."""
        originals = {id(orig) for _, _, orig in self._patches}
        return [(m.__name__, name) for m in _logvol_modules()
                for name, value in vars(m).items() if id(value) in originals]

    @contextmanager
    def job_span(self, job_index: int):
        """Root span of one job; the layer spans below it carry its index."""
        self._job = job_index
        sid = len(self.start)
        self.layer.append(_JOB)
        self.parent.append(-1)
        self.job.append(job_index)
        self.note.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()
            self._job = -1

    # -- summary ---------------------------------------------------------

    def metrics(self) -> dict:
        """calls and self_s for each layer, plus the waste and shape ratios."""
        layer = np.frombuffer(self.layer, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        note = np.frombuffer(self.note, dtype=np.int64)
        size = len(LAYERS) + 1
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(layer, minlength=size)
        self_s = np.bincount(layer, weights=dur - child, minlength=size)
        notes = np.bincount(layer, weights=note, minlength=size)

        out = {}
        for i, (name, _, _, _) in enumerate(LAYERS):
            out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_s"] = (float(self_s[i]), "s")

        def frac(name):
            i = _INDEX[name]
            return float(notes[i] / calls[i]) if calls[i] else 0.0

        for name in ("region.simplify_cell", "integrate.fiber_intervals",
                     "complexint.transform_piece"):
            out[f"{name}.empty_frac"] = (frac(name), "ratio")

        allow, lp = _INDEX["region.is_allowable"], _INDEX["linprog.solve_lp"]
        lp_in_allow = 0
        for sid in np.flatnonzero(layer == lp):
            p = parent[sid]
            while p >= 0 and layer[p] != allow:
                p = parent[p]
            lp_in_allow += p >= 0
        faces = notes[allow]
        out["region.is_allowable.lp_per_face"] = (
            float(lp_in_allow / faces) if faces else 0.0, "ratio")

        ladder, rung = _INDEX["integrate.ladder"], _INDEX["integrate.rung"]
        top_rungs = int(np.sum((layer == rung) & has_parent
                               & (layer[np.where(has_parent, parent, 0)] == ladder)))
        out["integrate.ladder.rungs_per_ladder"] = (
            top_rungs / int(calls[ladder]) if calls[ladder] else 0.0, "ratio")
        return out
