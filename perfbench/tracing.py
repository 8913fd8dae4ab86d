"""Per-layer tracing from outside the program.

``Tracer.install`` replaces subsel's public layer functions with wrappers
that record a span (name, start, end, parent) and the counts read off the
call's arguments and result. Callers import names with ``from .x import f``,
so every ``subsel`` module attribute that is the original function is
replaced, not only the one in the defining module; methods are replaced on
their class. ``uninstall`` puts the originals back. Spans stay in memory
until ``write`` is called at the end of a run.

A span's self time is its duration minus the durations of its direct
children (calls are nested, single-threaded). A layer's busy time sums only
the spans that have no enclosing span of the same name, so recursion-like
nesting (``accuracy`` -> ``predict_batch`` -> ``predict_proba_batch``) is
not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _kernel_bytes(call, result):
    return {"bytes": result.n * result.n * 8}


def _selection(call, result):
    return {"gain_evals": result.gain_evals, "picks": len(result.indices)}


def _fit(call, result):
    return {"iters": result.n_iters, "converged": int(result.converged)}


def _knn_pairs(call, result):
    return {"distance_pairs": call.arguments["holdout"].n * call.arguments["train"].n}


def _kept(call, result):
    return {"kept": len(result)}


def _fill(call, result):
    return {"filled": len(result), "requested": call.arguments["batch_size"]}


# (defining module, attribute or Class.method, span name, counter)
TARGETS = (
    ("subsel.dataset", "load_features", "dataset.load", None),
    ("subsel.dataset", "load_dataset", "dataset.load", None),
    ("subsel.dataset", "split", "dataset.split", None),
    ("subsel.kernels", "cosine_similarity", "kernels.cosine", _kernel_bytes),
    ("subsel.kernels", "euclidean_distance", "kernels.euclidean", _kernel_bytes),
    ("subsel.kernels", "sparsify_knn", "kernels.sparsify", None),
    ("subsel.objectives", "FacilityLocation.gain", "objectives.gain", None),
    ("subsel.objectives", "FacilityLocation.gains_all", "objectives.gains_all", None),
    ("subsel.objectives", "FacilityLocation.add", "objectives.add", None),
    ("subsel.objectives", "DisparityMin.gain", "objectives.gain", None),
    ("subsel.objectives", "DisparityMin.gains_all", "objectives.gains_all", None),
    ("subsel.objectives", "DisparityMin.add", "objectives.add", None),
    ("subsel.optimize", "greedy_lazy", "optimize.greedy_lazy", _selection),
    ("subsel.optimize", "farthest_point", "optimize.farthest_point", _selection),
    ("subsel.models", "logreg_fit", "models.logreg_fit", _fit),
    ("subsel.models", "LogRegModel.predict_proba", "models.predict", None),
    ("subsel.models", "LogRegModel.predict_proba_batch", "models.predict", None),
    ("subsel.models", "LogRegModel.predict_batch", "models.predict", None),
    ("subsel.models", "LogRegModel.accuracy", "models.predict", None),
    ("subsel.models", "knn_accuracy", "models.knn_accuracy", _knn_pairs),
    ("subsel.active", "filter_uncertain", "active.filter_uncertain", _kept),
    ("subsel.active", "select_batch", "active.select_batch", _fill),
    ("subsel.active", "fass_round", "active.fass_round", None),
    ("subsel.active", "run_al", "active.run_al", None),
    ("subsel.harness", "selection_order", "harness.selection_order", None),
    ("subsel.harness", "sweep_goal1", "harness.sweep_goal1", None),
    ("subsel.harness", "run_goal2", "harness.run_goal2", None),
    ("subsel.harness", "emit_csv", "harness.emit_csv", None),
)

# Counters whose call arguments are needed; binding is skipped for the rest.
_NEEDS_CALL = {_knn_pairs, _fill}

# name, unit, better: the per-layer metrics a traced run reports, per job, as
# BENCHMARK.json declares them.
PER_LAYER = tuple(
    (m["name"], m["unit"], m["better"]) for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text(encoding="utf-8"))["per_layer"])

# ratio metric -> (numerator, denominator) among the per-job sums
_RATIOS = {
    "optimize.greedy_lazy.useful_ratio": ("optimize.greedy_lazy.picks",
                                          "optimize.greedy_lazy.gain_evals"),
    "models.logreg_fit.converged_ratio": ("models.logreg_fit.converged",
                                          "models.logreg_fit.calls"),
    "active.select_batch.fill_ratio": ("active.select_batch.filled",
                                       "active.select_batch.requested"),
}

_SPANS = {name for _, _, name, _ in TARGETS} | {"cli"}
_UNKNOWN = [name for name, _, _ in PER_LAYER if name != "trace_overhead"
            and name not in _RATIOS and name.rsplit(".", 1)[0] not in _SPANS]
if _UNKNOWN:
    raise ValueError(f"BENCHMARK.json names per-layer metrics no span feeds: {_UNKNOWN}")

# span fields: name, parent index, job, start, end, counts, nested in same name
_NAME, _PARENT, _JOB, _START, _END, _COUNTS, _NESTED = range(7)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.job = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, self.job,
                           self.clock(), None, None, self._open[name] > 0])
        self._stack.append(i)
        self._open[name] += 1
        return i

    def _exit(self, i: int) -> None:
        span = self.spans[i]
        span[_END] = self.clock()
        self._stack.pop()
        self._open[span[_NAME]] -= 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        i = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(i)

    def _wrap(self, fn, name: str, counter):
        tracer = self
        signature = inspect.signature(fn) if counter in _NEEDS_CALL else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(i)
            if counter is not None:
                call = signature.bind(*args, **kwargs) if signature else None
                tracer.spans[i][_COUNTS] = counter(call, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever subsel's modules refer to it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "subsel" or key.startswith("subsel.")) and m is not None]
        for module_name, attr, name, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *cls_path, leaf = attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if cls_path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, counter)
            if cls_path:
                self._patch(owner, leaf, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- analysis --------------------------------------------------------

    def job_sums(self) -> dict[int, dict[str, float]]:
        """Per job: {span}.s (busy), .self_s, .calls and summed counts."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        jobs: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(self.spans):
            name, sums = span[_NAME], jobs[span[_JOB]]
            duration = span[_END] - span[_START]
            if not span[_NESTED]:
                sums[f"{name}.s"] += duration
            sums[f"{name}.self_s"] += duration - child[i]
            sums[f"{name}.calls"] += 1
            for key, value in (span[_COUNTS] or {}).items():
                sums[f"{name}.{key}"] += value
        return {job: dict(sums) for job, sums in jobs.items()}

    def write(self, path, origin: float) -> None:
        """Write spans as JSON lines, times in seconds from origin.

        Each line is [id, name, parent id or -1, job, start, end, counts or null].
        """
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, span[_NAME], span[_PARENT], span[_JOB],
                                     round(span[_START] - origin, 7),
                                     round(span[_END] - origin, 7), span[_COUNTS]]))
                fh.write("\n")


def per_layer(sums: dict[str, float]) -> dict[str, float]:
    """The PER_LAYER values (except trace_overhead) of one job's sums."""
    out = {}
    for name, _, _ in PER_LAYER:
        if name in _RATIOS:
            num, den = (sums.get(key, 0) for key in _RATIOS[name])
            out[name] = num / den if den else 0.0
        elif name != "trace_overhead":
            out[name] = sums.get(name, 0)
    return out
