"""Span tracing from outside the package, by wrapping public layer functions.

Each layer function is replaced, at the module attribute where its caller
looks it up, by a wrapper that records one span per call: name, start, end,
parent span and the op id shared by every span of one benchmark op. Spans are
kept in memory in flat arrays and written out once, when the run ends.

Nothing here is imported by an untraced run, so the untraced numbers never
depend on these wrappers.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from time import perf_counter

import numpy as np

# Span name -> the (module, attribute path) sites where callers look the
# function up. A function imported by name into several modules is wrapped
# at each site under one span name.
SITES = {
    "graphs.pairwise_distances": [("simbal.graphs", "pairwise_distances"),
                                  ("simbal.variants", "pairwise_distances")],
    "graphs.cross_distances": [("simbal.evaluation", "cross_distances")],
    "graphs.knn_graph": [("simbal.samplers", "knn_graph"), ("simbal.variants", "knn_graph")],
    "complexes.maximal_cliques": [("simbal.complexes", "maximal_cliques")],
    "complexes.p_skeleton": [("simbal.samplers", "p_skeleton"), ("simbal.variants", "p_skeleton")],
    "geometry.sample_dirichlet": [("simbal.samplers", "sample_dirichlet")],
    "samplers.point_stream": [("simbal.samplers", "SampleStreams.point_stream")],
    "samplers.oversample": [("simbal", "oversample"), ("simbal.evaluation", "oversample")],
    "samplers.augmented": [("simbal.samplers", "SyntheticBatch.augmented")],
    "variants.compute_safety": [("simbal.variants", "compute_safety")],
    "variants.safelevel_alphas": [("simbal.variants", "safelevel_alphas")],
    "variants.adasyn_weights": [("simbal.variants", "adasyn_weights")],
    "variants.borderline_subset": [("simbal.variants", "borderline_subset")],
    "evaluation.knn_classify": [("simbal.evaluation", "knn_classify")],
    "evaluation.grid_search_eval": [("simbal", "grid_search_eval")],
    "evaluation.stratified_cv": [("simbal.evaluation", "stratified_cv")],
    "metrics.confusion_counts": [("simbal.evaluation", "confusion_counts")],
    "metrics.f1_score": [("simbal.evaluation", "f1_score")],
    "metrics.mcc_score": [("simbal.evaluation", "mcc_score")],
    "datasets.subset": [("simbal.datasets", "Dataset.subset")],
}

# Per-layer metrics: (name, unit, statistic, spans summed). Every value is per
# op, so traced runs of different lengths and commits compare directly.
# "calls" counts spans, "s" sums their duration, "self_s" sums duration minus
# the time covered by wrapped children; "count" reads a counter.
PER_LAYER = [
    ("graphs.pairwise_distances.calls", "count/op", "calls", ["graphs.pairwise_distances"]),
    ("graphs.pairwise_distances.s", "s/op", "s", ["graphs.pairwise_distances"]),
    ("graphs.dist_bytes", "computed_B/op", "count", ["graphs.pairwise_distances",
                                                     "graphs.cross_distances"]),
    ("graphs.cross_distances.calls", "count/op", "calls", ["graphs.cross_distances"]),
    ("graphs.cross_distances.s", "s/op", "s", ["graphs.cross_distances"]),
    ("graphs.knn_graph.calls", "count/op", "calls", ["graphs.knn_graph"]),
    ("graphs.knn_graph.self_s", "s/op", "self_s", ["graphs.knn_graph"]),
    ("complexes.maximal_cliques.calls", "count/op", "calls", ["complexes.maximal_cliques"]),
    ("complexes.maximal_cliques.s", "s/op", "s", ["complexes.maximal_cliques"]),
    ("complexes.p_skeleton.self_s", "s/op", "self_s", ["complexes.p_skeleton"]),
    ("complexes.simplices", "count/op", "count", ["samplers.oversample"]),
    ("geometry.sample_dirichlet.calls", "count/op", "calls", ["geometry.sample_dirichlet"]),
    ("geometry.sample_dirichlet.s", "s/op", "s", ["geometry.sample_dirichlet"]),
    ("samplers.point_stream.calls", "count/op", "calls", ["samplers.point_stream"]),
    ("samplers.point_stream.s", "s/op", "s", ["samplers.point_stream"]),
    ("samplers.oversample.calls", "count/op", "calls", ["samplers.oversample"]),
    ("samplers.oversample.self_s", "s/op", "self_s", ["samplers.oversample"]),
    ("samplers.augmented.s", "s/op", "s", ["samplers.augmented"]),
    ("variants.compute_safety.calls", "count/op", "calls", ["variants.compute_safety"]),
    ("variants.compute_safety.self_s", "s/op", "self_s", ["variants.compute_safety"]),
    ("variants.safelevel_alphas.calls", "count/op", "calls", ["variants.safelevel_alphas"]),
    ("variants.safelevel_alphas.s", "s/op", "s", ["variants.safelevel_alphas"]),
    ("variants.adasyn_weights.s", "s/op", "s", ["variants.adasyn_weights"]),
    ("variants.borderline_subset.s", "s/op", "s", ["variants.borderline_subset"]),
    ("evaluation.knn_classify.calls", "count/op", "calls", ["evaluation.knn_classify"]),
    ("evaluation.knn_classify.self_s", "s/op", "self_s", ["evaluation.knn_classify"]),
    ("evaluation.grid_search_eval.self_s", "s/op", "self_s", ["evaluation.grid_search_eval"]),
    ("evaluation.stratified_cv.s", "s/op", "s", ["evaluation.stratified_cv"]),
    ("evaluation.unsampled_folds", "count/op", "count", ["evaluation.grid_search_eval"]),
    ("metrics.s", "s/op", "s", ["metrics.confusion_counts", "metrics.f1_score",
                                "metrics.mcc_score"]),
    ("datasets.subset.calls", "count/op", "calls", ["datasets.subset"]),
    ("datasets.subset.s", "s/op", "s", ["datasets.subset"]),
]


def overhead(traced: list[float], untraced: list[float]) -> dict[str, tuple[float, str]]:
    """Tracing overhead from paired runs of the same ops: traced minus untraced time.

    Medians over the pairs, per op and as a share of the untraced time, so a
    slow spell of the machine that hits one side of one pair does not count.
    """
    pairs = list(zip(traced, untraced))
    return {"trace.overhead_s": (statistics.median(t - u for t, u in pairs), "s/op"),
            "trace.overhead_frac": (statistics.median((t - u) / u for t, u in pairs), "share")}


def _dist_bytes(name, args):
    """Bytes of the float64 distance matrix a call allocates, from its argument shapes."""
    rows = len(args[0])
    cols = rows if name == "graphs.pairwise_distances" else len(args[1])
    return "graphs.dist_bytes", rows * cols * 8


def _simplices(batch):
    return "complexes.simplices", batch.meta.get("n_candidate_simplices", 0)


def _unsampled(report):
    return "evaluation.unsampled_folds", sum(len(c.diagnostics) for c in report.cells)


# Counters read from a wrapped call's arguments or its result.
ON_ARGS = {"graphs.pairwise_distances": _dist_bytes, "graphs.cross_distances": _dist_bytes}
ON_RESULT = {"samplers.oversample": _simplices, "evaluation.grid_search_eval": _unsampled}


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a site, or None if it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Span wrappers for every site that exists, and the aggregates of their spans.

    Sites are resolved and wrapped once, here; ``install`` and ``uninstall``
    only swap the attributes, so a run can switch tracing on and off per cycle.
    """

    def __init__(self):
        self.names: list[str] = list(SITES)
        self.span_id = array("l")
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.op_id = -1
        self.calls = dict.fromkeys(SITES, 0)
        self.total = dict.fromkeys(SITES, 0.0)
        self.self_time = dict.fromkeys(SITES, 0.0)
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._present: set[str] = set()
        # (owner, attribute, original, wrapper) per site that exists.
        self._sites: list[tuple[object, str, object, object]] = []
        for span, sites in SITES.items():
            for module, path in sites:
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                owner, attr = found
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._sites.append((owner, attr, original, self._wrap(span, original)))
                self._present.add(span)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._sites):
            setattr(owner, attr, original)

    def _count(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, span: str, fn):
        name_id = self.names.index(span)
        on_args = ON_ARGS.get(span)
        on_result = ON_RESULT.get(span)
        stack = self._stack

        def traced(*args, **kwargs):
            if on_args is not None:
                self._count(*on_args(span, args + tuple(kwargs.values())))
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]  # [span id, child time]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.span_id.append(frame[0])
                self.span_name.append(name_id)
                self.span_start.append(start)
                self.span_end.append(end)
                self.span_parent.append(-1 if parent is None else parent[0])
                self.span_op.append(self.op_id)
                self.calls[span] += 1
                self.total[span] += duration
                self.self_time[span] += duration - frame[1]
            if on_result is not None:
                self._count(*on_result(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def per_layer(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics; a metric whose spans all went missing is left out."""
        out = {}
        for name, unit, stat, spans in PER_LAYER:
            if not any(s in self._present for s in spans):
                continue
            if stat == "calls":
                value = sum(self.calls[s] for s in spans)
            elif stat == "s":
                value = sum(self.total[s] for s in spans)
            elif stat == "self_s":
                value = sum(self.self_time[s] for s in spans)
            else:
                value = self.counters.get(name, 0)
            out[name] = (value / n_ops, unit)
        return out

    def top_self_time(self, n_ops: int) -> list[tuple[str, float]]:
        """Span names by self time per op, largest first."""
        ranked = sorted(self.self_time.items(), key=lambda kv: -kv[1])
        return [(name, t / n_ops) for name, t in ranked if self.calls[name]]

    def save(self, path) -> None:
        """Write every span as flat arrays: id, name id, start, end, parent id, op id.

        Ids number spans in start order; rows are stored in end order, so a
        parent follows its children. Parent -1 marks a top-level span.
        """
        np.savez(path, names=np.array(self.names),
                 id=np.frombuffer(self.span_id, dtype=np.int64),
                 name=np.frombuffer(self.span_name, dtype=np.int16),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 op=np.frombuffer(self.span_op, dtype=np.int64))
