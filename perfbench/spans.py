"""Per-layer spans around stratlogit, recorded from outside the package.

While ``Tracer.operation`` is open, the names that ``stratlogit.cli``,
``stratlogit.pipeline``, ``stratlogit.model_select`` and
``stratlogit.attribution`` look up at call time are replaced by wrappers
that record a span and the layer's counters.  The originals are put
back when it closes, so untraced operations run the unmodified code.
``stratlogit.network`` looks up no other layer's public function: its
spans come from the names ``stratlogit.cli`` looks up.

A span is (op id, span id, parent span id, name, start, end).  Spans
stay in memory until the run ends.  The root span ``cli`` encloses the
``stratlogit.cli.main`` call.  A layer's self time
is its spans' duration minus the part covered by their child spans, so
the self times of one operation add up to its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

# (module that looks the name up, name, span).  Layers are the package
# modules; several public functions of one module share its span.
BOUNDARIES = (
    ("stratlogit.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("stratlogit.cli", "write_report_files", "pipeline.write"),
    ("stratlogit.cli", "read_edge_list", "network.read_edge_list"),
    ("stratlogit.cli", "build_graph", "network.build_graph"),
    ("stratlogit.cli", "girvan_newman", "network.girvan_newman"),
    ("stratlogit.pipeline", "parse_dataset", "ingest.parse"),
    ("stratlogit.pipeline", "filter_eligible", "ingest.parse"),
    ("stratlogit.pipeline", "build_feature_matrix", "indicators.build"),
    ("stratlogit.pipeline", "describe", "stats_core.describe"),
    ("stratlogit.pipeline", "pearson_matrix", "stats_core.describe"),
    ("stratlogit.pipeline", "vif", "stats_core.describe"),
    ("stratlogit.pipeline", "make_split", "evaluate.evaluate"),
    ("stratlogit.pipeline", "predict_prob", "evaluate.evaluate"),
    ("stratlogit.pipeline", "classify", "evaluate.evaluate"),
    ("stratlogit.pipeline", "metrics", "evaluate.evaluate"),
    ("stratlogit.pipeline", "roc_auc", "evaluate.evaluate"),
    ("stratlogit.pipeline", "fit_logistic", "logit.fit"),
    ("stratlogit.pipeline", "enumerate_subsets", "model_select.select"),
    ("stratlogit.pipeline", "fit_all", "model_select.select"),
    ("stratlogit.pipeline", "backward_stepwise", "model_select.select"),
    ("stratlogit.pipeline", "linear_shap", "attribution.shap"),
    ("stratlogit.pipeline", "mean_abs_importance", "attribution.shap"),
    ("stratlogit.pipeline", "trend_compare", "attribution.trend"),
    ("stratlogit.model_select", "fit_logistic", "logit.fit"),
    ("stratlogit.attribution", "lowess", "attribution.lowess"),
)

ROOT_SPAN = "cli"

# Self-time metric of each span.
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "pipeline.run_pipeline": "pipeline.run_pipeline_s",
    "pipeline.write": "pipeline.write_s",
    "ingest.parse": "ingest.parse_s",
    "indicators.build": "indicators.build_s",
    "stats_core.describe": "stats_core.describe_s",
    "evaluate.evaluate": "evaluate.evaluate_s",
    "logit.fit": "logit.fit_s",
    "model_select.select": "model_select.select_s",
    "attribution.shap": "attribution.shap_s",
    "attribution.trend": "attribution.trend_s",
    "attribution.lowess": "attribution.lowess_s",
    "network.read_edge_list": "network.read_edge_list_s",
    "network.build_graph": "network.build_graph_s",
    "network.girvan_newman": "network.girvan_newman_s",
}

_PIPELINE = "op_s_p50 on synth2000-stepwise most; small everywhere, a regression guard"
_SELECT = "op_s_p50 on fixture-enumerate most, synth2000-stepwise little"
_TREND = (
    "op_s_p50 on synth2000-stepwise most, fixture-enumerate by about 30%, "
    "coauthor-gn120 not at all"
)
_NETWORK = "op_s_p50 on coauthor-gn120 only"
_TRACE = "nothing: tracing cost, for reading the other per-layer times"

# (metric, unit, better, which end-to-end metric and workload it is
# expected to move).  Values are per traced operation.
PER_LAYER = (
    ("cli.self_s", "s", "lower", _PIPELINE),
    ("pipeline.run_pipeline_s", "s", "lower", _PIPELINE),
    ("pipeline.write_s", "s", "lower", _PIPELINE),
    ("pipeline.bytes_written", "bytes", "lower", _PIPELINE),
    ("ingest.parse_s", "s", "lower", _PIPELINE),
    ("indicators.build_s", "s", "lower", _PIPELINE),
    ("stats_core.describe_s", "s", "lower", _PIPELINE),
    ("evaluate.evaluate_s", "s", "lower", _PIPELINE),
    ("model_select.select_s", "s", "lower", _SELECT),
    ("model_select.search_s", "s", "lower", _SELECT),
    ("model_select.candidates", "count", "lower", _SELECT),
    ("model_select.converged_ratio", "ratio", "higher", _SELECT),
    ("logit.fit_s", "s", "lower", _SELECT),
    ("logit.fits", "count", "lower", _SELECT),
    ("logit.newton_iters", "count", "lower", _SELECT),
    ("logit.s_per_fit", "s", "lower", _SELECT),
    ("attribution.shap_s", "s", "lower", _PIPELINE),
    ("attribution.trend_s", "s", "lower", _TREND),
    ("attribution.lowess_s", "s", "lower", _TREND),
    ("attribution.lowess_calls", "count", "lower", _TREND),
    ("attribution.lowess_sites", "count", "lower", _TREND),
    ("network.read_edge_list_s", "s", "lower", _NETWORK),
    ("network.build_graph_s", "s", "lower", _NETWORK),
    ("network.girvan_newman_s", "s", "lower", _NETWORK),
    ("network.betweenness_passes", "count", "lower", _NETWORK + " (computed: edges removed)"),
    ("trace.op_s_p50", "s", "lower", _TRACE),
    ("trace.overhead_s", "s", "lower", _TRACE),
)

COUNTERS = (
    "logit.fits",
    "logit.newton_iters",
    "model_select.candidates",
    "model_select.converged",
    "attribution.lowess_calls",
    "attribution.lowess_sites",
    "pipeline.bytes_written",
    "network.betweenness_passes",
)


def _count_fit(counts, result, args, kwargs):
    counts["logit.fits"] += 1
    if result is not None:
        counts["logit.newton_iters"] += result.iterations


def _count_candidate(counts, result, args, kwargs):
    _count_fit(counts, result, args, kwargs)
    counts["model_select.candidates"] += 1
    if result is not None and result.converged:
        counts["model_select.converged"] += 1


def _count_lowess(counts, result, args, kwargs):
    counts["attribution.lowess_calls"] += 1
    if result is not None:
        counts["attribution.lowess_sites"] += int(result.x.size)


def _count_bytes(counts, result, args, kwargs):
    if result is not None:
        counts["pipeline.bytes_written"] += sum(os.path.getsize(p) for p in result)


def _count_passes(counts, result, args, kwargs):
    # girvan_newman runs one betweenness pass per edge it removes: every
    # edge, unless a target community count stops it at the last level.
    if result is None:
        return
    graph = args[0]
    target_communities = kwargs.get("target_communities", args[1] if len(args) > 1 else None)
    last = result[0][-1]
    if target_communities is None or last.n_communities < target_communities:
        counts["network.betweenness_passes"] += graph.n_edges
    else:
        counts["network.betweenness_passes"] += last.step


# Counters updated after a wrapped call returns (result None if it raised).
_COUNT_HOOKS = {
    ("stratlogit.pipeline", "fit_logistic"): _count_fit,
    ("stratlogit.model_select", "fit_logistic"): _count_candidate,
    ("stratlogit.attribution", "lowess"): _count_lowess,
    ("stratlogit.cli", "write_report_files"): _count_bytes,
    ("stratlogit.cli", "girvan_newman"): _count_passes,
}


class Tracer:
    """Spans and counters of the traced operations of one run.

    Operations run on one thread (``STRAT_THREADS`` unset), so spans
    nest and a span's children never overlap.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def operation(self, op_id):
        """Trace one operation: wrappers installed, root span open."""
        self._op = op_id
        self.counts[op_id] = Counter({c: 0 for c in COUNTERS})
        saved = []
        try:
            for module_name, attr, name in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                hook = _COUNT_HOOKS.get((module_name, attr))
                setattr(module, attr, self._wrap(original, name, hook))
            with self.span(ROOT_SPAN):
                yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = None
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            finally:
                # Counted after the span closes, so only the enclosing
                # span pays for it; a call that raised counts with None.
                if hook is not None:
                    hook(self.counts[self._op], result, args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self._op, sid, parent, name, start, end))

    def per_op(self):
        """{op id: ({span name: self time}, {span name: duration}, counters)}."""
        by_op = defaultdict(list)
        for span in self.spans:
            by_op[span[0]].append(span)
        out = {}
        for op_id, spans in by_op.items():
            child_time = defaultdict(float)
            for _, _, parent, _, start, end in spans:
                child_time[parent] += end - start
            self_time = defaultdict(float)
            duration = defaultdict(float)
            for _, sid, _, name, start, end in spans:
                self_time[name] += (end - start) - child_time[sid]
                duration[name] += end - start
            out[op_id] = (dict(self_time), dict(duration), dict(self.counts[op_id]))
        return out

    def write(self, path, header):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("op", "span", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(per_op: dict) -> dict:
    """Per-layer metrics, averaged over the traced operations."""
    n = len(per_op)
    self_time = Counter()
    duration = Counter()
    counts = Counter()
    for selfs, durations, cnt in per_op.values():
        self_time.update(selfs)
        duration.update(durations)
        counts.update(cnt)
    out = {m: self_time.get(span, 0.0) / n for span, m in SELF_TIME_METRICS.items()}
    # The whole subset search, the logit fits it makes included.
    out["model_select.search_s"] = duration.get("model_select.select", 0.0) / n
    for c in COUNTERS:
        out[c] = counts[c] / n
    fits = out["logit.fits"]
    out["logit.s_per_fit"] = out["logit.fit_s"] / fits if fits else 0.0
    cands = out["model_select.candidates"]
    out["model_select.converged_ratio"] = (
        out.pop("model_select.converged") / cands if cands else 0.0
    )
    return out
