"""Outside-in tracer: wraps public flowgnn functions with timing spans.

The wrapper for a function replaces every binding of it: the defining
module and every other flowgnn module that imported it by name (for
example `training` and `pretrain` bind `forward_prepared`, `prepare_graph`
and `adam_step` directly). `Tensor.backward` is wrapped on the class.
Spans stay in memory until the run ends. A listed function that no
longer exists is reported as absent instead of failing the run.

A span's self time is its duration minus the durations of its child
spans; calls run on one thread, so children never overlap. A count hook
runs inside its span, before the end is taken, so its parent is not
charged for it; its time is then taken off the span's own self time and
reported as tracing cost.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict

TRAIN, PRETRAIN, INGEST, SCORE = "train", "pretrain", "ingest", "score-wide"
MODEL_PATH = (TRAIN, PRETRAIN, SCORE)
GRAPH_BUILD = (TRAIN, INGEST, SCORE)   # cache read, encode, window graphs
CSV_INGEST = (INGEST, SCORE)           # CSV parse and cache write
SPLITTING = (TRAIN, INGEST)            # prepare_splits

EDGE_TYPES = ("flow_to_src", "src_to_flow", "flow_to_dst", "dst_to_flow",
              "intra_src", "intra_dst", "inter_ip", "inter_flow")
WINDOW_EDGE_TYPES = EDGE_TYPES[:6]


def _prepare_graph_counts(tracer, args, kwargs, arrays):
    tracer.counts["model.nodes"] += arrays.num_nodes
    tracer.counts["model.edges"] += sum(len(src) for src, _ in arrays.edges.values())
    tracer.maxima["model.max_nodes_per_graph"] = max(
        tracer.maxima["model.max_nodes_per_graph"], arrays.num_nodes)


def _sample_negatives_counts(tracer, args, kwargs, task):
    for etype, (src, _) in task.positives.items():
        tracer.counts["pretrain.negatives_wanted"] += int(task.negative_ratio * len(src))
    for src, _ in task.negatives.values():
        tracer.counts["pretrain.negatives_found"] += len(src)


def _score_edges_counts(tracer, args, kwargs, logits):
    tracer.counts["pretrain.edges_scored"] += len(logits.data)


def _load_flow_csv_counts(tracer, args, kwargs, result):
    tracer.counts["ingest.rows"] += result.accepted + result.rejected
    tracer.counts["ingest.rejected"] += result.rejected


def _write_flow_cache_counts(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["ingest.cache_bytes"] += os.path.getsize(path)


def _snapshot_counts(tracer, args, kwargs, snapshots):
    tracer.counts["windows.windows"] += len(snapshots)


def _window_edge_counts(tracer, args, kwargs, snapshot):
    for etype in WINDOW_EDGE_TYPES:
        tracer.counts[f"windows.edges.{etype}"] += len(getattr(snapshot, etype))


def _recurrence_edge_counts(tracer, args, kwargs, graph):
    tracer.counts["windows.edges.inter_ip"] += len(graph.inter_ip_edges)
    tracer.counts["windows.edges.inter_flow"] += len(graph.inter_flow_edges)


#: (span name, defining module, attribute, workloads it must fire on,
#:  count hook run on the result). Names are the per-layer metric prefixes.
SPANS = (
    ("model.prepare_graph", "flowgnn.model", "prepare_graph", MODEL_PATH,
     _prepare_graph_counts),
    ("model.forward_prepared", "flowgnn.model", "forward_prepared",
     (TRAIN, SCORE), None),
    ("model.init_node_states", "flowgnn.model", "init_node_states", MODEL_PATH, None),
    ("model.temporal_step", "flowgnn.model", "temporal_step", MODEL_PATH, None),
    ("model.spatial_step", "flowgnn.model", "spatial_step", MODEL_PATH, None),
    ("model.classify", "flowgnn.model", "classify", (TRAIN, SCORE), None),
    ("model.save_checkpoint", "flowgnn.model", "save_checkpoint", (PRETRAIN,), None),
    ("model.load_checkpoint", "flowgnn.model", "load_checkpoint",
     (PRETRAIN, SCORE), None),
    ("tensor.Tensor.backward", "flowgnn.tensor", "Tensor.backward",
     (TRAIN, PRETRAIN), None),
    ("tensor.adam_step", "flowgnn.tensor", "adam_step", (TRAIN, PRETRAIN), None),
    ("tensor.zero_grads", "flowgnn.tensor", "zero_grads", (TRAIN, PRETRAIN), None),
    ("training.train", "flowgnn.training", "train", (TRAIN,), None),
    ("training.predict_flows", "flowgnn.training", "predict_flows", (TRAIN, SCORE), None),
    ("training.evaluate", "flowgnn.training", "evaluate", (TRAIN, SCORE), None),
    ("training.chronological_split", "flowgnn.training", "chronological_split",
     SPLITTING, None),
    ("pretrain.sample_negatives", "flowgnn.pretrain", "sample_negatives",
     (PRETRAIN,), _sample_negatives_counts),
    ("pretrain.link_pred_loss", "flowgnn.pretrain", "link_pred_loss", (PRETRAIN,), None),
    ("pretrain.score_edges", "flowgnn.pretrain", "score_edges", (PRETRAIN,),
     _score_edges_counts),
    # defined in model, called only by pre-training
    ("pretrain.final_states", "flowgnn.model", "final_states", (PRETRAIN,), None),
    ("pretrain.transfer_weights", "flowgnn.pretrain", "transfer_weights",
     (PRETRAIN,), None),
    ("ingest.load_flow_csv", "flowgnn.ingest", "load_flow_csv", CSV_INGEST,
     _load_flow_csv_counts),
    ("ingest.label_records", "flowgnn.ingest", "label_records", GRAPH_BUILD, None),
    ("ingest.write_flow_cache", "flowgnn.ingest", "write_flow_cache", CSV_INGEST,
     _write_flow_cache_counts),
    ("ingest.read_flow_cache", "flowgnn.ingest", "read_flow_cache", GRAPH_BUILD, None),
    ("ingest.fit_codec", "flowgnn.ingest", "fit_codec", SPLITTING, None),
    ("ingest.encode_flows", "flowgnn.ingest", "encode_flows", GRAPH_BUILD, None),
    ("windows.build_snapshots", "flowgnn.windows", "build_snapshots", GRAPH_BUILD,
     _snapshot_counts),
    ("windows.add_intra_temporal_edges", "flowgnn.windows",
     "add_intra_temporal_edges", GRAPH_BUILD, _window_edge_counts),
    ("windows.assemble_temporal_graph", "flowgnn.windows",
     "assemble_temporal_graph", GRAPH_BUILD, _recurrence_edge_counts),
    ("metrics.build_report", "flowgnn.metrics", "build_report", (TRAIN, SCORE), None),
)

#: span name -> (count metric name) for spans whose call count is reported
CALL_COUNTS = {"model.prepare_graph": "model.prepare_graph.calls",
               "tensor.adam_step": "tensor.adam_step.calls"}

COUNT_METRICS = ("model.nodes", "model.edges", "pretrain.negatives_wanted",
                 "pretrain.negatives_found", "pretrain.edges_scored",
                 "ingest.rows", "ingest.rejected", "ingest.cache_bytes",
                 "windows.windows") + tuple(f"windows.edges.{e}" for e in EDGE_TYPES)


def _resolve(module_name: str, attr: str):
    """(owner, attribute name, function) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        #: [name, start_ns, end_ns, parent index, ns spent in the count hook]
        self.records: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        records, stack = self.records, self._stack

        def traced(*args, **kwargs):
            index = len(records)
            records.append([name, 0, 0, stack[-1] if stack else -1, 0])
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    returned = time.perf_counter_ns()
                    hook(self, args, kwargs, result)
                    records[index][4] = time.perf_counter_ns() - returned
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                records[index][1] = start
                records[index][2] = end
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "flowgnn" or n.startswith("flowgnn.")]
        for name, module_name, attr, _, hook in SPANS:
            found = _resolve(module_name, attr)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr_name, fn = found
            wrapper = self._wrap(name, fn, hook)
            if isinstance(owner, type):
                self._patch(owner, attr_name, wrapper)
                continue
            for module in modules:
                for bound in [k for k, v in vars(module).items() if v is fn]:
                    self._patch(module, bound, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name over all recorded spans."""
        child = [0] * len(self.records)
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, hook_ns), inner in zip(self.records, child):
            out[name] += (end - start - inner - hook_ns) / 1e9
        return out

    def hook_seconds(self) -> float:
        """Total time spent in count hooks."""
        return sum(record[4] for record in self.records) / 1e9

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.records)


def layer_metrics(tracer: Tracer, iterations: int, workload: str,
                  overhead_s: float, traced_wall_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics per traced iteration, plus the spans that should
    have fired on this workload but did not (a tracer coverage failure).
    `traced_wall_s` is the mean wall time of one traced iteration."""
    selfs = tracer.self_seconds()
    calls = tracer.calls()
    metrics: dict[str, tuple[float, str]] = {}
    silent = []
    for name, _, _, fires_on, _ in SPANS:
        metrics[f"{name}.self_s"] = (selfs.get(name, 0.0) / iterations, "s")
        if workload in fires_on and name not in tracer.absent and calls[name] == 0:
            silent.append(name)
    for span, metric in CALL_COUNTS.items():
        metrics[metric] = (calls[span] / iterations, "count")
    for metric in COUNT_METRICS:
        unit = "bytes" if metric == "ingest.cache_bytes" else "count"
        metrics[metric] = (tracer.counts[metric] / iterations, unit)
    metrics["model.max_nodes_per_graph"] = (
        float(tracer.maxima["model.max_nodes_per_graph"]), "count")
    wanted = tracer.counts["pretrain.negatives_wanted"]
    found = tracer.counts["pretrain.negatives_found"]
    metrics["pretrain.negative_yield"] = (found / wanted if wanted else 0.0, "ratio")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.hook_s"] = (tracer.hook_seconds() / iterations, "s")
    metrics["trace.unattributed_s"] = (
        traced_wall_s - (sum(selfs.values()) + tracer.hook_seconds()) / iterations,
        "s")
    return metrics, silent
