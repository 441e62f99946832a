"""The benchmark workloads: inputs made from a seed, one closed-loop
iteration of library calls, and the checks on their outputs. `ingest` is
runnable by name but not listed in BENCHMARK.json (see README.md).

Each workload has a `setup(seed, workdir)` that builds every input the
timed part needs (not timed by the iteration) and an `iterate(state)` that
makes one round of library calls and checks what they returned. The library
only ever sees the generated inputs.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from flowgnn import (experiments, ingest, model, pretrain, synth, tensor,
                     training, windows)

GRAPH = dict(window_size=5.0, window_memory=5)   # CLI defaults
#: graphs before this index join fewer windows than the memory holds, so
#: pretrain and score-wide keep only the graphs after it (full-size graphs)
WARMUP = GRAPH["window_memory"] - 1
SPLIT = (0.7, 0.15, 0.15)                          # CLI default train.split

TRAIN_DATA = dict(n_windows=60, sources_per_window=6, burst_len=10)
TRAIN_EPOCHS = 1
PRETRAIN_NETWORKS = ("netB", "netC")
PRETRAIN_DATA = dict(n_windows=8 + WARMUP, sources_per_window=6, burst_len=10)
PRETRAIN_EPOCHS = 1
PRETRAIN_LR = 0.0001           # CLI default pretrain.lr
NEGATIVE_RATIO = 1.0           # CLI default pretrain.negative_ratio
INGEST_DATA = dict(n_windows=1000, sources_per_window=6, burst_len=10)
PLANTED_SHARE = 0.005
SCORE_NETWORKS = 4
SCORE_DATA = dict(n_windows=10 + WARMUP, sources_per_window=12, burst_len=10)


@dataclass
class Iteration:
    """Outcome of one closed-loop iteration."""

    items: int            # work units behind `rate`
    timed_s: float        # time the workload's throughput is measured on
    wall_s: float         # all library calls of the iteration
    attempted: int        # operations for op_failure_rate
    failed: int
    named: dict = field(default_factory=dict)     # metric -> (value, unit)
    problems: list = field(default_factory=list)  # failed output checks

    @property
    def rate(self) -> float:
        return self.items / self.timed_s


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    unit: str                      # what one item of throughput is
    steps: Callable                # state -> attempted operations per iteration
    setup: Callable                # (seed, workdir) -> state
    iterate: Callable              # state -> Iteration


def _network_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _graph_config() -> windows.GraphBuildConfig:
    return windows.GraphBuildConfig(**GRAPH)


def _labelled_target_flows(graphs, labels) -> list[int]:
    return [node.flow_id for g in graphs for node in g.target.flow_nodes
            if labels.get(node.flow_id, ingest.UNLABELED) != ingest.UNLABELED]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# train: the `flowgnn train` path from a flow cache: read, split, train with
# per-epoch validation, evaluate on test


@dataclass
class TrainState:
    cache: Path
    seed: int
    model_config: model.ModelConfig
    graph_config: windows.GraphBuildConfig
    train_config: training.TrainConfig
    items: int              # labelled target-window flows x epochs
    steps: int              # optimiser steps per train() call
    test_flows: int         # distinct labelled test flows
    first_f1: list = field(default_factory=list)


def train_setup(seed: int, workdir: Path) -> TrainState:
    records = synth.temporal_pattern(seed=seed, network="netA", **TRAIN_DATA)
    vocab = ingest.build_label_vocabulary(records)
    records = ingest.label_records(records, vocab)
    cache = workdir / "train.pptf"
    ingest.write_flow_cache(records, cache)
    graph_config = _graph_config()
    data = experiments.prepare_splits(records, vocab, graph_config, SPLIT)
    per_graph = [len(_labelled_target_flows([g], data.labels))
                 for g in data.train_graphs]
    return TrainState(
        cache, seed, model.ModelConfig(num_classes=max(2, vocab.num_classes)),
        graph_config, training.TrainConfig(epochs=TRAIN_EPOCHS, seed=seed, split=SPLIT),
        items=sum(per_graph) * TRAIN_EPOCHS,
        steps=sum(1 for n in per_graph if n) * TRAIN_EPOCHS,
        test_flows=len(set(_labelled_target_flows(data.test_graphs, data.labels))))


def train_iterate(s: TrainState) -> Iteration:
    started = time.perf_counter()
    records = ingest.read_flow_cache(s.cache)
    vocab = ingest.build_label_vocabulary(records)
    records = ingest.label_records(records, vocab)
    data = experiments.prepare_splits(records, vocab, s.graph_config, SPLIT)
    params = model.init_params(s.model_config, data.codec.feature_dim,
                               s.graph_config, tensor.Rng(s.seed).child("train"))
    train_started = time.perf_counter()
    result = training.train(data.train_graphs, data.val_graphs, data.labels,
                            params, s.train_config, s.model_config,
                            s.graph_config)
    trained = time.perf_counter()
    report = training.evaluate(result.params, data.test_graphs, data.vocab,
                               data.labels, s.model_config, s.graph_config,
                               result.seconds)
    done = time.perf_counter()

    problems = []
    bad_epochs = [e for e in result.log
                  if not _finite([e["loss"], e.get("val_macro_f1", 0.0)])]
    if bad_epochs:
        problems.append(f"non-finite loss in epochs {[e['epoch'] for e in bad_epochs]}")
    scored = int(report.confusion.sum())
    if scored != s.test_flows:
        problems.append(f"evaluate scored {scored} of {s.test_flows} labelled test flows")
    f1 = report.multiclass_macro_f1
    s.first_f1 = s.first_f1 or [f1]
    if f1 != s.first_f1[0]:
        problems.append(f"test macro F1 {f1!r} differs from the first "
                        f"iteration's {s.first_f1[0]!r} on identical inputs")
    train_s = trained - train_started
    return Iteration(
        items=s.items, timed_s=train_s, wall_s=done - started,
        attempted=s.steps, failed=s.steps // TRAIN_EPOCHS * len(bad_epochs),
        named={"train_flows_per_s": (s.items / train_s, "flows/s"),
               "test_macro_f1": (f1, "1")},
        problems=problems)


# ---------------------------------------------------------------------------
# pretrain: link-prediction pre-training, checkpoint round trip, transfer


@dataclass
class PretrainState:
    corpus: pretrain.PretrainCorpus
    graphs: tuple
    model_config: model.ModelConfig
    graph_config: windows.GraphBuildConfig
    feature_dim: int
    seed: int
    checkpoint: Path
    scored_types: frozenset    # edge types with positives somewhere


def pretrain_setup(seed: int, workdir: Path) -> PretrainState:
    graph_config = _graph_config()
    networks = [ingest.strip_labels(synth.temporal_pattern(
        seed=_network_seed(seed, k), network=net, **PRETRAIN_DATA))
        for k, net in enumerate(PRETRAIN_NETWORKS)]
    protocols = tuple(sorted({r.protocol for recs in networks for r in recs}))
    graphs = []
    for records in networks:
        codec = replace(ingest.fit_codec(records), protocol_vocab=protocols)
        graphs.extend(windows.build_temporal_graphs(
            records, graph_config, ingest.encode_flows(records, codec))[WARMUP:])
    scored = set()
    for graph in graphs:
        arrays = model.prepare_graph(graph, graph_config)
        scored |= {etype for etype, (src, _) in arrays.edges.items() if len(src)}
    corpus = pretrain.PretrainCorpus(
        datasets=tuple((net, f"{net}.pptf") for net in PRETRAIN_NETWORKS),
        mode="out-of-context", target_dataset="netA")
    return PretrainState(
        corpus, tuple(graphs), model.ModelConfig(num_classes=2), graph_config,
        feature_dim=codec.feature_dim,
        seed=seed, checkpoint=workdir / "pretrain.pptg",
        scored_types=frozenset(scored))


def pretrain_iterate(s: PretrainState) -> Iteration:
    started = time.perf_counter()
    result = pretrain.pretrain(s.corpus, s.graphs, s.model_config,
                               s.graph_config, s.feature_dim,
                               epochs=PRETRAIN_EPOCHS, lr=PRETRAIN_LR,
                               negative_ratio=NEGATIVE_RATIO, seed=s.seed)
    trained = time.perf_counter()
    model.save_checkpoint(result.params, {"checkpoint.kind": "pretrain"},
                          s.checkpoint)
    loaded, _ = model.load_checkpoint(s.checkpoint)
    fine = pretrain.transfer_weights(loaded, s.model_config, s.graph_config,
                                     s.feature_dim,
                                     tensor.Rng(s.seed).child("finetune"))
    done = time.perf_counter()

    problems = []
    bad_epochs = [e for e in result.log if not _finite([e["loss"], e["accuracy"]])]
    if bad_epochs:
        problems.append(f"non-finite loss in epochs {[e['epoch'] for e in bad_epochs]}")
    # Adam leaves a scorer untouched exactly when it never received a
    # gradient, so a moved scorer is one whose edge type was scored.
    initial = pretrain.init_scorer_params(
        s.model_config, tensor.Rng(s.seed).child("scorers"))
    for etype in pretrain.ALL_EDGE_TYPES:
        name = f"scorer.{etype}.1.b"
        moved = not np.array_equal(result.params[name].data, initial[name].data)
        if moved != (etype in s.scored_types):
            problems.append(f"edge type {etype}: scored={moved} but has "
                            f"positives={etype in s.scored_types}")
    trunk = model.trunk_names(fine)
    uncopied = [n for n in trunk
                if not np.array_equal(fine[n].data, result.params[n].data)]
    if uncopied or not trunk:
        problems.append(f"transfer_weights did not copy {uncopied or 'any trunk tensor'}")
    steps = len(s.graphs) * PRETRAIN_EPOCHS
    return Iteration(
        items=steps, timed_s=trained - started, wall_s=done - started,
        attempted=steps, failed=len(s.graphs) * len(bad_epochs),
        named={"pretrain_graphs_per_s": (steps / (trained - started), "graphs/s")},
        problems=problems)


# ---------------------------------------------------------------------------
# ingest: CSV with planted defects -> cache -> read back -> splits and graphs

COLUMN = synth.CSV_SCHEMA      # canonical field -> CSV column
#: planted defect kinds, each rejected by FlowRecord.validate or the parser
DEFECTS = {
    "end_before_start": lambda row: {
        COLUMN["end_time"]: repr(float(row[COLUMN["start_time"]]) - 1.0)},
    "negative_bytes": lambda row: {
        COLUMN["in_bytes"]: f"-{row[COLUMN['in_bytes']]}"},
    "port_out_of_range": lambda row: {
        COLUMN["src_port"]: str(65536 + int(row[COLUMN["src_port"]]))},
    "unparseable_int": lambda row: {
        COLUMN["out_pkts"]: f"{row[COLUMN['out_pkts']]}x"},
}


def _content(r: ingest.FlowRecord) -> tuple:
    """The fields a CSV row carries (ingest assigns ids and durations)."""
    return (r.start_time, r.end_time, r.src_ip, r.dst_ip, r.src_port,
            r.dst_port, r.protocol, r.in_bytes, r.out_bytes, r.in_pkts,
            r.out_pkts, r.tcp_flags, r.attack_name)


@dataclass(frozen=True)
class PlantedCsv:
    """A flow CSV with planted bad rows, and the outcome ingest must give."""

    path: Path
    rows: int
    planted: Counter          # defect kind -> rows
    expected: Counter         # content of every good row

    def outcome_errors(self, loaded: ingest.LoadResult) -> tuple[int, list]:
        """Rows whose accept/reject outcome is wrong, and the messages."""
        got = Counter(_content(r) for r in loaded.records)
        wrong = sum((self.expected - got).values()) + sum((got - self.expected).values())
        planted = sum(self.planted.values())
        if wrong or loaded.rejected != planted:
            return wrong, [f"{wrong} rows with the wrong accept/reject outcome; "
                           f"rejected {loaded.rejected} of {planted} planted"]
        return 0, []


def write_planted_csv(records, path: Path, seed: int) -> PlantedCsv:
    """Write `records` as CSV, then spoil a seeded PLANTED_SHARE of the rows,
    the defect kinds taking turns."""
    synth.write_flow_csv(records, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    columns = header.split(",")
    bad = random.Random(seed).sample(range(len(lines)), int(PLANTED_SHARE * len(lines)))
    kinds = list(DEFECTS)
    planted = Counter()
    for i, row_index in enumerate(bad):
        kind = kinds[i % len(kinds)]
        row = dict(zip(columns, lines[row_index].split(",")))
        row.update(DEFECTS[kind](row))
        lines[row_index] = ",".join(row[c] for c in columns)
        planted[kind] += 1
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    bad_set = set(bad)
    return PlantedCsv(path, len(lines), planted, Counter(
        _content(r) for i, r in enumerate(records) if i not in bad_set))


@dataclass
class IngestState:
    csv: PlantedCsv
    cache: Path
    graph_config: windows.GraphBuildConfig


def ingest_setup(seed: int, workdir: Path) -> IngestState:
    records = synth.temporal_pattern(seed=seed, network="netA", **INGEST_DATA)
    return IngestState(write_planted_csv(records, workdir / "ingest.csv", seed),
                       workdir / "ingest.pptf", _graph_config())


def ingest_iterate(s: IngestState) -> Iteration:
    started = time.perf_counter()
    loaded = ingest.load_flow_csv(s.csv.path, synth.CSV_SCHEMA)
    vocab = ingest.build_label_vocabulary(loaded.records)
    labelled = ingest.label_records(loaded.records, vocab)
    ingest.write_flow_cache(labelled, s.cache)
    written = time.perf_counter()
    back = ingest.read_flow_cache(s.cache)
    read = time.perf_counter()
    data = experiments.prepare_splits(back, vocab, s.graph_config, SPLIT)
    done = time.perf_counter()

    wrong, problems = s.csv.outcome_errors(loaded)
    if back != labelled:
        problems.append("read_flow_cache differs from the records written")
    splits = ((data.train_flows, data.train_graphs), (data.val_flows, data.val_graphs),
              (data.test_flows, data.test_graphs))
    if sum(len(flows) for flows, _ in splits) != len(back):
        problems.append("chronological split lost or duplicated flows")
    for flows, graphs in splits:
        targets = {n.flow_id for g in graphs for n in g.target.flow_nodes}
        if targets != {f.flow_id for f in flows}:
            problems.append("a split's graphs do not cover its flows as targets")
    graphs = sum(len(g) for _, g in splits)
    rows = s.csv.rows
    return Iteration(
        items=rows, timed_s=done - started, wall_s=done - started,
        attempted=rows, failed=wrong,
        named={"ingest_rows_per_s": (rows / (written - started), "rows/s"),
               "cache_read_rows_per_s": (len(back) / (read - written), "rows/s"),
               "graph_build_windows_per_s": (graphs / (done - read), "windows/s")},
        problems=problems)


# ---------------------------------------------------------------------------
# score-wide: `flowgnn ingest` then `flowgnn evaluate` on a wide capture,
# scoring the graphs that hold a full memory of windows


@dataclass
class ScoreState:
    csv: PlantedCsv
    cache: Path
    checkpoint: Path
    verdicts: dict = field(default_factory=dict)   # flow id -> finite logits


def score_setup(seed: int, workdir: Path) -> ScoreState:
    records = [r for k in range(SCORE_NETWORKS)
               for r in synth.temporal_pattern(seed=_network_seed(seed, k),
                                               network=f"wide{k}", **SCORE_DATA)]
    records.sort(key=lambda r: (r.start_time, r.src_ip, r.dst_ip, r.src_port))
    csv = write_planted_csv(records, workdir / "wide.csv", seed)
    vocab = ingest.build_label_vocabulary(records)
    codec = ingest.fit_codec(records)
    graph_config = _graph_config()
    model_config = model.ModelConfig(num_classes=max(2, vocab.num_classes))
    params = model.init_params(model_config, codec.feature_dim, graph_config,
                               tensor.Rng(seed).child("train"))
    checkpoint = workdir / "wide.pptg"
    model.save_checkpoint(params, model.build_metadata(
        model_config, graph_config, codec, vocab,
        extra={"checkpoint.kind": "supervised", "provenance": "scratch"}),
        checkpoint)
    return ScoreState(csv, workdir / "wide.pptf", checkpoint)


def _recording_verdicts(forward, verdicts: dict):
    def checked(arrays, params, config):
        flow_ids, logits = forward(arrays, params, config)
        finite = np.isfinite(logits.data).all(axis=1)
        verdicts.update(zip(flow_ids, finite.tolist()))
        return flow_ids, logits
    return checked


def score_iterate(s: ScoreState) -> Iteration:
    s.verdicts.clear()
    forward = training.forward_prepared
    training.forward_prepared = _recording_verdicts(forward, s.verdicts)
    try:
        started = time.perf_counter()
        loaded = ingest.load_flow_csv(s.csv.path, synth.CSV_SCHEMA)
        labelled = ingest.label_records(
            loaded.records, ingest.build_label_vocabulary(loaded.records))
        ingest.write_flow_cache(labelled, s.cache)
        params, meta = model.load_checkpoint(s.checkpoint)
        model_config, graph_config, codec, vocab = model.configs_from_metadata(meta)
        cached = ingest.read_flow_cache(s.cache)
        records = ingest.label_records(cached, vocab)
        graphs = windows.build_temporal_graphs(
            records, graph_config, ingest.encode_flows(records, codec))[WARMUP:]
        labels = {r.flow_id: r.label for r in records}
        report = training.evaluate(params, graphs, vocab, labels, model_config,
                                   graph_config)
        done = time.perf_counter()
    finally:
        training.forward_prepared = forward

    wrong, problems = s.csv.outcome_errors(loaded)
    if cached != labelled:
        problems.append("read_flow_cache differs from the records written")
    labelled_ids = set(_labelled_target_flows(graphs, labels))
    missing = sum(1 for fid in labelled_ids if not s.verdicts.get(fid, False))
    scored = int(report.confusion.sum())
    if missing or scored != len(labelled_ids):
        problems.append(f"{missing} of {len(labelled_ids)} labelled flows without a "
                        f"finite verdict; {scored} scored")
    flows = len(labelled_ids)
    return Iteration(
        items=flows, timed_s=done - started, wall_s=done - started,
        attempted=s.csv.rows, failed=wrong + missing + abs(scored - len(labelled_ids)),
        named={"score_flows_per_s": (flows / (done - started), "flows/s")},
        problems=problems)


WORKLOADS = {w.name: w for w in (
    Workload("train",
             dict(generator="temporal_pattern", network="netA", **TRAIN_DATA,
                  epochs=TRAIN_EPOCHS, split=SPLIT, **GRAPH),
             "flows", lambda s: s.steps, train_setup, train_iterate),
    Workload("pretrain",
             dict(generator="temporal_pattern", networks=PRETRAIN_NETWORKS,
                  **PRETRAIN_DATA, epochs=PRETRAIN_EPOCHS, lr=PRETRAIN_LR,
                  negative_ratio=NEGATIVE_RATIO, warmup_graphs_dropped=WARMUP,
                  **GRAPH),
             "graphs", lambda s: len(s.graphs) * PRETRAIN_EPOCHS,
             pretrain_setup, pretrain_iterate),
    Workload("ingest",
             dict(generator="temporal_pattern", network="netA", **INGEST_DATA,
                  planted_share=PLANTED_SHARE, defects=tuple(DEFECTS),
                  split=SPLIT, **GRAPH),
             "rows", lambda s: s.csv.rows, ingest_setup, ingest_iterate),
    Workload("score-wide",
             dict(generator="temporal_pattern", networks=SCORE_NETWORKS,
                  **SCORE_DATA, planted_share=PLANTED_SHARE,
                  defects=tuple(DEFECTS), warmup_graphs_dropped=WARMUP, **GRAPH),
             "flows", lambda s: s.csv.rows, score_setup, score_iterate),
)}
