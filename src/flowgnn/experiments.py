"""Experiment harnesses: split/codec/graph preparation, the differential
ablation suite (spatial-only -> +temporal edges -> +pre-training), and the
few-shot fine-tuning protocol with class-balanced temporal undersampling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .ingest import (FeatureCodec, FlowRecord, LabelVocabulary, UNLABELED,
                     encode_flows, fit_codec)
from .metrics import MetricsReport
from .model import ModelConfig, init_params
from .pretrain import (PRETRAIN_MODES, PretrainConfig, PretrainCorpus,
                       pretrain, transfer_weights)
from .tensor import Rng
from .training import (EmptyDataError, TrainConfig, chronological_split,
                       evaluate, train)
from .windows import (GraphBuildConfig, TemporalGraph, build_temporal_graphs,
                      strip_temporal_edges)

FEWSHOT_MODES = (*PRETRAIN_MODES, "none")


@dataclass
class ExperimentData:
    """A dataset split chronologically, encoded with the train-split codec,
    and built into per-split graph sequences on one shared window grid."""

    train_flows: tuple[FlowRecord, ...]
    val_flows: tuple[FlowRecord, ...]
    test_flows: tuple[FlowRecord, ...]
    codec: FeatureCodec
    vocab: LabelVocabulary
    labels: dict
    train_graphs: tuple[TemporalGraph, ...]
    val_graphs: tuple[TemporalGraph, ...]
    test_graphs: tuple[TemporalGraph, ...]


def prepare_splits(records: Sequence[FlowRecord], vocab: LabelVocabulary,
                   graph_config: GraphBuildConfig,
                   ratios: tuple[float, float, float],
                   protocol_vocab: tuple[int, ...] | None = None) -> ExperimentData:
    """Split, fit the codec on the training segment only, and build one
    graph sequence per split on the shared window grid. `protocol_vocab`
    pins the categorical block so encoders line up across datasets."""
    train_f, val_f, test_f = chronological_split(records, ratios,
                                                 graph_config.window_size)
    if not train_f:
        raise EmptyDataError("empty training split")
    codec = fit_codec(train_f)
    if protocol_vocab is not None:
        codec = replace(codec, protocol_vocab=tuple(sorted(protocol_vocab)))
    origin = min(r.start_time for r in records)

    def graphs(flows):
        if not flows:
            return ()
        return build_temporal_graphs(flows, graph_config,
                                     encode_flows(flows, codec), origin)

    return ExperimentData(
        train_flows=tuple(train_f), val_flows=tuple(val_f),
        test_flows=tuple(test_f), codec=codec, vocab=vocab,
        labels={r.flow_id: r.label for r in records},
        train_graphs=graphs(train_f), val_graphs=graphs(val_f),
        test_graphs=graphs(test_f),
    )


# ---------------------------------------------------------------------------
# differential ablation


def ablation_suite(data: ExperimentData, model_config: ModelConfig,
                   graph_config: GraphBuildConfig, train_config: TrainConfig,
                   pretrain_config: PretrainConfig) \
        -> list[tuple[str, MetricsReport]]:
    """Three runs on identical seeds and splits: (a) spatial-only graphs,
    (b) full temporal graphs, (c) temporal graphs fine-tuned from an
    in-context pre-trained trunk."""
    feature_dim = data.codec.feature_dim
    results: list[tuple[str, MetricsReport]] = []

    def run(name, train_graphs, val_graphs, test_graphs, params):
        result = train(train_graphs, val_graphs, data.labels, params,
                       train_config, model_config, graph_config)
        report = evaluate(result.params, test_graphs, data.vocab, data.labels,
                          model_config, graph_config, result.seconds)
        results.append((name, report))

    spatial = tuple(strip_temporal_edges(g) for g in data.train_graphs)
    spatial_val = tuple(strip_temporal_edges(g) for g in data.val_graphs)
    spatial_test = tuple(strip_temporal_edges(g) for g in data.test_graphs)
    fresh = init_params(model_config, feature_dim, graph_config,
                        Rng(train_config.seed).child("ablation"))
    run("spatial_only", spatial, spatial_val, spatial_test, fresh)
    run("temporal", data.train_graphs, data.val_graphs, data.test_graphs,
        fresh)

    corpus = PretrainCorpus(datasets=(("target", "<in-memory>"),),
                            mode="in-context", target_dataset="target")
    pre = pretrain(corpus, data.train_graphs, model_config, graph_config,
                   feature_dim, seed=train_config.seed,
                   **asdict(pretrain_config))
    transferred = transfer_weights(pre.params, model_config, graph_config,
                                   feature_dim,
                                   Rng(train_config.seed).child("ablation"))
    run("pretrained", data.train_graphs, data.val_graphs, data.test_graphs,
        transferred)
    return results


# ---------------------------------------------------------------------------
# class-balanced temporal undersampling


def _window_label_counts(graphs: Sequence[TemporalGraph],
                         labels: Mapping[int, int],
                         num_classes: int) -> np.ndarray:
    counts = np.zeros((len(graphs), num_classes), dtype=np.int64)
    for i, g in enumerate(graphs):
        for flow_id in g.target.flow_ids.tolist():
            label = labels.get(flow_id, UNLABELED)
            if label != UNLABELED:
                counts[i, label] += 1
    return counts


def undersample_order(graphs: Sequence[TemporalGraph],
                      labels: Mapping[int, int],
                      num_classes: int) -> list[int]:
    """Greedy window order that keeps cumulative class proportions close to
    the full training split. Deterministic: ties break on window position.

    Selecting any prefix of this order is the undersampling rule, which
    makes selections monotone across fractions by construction.
    """
    counts = _window_label_counts(graphs, labels, num_classes)
    totals = counts.sum(axis=0).astype(np.float64)
    if totals.sum() == 0:
        raise EmptyDataError("no labeled flows to undersample")
    target = totals / totals.sum()

    candidates = [i for i in range(len(graphs)) if counts[i].sum() > 0]
    order: list[int] = []
    selected = np.zeros(num_classes, dtype=np.float64)
    remaining = list(candidates)
    while remaining:
        best_idx = None
        best_score = None
        for i in remaining:
            cum = selected + counts[i]
            div = float(np.abs(cum / cum.sum() - target).sum())
            if best_score is None or div < best_score - 1e-12:
                best_score = div
                best_idx = i
        order.append(best_idx)
        selected += counts[best_idx]
        remaining.remove(best_idx)
    return order


def select_fraction(order: Sequence[int], graphs: Sequence[TemporalGraph],
                    labels: Mapping[int, int], num_classes: int,
                    fraction: float) -> tuple[list[int], list[str]]:
    """Shortest prefix of the greedy order reaching `fraction` of the
    labeled flows, patched so every class keeps at least one window.

    Returns (selected window positions, balance violation notes).
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    counts = _window_label_counts(graphs, labels, num_classes)
    totals = counts.sum(axis=0)
    grand_total = int(totals.sum())
    want = fraction * grand_total

    chosen: list[int] = []
    got = 0
    for idx in order:
        if got >= want and chosen:
            break
        chosen.append(idx)
        got += int(counts[idx].sum())

    notes: list[str] = []
    present = counts[chosen].sum(axis=0)
    for c in range(num_classes):
        if totals[c] > 0 and present[c] == 0:
            for idx in order:
                if counts[idx, c] > 0:
                    if idx not in chosen:
                        chosen.append(idx)
                        present = present + counts[idx]
                    notes.append(f"class {c} missing at fraction {fraction}; "
                                 f"kept window {idx}")
                    break

    sel_total = present.sum()
    if sel_total > 0 and grand_total > 0:
        dev = np.abs(present / sel_total - totals / grand_total)
        worst = float(dev.max())
        if worst > 0.02:
            notes.append(f"class proportions deviate by {worst:.4f} "
                         f"(> 0.02) at fraction {fraction}")
    return sorted(chosen), notes


# ---------------------------------------------------------------------------
# few-shot protocol


@dataclass(frozen=True)
class FewShotPlan:
    """The `fewshot.*` keys: fine-tune at each labeled fraction in each
    mode; `reference_score` 0 means "compute it from a scratch run"."""

    fractions: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5)
    modes: tuple[str, ...] = FEWSHOT_MODES
    reference_score: float = 0  # an int, so that it renders as `0`

    def __post_init__(self):
        if not all(0 < f <= 1 for f in self.fractions):
            raise ValueError("fractions must lie in (0, 1]")
        if not set(self.modes) <= set(FEWSHOT_MODES):
            raise ValueError(f"modes must be drawn from {FEWSHOT_MODES}")
        if self.reference_score < 0:
            raise ValueError("reference_score must be >= 0")


def fewshot(plan: FewShotPlan, bases: Mapping[str, Mapping | None],
            data: ExperimentData, model_config: ModelConfig,
            graph_config: GraphBuildConfig, train_config: TrainConfig,
            seed: int = 0) -> list[dict]:
    """Fine-tune with `train_config` on undersampled training windows for
    every (fraction, pre-training mode) pair; report the macro-F1 loss in
    percent of the plan's reference score (> 0) and the training time."""
    if plan.reference_score <= 0:
        raise ValueError("fewshot needs a positive reference score")
    order = undersample_order(data.train_graphs, data.labels,
                              model_config.num_classes)
    feature_dim = data.codec.feature_dim
    rows: list[dict] = []
    for fraction in plan.fractions:
        picked, notes = select_fraction(order, data.train_graphs, data.labels,
                                        model_config.num_classes, fraction)
        train_graphs = tuple(data.train_graphs[i] for i in picked)
        for mode in plan.modes:
            base = bases.get(mode)
            rng = Rng(seed).child(f"fewshot:{mode}:{fraction}")
            if base is None:
                if mode != "none":
                    raise ValueError(f"no pre-trained base for mode {mode!r}")
                params = init_params(model_config, feature_dim, graph_config,
                                     rng)
            else:
                params = transfer_weights(base, model_config, graph_config,
                                          feature_dim, rng)
            result = train(train_graphs, data.val_graphs, data.labels, params,
                           train_config, model_config, graph_config)
            report = evaluate(result.params, data.test_graphs, data.vocab,
                              data.labels, model_config, graph_config,
                              result.seconds)
            score = report.multiclass_macro_f1
            rows.append({
                "fraction": fraction,
                "mode": mode,
                "macro_f1": score,
                "pct_loss": 100.0 * (plan.reference_score - score)
                            / plan.reference_score,
                "seconds": result.seconds,
                "windows": len(picked),
                "notes": "; ".join(notes),
            })
    return rows
