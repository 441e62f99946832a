"""Supervised training and evaluation over windowed flow graphs.

Splits are chronological (never random): contiguous time segments in order
train -> val -> test with boundaries snapped to window edges, so flows of
one attack burst cannot leak across splits. Training minimizes optionally
class-weighted cross-entropy over the labeled flows of each graph's target
window and keeps the parameters with the best validation multiclass macro
F1. A flow predicted in several target windows is scored once, on its
chronologically last prediction.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import tensor as T
from .ingest import FlowRecord, LabelVocabulary, UNLABELED
from .metrics import MetricsReport, build_report, f1_scores
from .model import (GraphArrays, ModelConfig, copy_params, forward_prepared,
                    prepare_graph)
from .tensor import AdamState, Tensor, adam_step, zero_grads
from .windows import GraphBuildConfig, TemporalGraph


class EmptyDataError(ValueError):
    """A split or target window set contains no usable flows."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    lr: float = 0.001
    weighted_loss: bool = True
    seed: int = 0
    batch_size: int = 1
    split: tuple[float, float, float] = (0.7, 0.15, 0.15)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if len(self.split) != 3 or any(r < 0 for r in self.split) \
                or abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError("split must be three non-negative ratios that "
                             "sum to 1")


def chronological_split(flows: Sequence[FlowRecord],
                        ratios: tuple[float, float, float],
                        window_size: float):
    """Cut the time-sorted stream into contiguous train/val/test segments.

    Boundaries sit at the ratio quantiles of the start-time distribution,
    snapped to the window grid anchored at the earliest start, so no window
    straddles a split boundary.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("split ratios must sum to 1")
    if not flows:
        return (), (), ()
    starts = np.array([f.start_time for f in flows])
    t0 = float(starts.min())

    def boundary(fraction: float) -> float:
        cut = int(round(fraction * len(flows)))
        if cut <= 0:
            return t0
        if cut >= len(flows):
            return float(starts.max()) + window_size
        b = float(np.sort(starts)[cut])
        return t0 + round((b - t0) / window_size) * window_size

    b1 = boundary(ratios[0])
    b2 = max(boundary(ratios[0] + ratios[1]), b1)
    train = tuple(f for f in flows if f.start_time < b1)
    val = tuple(f for f in flows if b1 <= f.start_time < b2)
    test = tuple(f for f in flows if f.start_time >= b2)
    for name, part, ratio in (("train", train, ratios[0]),
                              ("val", val, ratios[1]),
                              ("test", test, ratios[2])):
        if ratio > 0 and not part:
            warnings.warn(f"chronological split produced an empty {name} split")
    return train, val, test


def class_weights(labels: Sequence[int], num_classes: int) -> np.ndarray:
    """Inverse-frequency weights N / (C * count_c), counts clamped to 1."""
    counts = np.bincount([l for l in labels if l != UNLABELED],
                         minlength=num_classes).astype(np.float64)
    total = counts.sum()
    return total / (num_classes * np.maximum(counts, 1.0))


def _labeled(flow_ids: Sequence[int], labels: Mapping[int, int]):
    """Positions in `flow_ids` of the labeled flows, and their classes."""
    positions, classes = [], []
    for i, flow_id in enumerate(flow_ids):
        label = labels.get(flow_id, UNLABELED)
        if label != UNLABELED:
            positions.append(i)
            classes.append(label)
    return (np.asarray(positions, dtype=np.int64),
            np.asarray(classes, dtype=np.int64))


def predict_flows(prepared: Iterable[GraphArrays],
                  params: Mapping[str, Tensor],
                  model_config: ModelConfig) -> dict[int, int]:
    """Last-window argmax prediction per flow across all target windows.
    Forward only: no pass records a tape."""
    out: dict[int, int] = {}
    for arrays in prepared:  # ascending target windows
        if len(arrays.target_rows) == 0:
            continue
        with T.no_grad():
            _, logits = forward_prepared(arrays, params, model_config)
        preds = logits.data.argmax(axis=1)
        for flow_id, pred in zip(arrays.target_flow_ids, preds):
            out[flow_id] = int(pred)
    return out


def _labeled_predictions(prepared: Iterable[GraphArrays],
                         params: Mapping[str, Tensor], model_config: ModelConfig,
                         labels: Mapping[int, int]):
    """(true, predicted) classes of the labeled predicted flows, by id."""
    predictions = predict_flows(prepared, params, model_config)
    flow_ids = sorted(predictions)
    positions, y_true = _labeled(flow_ids, labels)
    return y_true, [predictions[flow_ids[i]] for i in positions]


@dataclass
class FitResult:
    params: dict
    log: list
    seconds: float


def fit(params: Mapping[str, Tensor], epochs: int, lr: float,
        steps: Callable, score: Callable | None = None) -> FitResult:
    """Adam over `params`, in place: `steps(epoch)` yields one
    (loss, weight, stats) per optimizer step. An epoch's log entry holds
    the weight-averaged loss and stats, plus `val_macro_f1 = score(params)`
    when `score` is given; the parameters of the first epoch with the
    highest score come back (the final parameters without `score`)."""
    state = AdamState(lr=lr)
    log: list[dict] = []
    best, best_score = params, -1.0
    started = time.perf_counter()
    for epoch in range(epochs):
        sums: dict[str, float] = {}
        total = 0
        for loss, weight, stats in steps(epoch):
            zero_grads(params)
            loss.backward()
            adam_step(params, {name: p.grad for name, p in params.items()},
                      state)
            for key, value in {"loss": loss.item(), **stats}.items():
                sums[key] = sums.get(key, 0.0) + value * weight
            total += weight
        entry = {"epoch": epoch, **{k: v / total for k, v in sums.items()}}
        if score is not None:
            entry["val_macro_f1"] = value = score(params)
            if value > best_score:
                best, best_score = copy_params(params), value
        log.append(entry)
    return FitResult(best, log, time.perf_counter() - started)


def train(train_graphs: Sequence[TemporalGraph],
          val_graphs: Sequence[TemporalGraph] | None,
          labels: Mapping[int, int], params: Mapping[str, Tensor],
          config: TrainConfig, model_config: ModelConfig,
          graph_config: GraphBuildConfig) -> FitResult:
    """Adam on (optionally class-weighted) cross-entropy over target-window
    flow labels, `config.batch_size` graphs a step; keeps the checkpoint
    with the best validation multiclass macro F1 (final parameters when
    there is no validation split).

    The caller's parameter set is deep-copied: training never mutates it.
    """
    params = copy_params(params)
    layers = model_config.num_layers
    batches = [(a, *_labeled(a.target_flow_ids, labels))
               for a in (prepare_graph(g, graph_config, layers)
                         for g in train_graphs)]
    batches = [b for b in batches if len(b[1]) > 0]
    if not batches:
        raise EmptyDataError("no labeled flows in any training target window")
    prepared_val = [prepare_graph(g, graph_config, layers)
                    for g in val_graphs or ()]
    num_classes = model_config.num_classes
    weights = class_weights([c for _, _, cls in batches for c in cls],
                            num_classes) if config.weighted_loss else None

    def steps(epoch):
        for lo in range(0, len(batches), config.batch_size):
            batch = batches[lo:lo + config.batch_size]
            loss = None
            for arrays, positions, classes in batch:
                _, logits = forward_prepared(arrays, params, model_config)
                ce = T.cross_entropy(T.take_rows(logits, positions), classes,
                                     class_weights=weights, reduction="sum")
                loss = ce if loss is None else T.add(loss, ce)
            n = sum(len(positions) for _, positions, _ in batch)
            yield T.scale(loss, 1.0 / n), n, {}

    def score(p):
        y_true, y_pred = _labeled_predictions(prepared_val, p, model_config,
                                              labels)
        if len(y_true) == 0:
            return 0.0
        return f1_scores(y_true, y_pred, num_classes)[1]

    return fit(params, config.epochs, config.lr, steps,
               score if prepared_val else None)


def evaluate(params: Mapping[str, Tensor], test_graphs: Sequence[TemporalGraph],
             vocab: LabelVocabulary, labels: Mapping[int, int],
             model_config: ModelConfig, graph_config: GraphBuildConfig,
             train_seconds: float = 0.0,
             latencies: list[float] | None = None) -> MetricsReport:
    """Score each labeled flow once, on its chronologically last prediction;
    binary F1 collapses every attack class against benign. Each graph is
    prepared just before it is scored and dropped after. `latencies`, when
    given, receives the detection latency of each target window with flows:
    the wall time from the start of its `prepare_graph` to the end of its
    forward pass."""
    ordered = sorted(test_graphs, key=lambda g: g.target.window_index)

    def prepared():
        for g in ordered:
            started = time.perf_counter()
            arrays = prepare_graph(g, graph_config, model_config.num_layers)
            yield arrays     # resumes once the graph is scored
            if latencies is not None and len(arrays.target_rows):
                latencies.append(time.perf_counter() - started)

    y_true, y_pred = _labeled_predictions(prepared(), params, model_config,
                                          labels)
    if len(y_true) == 0:
        raise EmptyDataError("no target flows")
    return build_report(y_true, y_pred, vocab, train_seconds)
