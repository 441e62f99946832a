"""Self-supervised link-prediction pre-training.

Graphs are corrupted with sampled negative edges per edge type (uniform
endpoint resampling among type-compatible nodes, rejection-sampled against
the positive set). A per-edge-type two-layer perceptron on an edge's
(source state || destination state), from the shared GNN trunk, scores it
as a binary positive/negative classifier. Its first layer is split into
source and destination halves: the distinct sources of a type's edges are
projected by the source half once, and its distinct destinations by the
destination half. One fused op then gathers and adds each edge's endpoint
projections, activates them and applies the second layer, keeping only the
activated rows for the backward pass. After pre-training, trunk weights
transfer into a fine-tuning parameter set; the edge scorers are discarded
and the classifier head is re-initialized.

The whole path is label-free: snapshots carry no labels, and corpora list
only unlabeled flow caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .model import (CompatibilityError, ENDPOINT_KINDS, GraphArrays,
                    ModelConfig, _distinct, _linear_params, final_states,
                    init_params, prepare_graph, row_place, trunk_names)
from .tensor import Tensor
from .training import FitResult, fit
from .windows import (ALL_EDGE_TYPES, GraphBuildConfig, INTER_EDGE_TYPES,
                      TemporalGraph)

PRETRAIN_MODES = ("in-context", "out-of-context")


@dataclass(frozen=True)
class PretrainConfig:
    """The `pretrain.*` keys of link-prediction pre-training."""

    epochs: int = 50
    lr: float = 0.0001
    negative_ratio: float = 1.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.negative_ratio < 0:
            raise ValueError("negative_ratio must be >= 0")


@dataclass(frozen=True)
class LinkPredTask:
    """Per-edge-type positive and sampled negative edges, in the global
    node index space of the matching GraphArrays."""

    positives: dict
    negatives: dict
    negative_ratio: float
    shortfall: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PretrainCorpus:
    """Datasets contributing unlabeled graphs: (dataset id, path) pairs."""

    datasets: tuple
    mode: str
    target_dataset: str | None = None

    def __post_init__(self):
        if self.mode not in PRETRAIN_MODES:
            raise ValueError(f"mode must be one of {PRETRAIN_MODES}")
        if not self.datasets:
            raise ValueError("empty pre-training corpus")
        ids = [d for d, _ in self.datasets]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate dataset ids in corpus")
        if self.mode == "out-of-context" and self.target_dataset in ids:
            raise ValueError(f"out-of-context corpus contains the target "
                             f"dataset {self.target_dataset!r}")

    def manifest_text(self) -> str:
        lines = [f"mode = {self.mode}",
                 f"target = {self.target_dataset or '-'}"]
        for dataset_id, path in self.datasets:
            lines.append(f"dataset = {dataset_id}\t{path}")
        return "\n".join(lines) + "\n"


def sample_negatives(arrays: GraphArrays, ratio: float,
                     rng: T.Rng) -> LinkPredTask:
    """Sample floor(ratio * |positives|) negatives per edge type.

    Each negative starts from a positive edge drawn uniformly and replaces
    one endpoint, chosen uniformly, by a node of the same kind in the same
    window as the kept endpoint (spatial and intra types), or in any earlier
    window for a source and any later window for a destination (inter
    types). Those nodes are one contiguous row range of `arrays`, never
    empty because it holds the replaced endpoint itself. Every pending
    negative of a type draws its side and candidate at once, in up to 100
    rounds. A round rejects self-loops, candidates already positive or
    already accepted (a binary search of the sorted pair keys), and all but
    the first of equal candidates; rejected negatives keep their base edge
    and draw again next round. Negatives still pending after the last round
    are counted in `shortfall[etype]`.
    """
    n = arrays.num_nodes
    positives: dict = {}
    negatives: dict = {}
    shortfall: dict = {}
    for etype in ALL_EDGE_TYPES:
        src, dst = arrays.edges[etype]
        positives[etype] = (src.copy(), dst.copy())
        base = rng.integers(0, len(src), int(ratio * len(src)))
        neg = np.stack([src[base], dst[base]])     # rows: sources, destinations
        done = np.zeros(len(base), dtype=bool)
        taken = np.sort(src * n + dst)              # pair keys already used
        for _ in range(100):
            todo = np.flatnonzero(~done)
            if len(todo) == 0:
                break
            side = rng.integers(0, 2, len(todo))    # endpoint to replace
            cand = neg[:, todo]
            cand[side, np.arange(len(todo))] = rng.integers(
                *_candidate_rows(arrays, etype, side, neg[1 - side, todo]))
            key = cand[0] * n + cand[1]
            # `taken` holds the positives, so it is not empty here
            at = np.minimum(np.searchsorted(taken, key), len(taken) - 1)
            ok = (cand[0] != cand[1]) & (taken[at] != key)
            kept = np.flatnonzero(ok)
            kept = kept[np.unique(key[kept], return_index=True)[1]]
            # the kept keys are sorted: merge them in place
            taken = np.insert(taken, np.searchsorted(taken, key[kept]),
                              key[kept])
            neg[:, todo[kept]] = cand[:, kept]
            done[todo[kept]] = True
        if not done.all():
            shortfall[etype] = int((~done).sum())
        negatives[etype] = (neg[0, done], neg[1, done])
    return LinkPredTask(positives, negatives, ratio, shortfall)


def _candidate_rows(arrays: GraphArrays, etype: str, side: np.ndarray,
                    kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row range [lo, hi) of the legal replacements for endpoint `side`
    (0 source, 1 destination) of `etype` edges whose other endpoint is
    `kept`."""
    kinds = ENDPOINT_KINDS[etype]
    lo, hi = np.empty((2, len(side)), dtype=np.int64)
    for s in (0, 1):
        at = side == s
        rows = arrays.window_bounds[kinds[s]]
        w = np.searchsorted(arrays.window_bounds[kinds[1 - s]], kept[at],
                            side="right") - 1
        if etype not in INTER_EDGE_TYPES:
            first, last = w, w + 1
        else:  # earlier windows for a source, later ones for a destination
            first, last = (0, w) if s == 0 else (w + 1, -1)
        lo[at], hi[at] = rows[first], rows[last]
    return lo, hi


# ---------------------------------------------------------------------------
# scorer heads and loss


def init_scorer_params(model_config: ModelConfig, rng: T.Rng) -> dict[str, Tensor]:
    h = model_config.hidden_size
    mid = model_config.classifier_hidden
    params: dict[str, Tensor] = {}
    for etype in ALL_EDGE_TYPES:
        r = rng.child(f"scorer.{etype}")
        _linear_params(r.child("0"), f"scorer.{etype}.0", 2 * h, mid, params)
        _linear_params(r.child("1"), f"scorer.{etype}.1", mid, 1, params)
    return params


def score_edges(states: Tensor, edges, etype: str,
                params: Mapping[str, Tensor], config: ModelConfig) -> Tensor:
    """One logit per edge (src[e], dst[e]): the `etype` scorer on the
    concatenated endpoint states. Its first layer is applied as
    `states[src] @ W_top + states[dst] @ W_bot`, with W_top and W_bot the
    source and destination halves of `scorer.{etype}.0.W`: each distinct
    source is projected by W_top once and each distinct destination by
    W_bot once, and `T.pair_mlp` gathers the projected rows per edge and
    runs the rest of the scorer in one op."""
    src, dst = edges
    n, h = states.data.shape
    w = params[f"scorer.{etype}.0.W"]
    sources, src_slot = _distinct(src, n)
    targets, dst_slot = _distinct(dst, n)
    top = T.matmul(T.take_rows(states, sources),
                   T.take_rows(w, np.arange(h)))
    bottom = T.matmul(T.take_rows(states, targets),
                      T.take_rows(w, np.arange(h, 2 * h)))
    return T.pair_mlp(top, bottom, row_place(src_slot, len(sources)),
                      row_place(dst_slot, len(targets)),
                      params[f"scorer.{etype}.0.b"],
                      params[f"scorer.{etype}.1.W"],
                      params[f"scorer.{etype}.1.b"], config.activation)


def link_pred_loss(arrays: GraphArrays, task: LinkPredTask,
                   params: Mapping[str, Tensor],
                   config: ModelConfig) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """BCE over every positive/negative edge of every type; also returns
    raw logits and targets for accuracy accounting. Each type's positives
    come first, then its negatives, scored in one call."""
    states = final_states(arrays, params, config)
    parts: list[Tensor] = []
    targets: list[np.ndarray] = []
    for etype in ALL_EDGE_TYPES:
        (ps, pd), (ns, nd) = task.positives[etype], task.negatives[etype]
        if len(ps) + len(ns) == 0:
            continue
        parts.append(score_edges(states, (np.concatenate([ps, ns]),
                                          np.concatenate([pd, nd])),
                                 etype, params, config))
        targets += [np.ones(len(ps)), np.zeros(len(ns))]
    if not parts:
        raise ValueError("graph has no edges to score")
    logits = T.concat_rows(parts)
    target_vec = np.concatenate(targets)
    loss = T.binary_cross_entropy(logits, target_vec)
    return loss, logits.data.reshape(-1), target_vec


def link_pred_accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    pred = (logits > 0).astype(np.float64)
    return float((pred == targets).mean()) if len(targets) else 0.0


# ---------------------------------------------------------------------------
# pre-training loop


def pretrain(corpus: PretrainCorpus, graphs: Sequence[TemporalGraph],
             model_config: ModelConfig, graph_config: GraphBuildConfig,
             feature_dim: int, epochs: int, lr: float, negative_ratio: float,
             seed: int = 0) -> FitResult:
    """Minimize BCE over positive/negative edges of all types across the
    corpus graphs, one Adam step per graph; negatives are resampled every
    epoch from a seeded stream. Returns trunk + scorer parameters plus the
    per-epoch log of edge-weighted loss, accuracy and shortfall (negatives
    missing per scored edge)."""
    if not graphs:
        raise ValueError("empty pre-training corpus: no graphs")
    rng = T.Rng(seed)
    params = init_params(model_config, feature_dim, graph_config,
                         rng.child("trunk"))
    params.update(init_scorer_params(model_config, rng.child("scorers")))
    neg_rng = rng.child("negatives")
    # planned for a read of every row: the scorers read every node's state
    prepared = [prepare_graph(g, graph_config) for g in graphs]

    def steps(epoch):
        for gi, arrays in enumerate(prepared):
            task = sample_negatives(arrays, negative_ratio,
                                    neg_rng.child(f"{epoch}:{gi}"))
            loss, logits, targets = link_pred_loss(arrays, task, params,
                                                   model_config)
            yield loss, len(targets), {
                "accuracy": link_pred_accuracy(logits, targets),
                "shortfall": sum(task.shortfall.values()) / len(targets)}

    return fit(params, epochs, lr, steps)


def transfer_weights(pretrained: Mapping[str, Tensor],
                     model_config: ModelConfig, graph_config: GraphBuildConfig,
                     feature_dim: int, rng: T.Rng) -> dict[str, Tensor]:
    """Copy input encoders and all edge-type matrices from a pre-trained
    set; drop the edge scorers; re-initialize the classifier head."""
    params = init_params(model_config, feature_dim, graph_config, rng)
    mismatched = []
    for name in trunk_names(params):
        if name not in pretrained:
            mismatched.append(f"{name} (missing from pretrained set)")
            continue
        src = pretrained[name].data
        if src.shape != params[name].data.shape:
            mismatched.append(f"{name} ({src.shape} vs {params[name].data.shape})")
            continue
        params[name] = Tensor(src.copy())
    if mismatched:
        raise CompatibilityError("trunk shape mismatch: " + ", ".join(mismatched))
    return params
