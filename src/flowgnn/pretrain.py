"""Self-supervised link-prediction pre-training.

Graphs are corrupted with sampled negative edges per edge type (uniform
endpoint resampling among type-compatible nodes, rejection-sampled against
the positive set). A per-edge-type two-layer perceptron scores concatenated
endpoint states from the shared GNN trunk as a binary positive/negative
classifier. After pre-training, trunk weights transfer into a fine-tuning
parameter set; the edge scorers are discarded and the classifier head is
re-initialized.

The whole path is label-free: snapshots carry no labels, and corpora list
only unlabeled flow caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .model import (CompatibilityError, GraphArrays, ModelConfig,
                    final_states, init_params, prepare_graph, trunk_names)
from .tensor import Tensor
from .training import FitResult, fit
from .windows import (ALL_EDGE_TYPES, GraphBuildConfig, SPATIAL_EDGE_TYPES,
                      TemporalGraph)

PRETRAIN_MODES = ("in-context", "out-of-context")


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


def sample_negatives(graph: TemporalGraph, arrays: GraphArrays, ratio: float,
                     rng: T.Rng, max_attempts: int = 100) -> LinkPredTask:
    """Sample floor(ratio * |positives|) negatives per edge type.

    One endpoint of a positive edge is resampled uniformly among nodes of
    the same kind with the same window relationship (same window for
    spatial/intra types, time-ordered windows for inter types). Candidates
    already positive or already sampled are rejected; after `max_attempts`
    failures per negative the shortfall is recorded instead. `arrays` is
    `prepare_graph(graph, ...)`, whose node indices the edges use.
    """
    n_flows = arrays.n_flows

    flow_window = np.zeros(n_flows, dtype=np.int64)
    ip_window = np.zeros(arrays.n_ips, dtype=np.int64)
    flows_in: list[list[int]] = []
    ips_in: list[list[int]] = []
    pos = 0
    ipos = 0
    for w, snap in enumerate(graph.snapshots):
        flows_in.append(list(range(pos, pos + snap.num_flows)))
        ips_in.append(list(range(n_flows + ipos, n_flows + ipos + snap.num_ips)))
        flow_window[pos:pos + snap.num_flows] = w
        ip_window[ipos:ipos + snap.num_ips] = w
        pos += snap.num_flows
        ipos += snap.num_ips

    def window_of(node: int) -> int:
        return int(flow_window[node]) if node < n_flows \
            else int(ip_window[node - n_flows])

    def pool(etype: str, side: int, other: int) -> list[int]:
        w = window_of(other)
        if etype in ("intra_src", "intra_dst"):
            return flows_in[w]
        if etype in SPATIAL_EDGE_TYPES:
            flow_side = 0 if etype.startswith("flow") else 1
            wants_flow = side == flow_side
            return flows_in[w] if wants_flow else ips_in[w]
        # inter types: src strictly before the kept dst, or dst strictly after
        pools = flows_in if etype == "inter_flow" else ips_in
        if side == 0:
            return [n for ww in range(0, w) for n in pools[ww]]
        return [n for ww in range(w + 1, len(pools)) for n in pools[ww]]

    positives: dict = {}
    negatives: dict = {}
    shortfall: dict = {}
    for etype in ALL_EDGE_TYPES:
        src, dst = arrays.edges[etype]
        pairs = list(zip(src.tolist(), dst.tolist()))
        positives[etype] = (src.copy(), dst.copy())
        want = int(ratio * len(pairs))
        used = set(pairs)
        found: list[tuple[int, int]] = []
        missing = 0
        for i in range(want):
            base = pairs[int(rng.integers(0, len(pairs)))]
            ok = False
            for _ in range(max_attempts):
                side = int(rng.integers(0, 2))
                other = base[1 - side]
                candidates = pool(etype, side, other)
                if not candidates:
                    break
                new = candidates[int(rng.integers(0, len(candidates)))]
                cand = (new, other) if side == 0 else (other, new)
                if cand[0] == cand[1] or cand in used:
                    continue
                used.add(cand)
                found.append(cand)
                ok = True
                break
            if not ok:
                missing += 1
        if missing:
            shortfall[etype] = missing
        if found:
            ns, nd = zip(*found)
            negatives[etype] = (np.asarray(ns, dtype=np.int64),
                                np.asarray(nd, dtype=np.int64))
        else:
            negatives[etype] = (np.zeros(0, dtype=np.int64),
                                np.zeros(0, dtype=np.int64))
    return LinkPredTask(positives, negatives, ratio, shortfall)


# ---------------------------------------------------------------------------
# scorer heads and loss


def init_scorer_params(model_config: ModelConfig, rng: T.Rng) -> dict[str, Tensor]:
    h = model_config.hidden_size
    mid = model_config.classifier_hidden
    params: dict[str, Tensor] = {}
    for etype in ALL_EDGE_TYPES:
        r = rng.child(f"scorer.{etype}")
        lim0 = np.sqrt(6.0 / (2 * h + mid))
        lim1 = np.sqrt(6.0 / (mid + 1))
        params[f"scorer.{etype}.0.W"] = Tensor(r.child("0").uniform(-lim0, lim0, (2 * h, mid)))
        params[f"scorer.{etype}.0.b"] = Tensor(np.zeros(mid))
        params[f"scorer.{etype}.1.W"] = Tensor(r.child("1").uniform(-lim1, lim1, (mid, 1)))
        params[f"scorer.{etype}.1.b"] = Tensor(np.zeros(1))
    return params


def score_edges(states: Tensor, edges, etype: str,
                params: Mapping[str, Tensor], config: ModelConfig) -> Tensor:
    src, dst = edges
    act = T.ACTIVATIONS[config.activation]
    x = T.concat_cols([T.gather_rows(states, src), T.gather_rows(states, dst)])
    x = act(T.add(T.matmul(x, params[f"scorer.{etype}.0.W"]),
                  params[f"scorer.{etype}.0.b"]))
    return T.add(T.matmul(x, params[f"scorer.{etype}.1.W"]),
                 params[f"scorer.{etype}.1.b"])


def link_pred_loss(arrays: GraphArrays, task: LinkPredTask,
                   params: Mapping[str, Tensor],
                   config: ModelConfig) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """BCE over every positive/negative edge of every type; also returns
    raw logits and targets for accuracy accounting."""
    states = final_states(arrays, params, config)
    parts: list[Tensor] = []
    targets: list[np.ndarray] = []
    for etype in ALL_EDGE_TYPES:
        for edges, value in ((task.positives[etype], 1.0),
                             (task.negatives[etype], 0.0)):
            if len(edges[0]) == 0:
                continue
            parts.append(score_edges(states, edges, etype, params, config))
            targets.append(np.full(len(edges[0]), value))
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
             feature_dim: int, epochs: int, lr: float = 0.0001,
             negative_ratio: float = 1.0, seed: int = 0) -> FitResult:
    """Minimize BCE over positive/negative edges of all types across the
    corpus graphs, one Adam step per graph; negatives are resampled every
    epoch from a seeded stream. Returns trunk + scorer parameters plus the
    per-epoch log of edge-weighted loss and accuracy."""
    if not graphs:
        raise ValueError("empty pre-training corpus: no graphs")
    rng = T.Rng(seed)
    params = init_params(model_config, feature_dim, graph_config,
                         rng.child("trunk"))
    params.update(init_scorer_params(model_config, rng.child("scorers")))
    neg_rng = rng.child("negatives")
    prepared = [(prepare_graph(g, graph_config), g) for g in graphs]

    def steps(epoch):
        for gi, (arrays, graph) in enumerate(prepared):
            task = sample_negatives(graph, arrays, negative_ratio,
                                    neg_rng.child(f"{epoch}:{gi}"))
            loss, logits, targets = link_pred_loss(arrays, task, params,
                                                   model_config)
            yield loss, len(targets), \
                {"accuracy": link_pred_accuracy(logits, targets)}

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
