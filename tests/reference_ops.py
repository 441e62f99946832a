"""Reference implementations that faster kernels replaced, kept as oracles.

Message passing: the gather + segment-reduce path that the sparse-operator
kernel in `flowgnn.model` replaced. Each edge type gathers source states per
edge, reduces them into all n node rows with `np.add.at`, multiplies
`states @ W1` over all n rows and masks the rows without an incoming edge.

Planned message passing: the per-type sparse-operator step that
`flowgnn.model`'s step plans replaced. Each edge type aggregates its
in-neighbour states on its destination rows, takes both W products there,
places the term into an n-row array with `put_rows`, and the arrays are
added; two `mul_const` masks then keep the untouched rows.

Receptive field: the read set of each message-passing step, the input rows
that the classifier's output at the target rows depends on, found by
walking the raw edge lists back from the last step; `flowgnn.model`'s
message plans keep these rows.

Negative sampling: the sequential sampler that `flowgnn.pretrain`'s bulk
rounds replaced. It draws one negative at a time from per-window Python node
lists and gives up on a negative at its first empty pool.

Bulk negative sampling: `flowgnn.pretrain.sample_negatives` as it was
before its membership test searched sorted pair keys; each round tests the
candidate keys with `np.isin` against an unsorted array of used keys.

Edge scoring, first form: the scorer that the project-then-gather form
replaced. It gathers both endpoint states of every edge, concatenates them
into an E x 2h matrix and multiplies that by the first-layer weight, scoring
a type's positives and negatives in two calls; the gathers scatter-add their
gradients with `np.add.at`.

Edge scoring, composed form: the project-then-gather scorer that
`flowgnn.pretrain.score_edges`'s fused op replaced. It projects every node
state by both halves of the first-layer weight, gathers the projected rows
per edge with two `spmm` ops, and runs the bias, the activation and the
second layer as separate ops, each kept on the tape.

Adam: the update that `flowgnn.tensor.adam_step` replaced. It updates every
parameter, giving one without a gradient a zero gradient, and allocates a
fresh array for each intermediate of the update.

Window graphs as tuples: the builder that `flowgnn.windows`' array blocks
replaced. Snapshots hold one `RefFlowNode` (flow id, feature row, ordinal)
per flow and tuples of (int, int) pairs per edge type, built record by
record; chains and recurrences come from per-pair Python loops. The
features are a flow id -> row mapping from the per-record `encode_flow`.
`flatten_graph` is the flattening part of the `prepare_graph` it fed, which
rebuilt every array from those tuples and rows, and `dump_graph` the
`dump_temporal_graph` that rendered them.

CSV loading: the `csv.DictReader` loader that `flowgnn.ingest`'s field
table replaced. It reads every row into a dict first, detects each
timestamp column's format on the first row, converts each field by a
hand-written call and numbers rows by their count, not their line. Its
results are defined only for CSVs without blank lines or short rows: it
miscounts lines after a blank one and raises on a row lacking a mapped
cell.

Also here: the per-edge-type sum operator `edge_operator` and the
finite-difference gradient check, used only by the tests.
"""

import csv
import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, Sequence
from unittest.mock import patch

import numpy as np

from flowgnn import pretrain
from flowgnn import tensor as T
from flowgnn.ingest import (OPTIONAL_FIELDS, REQUIRED_FIELDS, FeatureCodec,
                            FlowRecord, LoadResult, SchemaError, UNLABELED,
                            _ParsedRow, _violation)
from flowgnn.model import (ENDPOINT_KINDS, PHASES, EdgeOperator,
                           _distinct, _edge_operator, final_states,
                           row_gather)
from flowgnn.pretrain import LinkPredTask, _candidate_rows
from flowgnn.tensor import Tensor
from flowgnn.windows import (ALL_EDGE_TYPES, INTER_EDGE_TYPES,
                             INTRA_EDGE_TYPES, SPATIAL_EDGE_TYPES,
                             GraphBuildConfig, cyclical_encode)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """x[idx]; indices may repeat."""
    idx = np.asarray(idx, dtype=np.int64)

    def bw(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, idx, g)
        x._accum(buf)

    return Tensor(x.data[idx], parents=(x,), backward=bw)


def concat_cols(parts) -> Tensor:
    sizes = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p._accum(g[:, lo:hi])

    return Tensor(np.concatenate([p.data for p in parts], axis=1),
                  parents=tuple(parts), backward=bw)


def mul_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Multiply by a non-differentiated constant (masks, weightings)."""
    c = np.asarray(c, dtype=np.float64)

    def bw(g):
        a._accum(g * c)

    return Tensor(a.data * c, parents=(a,), backward=bw)


def put_rows(x: Tensor, rows: np.ndarray, num_rows: int) -> Tensor:
    """A (num_rows, d) tensor holding row i of x at rows[i] (distinct) and
    zeros elsewhere; the inverse placement of `take_rows`."""
    out = np.zeros((num_rows,) + x.data.shape[1:])
    out[rows] = x.data

    def bw(g):
        x._accum(g[rows])

    return Tensor(out, parents=(x,), backward=bw)


def segment_sum(x: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    """Row i of x is added into output row seg[i]; empty segments are zero."""
    seg = np.asarray(seg, dtype=np.int64)
    out = np.zeros((num_segments, x.data.shape[1]))
    np.add.at(out, seg, x.data)

    def bw(g):
        x._accum(g[seg])

    return Tensor(out, parents=(x,), backward=bw)


def segment_mean(x: Tensor, seg: np.ndarray, num_segments: int) -> Tensor:
    seg = np.asarray(seg, dtype=np.int64)
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)
    denom = np.maximum(counts, 1.0)
    out = np.zeros((num_segments, x.data.shape[1]))
    np.add.at(out, seg, x.data)
    out /= denom[:, None]

    def bw(g):
        x._accum(g[seg] / denom[seg][:, None])

    return Tensor(out, parents=(x,), backward=bw)


SEGMENT_REDUCERS = {
    "sum": segment_sum,
    "mean": segment_mean,
    "max": T.segment_max,
}


def hetero_step(states, arrays, params, layer, phase, config):
    """Drop-in replacement for `flowgnn.model._hetero_step`."""
    n = arrays.num_nodes
    reduce = SEGMENT_REDUCERS[config.neighbor_aggregator]
    contrib = None
    touched = np.zeros(n, dtype=bool)
    for etype in PHASES[phase]:
        src, dst = arrays.edges[etype]
        if len(src) == 0:
            continue
        w1 = params[f"layer{layer}.{phase}.{etype}.W1"]
        w2 = params[f"layer{layer}.{phase}.{etype}.W2"]
        neigh = reduce(gather_rows(states, src), dst, n)
        mask = np.zeros(n)
        mask[dst] = 1.0
        term = mul_const(T.add(T.matmul(states, w1), T.matmul(neigh, w2)),
                         mask[:, None])
        contrib = term if contrib is None else T.add(contrib, term)
        touched |= mask.astype(bool)
    if contrib is None:
        return states
    act = T.ACTIVATIONS[config.activation]
    updated = mul_const(act(contrib), touched.astype(np.float64)[:, None])
    kept = mul_const(states, (~touched).astype(np.float64)[:, None])
    return T.add(updated, kept)


def sparse_aggregate(states, edges, op, aggregator):
    """In-neighbour states aggregated per destination row of `op`."""
    if aggregator == "max":
        src, dst = edges
        sources = T.spmm(row_gather(src, len(states.data)), states)
        return T.segment_max(sources, np.searchsorted(op.rows, dst),
                             len(op.rows))
    total = T.spmm(op, states)
    return total if aggregator == "sum" else T.div_const(total, op.degree[:, None])


def sparse_hetero_step(states, arrays, params, layer, phase, config):
    """Drop-in replacement for `flowgnn.model._hetero_step`: the per-type
    sparse-operator step, on aggregation operators built at call time."""
    n = arrays.num_nodes
    contrib = None
    touched = np.zeros(n, dtype=bool)
    for etype in PHASES[phase]:
        src, dst = arrays.edges[etype]
        op = edge_operator(src, dst, n)
        if len(op.rows) == 0:
            continue
        w1 = params[f"layer{layer}.{phase}.{etype}.W1"]
        w2 = params[f"layer{layer}.{phase}.{etype}.W2"]
        own = T.take_rows(states, op.rows)
        neigh = sparse_aggregate(states, (src, dst), op,
                                 config.neighbor_aggregator)
        term = put_rows(T.add(T.matmul(own, w1), T.matmul(neigh, w2)),
                        op.rows, n)
        contrib = term if contrib is None else T.add(contrib, term)
        touched[op.rows] = True
    if contrib is None:
        return states
    act = T.ACTIVATIONS[config.activation]
    updated = mul_const(act(contrib), touched.astype(np.float64)[:, None])
    kept = mul_const(states, (~touched).astype(np.float64)[:, None])
    return T.add(updated, kept)


def read_sets(edges, target_rows, num_layers):
    """Per layer from the last back, phase -> the sorted input rows of that
    step that the output at `target_rows` after the last layer depends on:
    a row read after a step is read before it, and so is the source of an
    edge of the step's phase into a row read after it."""
    read = {int(r) for r in target_rows}
    layers = []
    for _ in range(num_layers):
        layer = {}
        for phase in ("spatial", "temporal"):
            before = set(read)
            for etype in PHASES[phase]:
                for s, d in zip(*edges[etype]):
                    if int(d) in read:
                        before.add(int(s))
            read = before
            layer[phase] = sorted(read)
        layers.append(layer)
    return layers


def sample_negatives(graph, arrays, ratio, rng, max_attempts=100):
    """Sequential stand-in for `flowgnn.pretrain.sample_negatives`; `arrays`
    is `prepare_graph(graph, ...)`."""
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


def bulk_sample_negatives(arrays, ratio, rng):
    """Drop-in replacement for `flowgnn.pretrain.sample_negatives`."""
    n = arrays.num_nodes
    positives: dict = {}
    negatives: dict = {}
    shortfall: dict = {}
    for etype in ALL_EDGE_TYPES:
        src, dst = arrays.edges[etype]
        positives[etype] = (src.copy(), dst.copy())
        base = rng.integers(0, len(src), int(ratio * len(src)))
        neg = np.stack([src[base], dst[base]])
        done = np.zeros(len(base), dtype=bool)
        taken = src * n + dst
        for _ in range(100):
            todo = np.flatnonzero(~done)
            if len(todo) == 0:
                break
            side = rng.integers(0, 2, len(todo))
            cand = neg[:, todo]
            cand[side, np.arange(len(todo))] = rng.integers(
                *_candidate_rows(arrays, etype, side, neg[1 - side, todo]))
            key = cand[0] * n + cand[1]
            ok = (cand[0] != cand[1]) & ~np.isin(key, taken)
            kept = np.flatnonzero(ok)
            kept = kept[np.unique(key[kept], return_index=True)[1]]
            taken = np.concatenate([taken, key[kept]])
            neg[:, todo[kept]] = cand[:, kept]
            done[todo[kept]] = True
        if not done.all():
            shortfall[etype] = int((~done).sum())
        negatives[etype] = (neg[0, done], neg[1, done])
    return LinkPredTask(positives, negatives, ratio, shortfall)


def score_edges(states, edges, etype, params, config):
    """Drop-in replacement for `flowgnn.pretrain.score_edges`."""
    src, dst = edges
    act = T.ACTIVATIONS[config.activation]
    x = concat_cols([gather_rows(states, src), gather_rows(states, dst)])
    x = act(T.add(T.matmul(x, params[f"scorer.{etype}.0.W"]),
                  params[f"scorer.{etype}.0.b"]))
    return T.add(T.matmul(x, params[f"scorer.{etype}.1.W"]),
                 params[f"scorer.{etype}.1.b"])


def link_pred_loss(arrays, task, params, config):
    """`flowgnn.pretrain.link_pred_loss` as it was with this module's
    `score_edges`: one call for a type's positives, one for its negatives."""
    states = final_states(arrays, params, config)
    parts = []
    targets = []
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


def composed_score_edges(states, edges, etype, params, config):
    """Drop-in replacement for `flowgnn.pretrain.score_edges`."""
    src, dst = edges
    n, h = states.data.shape
    act = T.ACTIVATIONS[config.activation]
    w = params[f"scorer.{etype}.0.W"]
    top = T.matmul(states, T.take_rows(w, np.arange(h)))
    bottom = T.matmul(states, T.take_rows(w, np.arange(h, 2 * h)))
    x = T.add(T.spmm(row_gather(src, n), top),
              T.spmm(row_gather(dst, n), bottom))
    x = act(T.add(x, params[f"scorer.{etype}.0.b"]))
    return T.add(T.matmul(x, params[f"scorer.{etype}.1.W"]),
                 params[f"scorer.{etype}.1.b"])


def composed_link_pred_loss(arrays, task, params, config):
    """`flowgnn.pretrain.link_pred_loss` with `composed_score_edges`."""
    with patch.object(pretrain, "score_edges", composed_score_edges):
        return pretrain.link_pred_loss(arrays, task, params, config)


def adam_step(params, grads, state):
    """Drop-in replacement for `flowgnn.tensor.adam_step`."""
    state.step += 1
    t = state.step
    for name in params:
        p = params[name]
        g = np.asarray(grads.get(name)) if grads.get(name) is not None \
            else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}: "
                             f"{g.shape} vs {p.data.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def edge_operator(src: np.ndarray, dst: np.ndarray,
                  num_nodes: int) -> EdgeOperator:
    """The sum `EdgeOperator` of the edges src[e] -> dst[e]."""
    return _edge_operator(src, *_distinct(dst, num_nodes), num_nodes)


# ---------------------------------------------------------------------------
# gradient check


def check_gradients(f: Callable[[Mapping[str, Tensor]], Tensor],
                    params: Mapping[str, Tensor],
                    eps: float = 1e-5) -> float:
    """Worst relative error between analytic gradients of `f` and central
    finite differences, over every coordinate of every parameter.

    Relative error is |a - n| / (1 + |a| + |n|), which degrades to absolute
    error for tiny gradients instead of blowing up on them.
    """
    T.zero_grads(params)
    out = f(params)
    out.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            with T.no_grad():
                flat[i] = orig + eps
                f_plus = f(params).item()
                flat[i] = orig - eps
                f_minus = f(params).item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = a_flat[i]
            err = abs(a - numeric) / (1.0 + abs(a) + abs(numeric))
            if err > worst:
                worst = err
    return worst


# ---------------------------------------------------------------------------
# window graphs as tuples


def encode_flow(record: FlowRecord, codec: FeatureCodec) -> np.ndarray:
    """Encode one record; a protocol absent from the vocabulary encodes as
    an all-zero one-hot block (no error)."""
    vec = np.zeros(codec.feature_dim)
    for i, field in enumerate(codec.numeric_features):
        vec[i] = (float(getattr(record, field)) - codec.means[i]) / codec.stds[i]
    base = len(codec.numeric_features)
    try:
        vec[base + codec.protocol_vocab.index(record.protocol)] = 1.0
    except ValueError:
        pass
    base += len(codec.protocol_vocab)
    for bit in range(8):
        vec[base + bit] = (record.tcp_flags >> bit) & 1
    return vec


def encode_flows(records: Sequence[FlowRecord],
                 codec: FeatureCodec) -> dict[int, np.ndarray]:
    return {r.flow_id: encode_flow(r, codec) for r in records}


@dataclass(frozen=True)
class RefFlowNode:
    flow_id: int
    features: np.ndarray
    ordinal: int


@dataclass(frozen=True)
class RefWindowSnapshot:
    window_index: int
    window_start: float
    window_end: float
    ip_nodes: tuple
    flow_nodes: tuple
    flow_to_src: tuple = ()
    src_to_flow: tuple = ()
    flow_to_dst: tuple = ()
    dst_to_flow: tuple = ()
    intra_src: tuple = ()
    intra_dst: tuple = ()

    @property
    def num_flows(self) -> int:
        return len(self.flow_nodes)

    @property
    def num_ips(self) -> int:
        return len(self.ip_nodes)


@dataclass(frozen=True)
class RefTemporalGraph:
    snapshots: tuple
    inter_ip_edges: tuple
    inter_flow_edges: tuple
    target_index: int


def window_of(x: float, t0: float, w: float) -> int:
    """Index of the half-open grid window containing time x."""
    i = int(math.floor((x - t0) / w))
    # guard float rounding at the boundaries
    if t0 + i * w > x:
        i -= 1
    elif x >= t0 + (i + 1) * w:
        i += 1
    return i


def build_snapshots(flows: Sequence[FlowRecord], config: GraphBuildConfig,
                    features: Mapping[int, np.ndarray] | None = None,
                    origin: float | None = None) -> tuple:
    if not flows:
        return ()
    for prev, cur in zip(flows, flows[1:]):
        if (cur.start_time, cur.flow_id) < (prev.start_time, prev.flow_id):
            raise ValueError("flows must be sorted by (start_time, flow_id)")

    w = config.window_size
    t0 = min(f.start_time for f in flows) if origin is None else origin
    max_event = max(f.end_time for f in flows)
    first = window_of(min(f.start_time for f in flows), t0, w)
    last = window_of(max_event, t0, w)

    members: list[list[FlowRecord]] = [[] for _ in range(last - first + 1)]
    for f in flows:
        idxs = {window_of(f.start_time, t0, w), window_of(f.end_time, t0, w)}
        for i in idxs:
            if first <= i <= last:
                members[i - first].append(f)

    snapshots = []
    for i in range(first, last + 1):
        window_flows = sorted(members[i - first],
                              key=lambda f: (f.start_time, f.flow_id))
        ip_keys = sorted({f.src_ip for f in window_flows} |
                         {f.dst_ip for f in window_flows})
        ip_index = {k: j for j, k in enumerate(ip_keys)}
        nodes = []
        flow_to_src, src_to_flow, flow_to_dst, dst_to_flow = [], [], [], []
        for ordinal, f in enumerate(window_flows):
            vec = np.asarray(features[f.flow_id], dtype=np.float64) \
                if features is not None else np.zeros(0)
            nodes.append(RefFlowNode(f.flow_id, vec, ordinal))
            s, d = ip_index[f.src_ip], ip_index[f.dst_ip]
            flow_to_src.append((ordinal, s))
            src_to_flow.append((s, ordinal))
            flow_to_dst.append((ordinal, d))
            dst_to_flow.append((d, ordinal))
        snapshots.append(RefWindowSnapshot(
            window_index=i,
            window_start=t0 + i * w,
            window_end=t0 + (i + 1) * w,
            ip_nodes=tuple(ip_keys),
            flow_nodes=tuple(nodes),
            flow_to_src=tuple(flow_to_src),
            src_to_flow=tuple(src_to_flow),
            flow_to_dst=tuple(flow_to_dst),
            dst_to_flow=tuple(dst_to_flow),
        ))
    return tuple(snapshots)


def add_intra_temporal_edges(snapshot, config: GraphBuildConfig):
    def chains(flow_ip_pairs):
        groups: dict[int, list[int]] = {}
        for flow_idx, ip_idx in flow_ip_pairs:
            groups.setdefault(ip_idx, []).append(flow_idx)
        edges = []
        for ip_idx in sorted(groups):
            ordered = sorted(groups[ip_idx])  # flow index order == ordinal order
            for j in range(len(ordered)):
                for k in range(max(0, j - config.flow_memory), j):
                    edges.append((ordered[k], ordered[j]))
        return tuple(sorted(edges))

    return replace(snapshot,
                   intra_src=chains(snapshot.flow_to_src),
                   intra_dst=chains(snapshot.flow_to_dst))


def assemble_temporal_graph(snapshots, t: int,
                            config: GraphBuildConfig) -> RefTemporalGraph:
    if not 0 <= t < len(snapshots):
        raise ValueError(f"target index {t} out of range")
    lo = max(0, t - config.window_memory + 1)
    selected = tuple(snapshots[lo:t + 1])

    def recurrence_edges(occurrences: dict) -> tuple:
        edges = []
        for key in occurrences:
            occ = occurrences[key]
            for a in range(len(occ)):
                for b in range(a + 1, len(occ)):
                    edges.append((occ[a], occ[b]))
        return tuple(sorted(edges))

    ip_occ: dict[str, list[tuple[int, int]]] = {}
    flow_occ: dict[int, list[tuple[int, int]]] = {}
    for w, snap in enumerate(selected):
        for i, key in enumerate(snap.ip_nodes):
            ip_occ.setdefault(key, []).append((w, i))
        for i, node in enumerate(snap.flow_nodes):
            flow_occ.setdefault(node.flow_id, []).append((w, i))

    return RefTemporalGraph(
        snapshots=selected,
        inter_ip_edges=recurrence_edges(ip_occ),
        inter_flow_edges=recurrence_edges(flow_occ),
        target_index=len(selected) - 1,
    )


def flatten_graph(graph: RefTemporalGraph,
                  graph_config: GraphBuildConfig) -> dict:
    """The arrays `prepare_graph` builds before its message plan, by
    `GraphArrays` field name."""
    flow_bounds = np.cumsum([0] + [s.num_flows for s in graph.snapshots],
                            dtype=np.int64)
    n_flows = int(flow_bounds[-1])
    ip_bounds = np.cumsum([n_flows] + [s.num_ips for s in graph.snapshots],
                          dtype=np.int64)
    n_ips = int(ip_bounds[-1]) - n_flows
    bounds = {"flow": flow_bounds, "ip": ip_bounds}

    feat_rows, cyc_rows = [], []
    for snap in graph.snapshots:
        feat_rows.extend(node.features for node in snap.flow_nodes)
        cyc_rows.append(cyclical_encode(
            np.array([node.ordinal for node in snap.flow_nodes], dtype=np.int64),
            max(1, snap.num_flows), graph_config.flow_encoding_dim))
    if feat_rows:
        feature_dim = len(feat_rows[0])
        if any(len(r) != feature_dim for r in feat_rows):
            raise ValueError("inconsistent flow feature dimensions in graph")
        flow_input = np.concatenate([np.asarray(feat_rows, dtype=np.float64),
                                     np.concatenate(cyc_rows)], axis=1)
    else:
        flow_input = np.zeros((0, graph_config.flow_encoding_dim))

    target_global = graph.snapshots[graph.target_index].window_index
    ip_rows = []
    for snap in graph.snapshots:
        age = target_global - snap.window_index
        enc = cyclical_encode(age, graph_config.window_memory,
                              graph_config.window_encoding_dim)
        ip_rows.append(np.tile(np.concatenate([[1.0], enc]), (snap.num_ips, 1)))
    ip_input = np.concatenate(ip_rows) if ip_rows \
        else np.zeros((0, 1 + graph_config.window_encoding_dim))

    edges: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for etype in SPATIAL_EDGE_TYPES + INTRA_EDGE_TYPES:
        src_kind, dst_kind = ENDPOINT_KINDS[etype]
        pairs = np.concatenate(
            [np.asarray(getattr(snap, etype), dtype=np.int64).reshape(-1, 2)
             + (bounds[src_kind][w], bounds[dst_kind][w])
             for w, snap in enumerate(graph.snapshots)])
        edges[etype] = (pairs[:, 0].copy(), pairs[:, 1].copy())
    for etype in INTER_EDGE_TYPES:
        first = bounds[ENDPOINT_KINDS[etype][0]]
        a, i, b, j = np.asarray(getattr(graph, f"{etype}_edges"),
                                dtype=np.int64).reshape(-1, 4).T
        edges[etype] = (first[a] + i, first[b] + j)

    target = graph.snapshots[graph.target_index]
    return dict(
        n_flows=n_flows, n_ips=n_ips, flow_input=flow_input,
        ip_input=ip_input, edges=edges, window_bounds=bounds,
        target_rows=bounds["flow"][graph.target_index] + np.arange(
            target.num_flows, dtype=np.int64),
        target_flow_ids=tuple(n.flow_id for n in target.flow_nodes))


def dump_graph(graph: RefTemporalGraph) -> str:
    lines = [f"graph windows={len(graph.snapshots)} target={graph.target_index}"]
    for snap in graph.snapshots:
        lines.append(f"window {snap.window_index} "
                     f"start={snap.window_start!r} end={snap.window_end!r}")
        for i, key in enumerate(snap.ip_nodes):
            lines.append(f"  ip {i} {key}")
        for i, node in enumerate(snap.flow_nodes):
            lines.append(f"  flow {i} id={node.flow_id} ordinal={node.ordinal}")
        for etype in SPATIAL_EDGE_TYPES + INTRA_EDGE_TYPES:
            pairs = " ".join(f"({a},{b})" for a, b in getattr(snap, etype))
            lines.append(f"  edges {etype}: {pairs}")
    for etype, edges in (("inter_ip", graph.inter_ip_edges),
                         ("inter_flow", graph.inter_flow_edges)):
        pairs = " ".join(f"({a},{i})->({b},{j})" for (a, i), (b, j) in edges)
        lines.append(f"{etype}: {pairs}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV loading through csv.DictReader


def _parse_timestamp_mode(value: str) -> str:
    try:
        float(value)
        return "epoch"
    except ValueError:
        return "iso"


def _parse_timestamp(value: str, mode: str) -> float:
    if mode == "epoch":
        return float(value)
    dt = datetime.fromisoformat(value)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def load_flow_csv(path, schema: Mapping[str, str]) -> LoadResult:
    path = Path(path)
    for field in schema:
        if field not in REQUIRED_FIELDS and field not in OPTIONAL_FIELDS:
            raise SchemaError(f"unknown schema field {field!r}")
    for field in REQUIRED_FIELDS:
        if field not in schema:
            raise SchemaError(f"schema does not map required field {field!r}")

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return LoadResult((), 0, 0, ())
        for field, column in schema.items():
            if column not in reader.fieldnames:
                raise SchemaError(f"column {column!r} (field {field!r}) "
                                  f"missing from {path.name}")
        rows = list(reader)

    has_flow_id = "flow_id" in schema
    has_duration = "duration" in schema
    has_attack = "attack_name" in schema
    has_label = "label" in schema

    ts_modes: dict[str, str] = {}
    raw: list[_ParsedRow] = []
    diagnostics: list[str] = []
    rejected = 0
    for lineno, row in enumerate(rows, start=2):  # header is line 1
        try:
            def col(field):
                return row[schema[field]]

            for ts_field in ("start_time", "end_time"):
                if ts_field not in ts_modes:
                    ts_modes[ts_field] = _parse_timestamp_mode(col(ts_field))
            start = _parse_timestamp(col("start_time"), ts_modes["start_time"])
            end = _parse_timestamp(col("end_time"), ts_modes["end_time"])
            duration = float(col("duration")) if has_duration else end - start
            attack = col("attack_name").strip() if has_attack else None
            if attack == "":
                attack = None
            record = _ParsedRow(
                flow_id=int(col("flow_id")) if has_flow_id else 0,
                start_time=start,
                end_time=end,
                src_ip=col("src_ip"),
                dst_ip=col("dst_ip"),
                src_port=int(col("src_port")),
                dst_port=int(col("dst_port")),
                protocol=int(col("protocol")),
                in_bytes=int(col("in_bytes")),
                out_bytes=int(col("out_bytes")),
                in_pkts=int(col("in_pkts")),
                out_pkts=int(col("out_pkts")),
                tcp_flags=int(col("tcp_flags")),
                duration=duration,
                label=int(col("label")) if has_label else UNLABELED,
                attack_name=attack,
            )
        except (ValueError, KeyError) as exc:
            diagnostics.append(f"line {lineno}: unparseable row ({exc})")
            rejected += 1
            continue
        violation = _violation(record)
        if violation is not None:
            diagnostics.append(f"line {lineno}: {violation}")
            rejected += 1
            continue
        raw.append(record)

    if has_flow_id:
        ids = [r.flow_id for r in raw]
        if len(set(ids)) != len(ids):
            seen: set[int] = set()
            kept = []
            for r in raw:
                if r.flow_id in seen:
                    diagnostics.append(f"duplicate flow_id {r.flow_id}: row dropped")
                    rejected += 1
                else:
                    seen.add(r.flow_id)
                    kept.append(r)
            raw = kept
        raw.sort(key=lambda r: (r.start_time, r.flow_id))
        records = [FlowRecord(*r) for r in raw]
    else:
        raw.sort(key=lambda r: r[1:13])
        records = [FlowRecord(i, *r[1:]) for i, r in enumerate(raw)]

    return LoadResult(tuple(records), len(records), rejected, tuple(diagnostics))
