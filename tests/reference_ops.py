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
"""

from unittest.mock import patch

import numpy as np

from flowgnn import pretrain
from flowgnn import tensor as T
from flowgnn.model import PHASES, edge_operator, final_states, row_gather
from flowgnn.pretrain import LinkPredTask, _candidate_rows
from flowgnn.tensor import Tensor
from flowgnn.windows import ALL_EDGE_TYPES, SPATIAL_EDGE_TYPES


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
