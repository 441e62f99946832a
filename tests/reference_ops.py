"""Reference message passing: the gather + segment-reduce path that the
sparse-operator kernel in `flowgnn.model` replaced, kept as its oracle.

Each edge type gathers source states per edge, reduces them into all n node
rows with `np.add.at`, multiplies `states @ W1` over all n rows and masks the
rows without an incoming edge.
"""

import numpy as np

from flowgnn import tensor as T
from flowgnn.tensor import Tensor


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


def hetero_step(states, arrays, params, layer, phase, etypes, config):
    """Drop-in replacement for `flowgnn.model._hetero_step`."""
    n = arrays.num_nodes
    reduce = SEGMENT_REDUCERS[config.neighbor_aggregator]
    contrib = None
    touched = np.zeros(n, dtype=bool)
    for etype in etypes:
        src, dst = arrays.edges[etype]
        if len(src) == 0:
            continue
        w1 = params[f"layer{layer}.{phase}.{etype}.W1"]
        w2 = params[f"layer{layer}.{phase}.{etype}.W2"]
        neigh = reduce(T.gather_rows(states, src), dst, n)
        mask = np.zeros(n)
        mask[dst] = 1.0
        term = T.mul_const(T.add(T.matmul(states, w1), T.matmul(neigh, w2)),
                           mask[:, None])
        contrib = term if contrib is None else T.add(contrib, term)
        touched |= mask.astype(bool)
    if contrib is None:
        return states
    act = T.ACTIVATIONS[config.activation]
    updated = T.mul_const(act(contrib), touched.astype(np.float64)[:, None])
    kept = T.mul_const(states, (~touched).astype(np.float64)[:, None])
    return T.add(updated, kept)
