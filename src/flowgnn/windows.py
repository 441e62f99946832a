"""Sliding-window heterogeneous flow-graph construction.

A fixed-duration window slides (non-overlapping, stride == window size) over
a time-sorted flow stream. Each window becomes a snapshot containing the
flows that start or end inside it, their endpoint IP nodes, four bipartite
spatial edge lists, and two ordered intra-window temporal edge lists (flows
sharing a source IP chained earlier -> later, same for destinations, each
flow capped at `flow_memory` predecessors). Consecutive snapshots inside the
window memory are joined by inter-window recurrence edges for IPs and flows
that reappear, every occurrence connecting to all later occurrences.

Window tiling covers every event: anchored at the grid origin t0 (the
earliest start unless overridden), windows run from the one containing the
first start to the one containing the latest end, so each flow's start and
end both land inside some half-open window [t0 + i*w, t0 + (i+1)*w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Sequence

import numpy as np

from .ingest import FlowRecord

SPATIAL_EDGE_TYPES = ("flow_to_src", "src_to_flow", "flow_to_dst", "dst_to_flow")
INTRA_EDGE_TYPES = ("intra_src", "intra_dst")
INTER_EDGE_TYPES = ("inter_ip", "inter_flow")
TEMPORAL_EDGE_TYPES = INTRA_EDGE_TYPES + INTER_EDGE_TYPES
ALL_EDGE_TYPES = SPATIAL_EDGE_TYPES + TEMPORAL_EDGE_TYPES


@dataclass(frozen=True)
class GraphBuildConfig:
    window_size: float = 5.0
    window_memory: int = 5
    flow_memory: int = 20
    flow_encoding_dim: int = 30
    window_encoding_dim: int = 16

    def __post_init__(self):
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.window_memory < 1:
            raise ValueError("window_memory must be >= 1")
        if self.flow_memory < 1:
            raise ValueError("flow_memory must be >= 1")
        for name in ("flow_encoding_dim", "window_encoding_dim"):
            dim = getattr(self, name)
            if dim <= 0 or dim % 2 != 0:
                raise ValueError(f"{name} must be a positive even integer")


@dataclass(frozen=True)
class FlowNode:
    flow_id: int
    ordinal: int


def _pairs(rows: np.ndarray) -> np.ndarray:
    """Read-only int64 (k, 2) edge array."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    rows.flags.writeable = False
    return rows


NO_PAIRS = _pairs(np.zeros((0, 2)))
NO_RECURRENCES = NO_PAIRS.reshape(0, 2, 2)


@dataclass(frozen=True, eq=False)
class WindowSnapshot:
    """One window's nodes and edges as array blocks, each built once.

    Flow node f is row f of `flow_ids`, `ordinals` (its position in the
    window's (start_time, flow_id) order) and `flow_input` (its features
    followed by the cyclical encoding of its ordinal, the row the flow
    encoder reads). IP node i has the endpoint key `ip_nodes[i]`, keys in
    sorted order. Each edge type is an int64 (k, 2) array of
    (source index, destination index) rows, flow or IP indices per the
    endpoint kind.
    """

    window_index: int
    window_start: float
    window_end: float
    ip_nodes: tuple[str, ...]
    flow_ids: np.ndarray
    ordinals: np.ndarray
    flow_input: np.ndarray
    flow_to_src: np.ndarray
    src_to_flow: np.ndarray
    flow_to_dst: np.ndarray
    dst_to_flow: np.ndarray
    # flow -> flow, earlier -> later by (start_time, flow_id).
    intra_src: np.ndarray
    intra_dst: np.ndarray

    @property
    def num_flows(self) -> int:
        return len(self.flow_ids)

    @property
    def num_ips(self) -> int:
        return len(self.ip_nodes)

    @property
    def flow_nodes(self) -> tuple[FlowNode, ...]:
        return tuple(map(FlowNode, self.flow_ids.tolist(),
                         self.ordinals.tolist()))


@dataclass(frozen=True, eq=False)
class TemporalGraph:
    """A window plus its memory of preceding windows.

    Inter-window edges are int64 (k, 2, 2) arrays of ((window a, node i),
    (window b, node j)) rows with a < b, window positions local to
    `snapshots`. Only flows of the target (newest) snapshot are classified.
    """

    snapshots: tuple[WindowSnapshot, ...]
    inter_ip_edges: np.ndarray
    inter_flow_edges: np.ndarray
    target_index: int

    @property
    def target(self) -> WindowSnapshot:
        return self.snapshots[self.target_index]


def _window_of(x: np.ndarray, t0: float, w: float) -> np.ndarray:
    """Index of the half-open grid window containing each time in x."""
    i = np.floor((x - t0) / w).astype(np.int64)
    # guard float rounding at the boundaries
    below = t0 + i * w > x
    above = ~below & (x >= t0 + (i + 1) * w)
    return i - below + above


def _id_array(ids: Sequence[int]) -> np.ndarray:
    """Flow ids as int64, or as uint64 when one needs the 64th bit."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=np.uint64)


def _segment_positions(sizes: np.ndarray) -> np.ndarray:
    """0..size-1 for each segment size, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


_BUILD_FIELDS = attrgetter("start_time", "end_time", "flow_id", "src_ip",
                           "dst_ip")


def build_snapshots(flows: Sequence[FlowRecord], config: GraphBuildConfig,
                    features: np.ndarray | None = None,
                    origin: float | None = None) -> tuple[WindowSnapshot, ...]:
    """Tile the flow stream into window snapshots with spatial edges.

    Flows must arrive sorted by (start_time, flow_id). A flow joins every
    window that contains its start or its end; long flows therefore show up
    in (at least) two snapshots. Empty windows still occupy an index.
    `features` holds one row per flow, in `flows` order (`encode_flows`);
    without it the flow rows carry the ordinal encoding only. `origin`
    overrides the grid anchor (defaults to the earliest start) so that
    snapshots built for different splits share one global grid.
    """
    if not flows:
        return ()
    starts, ends, ids, srcs, dsts = zip(*map(_BUILD_FIELDS, flows))
    starts = np.array(starts, dtype=np.float64)
    ends = np.array(ends, dtype=np.float64)
    ids = _id_array(ids)
    if np.any((starts[1:] < starts[:-1])
              | ((starts[1:] == starts[:-1]) & (ids[1:] < ids[:-1]))):
        raise ValueError("flows must be sorted by (start_time, flow_id)")
    n = len(starts)
    if features is None:
        features = np.zeros((n, 0))
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or len(features) != n:
        raise ValueError(f"features must hold one row per flow: {n} flows, "
                         f"features of shape {features.shape}")

    w = config.window_size
    t0 = float(starts.min()) if origin is None else float(origin)
    first = int(_window_of(starts.min(), t0, w))
    last = int(_window_of(ends.max(), t0, w))
    num_windows = last - first + 1

    # one member entry per (window, flow): the start window, and the end
    # window when it differs; in window order, then stream order, which is
    # the window's (start_time, flow_id) order
    start_window = _window_of(starts, t0, w)
    end_window = _window_of(ends, t0, w)
    rows = np.arange(n)
    spans = end_window != start_window
    window = np.concatenate([start_window, end_window[spans]]) - first
    row = np.concatenate([rows, rows[spans]])
    keep = (window >= 0) & (window < num_windows)
    window, row = np.divmod(np.sort(window[keep] * n + row[keep]), n)
    sizes = np.bincount(window, minlength=num_windows)
    flow_bounds = np.concatenate([[0], np.cumsum(sizes)])
    ordinal = _segment_positions(sizes)

    # endpoint keys coded by rank, so sorted codes are sorted keys
    keys = sorted(set(srcs) | set(dsts))
    rank = {key: code for code, key in enumerate(keys)}
    src_code = np.fromiter(map(rank.__getitem__, srcs), np.int64, n)[row]
    dst_code = np.fromiter(map(rank.__getitem__, dsts), np.int64, n)[row]
    base = window * len(keys)
    window_ips = np.unique(np.concatenate([base + src_code, base + dst_code]))
    ip_bounds = np.searchsorted(window_ips,
                                np.arange(num_windows + 1) * len(keys))
    src_local = np.searchsorted(window_ips, base + src_code) - ip_bounds[window]
    dst_local = np.searchsorted(window_ips, base + dst_code) - ip_bounds[window]
    ip_keys = np.array(keys, dtype=object)[window_ips % len(keys)]

    dim = features.shape[1]
    flow_input = np.empty((len(row), dim + config.flow_encoding_dim))
    flow_input[:, :dim] = features[row]
    encodings: dict[int, np.ndarray] = {}
    for k, size in enumerate(sizes.tolist()):
        if size not in encodings:
            encodings[size] = cyclical_encode(np.arange(size), max(1, size),
                                              config.flow_encoding_dim)
        flow_input[flow_bounds[k]:flow_bounds[k + 1], dim:] = encodings[size]
    flow_input.flags.writeable = False
    flow_ids = ids[row]
    flow_ids.flags.writeable = ordinal.flags.writeable = False
    spatial = {"flow_to_src": _pairs(np.stack([ordinal, src_local], axis=1)),
               "src_to_flow": _pairs(np.stack([src_local, ordinal], axis=1)),
               "flow_to_dst": _pairs(np.stack([ordinal, dst_local], axis=1)),
               "dst_to_flow": _pairs(np.stack([dst_local, ordinal], axis=1))}

    snapshots = []
    for k in range(num_windows):
        i = first + k
        lo, hi = flow_bounds[k], flow_bounds[k + 1]
        snapshots.append(WindowSnapshot(
            window_index=i,
            window_start=t0 + i * w,
            window_end=t0 + (i + 1) * w,
            ip_nodes=tuple(ip_keys[ip_bounds[k]:ip_bounds[k + 1]]),
            flow_ids=flow_ids[lo:hi],
            ordinals=ordinal[lo:hi],
            flow_input=flow_input[lo:hi],
            **{etype: pairs[lo:hi] for etype, pairs in spatial.items()},
            intra_src=NO_PAIRS, intra_dst=NO_PAIRS,
        ))
    return tuple(snapshots)


def _chains(flow_ip: np.ndarray, flow_memory: int) -> np.ndarray:
    """Edges from each flow's up to `flow_memory` preceding flows (by flow
    index) of the same IP, for (flow index, IP index) rows; sorted."""
    if not len(flow_ip):
        return NO_PAIRS
    m = int(flow_ip[:, 0].max()) + 1
    ip, flow = np.divmod(np.sort(flow_ip[:, 1] * m + flow_ip[:, 0]), m)
    k = np.arange(len(flow))
    group_start = np.maximum.accumulate(
        np.where(np.concatenate([[True], ip[1:] != ip[:-1]]), k, 0))
    depth = np.minimum(k - group_start, flow_memory)
    dst = np.repeat(k, depth)
    src = dst - np.repeat(depth, depth) + _segment_positions(depth)
    return _pairs(np.stack(np.divmod(np.sort(flow[src] * m + flow[dst]), m),
                           axis=1))


def add_intra_temporal_edges(snapshot: WindowSnapshot,
                             config: GraphBuildConfig) -> WindowSnapshot:
    """Chain same-source (and same-destination) flows in temporal order.

    Each flow receives edges from up to `flow_memory` immediately preceding
    flows sharing its source IP; symmetric construction for destinations.
    """
    return replace(snapshot,
                   intra_src=_chains(snapshot.flow_to_src, config.flow_memory),
                   intra_dst=_chains(snapshot.flow_to_dst, config.flow_memory))


def _recurrences(keys: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Recurrence edges of a window sequence whose window w holds the next
    sizes[w] of `keys`: each occurrence of a key joins every later one.
    Sorted, as an occurrence's position in `keys` orders (window, node)."""
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    grouped = keys[order]
    pairs = []
    for d in range(1, n):
        same = np.flatnonzero(grouped[d:] == grouped[:-d])
        if not len(same):
            break
        pairs.append(order[same] * n + order[same + d])
    if not pairs:
        return NO_RECURRENCES
    early, late = np.divmod(np.sort(np.concatenate(pairs)), n)
    sizes = np.asarray(sizes, dtype=np.int64)
    window = np.repeat(np.arange(len(sizes)), sizes)
    node = _segment_positions(sizes)
    return _pairs(np.stack([window[early], node[early],
                            window[late], node[late]], axis=1)).reshape(-1, 2, 2)


def assemble_temporal_graph(snapshots: Sequence[WindowSnapshot], t: int,
                            config: GraphBuildConfig) -> TemporalGraph:
    """Join the most recent `window_memory` snapshots ending at window t.

    Each recurring IP key / flow id is connected to all its later
    recurrences inside the memory; edges point forward in time and are
    ordered lexicographically by (window a, node i, window b, node j).
    """
    if not 0 <= t < len(snapshots):
        raise ValueError(f"target index {t} out of range")
    lo = max(0, t - config.window_memory + 1)
    selected = tuple(snapshots[lo:t + 1])
    codes: dict[str, int] = {}
    ip_codes = np.fromiter((codes.setdefault(key, len(codes))
                            for snap in selected for key in snap.ip_nodes),
                           np.int64)
    return TemporalGraph(
        snapshots=selected,
        inter_ip_edges=_recurrences(ip_codes,
                                    [s.num_ips for s in selected]),
        inter_flow_edges=_recurrences(
            np.concatenate([s.flow_ids for s in selected]),
            [s.num_flows for s in selected]),
        target_index=len(selected) - 1,
    )


def build_temporal_graphs(flows: Sequence[FlowRecord], config: GraphBuildConfig,
                          features: np.ndarray | None = None,
                          origin: float | None = None) -> tuple[TemporalGraph, ...]:
    """Full pipeline: snapshots, intra-window chains, one graph per window."""
    snapshots = tuple(add_intra_temporal_edges(s, config)
                      for s in build_snapshots(flows, config, features, origin))
    return tuple(assemble_temporal_graph(snapshots, t, config)
                 for t in range(len(snapshots)))


def strip_temporal_edges(graph: TemporalGraph) -> TemporalGraph:
    """Spatial-only variant of a graph (ablation baseline)."""
    snaps = tuple(replace(s, intra_src=NO_PAIRS, intra_dst=NO_PAIRS)
                  for s in graph.snapshots)
    return TemporalGraph(snapshots=snaps, inter_ip_edges=NO_RECURRENCES,
                         inter_flow_edges=NO_RECURRENCES,
                         target_index=graph.target_index)


def cyclical_encode(position: int | np.ndarray, period: int,
                    dim: int) -> np.ndarray:
    """Multi-frequency sin/cos position encoding.

    Pair k (k = 0..dim/2-1) holds sin and cos of 2*pi*position*(k+1)/period,
    so the vector is periodic in `position` with period `period`. An array
    of positions gives one row per position.
    """
    if dim <= 0 or dim % 2 != 0:
        raise ValueError("dim must be a positive even integer")
    if period <= 0:
        raise ValueError("period must be positive")
    position = np.asarray(position)
    if np.any(position < 0):
        raise ValueError("position must be >= 0")
    angle = np.multiply.outer(2.0 * math.pi * position,
                              np.arange(1, dim // 2 + 1)) / period
    return np.stack([np.sin(angle), np.cos(angle)],
                    axis=-1).reshape(position.shape + (dim,))


def dump_temporal_graph(graph: TemporalGraph) -> str:
    """Canonical text dump (debugging / oracle comparisons).

    One block per window listing nodes then typed edge lists, followed by
    the inter-window edge sections; documented in docs/graph-format.md.
    """
    lines = [f"graph windows={len(graph.snapshots)} target={graph.target_index}"]
    for snap in graph.snapshots:
        lines.append(f"window {snap.window_index} "
                     f"start={snap.window_start!r} end={snap.window_end!r}")
        for i, key in enumerate(snap.ip_nodes):
            lines.append(f"  ip {i} {key}")
        for i, (flow_id, ordinal) in enumerate(zip(snap.flow_ids.tolist(),
                                                   snap.ordinals.tolist())):
            lines.append(f"  flow {i} id={flow_id} ordinal={ordinal}")
        for etype in SPATIAL_EDGE_TYPES + INTRA_EDGE_TYPES:
            pairs = " ".join(f"({a},{b})" for a, b in getattr(snap, etype).tolist())
            lines.append(f"  edges {etype}: {pairs}")
    for etype, edges in (("inter_ip", graph.inter_ip_edges),
                         ("inter_flow", graph.inter_flow_edges)):
        pairs = " ".join(f"({a},{i})->({b},{j})"
                         for (a, i), (b, j) in edges.tolist())
        lines.append(f"{etype}: {pairs}")
    return "\n".join(lines) + "\n"
