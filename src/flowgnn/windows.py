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
from typing import Mapping, Sequence

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
    features: np.ndarray
    ordinal: int


@dataclass(frozen=True)
class WindowSnapshot:
    window_index: int
    window_start: float
    window_end: float
    ip_nodes: tuple[str, ...]
    flow_nodes: tuple[FlowNode, ...]
    # (src index, dst index) pairs; flow/IP indices per the endpoint type.
    flow_to_src: tuple[tuple[int, int], ...] = ()
    src_to_flow: tuple[tuple[int, int], ...] = ()
    flow_to_dst: tuple[tuple[int, int], ...] = ()
    dst_to_flow: tuple[tuple[int, int], ...] = ()
    # flow -> flow, earlier -> later by (start_time, flow_id).
    intra_src: tuple[tuple[int, int], ...] = ()
    intra_dst: tuple[tuple[int, int], ...] = ()

    @property
    def num_flows(self) -> int:
        return len(self.flow_nodes)

    @property
    def num_ips(self) -> int:
        return len(self.ip_nodes)


@dataclass(frozen=True)
class TemporalGraph:
    """A window plus its memory of preceding windows.

    Inter-window edges are ((window a, node i), (window b, node j)) with a < b,
    window positions local to `snapshots`. Only flows of the target (newest)
    snapshot are classified.
    """

    snapshots: tuple[WindowSnapshot, ...]
    inter_ip_edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    inter_flow_edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    target_index: int

    @property
    def target(self) -> WindowSnapshot:
        return self.snapshots[self.target_index]


def _window_of(x: float, t0: float, w: float) -> int:
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
                    origin: float | None = None) -> tuple[WindowSnapshot, ...]:
    """Tile the flow stream into window snapshots with spatial edges.

    Flows must arrive sorted by (start_time, flow_id). A flow joins every
    window that contains its start or its end; long flows therefore show up
    in (at least) two snapshots. Empty windows still occupy an index.
    `origin` overrides the grid anchor (defaults to the earliest start) so
    that snapshots built for different splits share one global grid.
    """
    if not flows:
        return ()
    for prev, cur in zip(flows, flows[1:]):
        if (cur.start_time, cur.flow_id) < (prev.start_time, prev.flow_id):
            raise ValueError("flows must be sorted by (start_time, flow_id)")

    w = config.window_size
    t0 = min(f.start_time for f in flows) if origin is None else origin
    max_event = max(f.end_time for f in flows)
    first = _window_of(min(f.start_time for f in flows), t0, w)
    last = _window_of(max_event, t0, w)

    members: list[list[FlowRecord]] = [[] for _ in range(last - first + 1)]
    for f in flows:
        idxs = {_window_of(f.start_time, t0, w), _window_of(f.end_time, t0, w)}
        for i in idxs:
            if first <= i <= last:
                members[i - first].append(f)

    snapshots = []
    for i in range(first, last + 1):
        window_flows = sorted(members[i - first], key=lambda f: (f.start_time, f.flow_id))
        ip_keys = sorted({f.src_ip for f in window_flows} |
                         {f.dst_ip for f in window_flows})
        ip_index = {k: j for j, k in enumerate(ip_keys)}
        nodes = []
        flow_to_src, src_to_flow, flow_to_dst, dst_to_flow = [], [], [], []
        for ordinal, f in enumerate(window_flows):
            vec = np.asarray(features[f.flow_id], dtype=np.float64) \
                if features is not None else np.zeros(0)
            nodes.append(FlowNode(f.flow_id, vec, ordinal))
            s, d = ip_index[f.src_ip], ip_index[f.dst_ip]
            flow_to_src.append((ordinal, s))
            src_to_flow.append((s, ordinal))
            flow_to_dst.append((ordinal, d))
            dst_to_flow.append((d, ordinal))
        snapshots.append(WindowSnapshot(
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


def add_intra_temporal_edges(snapshot: WindowSnapshot,
                             config: GraphBuildConfig) -> WindowSnapshot:
    """Chain same-source (and same-destination) flows in temporal order.

    Each flow receives edges from up to `flow_memory` immediately preceding
    flows sharing its source IP; symmetric construction for destinations.
    """

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

    return TemporalGraph(
        snapshots=selected,
        inter_ip_edges=recurrence_edges(ip_occ),
        inter_flow_edges=recurrence_edges(flow_occ),
        target_index=len(selected) - 1,
    )


def build_temporal_graphs(flows: Sequence[FlowRecord], config: GraphBuildConfig,
                          features: Mapping[int, np.ndarray] | None = None,
                          origin: float | None = None) -> tuple[TemporalGraph, ...]:
    """Full pipeline: snapshots, intra-window chains, one graph per window."""
    snapshots = tuple(add_intra_temporal_edges(s, config)
                      for s in build_snapshots(flows, config, features, origin))
    return tuple(assemble_temporal_graph(snapshots, t, config)
                 for t in range(len(snapshots)))


def strip_temporal_edges(graph: TemporalGraph) -> TemporalGraph:
    """Spatial-only variant of a graph (ablation baseline)."""
    snaps = tuple(replace(s, intra_src=(), intra_dst=()) for s in graph.snapshots)
    return TemporalGraph(snapshots=snaps, inter_ip_edges=(), inter_flow_edges=(),
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
