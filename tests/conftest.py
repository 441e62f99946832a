"""Shared fixtures: a flow factory, the brute-force graph-construction
reference, and a naive F1 implementation.

The references here are deliberately independent of the package internals:
the graph oracle re-derives windows and edges by explicit interval checks
and O(n^2) pairwise rules, and the F1 oracle counts TP/FP/FN per class with
plain loops. They exist to cross-check the real implementations, so they
must never import from the modules they verify beyond plain data types.
"""

from __future__ import annotations

from flowgnn.ingest import FlowRecord
from flowgnn.synth import write_flow_csv as records_to_csv  # noqa: F401
from flowgnn.synth import write_schema_file as write_schema  # noqa: F401


def mk_flow(flow_id, start, end, src="a", dst="b", label=-1, **kw):
    defaults = dict(src_port=1000 + flow_id, dst_port=80, protocol=6,
                    in_bytes=100, out_bytes=50, in_pkts=3, out_pkts=2,
                    tcp_flags=0b10010, attack_name=None)
    defaults.update(kw)
    return FlowRecord(flow_id=flow_id, start_time=float(start),
                      end_time=float(end), src_ip=src, dst_ip=dst,
                      duration=float(end) - float(start), label=label,
                      **defaults)


def sort_flows(flows):
    return tuple(sorted(flows, key=lambda f: (f.start_time, f.flow_id)))


# ---------------------------------------------------------------------------
# brute-force graph reference


def oracle_windows(flows, window_size):
    """Window intervals by explicit scan; membership = start-or-end inside."""
    t0 = min(f.start_time for f in flows)
    max_event = max(f.end_time for f in flows)
    windows = []
    k = 0
    while True:
        ws = t0 + k * window_size
        we = t0 + (k + 1) * window_size
        if ws > max_event:
            break
        windows.append((k, ws, we))
        k += 1

    membership = {}
    for k, ws, we in windows:
        inside = [f for f in flows
                  if (ws <= f.start_time < we) or (ws <= f.end_time < we)]
        membership[k] = sorted(inside, key=lambda f: (f.start_time, f.flow_id))
    return windows, membership


def oracle_intra_edges(window_flows, flow_memory, key_attr):
    """All ordered same-endpoint pairs at chain distance <= flow_memory."""
    edges = set()
    groups = {}
    for f in window_flows:
        groups.setdefault(getattr(f, key_attr), []).append(f)
    for group in groups.values():
        for j in range(len(group)):
            for i in range(len(group)):
                if i < j and j - i <= flow_memory:
                    edges.add((group[i].flow_id, group[j].flow_id))
    return edges


def oracle_edge_set(flows, config, target, membership=None):
    """Semantic edge set of the temporal graph whose target window is
    `target`: every edge identified by window indices and flow ids / IP
    keys rather than storage positions."""
    if membership is None:
        _, membership = oracle_windows(flows, config.window_size)
    lo = max(0, target - config.window_memory + 1)
    in_memory = [k for k in sorted(membership) if lo <= k <= target]

    edges = set()
    for k in in_memory:
        for f in membership[k]:
            edges.add(("flow_to_src", k, f.flow_id, f.src_ip))
            edges.add(("src_to_flow", k, f.src_ip, f.flow_id))
            edges.add(("flow_to_dst", k, f.flow_id, f.dst_ip))
            edges.add(("dst_to_flow", k, f.dst_ip, f.flow_id))
        for a, b in oracle_intra_edges(membership[k], config.flow_memory,
                                       "src_ip"):
            edges.add(("intra_src", k, a, b))
        for a, b in oracle_intra_edges(membership[k], config.flow_memory,
                                       "dst_ip"):
            edges.add(("intra_dst", k, a, b))

    for a in in_memory:
        for b in in_memory:
            if a >= b:
                continue
            ips_a = {f.src_ip for f in membership[a]} | \
                    {f.dst_ip for f in membership[a]}
            ips_b = {f.src_ip for f in membership[b]} | \
                    {f.dst_ip for f in membership[b]}
            for key in ips_a & ips_b:
                edges.add(("inter_ip", a, key, b))
            ids_a = {f.flow_id for f in membership[a]}
            ids_b = {f.flow_id for f in membership[b]}
            for fid in ids_a & ids_b:
                edges.add(("inter_flow", a, fid, b))
    return edges


def as_tuples(edges):
    """An edge array as nested tuples of ints: (k, 2) pairs give
    ((a, b), ...), (k, 2, 2) recurrences give (((a, i), (b, j)), ...)."""
    def nest(x):
        return tuple(map(nest, x)) if isinstance(x, list) else x
    return nest(edges.tolist())


def builder_edge_set(graph):
    """The builder's TemporalGraph re-expressed in the oracle's semantic
    edge identities."""
    edges = set()
    for snap in graph.snapshots:
        k = snap.window_index
        ids = snap.flow_ids.tolist()
        keys = list(snap.ip_nodes)
        for f, i in snap.flow_to_src.tolist():
            edges.add(("flow_to_src", k, ids[f], keys[i]))
        for i, f in snap.src_to_flow.tolist():
            edges.add(("src_to_flow", k, keys[i], ids[f]))
        for f, i in snap.flow_to_dst.tolist():
            edges.add(("flow_to_dst", k, ids[f], keys[i]))
        for i, f in snap.dst_to_flow.tolist():
            edges.add(("dst_to_flow", k, keys[i], ids[f]))
        for a, b in snap.intra_src.tolist():
            edges.add(("intra_src", k, ids[a], ids[b]))
        for a, b in snap.intra_dst.tolist():
            edges.add(("intra_dst", k, ids[a], ids[b]))
    snaps = graph.snapshots
    for (a, i), (b, j) in graph.inter_ip_edges.tolist():
        edges.add(("inter_ip", snaps[a].window_index,
                   snaps[a].ip_nodes[i], snaps[b].window_index))
    for (a, i), (b, j) in graph.inter_flow_edges.tolist():
        edges.add(("inter_flow", snaps[a].window_index,
                   int(snaps[a].flow_ids[i]), snaps[b].window_index))
    return edges


# ---------------------------------------------------------------------------
# storage-order permutation (equivariance checks)


def permute_snapshot(snap, rng):
    """Relabel storage order of a snapshot's nodes, preserving semantics."""
    import numpy as np
    from dataclasses import replace
    fperm = rng.permutation(snap.num_flows)
    iperm = rng.permutation(snap.num_ips)
    fmap = np.argsort(fperm)        # old storage index -> new
    imap = np.argsort(iperm)

    def relabel(pairs, src_map, dst_map):
        return np.stack([src_map[pairs[:, 0]], dst_map[pairs[:, 1]]], axis=1)

    return replace(
        snap,
        flow_ids=snap.flow_ids[fperm],
        ordinals=snap.ordinals[fperm],
        flow_input=snap.flow_input[fperm],
        ip_nodes=tuple(snap.ip_nodes[i] for i in iperm),
        flow_to_src=relabel(snap.flow_to_src, fmap, imap),
        src_to_flow=relabel(snap.src_to_flow, imap, fmap),
        flow_to_dst=relabel(snap.flow_to_dst, fmap, imap),
        dst_to_flow=relabel(snap.dst_to_flow, imap, fmap),
        intra_src=relabel(snap.intra_src, fmap, fmap),
        intra_dst=relabel(snap.intra_dst, fmap, fmap),
    ), fmap, imap


def perturb_features(snap, feature_dim, delta):
    """`snap` with `delta` added to every flow's features, the first
    `feature_dim` columns of its flow rows."""
    from dataclasses import replace
    flow_input = snap.flow_input.copy()
    flow_input[:, :feature_dim] += delta
    return replace(snap, flow_input=flow_input)


def permute_graph(graph, seed):
    import numpy as np
    from flowgnn.tensor import Rng
    from flowgnn.windows import TemporalGraph
    rng = Rng(seed)
    snaps, fmaps, imaps = [], [], []
    for w, snap in enumerate(graph.snapshots):
        p, fmap, imap = permute_snapshot(snap, rng.child(f"w{w}"))
        snaps.append(p)
        fmaps.append(fmap)
        imaps.append(imap)

    def relabel(edges, maps):
        a, i, b, j = edges.reshape(-1, 4).T
        out = np.stack([a, [maps[w][n] for w, n in zip(a, i)],
                        b, [maps[w][n] for w, n in zip(b, j)]],
                       axis=1).astype(np.int64)
        return out[np.lexsort(out.T[::-1])].reshape(-1, 2, 2)

    return TemporalGraph(
        snapshots=tuple(snaps),
        inter_ip_edges=relabel(graph.inter_ip_edges, imaps),
        inter_flow_edges=relabel(graph.inter_flow_edges, fmaps),
        target_index=graph.target_index,
    )


# ---------------------------------------------------------------------------
# naive F1 reference


def naive_f1(y_true, y_pred, num_classes):
    """(weighted, macro) F1 by direct per-class counting."""
    f1s, supports = [], []
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) \
            if precision + recall else 0.0
        f1s.append(f1)
        supports.append(sum(1 for t in y_true if t == c))
    total = sum(supports)
    weighted = sum(f * s for f, s in zip(f1s, supports)) / total if total else 0.0
    macro = sum(f1s) / num_classes
    return weighted, macro
