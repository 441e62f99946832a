import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops
from conftest import (as_tuples, builder_edge_set, mk_flow, oracle_edge_set,
                      oracle_windows, sort_flows)
from flowgnn.ingest import encode_flows, fit_codec
from flowgnn.model import prepare_graph
from flowgnn.synth import temporal_pattern
from flowgnn.windows import (GraphBuildConfig, add_intra_temporal_edges,
                             assemble_temporal_graph, build_snapshots,
                             build_temporal_graphs, cyclical_encode,
                             dump_temporal_graph, strip_temporal_edges)


def build_all(flows, config):
    return tuple(add_intra_temporal_edges(s, config)
                 for s in build_snapshots(flows, config))


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GraphBuildConfig(window_size=0.0, window_memory=1)
        with pytest.raises(ValueError):
            GraphBuildConfig(window_size=1.0, window_memory=0)
        with pytest.raises(ValueError):
            GraphBuildConfig(window_size=1.0, window_memory=1,
                             flow_encoding_dim=7)

    def test_pretraining_configuration_accepted(self):
        config = GraphBuildConfig(window_size=5.0, window_memory=5,
                                  flow_memory=20)
        assert config.flow_encoding_dim == 30


class TestBuildSnapshots:
    def test_no_flows_empty_sequence(self):
        config = GraphBuildConfig(window_size=5.0, window_memory=1)
        assert build_snapshots((), config) == ()

    def test_long_flow_appears_in_start_and_end_windows_only(self):
        config = GraphBuildConfig(window_size=5.0, window_memory=1)
        flows = [mk_flow(0, 0.0, 12.0)]
        snaps = build_snapshots(flows, config)
        present = [s.window_index for s in snaps if s.num_flows]
        assert present == [0, 2]
        assert len(snaps) == 3  # middle window exists but is empty

    def test_empty_windows_keep_their_index(self):
        config = GraphBuildConfig(window_size=1.0, window_memory=1)
        flows = sort_flows([mk_flow(0, 0.0, 0.1), mk_flow(1, 3.5, 3.6)])
        snaps = build_snapshots(flows, config)
        assert [s.window_index for s in snaps] == [0, 1, 2, 3]
        assert [s.num_flows for s in snaps] == [1, 0, 0, 1]

    def test_unsorted_input_rejected(self):
        config = GraphBuildConfig(window_size=5.0, window_memory=1)
        flows = [mk_flow(1, 2.0, 3.0), mk_flow(0, 0.0, 1.0)]
        with pytest.raises(ValueError, match="sorted"):
            build_snapshots(flows, config)

    def test_every_flow_has_one_edge_per_spatial_list(self):
        config = GraphBuildConfig(window_size=5.0, window_memory=1)
        flows = sort_flows([mk_flow(i, i * 0.7, i * 0.7 + 0.3,
                                    src=f"s{i % 2}", dst=f"d{i % 3}")
                            for i in range(9)])
        for snap in build_snapshots(flows, config):
            for etype in ("flow_to_src", "src_to_flow", "flow_to_dst",
                          "dst_to_flow"):
                edges = as_tuples(getattr(snap, etype))
                flow_side = 0 if etype.startswith("flow") else 1
                flow_ends = [e[flow_side] for e in edges]
                assert sorted(flow_ends) == list(range(snap.num_flows))

    def test_ordinals_follow_start_time_then_id(self):
        config = GraphBuildConfig(window_size=10.0, window_memory=1)
        flows = sort_flows([mk_flow(3, 1.0, 1.1), mk_flow(1, 1.0, 1.2),
                            mk_flow(2, 0.5, 0.6)])
        snap = build_snapshots(flows, config)[0]
        assert [n.flow_id for n in snap.flow_nodes] == [2, 1, 3]
        assert [n.ordinal for n in snap.flow_nodes] == [0, 1, 2]


class TestIntraTemporalEdges:
    def config(self, flow_memory=20):
        return GraphBuildConfig(window_size=10.0, window_memory=1,
                                flow_memory=flow_memory)

    def test_one_flow_per_ip_no_edges(self):
        flows = sort_flows([mk_flow(0, 0.0, 0.1, src="a", dst="x"),
                            mk_flow(1, 1.0, 1.1, src="b", dst="y")])
        snap = build_all(flows, self.config())[0]
        assert as_tuples(snap.intra_src) == () and as_tuples(snap.intra_dst) == ()

    def test_three_flows_share_source_full_chain(self):
        flows = sort_flows([mk_flow(i, float(i), float(i) + 0.1,
                                    src="a", dst=f"d{i}") for i in range(3)])
        snap = build_all(flows, self.config())[0]
        assert set(as_tuples(snap.intra_src)) == {(0, 1), (0, 2), (1, 2)}

    def test_flow_memory_truncates_predecessors(self):
        flows = sort_flows([mk_flow(i, float(i), float(i) + 0.1,
                                    src="a", dst=f"d{i}") for i in range(5)])
        snap = build_all(flows, self.config(flow_memory=2))[0]
        incoming_last = {a for a, b in as_tuples(snap.intra_src) if b == 4}
        assert incoming_last == {2, 3}

    def test_edges_point_earlier_to_later(self):
        flows = sort_flows([mk_flow(i, float(i % 3), float(i % 3) + 0.2,
                                    src="a", dst="b") for i in range(6)])
        snap = build_all(flows, self.config())[0]
        nodes = snap.flow_nodes
        for a, b in as_tuples(snap.intra_src) + as_tuples(snap.intra_dst):
            assert nodes[a].ordinal < nodes[b].ordinal


class TestAssemble:
    def test_memory_one_never_has_inter_edges(self):
        config = GraphBuildConfig(window_size=1.0, window_memory=1)
        flows = sort_flows([mk_flow(i, i * 0.8, i * 0.8 + 0.1, src="a")
                            for i in range(8)])
        snaps = build_all(flows, config)
        for t in range(len(snaps)):
            graph = assemble_temporal_graph(snaps, t, config)
            assert as_tuples(graph.inter_ip_edges) == ()
            assert as_tuples(graph.inter_flow_edges) == ()
            assert len(graph.snapshots) == 1

    def test_ip_recurrence_connects_all_later_occurrences(self):
        config = GraphBuildConfig(window_size=1.0, window_memory=3)
        flows = sort_flows([mk_flow(i, i * 1.0 + 0.1, i * 1.0 + 0.2,
                                    src="a", dst=f"d{i}") for i in range(3)])
        snaps = build_all(flows, config)
        graph = assemble_temporal_graph(snaps, 2, config)
        a_positions = [(w, snap.ip_nodes.index("a"))
                       for w, snap in enumerate(graph.snapshots)]
        expected = {(a_positions[0], a_positions[1]),
                    (a_positions[0], a_positions[2]),
                    (a_positions[1], a_positions[2])}
        actual = {e for e in as_tuples(graph.inter_ip_edges)
                  if graph.snapshots[e[0][0]].ip_nodes[e[0][1]] == "a"}
        assert actual == expected

    def test_flow_spanning_two_windows_single_recurrence_edge(self):
        config = GraphBuildConfig(window_size=1.0, window_memory=2)
        flows = [mk_flow(0, 0.2, 1.4)]
        snaps = build_all(flows, config)
        graph = assemble_temporal_graph(snaps, 1, config)
        assert len(graph.inter_flow_edges) == 1
        ((a, _), (b, _)) = as_tuples(graph.inter_flow_edges)[0]
        assert (a, b) == (0, 1)

    def test_edges_ordered_lexicographically(self):
        config = GraphBuildConfig(window_size=1.0, window_memory=5)
        flows = sort_flows([mk_flow(i, i * 0.5, i * 0.5 + 0.05,
                                    src=f"s{i % 2}", dst="sink")
                            for i in range(10)])
        snaps = build_all(flows, config)
        graph = assemble_temporal_graph(snaps, len(snaps) - 1, config)
        inter_ip = as_tuples(graph.inter_ip_edges)
        inter_flow = as_tuples(graph.inter_flow_edges)
        assert list(inter_ip) == sorted(inter_ip)
        assert list(inter_flow) == sorted(inter_flow)


class TestCyclicalEncode:
    def test_position_zero(self):
        vec = cyclical_encode(0, 7, 8)
        assert np.allclose(vec[0::2], 0.0)
        assert np.allclose(vec[1::2], 1.0)

    def test_periodicity(self):
        assert np.allclose(cyclical_encode(5, 5, 30), cyclical_encode(0, 5, 30),
                           atol=1e-12)

    def test_default_flow_dim_is_30(self):
        config = GraphBuildConfig(window_size=5.0, window_memory=5)
        assert config.flow_encoding_dim == 30
        assert cyclical_encode(3, 10, config.flow_encoding_dim).shape == (30,)

    def test_frequencies_are_multiples(self):
        vec = cyclical_encode(1, 8, 6)
        for k in range(3):
            angle = 2 * math.pi * (k + 1) / 8
            assert vec[2 * k] == pytest.approx(math.sin(angle))
            assert vec[2 * k + 1] == pytest.approx(math.cos(angle))

    def test_rejects_odd_dim(self):
        with pytest.raises(ValueError):
            cyclical_encode(0, 5, 7)


# ---------------------------------------------------------------------------
# structural invariants


def random_flows(rng, n):
    flows = []
    for i in range(n):
        start = float(rng.uniform(0, 30))
        duration = float(rng.uniform(0, 25)) if rng.uniform(0, 1) < 0.3 \
            else float(rng.uniform(0, 2))
        flows.append(mk_flow(i, start, start + duration,
                             src=f"h{rng.integers(0, 6)}",
                             dst=f"h{rng.integers(0, 6)}"))
    return sort_flows(flows)


@pytest.mark.parametrize("seed", range(8))
def test_oracle_equivalence_randomized(seed):
    rng = np.random.default_rng(seed)
    flows = random_flows(rng, int(rng.integers(1, 40)))
    ws = float(rng.choice([0.5, 1.0, 5.0, 10.0, 20.0]))
    mem = int(rng.choice([1, 3, 5]))
    config = GraphBuildConfig(window_size=ws, window_memory=mem)
    snaps = build_all(flows, config)
    _, membership = oracle_windows(flows, ws)
    assert len(snaps) == len(membership)
    for t in range(len(snaps)):
        graph = assemble_temporal_graph(snaps, t, config)
        assert builder_edge_set(graph) == oracle_edge_set(
            flows, config, t, membership)


def test_conservation_every_flow_in_some_snapshot():
    rng = np.random.default_rng(99)
    flows = random_flows(rng, 30)
    config = GraphBuildConfig(window_size=2.0, window_memory=3)
    snaps = build_all(flows, config)
    seen = {n.flow_id for s in snaps for n in s.flow_nodes}
    assert seen == {f.flow_id for f in flows}


def test_bipartite_spatial_structure():
    rng = np.random.default_rng(5)
    flows = random_flows(rng, 25)
    config = GraphBuildConfig(window_size=5.0, window_memory=2)
    for snap in build_all(flows, config):
        for f, i in as_tuples(snap.flow_to_src) + as_tuples(snap.flow_to_dst):
            assert 0 <= f < snap.num_flows and 0 <= i < snap.num_ips
        for i, f in as_tuples(snap.src_to_flow) + as_tuples(snap.dst_to_flow):
            assert 0 <= i < snap.num_ips and 0 <= f < snap.num_flows


def test_indegree_bounded_by_flow_memory():
    rng = np.random.default_rng(17)
    flows = random_flows(rng, 40)
    config = GraphBuildConfig(window_size=10.0, window_memory=1, flow_memory=3)
    for snap in build_all(flows, config):
        for edge_list in (snap.intra_src, snap.intra_dst):
            indeg = {}
            for a, b in as_tuples(edge_list):
                indeg[b] = indeg.get(b, 0) + 1
            assert all(v <= config.flow_memory for v in indeg.values())


def test_temporal_union_is_acyclic():
    rng = np.random.default_rng(23)
    flows = random_flows(rng, 30)
    config = GraphBuildConfig(window_size=2.0, window_memory=4)
    snaps = build_all(flows, config)
    graph = assemble_temporal_graph(snaps, len(snaps) - 1, config)
    # order nodes by (window, kind, index); every temporal edge must ascend
    for snap in graph.snapshots:
        nodes = snap.flow_nodes
        for a, b in as_tuples(snap.intra_src) + as_tuples(snap.intra_dst):
            assert (nodes[a].ordinal, a) < (nodes[b].ordinal, b)
    for (a, _), (b, _) in (as_tuples(graph.inter_ip_edges)
                           + as_tuples(graph.inter_flow_edges)):
        assert a < b


def test_determinism_bit_identical():
    rng = np.random.default_rng(31)
    flows = random_flows(rng, 35)
    config = GraphBuildConfig(window_size=5.0, window_memory=3)
    g1 = build_temporal_graphs(flows, config)
    g2 = build_temporal_graphs(flows, config)
    assert [dump_temporal_graph(a) for a in g1] == \
        [dump_temporal_graph(b) for b in g2]


def test_strip_temporal_edges_removes_all():
    rng = np.random.default_rng(41)
    flows = random_flows(rng, 25)
    config = GraphBuildConfig(window_size=2.0, window_memory=3)
    for graph in build_temporal_graphs(flows, config):
        stripped = strip_temporal_edges(graph)
        assert as_tuples(stripped.inter_ip_edges) == ()
        assert as_tuples(stripped.inter_flow_edges) == ()
        for snap in stripped.snapshots:
            assert as_tuples(snap.intra_src) == () and as_tuples(snap.intra_dst) == ()
        # spatial structure untouched
        for before, after in zip(graph.snapshots, stripped.snapshots):
            assert as_tuples(before.flow_to_src) == as_tuples(after.flow_to_src)


def test_dump_format_lists_nodes_and_edges():
    flows = sort_flows([mk_flow(0, 0.0, 0.5, src="a", dst="b"),
                        mk_flow(1, 0.2, 0.7, src="a", dst="c")])
    config = GraphBuildConfig(window_size=1.0, window_memory=2)
    graph = build_temporal_graphs(flows, config)[0]
    text = dump_temporal_graph(graph)
    assert text.startswith("graph windows=1 target=0")
    assert "ip 0 a" in text
    assert "flow 0 id=0 ordinal=0" in text
    assert "edges intra_src: (0,1)" in text


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=50),
       st.integers(min_value=1, max_value=20),
       st.sampled_from([2, 8, 16, 30]))
def test_cyclical_encoding_periodic_property(pos, period, dim):
    a = cyclical_encode(pos, period, dim)
    b = cyclical_encode(pos + period, period, dim)
    assert np.allclose(a, b, atol=1e-9)
    assert np.all(np.abs(a) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# the array builder against the tuple builder it replaced


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_matches_reference(flows, config, use_features=False, origin=None):
    """Every graph of the array builder dumps byte-identically to the tuple
    builder's, and prepares to bitwise-equal arrays."""
    features = ref_features = None
    if use_features:
        codec = fit_codec(flows)
        features = encode_flows(flows, codec)
        ref_features = reference_ops.encode_flows(flows, codec)
    snaps = tuple(add_intra_temporal_edges(s, config)
                  for s in build_snapshots(flows, config, features, origin))
    ref = tuple(reference_ops.add_intra_temporal_edges(s, config)
                for s in reference_ops.build_snapshots(flows, config,
                                                       ref_features, origin))
    assert len(snaps) == len(ref)
    for t in range(len(snaps)):
        graph = assemble_temporal_graph(snaps, t, config)
        expected = reference_ops.assemble_temporal_graph(ref, t, config)
        assert dump_temporal_graph(graph) == reference_ops.dump_graph(expected)
        arrays = prepare_graph(graph, config)
        flat = reference_ops.flatten_graph(expected, config)
        for name in ("n_flows", "n_ips", "target_flow_ids"):
            assert getattr(arrays, name) == flat[name]
        for name in ("flow_input", "ip_input", "target_rows"):
            assert_same_bits(getattr(arrays, name), flat[name])
        for kind in ("flow", "ip"):
            assert_same_bits(arrays.window_bounds[kind],
                             flat["window_bounds"][kind])
        assert arrays.edges.keys() == flat["edges"].keys()
        for etype, (src, dst) in arrays.edges.items():
            assert_same_bits(src, flat["edges"][etype][0])
            assert_same_bits(dst, flat["edges"][etype][1])


#: keys differing only in trailing whitespace, a NUL, or the code points
#: of one rendered character
KEYS = ["a", "a ", "a\t", " a", "a\x00", "\u00e9", "e\u0301", "\u00e9 ", "b",
        "\u00df"]


@st.composite
def flow_streams(draw):
    w = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0, 2.5, 5.0]))
    n = draw(st.integers(min_value=1, max_value=30))
    ids = draw(st.lists(st.one_of(st.integers(0, 1000),
                                  st.integers(2 ** 63 - 3, 2 ** 64 - 1)),
                        min_size=n, max_size=n, unique=True))
    flows = []
    for flow_id in ids:
        # starts on the grid, a hair off it, or anywhere; ends on a later
        # boundary (a long flow spans two windows), nearby, or anywhere
        k = draw(st.integers(min_value=0, max_value=12))
        start = draw(st.sampled_from([k * w, k * w + 1e-9, (k + 0.5) * w]))
        start = draw(st.one_of(st.just(start),
                               st.floats(min_value=0, max_value=12 * w)))
        end = draw(st.sampled_from([start, start + w, (k + 1) * w,
                                    (k + 3) * w, start + 0.4 * w]))
        end = max(end, start)
        src = draw(st.sampled_from(KEYS))
        dst = draw(st.one_of(st.just(src), st.sampled_from(KEYS)))
        flows.append(mk_flow(flow_id, start, end, src=src, dst=dst,
                             src_port=draw(st.integers(0, 65535)),
                             protocol=draw(st.sampled_from([6, 17, 1]))))
    flows = sort_flows(flows)
    config = GraphBuildConfig(
        window_size=w,
        window_memory=draw(st.sampled_from([1, 2, 3, 5])),
        flow_memory=draw(st.sampled_from([1, 2, 3, 20])))
    first = min(f.start_time for f in flows)
    origin = draw(st.one_of(st.none(),
                            st.sampled_from([first, first - w, first - 2.5 * w,
                                             first - 1e-9]),
                            st.floats(min_value=first - 4 * w, max_value=first)))
    return flows, config, origin


@settings(max_examples=200, deadline=None)
@given(flow_streams(), st.booleans())
def test_array_builder_matches_tuple_reference(stream, use_features):
    flows, config, origin = stream
    assert_matches_reference(flows, config, use_features, origin)


def test_array_builder_matches_tuple_reference_on_synthetic_stream():
    records = temporal_pattern(n_windows=12, sources_per_window=4,
                               burst_len=6, seed=3, network="netA")
    config = GraphBuildConfig(window_size=5.0, window_memory=5, flow_memory=4)
    assert_matches_reference(records, config, use_features=True)
    assert_matches_reference(records, config, origin=records[0].start_time - 7.5)
