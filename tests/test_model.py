import struct

import numpy as np
import pytest

from conftest import mk_flow, sort_flows
from reference_ops import check_gradients
from flowgnn import tensor as T
from flowgnn.ingest import (FormatError, LabelVocabulary, encode_flows,
                            fit_codec)
from flowgnn.model import (ModelConfig, build_metadata, config_from_items,
                           config_items, configs_from_metadata,
                           forward, forward_prepared, init_node_states,
                           init_params, load_checkpoint, prepare_graph,
                           save_checkpoint, spatial_step, temporal_step)
from flowgnn.tensor import Rng, Tensor
from flowgnn.training import TrainConfig
from flowgnn.windows import GraphBuildConfig, build_temporal_graphs

HID = 6


def small_config(**kw):
    defaults = dict(num_classes=2, num_layers=2, hidden_size=HID,
                    classifier_hidden=HID, neighbor_aggregator="mean")
    defaults.update(kw)
    return ModelConfig(**defaults)


def graph_config(**kw):
    defaults = dict(window_size=5.0, window_memory=2)
    defaults.update(kw)
    return GraphBuildConfig(**defaults)


def flows_with_features(flows, config):
    flows = sort_flows(flows)
    codec = fit_codec(flows)
    graphs = build_temporal_graphs(flows, config, encode_flows(flows, codec))
    return graphs, codec


def identity_params(etypes, phase, hidden=HID, w1=0.0, w2=1.0, layer=0):
    params = {}
    for etype in etypes:
        params[f"layer{layer}.{phase}.{etype}.W1"] = Tensor(np.eye(hidden) * w1)
        params[f"layer{layer}.{phase}.{etype}.W2"] = Tensor(np.eye(hidden) * w2)
    return params


class TestHandCalculations:
    """Identity-weight closed forms for the two update equations."""

    def test_temporal_single_edge_copies_neighbor(self):
        gc = graph_config()
        # two flows share a source -> one intra_src edge 0 -> 1
        flows = [mk_flow(0, 0.0, 0.1, src="a", dst="x"),
                 mk_flow(1, 1.0, 1.1, src="a", dst="y")]
        graphs, _ = flows_with_features(flows, gc)
        arrays = prepare_graph(graphs[0], gc)
        assert len(arrays.edges["intra_src"][0]) == 1
        assert len(arrays.edges["intra_dst"][0]) == 0

        config = small_config(activation="identity")
        params = identity_params(["intra_src"], "temporal")
        h = Tensor(Rng(1).normal((arrays.num_nodes, HID)))
        out = temporal_step(h, arrays, params, 0, config)
        # v = flow row 1 receives exactly h_u (W1=0, W2=I, mean of one)
        assert np.allclose(out.data[1], h.data[0], atol=1e-12)
        # u and the IP nodes pass through unchanged
        assert np.array_equal(out.data[0], h.data[0])
        assert np.array_equal(out.data[2:], h.data[2:])

    def test_temporal_two_types_sum_before_activation(self):
        gc = graph_config()
        # two flows share both source and destination
        flows = [mk_flow(0, 0.0, 0.1, src="a", dst="b"),
                 mk_flow(1, 1.0, 1.1, src="a", dst="b")]
        graphs, _ = flows_with_features(flows, gc)
        arrays = prepare_graph(graphs[0], gc)
        config = small_config(activation="identity")
        params = {**identity_params(["intra_src"], "temporal", w2=1.0),
                  **identity_params(["intra_dst"], "temporal", w2=2.0)}
        h = Tensor(Rng(2).normal((arrays.num_nodes, HID)))
        out = temporal_step(h, arrays, params, 0, config)
        x = h.data[0]          # src-type contribution
        y = 2.0 * h.data[0]    # dst-type contribution
        assert np.allclose(out.data[1], x + y, atol=1e-12)

    def test_spatial_flow_between_two_ips(self):
        gc = graph_config()
        flows = [mk_flow(0, 0.0, 0.1, src="a", dst="b")]
        graphs, _ = flows_with_features(flows, gc)
        arrays = prepare_graph(graphs[0], gc)
        config = small_config(activation="identity")
        params = identity_params(["flow_to_src", "src_to_flow", "flow_to_dst",
                                  "dst_to_flow"], "spatial", w1=1.0, w2=1.0)
        h = Tensor(Rng(3).normal((arrays.num_nodes, HID)))
        out = spatial_step(h, arrays, params, 0, config)
        h_f, h_a, h_b = h.data[0], h.data[1], h.data[2]
        # two incoming types for the flow, each W1 h_f + W2 mean(ip state)
        assert np.allclose(out.data[0], 2 * h_f + h_a + h_b, atol=1e-12)
        # each IP gets one incoming type: self + the flow state
        assert np.allclose(out.data[1], h_a + h_f, atol=1e-12)
        assert np.allclose(out.data[2], h_b + h_f, atol=1e-12)


class TestPassThrough:
    def test_no_temporal_edges_is_identity(self):
        gc = graph_config()
        flows = [mk_flow(i, float(i), float(i) + 0.1, src=f"s{i}",
                         dst=f"d{i}") for i in range(4)]
        graphs, _ = flows_with_features(flows, gc)
        arrays = prepare_graph(graphs[0], gc)
        for etype in ("intra_src", "intra_dst", "inter_ip", "inter_flow"):
            assert len(arrays.edges[etype][0]) == 0
        config = small_config()
        h = Tensor(Rng(4).normal((arrays.num_nodes, HID)))
        out = temporal_step(h, arrays, {}, 0, config)
        assert out is h


class TestInitStates:
    def test_zero_node_graph_yields_empty_state(self):
        # flows only in windows 0 and 3; memory-2 graph at window 2 covers
        # two entirely empty windows
        gc = graph_config(window_size=1.0, window_memory=2)
        flows = sort_flows([mk_flow(0, 0.0, 0.1), mk_flow(1, 3.2, 3.4)])
        graphs, codec = flows_with_features(flows, gc)
        empty = graphs[2]
        assert sum(s.num_flows + s.num_ips for s in empty.snapshots) == 0
        config = small_config()
        params = init_params(config, codec.feature_dim, gc, Rng(5))
        arrays = prepare_graph(empty, gc)
        states = init_node_states(arrays, params, config)
        assert states.data.shape == (0, config.hidden_size)
        ids, logits = forward(empty, params, config, gc)
        assert ids == () and logits.data.shape[0] == 0

    def test_same_window_ip_states_identical(self):
        gc = graph_config()
        flows = [mk_flow(0, 0.0, 0.1, src="a", dst="b"),
                 mk_flow(1, 1.0, 1.1, src="c", dst="d")]
        graphs, codec = flows_with_features(flows, gc)
        config = small_config()
        params = init_params(config, codec.feature_dim, gc, Rng(7))
        arrays = prepare_graph(graphs[0], gc)
        states = init_node_states(arrays, params, config)
        ips = states.data[arrays.n_flows:]
        assert np.allclose(ips, ips[0])

    def test_hidden_size_contract(self):
        gc = graph_config()
        flows = [mk_flow(0, 0.0, 0.1)]
        graphs, codec = flows_with_features(flows, gc)
        config = ModelConfig(num_classes=2, hidden_size=128)
        params = init_params(config, codec.feature_dim, gc, Rng(7))
        arrays = prepare_graph(graphs[0], gc)
        states = init_node_states(arrays, params, config)
        assert states.data.shape == (arrays.num_nodes, 128)

    def test_feature_dim_mismatch_raises(self):
        gc = graph_config()
        flows = [mk_flow(0, 0.0, 0.1)]
        graphs, codec = flows_with_features(flows, gc)
        config = small_config()
        params = init_params(config, codec.feature_dim + 3, gc, Rng(7))
        arrays = prepare_graph(graphs[0], gc)
        with pytest.raises(ValueError, match="input dim"):
            init_node_states(arrays, params, config)


class TestForward:
    def test_logits_shape(self):
        gc = graph_config()
        flows = [mk_flow(i, i * 0.4, i * 0.4 + 0.1, src=f"s{i % 2}")
                 for i in range(6)]
        graphs, codec = flows_with_features(flows, gc)
        config = small_config(num_classes=3)
        params = init_params(config, codec.feature_dim, gc, Rng(9))
        ids, logits = forward(graphs[0], params, config, gc)
        assert logits.data.shape == (len(ids), 3)

    def test_empty_target_window_empty_logits(self):
        gc = graph_config(window_size=5.0, window_memory=2)
        flows = sort_flows([mk_flow(0, 0.0, 0.5), mk_flow(1, 12.0, 12.5)])
        graphs, codec = flows_with_features(flows, gc)
        config = small_config()
        params = init_params(config, codec.feature_dim, gc, Rng(9))
        empty = graphs[1]  # window [5, 10) holds nothing
        assert empty.target.num_flows == 0
        ids, logits = forward(empty, params, config, gc)
        assert ids == () and logits.data.shape[0] == 0

    def test_forward_equals_manual_step_composition(self):
        gc = graph_config()
        flows = [mk_flow(i, i * 0.5, i * 0.5 + 0.2, src=f"s{i % 2}",
                         dst="sink") for i in range(5)]
        graphs, codec = flows_with_features(flows, gc)
        config = small_config()
        params = init_params(config, codec.feature_dim, gc, Rng(11))
        arrays = prepare_graph(graphs[-1], gc)
        _, logits = forward_prepared(arrays, params, config)

        states = init_node_states(arrays, params, config)
        for k in range(config.num_layers):
            states = temporal_step(states, arrays, params, k, config)
            states = spatial_step(states, arrays, params, k, config)
        from flowgnn.model import classify
        manual = classify(states, arrays.target_rows, params, config)
        assert np.array_equal(logits.data, manual.data)


from conftest import permute_graph, perturb_features


class TestInvariants:
    def test_permutation_equivariance(self):
        gc = graph_config(window_size=2.0, window_memory=3)
        rng = np.random.default_rng(13)
        flows = [mk_flow(i, float(rng.uniform(0, 8)), 0.0,
                         src=f"h{rng.integers(0, 4)}",
                         dst=f"h{rng.integers(0, 4)}") for i in range(20)]
        flows = sort_flows([mk_flow(f.flow_id, f.start_time,
                                    f.start_time + 0.3, src=f.src_ip,
                                    dst=f.dst_ip) for f in flows])
        graphs, codec = flows_with_features(flows, gc)
        config = small_config()
        params = init_params(config, codec.feature_dim, gc, Rng(21))
        for graph in graphs:
            ids_a, logits_a = forward(graph, params, config, gc)
            ids_b, logits_b = forward(permute_graph(graph, 5), params,
                                      config, gc)
            by_id_a = dict(zip(ids_a, logits_a.data))
            by_id_b = dict(zip(ids_b, logits_b.data))
            assert by_id_a.keys() == by_id_b.keys()
            for fid in by_id_a:
                assert np.allclose(by_id_a[fid], by_id_b[fid], atol=1e-9)

    def test_memory_locality(self):
        gc = graph_config(window_size=1.0, window_memory=2)
        flows = sort_flows([mk_flow(i, i * 0.5, i * 0.5 + 0.1, src="a",
                                    dst=f"d{i % 2}") for i in range(12)])
        graphs, codec = flows_with_features(flows, gc)
        config = small_config()
        params = init_params(config, codec.feature_dim, gc, Rng(33))
        from flowgnn.windows import (add_intra_temporal_edges,
                                     assemble_temporal_graph, build_snapshots)
        feats = encode_flows(flows, codec)
        snaps = [add_intra_temporal_edges(s, gc)
                 for s in build_snapshots(flows, gc, feats)]
        t = 4
        baseline = assemble_temporal_graph(snaps, t, gc)
        _, logits_before = forward(baseline, params, config, gc)

        # perturb a window outside the memory (t - memory) -> no change
        outside = t - gc.window_memory
        mutated = list(snaps)
        mutated[outside] = perturb_features(snaps[outside], codec.feature_dim,
                                            100.0)
        _, logits_out = forward(assemble_temporal_graph(mutated, t, gc),
                                params, config, gc)
        assert np.array_equal(logits_before.data, logits_out.data)

        # perturbing an in-memory window does change the output
        inside = t - 1
        mutated = list(snaps)
        mutated[inside] = perturb_features(snaps[inside], codec.feature_dim,
                                           100.0)
        _, logits_in = forward(assemble_temporal_graph(mutated, t, gc),
                               params, config, gc)
        assert not np.array_equal(logits_before.data, logits_in.data)


class TestGradient:
    def test_full_model_gradient_small(self):
        gc = graph_config(window_size=1.0, window_memory=2)
        flows = sort_flows([mk_flow(i, i * 0.35, i * 0.35 + 0.9,
                                    src=f"s{i % 2}", dst="sink")
                            for i in range(5)])
        graphs, codec = flows_with_features(flows, gc)
        config = ModelConfig(num_classes=2, num_layers=1, hidden_size=4,
                             classifier_hidden=4, neighbor_aggregator="mean")
        params = init_params(config, codec.feature_dim, gc, Rng(17))
        arrays = prepare_graph(graphs[-1], gc)
        targets = np.array([i % 2 for i in range(len(arrays.target_rows))])

        def loss_fn(p):
            _, logits = forward_prepared(arrays, p, config)
            return T.cross_entropy(logits, targets)

        assert check_gradients(loss_fn, params) < 1e-6


class TestCheckpoint:
    def setup_method(self):
        self.gc = graph_config()
        flows = [mk_flow(i, i * 0.4, i * 0.4 + 0.1) for i in range(4)]
        self.graphs, self.codec = flows_with_features(flows, self.gc)
        self.config = small_config()
        self.params = init_params(self.config, self.codec.feature_dim,
                                  self.gc, Rng(3))
        self.vocab = LabelVocabulary(("Benign", "Dos"))
        self.meta = build_metadata(self.config, self.gc, self.codec,
                                   self.vocab,
                                   extra={"checkpoint.kind": "supervised"})

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.pptg", tmp_path / "b.pptg"
        save_checkpoint(self.params, self.meta, p1)
        loaded, meta = load_checkpoint(p1)
        save_checkpoint(loaded, meta, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_roundtrip(self, tmp_path):
        path = tmp_path / "ck.pptg"
        save_checkpoint(self.params, self.meta, path)
        loaded, meta = load_checkpoint(path)
        model_config, gc, codec, vocab = configs_from_metadata(meta)
        assert codec == self.codec and vocab.classes == self.vocab.classes
        _, before = forward(self.graphs[0], self.params, self.config, self.gc)
        _, after = forward(self.graphs[0], loaded, model_config, gc)
        assert np.array_equal(before.data, after.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pptg"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_every_truncation_names_offset(self, tmp_path):
        path = tmp_path / "one.pptg"
        save_checkpoint({"w": Tensor(np.arange(3.0))}, {"k": "v"}, path)
        raw = path.read_bytes()
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(FormatError, match=f"file ends at {end}"):
                load_checkpoint(path)

    def test_length_overrun_and_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "one.pptg"
        save_checkpoint({"w": Tensor(np.arange(3.0))}, {"k": "v"}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<Q", 1 << 40) + raw[16:])
        with pytest.raises(FormatError, match="at offset 16"):
            load_checkpoint(path)
        path.write_bytes(raw + b"\x00\x00")
        with pytest.raises(FormatError, match=f"2 trailing bytes after offset "
                                             f"{len(raw)}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", [b"k = v", b"weights"],
                             ids=["metadata", "tensor-name"])
    def test_invalid_utf8_names_offset(self, tmp_path, text):
        path = tmp_path / "one.pptg"
        save_checkpoint({"weights": Tensor(np.arange(3.0))}, {"k": "v"}, path)
        raw = path.read_bytes()
        at = raw.index(text) + 1
        path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        with pytest.raises(FormatError, match=f"invalid UTF-8 in checkpoint "
                                             f"at offset {at}"):
            load_checkpoint(path)


def test_config_items_round_trip():
    config = TrainConfig(epochs=3, lr=0.25, weighted_loss=False, seed=9,
                         batch_size=4, split=(0.5, 0.25, 0.25))
    items = config_items("train", config)
    assert items["train.weighted_loss"] == "false"
    assert items["train.split"] == "0.5,0.25,0.25"
    assert config_from_items(TrainConfig, "train", items) == config
    assert config_from_items(TrainConfig, "train", items, seed=1).seed == 1
    with pytest.raises(ValueError, match="train.batch_size"):
        config_from_items(TrainConfig, "train",
                          {**items, "train.batch_size": "x"})
