import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops
from conftest import mk_flow, sort_flows
from flowgnn import model
from flowgnn import tensor as T
from flowgnn.ingest import encode_flows, fit_codec, strip_labels
from flowgnn.model import ModelConfig, init_params, prepare_graph
from flowgnn.pretrain import (LinkPredTask, PretrainCorpus,
                              init_scorer_params, link_pred_accuracy,
                              link_pred_loss, pretrain, sample_negatives,
                              score_edges, transfer_weights)
from flowgnn.model import CompatibilityError
from flowgnn.synth import temporal_pattern
from flowgnn.tensor import Rng
from flowgnn.windows import (ALL_EDGE_TYPES, GraphBuildConfig,
                             build_temporal_graphs, dump_temporal_graph)
from test_message_passing import FEATURES, SMALL_GC, edge_list, random_arrays

GC = GraphBuildConfig(window_size=5.0, window_memory=2)
MC = ModelConfig(num_classes=2, hidden_size=8, classifier_hidden=8,
                 neighbor_aggregator="mean")


def toy_graphs(n=10, seed=0):
    flows = sort_flows([mk_flow(i, i * 0.6, i * 0.6 + 0.2,
                                src=f"s{i % 3}", dst=f"d{i % 2}")
                        for i in range(n)])
    codec = fit_codec(flows)
    return build_temporal_graphs(flows, GC, encode_flows(flows, codec)), codec


class TestSampleNegatives:
    def test_exact_count_and_disjoint_from_positives(self):
        graphs, _ = toy_graphs(12)
        graph = graphs[-1]
        task = sample_negatives(prepare_graph(graph, GC), 1.0, Rng(5))
        for etype, (ps, pd) in task.positives.items():
            pos = set(zip(ps.tolist(), pd.tolist()))
            ns, nd = task.negatives[etype]
            neg = list(zip(ns.tolist(), nd.tolist()))
            if etype not in task.shortfall:
                assert len(neg) == int(len(pos) * 1.0)
            assert not (set(neg) & pos)
            assert len(set(neg)) == len(neg)  # no duplicates

    def test_identical_seed_identical_negatives(self):
        graphs, _ = toy_graphs(12)
        arrays = prepare_graph(graphs[-1], GC)
        a = sample_negatives(arrays, 1.0, Rng(9))
        b = sample_negatives(arrays, 1.0, Rng(9))
        for etype in a.negatives:
            assert np.array_equal(a.negatives[etype][0], b.negatives[etype][0])
            assert np.array_equal(a.negatives[etype][1], b.negatives[etype][1])

    def test_saturated_type_reports_shortfall(self):
        # one flow from a to a: the spatial blocks are complete bipartite
        flows = [mk_flow(0, 0.0, 0.1, src="a", dst="a")]
        codec = fit_codec(flows)
        graphs = build_temporal_graphs(flows, GC, encode_flows(flows, codec))
        task = sample_negatives(prepare_graph(graphs[0], GC), 1.0, Rng(1))
        for etype in ("flow_to_src", "src_to_flow", "flow_to_dst",
                      "dst_to_flow"):
            assert len(task.negatives[etype][0]) == 0
            assert task.shortfall[etype] == 1

    def test_inter_window_negatives_point_forward(self):
        graphs, _ = toy_graphs(16)
        graph = graphs[-1]
        arrays = prepare_graph(graph, GC)
        n_flows = arrays.n_flows
        window_of = {}
        pos = ipos = 0
        for w, snap in enumerate(graph.snapshots):
            for _ in snap.flow_nodes:
                window_of[pos] = w
                pos += 1
            for _ in snap.ip_nodes:
                window_of[n_flows + ipos] = w
                ipos += 1
        task = sample_negatives(arrays, 1.0, Rng(3))
        for etype in ("inter_ip", "inter_flow"):
            ns, nd = task.negatives[etype]
            for s, d in zip(ns.tolist(), nd.tolist()):
                assert window_of[s] < window_of[d]


# (source kind, destination kind) of each edge type, as the window graph
# builder defines its edge lists; inter types join earlier to later windows
ORACLE_KINDS = {"flow_to_src": ("flow", "ip"), "src_to_flow": ("ip", "flow"),
                "flow_to_dst": ("flow", "ip"), "dst_to_flow": ("ip", "flow"),
                "intra_src": ("flow", "flow"), "intra_dst": ("flow", "flow"),
                "inter_ip": ("ip", "ip"), "inter_flow": ("flow", "flow")}


def oracle_negatives(graph, etype):
    """(positives, legal negatives) of `etype` by enumerating node pairs.

    Rows follow the documented layout, rebuilt from the snapshots: every
    window's flows, then every window's IPs. A legal negative has the
    type's endpoint kinds, the same window at both ends (an earlier source
    window for inter types), no self-loop, is not a positive, and keeps the
    source or the destination of some positive.
    """
    cells = [("flow", w, i) for w, snap in enumerate(graph.snapshots)
             for i in range(snap.num_flows)]
    cells += [("ip", w, i) for w, snap in enumerate(graph.snapshots)
              for i in range(snap.num_ips)]
    row = {cell: r for r, cell in enumerate(cells)}
    src_kind, dst_kind = ORACLE_KINDS[etype]
    inter = etype.startswith("inter")
    if inter:
        pairs = getattr(graph, f"{etype}_edges")
    else:
        pairs = [((w, i), (w, j)) for w, snap in enumerate(graph.snapshots)
                 for i, j in getattr(snap, etype)]
    positives = {(row[(src_kind, *u)], row[(dst_kind, *v)]) for u, v in pairs}
    sources = {u for u, _ in positives}
    targets = {v for _, v in positives}
    legal = set()
    for u, (ku, wu, _) in enumerate(cells):
        for v, (kv, wv, _) in enumerate(cells):
            if (ku, kv) != (src_kind, dst_kind) or u == v \
                    or (u, v) in positives:
                continue
            if (wu < wv if inter else wu == wv) \
                    and (u in sources or v in targets):
                legal.add((u, v))
    return positives, legal


def assert_legal_sample(task, graph, ratio):
    for etype in ALL_EDGE_TYPES:
        positives, legal = oracle_negatives(graph, etype)
        ps, pd = task.positives[etype]
        assert set(zip(ps.tolist(), pd.tolist())) == positives
        ns, nd = task.negatives[etype]
        negatives = list(zip(ns.tolist(), nd.tolist()))
        assert set(negatives) <= legal, etype
        assert len(set(negatives)) == len(negatives), etype
        assert len(negatives) + task.shortfall.get(etype, 0) == \
            int(ratio * len(ps)), etype


@settings(max_examples=60, deadline=None)
@given(flows=st.lists(st.tuples(st.sampled_from((0.0, 0.5, 4.0, 7.5, 12.0)),
                                st.sampled_from((0.1, 1.0, 6.0)),
                                st.integers(0, 2), st.integers(0, 2)),
                      min_size=1, max_size=10),
       one_window=st.booleans(), single_ip=st.booleans(),
       ratio=st.sampled_from((0.5, 1.0, 2.0, 3.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_negatives_are_legal_distinct_and_counted(flows, one_window,
                                                  single_ip, ratio, seed):
    # duplicate flows come from the small value pools; `one_window` packs
    # every flow into the first window; `single_ip` saturates the spatial
    # blocks (every flow joins the one IP)
    records = sort_flows([
        mk_flow(k, start / 10 if one_window else start,
                (start / 10 + 0.1) if one_window else start + duration,
                src="h0" if single_ip else f"h{a}",
                dst="h0" if single_ip else f"h{b}")
        for k, (start, duration, a, b) in enumerate(flows)])
    codec = fit_codec(records)
    graphs = build_temporal_graphs(records, GC, encode_flows(records, codec))
    for gi, graph in enumerate(graphs):
        arrays = prepare_graph(graph, GC)
        assert_legal_sample(sample_negatives(arrays, ratio, Rng(seed + gi)),
                            graph, ratio)
        assert_legal_sample(reference_ops.sample_negatives(
            graph, arrays, ratio, Rng(seed + gi)), graph, ratio)


def saturated_arrays():
    """One flow from a to a: the spatial blocks are complete bipartite."""
    flows = [mk_flow(0, 0.0, 0.1, src="a", dst="a")]
    codec = fit_codec(flows)
    graphs = build_temporal_graphs(flows, GC, encode_flows(flows, codec))
    return prepare_graph(graphs[0], GC)


@pytest.mark.parametrize("ratio", (0.0, 1.0, 2.0))
def test_sampler_matches_isin_sampler(ratio):
    records = temporal_pattern(n_windows=8, sources_per_window=3, burst_len=4,
                               seed=17)
    gc = GraphBuildConfig(window_size=5.0, window_memory=3)
    graphs = build_temporal_graphs(records, gc, encode_flows(
        records, fit_codec(records)))
    prepared = [prepare_graph(g, gc) for g in graphs[-3:]]
    prepared.append(saturated_arrays())
    shortfalls = 0
    for gi, arrays in enumerate(prepared):
        for seed in range(3):
            task = sample_negatives(arrays, ratio, Rng(seed + 10 * gi))
            ref = reference_ops.bulk_sample_negatives(arrays, ratio,
                                                      Rng(seed + 10 * gi))
            assert task.shortfall == ref.shortfall
            shortfalls += sum(task.shortfall.values())
            for etype in ALL_EDGE_TYPES:
                for got, want in zip(task.negatives[etype],
                                     ref.negatives[etype]):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), etype
    assert shortfalls > 0 if ratio else shortfalls == 0


class TestScorer:
    def test_untrained_accuracy_near_chance(self):
        records = temporal_pattern(n_windows=10, seed=4)
        codec = fit_codec(records)
        graphs = build_temporal_graphs(records, GC,
                                       encode_flows(records, codec))
        rng = Rng(123)
        params = init_params(MC, codec.feature_dim, GC, rng.child("t"))
        params.update(init_scorer_params(MC, rng.child("s")))
        correct = total = 0
        for gi, graph in enumerate(graphs):
            arrays = prepare_graph(graph, GC)
            task = sample_negatives(arrays, 1.0, Rng(gi))
            _, logits, targets = link_pred_loss(arrays, task, params, MC)
            correct += link_pred_accuracy(logits, targets) * len(targets)
            total += len(targets)
        assert total > 400
        assert abs(correct / total - 0.5) < 0.1


LOGIT_ATOL = 1e-12
GRAD_RTOL = 1e-12
#: the fused scorer's forward peak, as a share of the composed scorer's
PEAK_SHARE = 0.8


def link_pred_run(loss_fn, arrays, task, params, config):
    T.zero_grads(params)
    loss, logits, targets = loss_fn(arrays, task, params, config)
    loss.backward()
    grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for name, p in params.items()}
    return loss.item(), logits, targets, grads


def assert_scorer_matches_reference(arrays, task, params, config,
                                    reference=reference_ops.link_pred_loss,
                                    logit_atol=LOGIT_ATOL):
    """Loss, logits, targets and every parameter gradient of
    `link_pred_loss` against a reference scorer's, by default the
    concatenating one. The composed scorer computes the same logits, so
    against it `logit_atol` is 0; its weight gradients sum more rows."""
    loss, logits, targets, grads = link_pred_run(link_pred_loss, arrays,
                                                 task, params, config)
    ref_loss, ref_logits, ref_targets, ref_grads = link_pred_run(
        reference, arrays, task, params, config)
    assert np.array_equal(targets, ref_targets)
    assert logits.shape == ref_logits.shape
    assert np.abs(logits - ref_logits).max() <= logit_atol
    assert abs(loss - ref_loss) <= logit_atol
    for name, ref in ref_grads.items():
        scale = np.abs(ref).max(initial=0.0)
        err = np.abs(grads[name] - ref).max(initial=0.0)
        assert err <= GRAD_RTOL * scale, (name, err, scale)


def assert_scorer_matches_composed(arrays, task, params, config):
    assert_scorer_matches_reference(
        arrays, task, params, config,
        reference=reference_ops.composed_link_pred_loss, logit_atol=0.0)


def scorer_params(config, feature_dim, graph_config, seed):
    params = init_params(config, feature_dim, graph_config, Rng(seed))
    params.update(init_scorer_params(config, Rng(seed).child("scorers")))
    return params


@pytest.mark.parametrize("ratio", (0.0, 1.0, 2.0))
def test_synth_link_prediction_matches_reference(ratio):
    gc = GraphBuildConfig(window_size=5.0, window_memory=3)
    records = temporal_pattern(n_windows=8, sources_per_window=3, burst_len=4,
                               seed=17)
    codec = fit_codec(records)
    graphs = build_temporal_graphs(records, gc, encode_flows(records, codec))
    params = scorer_params(MC, codec.feature_dim, gc, 29)
    prepared = [prepare_graph(g, gc) for g in graphs[-3:]]
    assert all(any(len(a.edges[e][0]) for a in prepared) for e in ALL_EDGE_TYPES)
    for gi, arrays in enumerate(prepared):
        task = sample_negatives(arrays, ratio, Rng(gi))
        assert_scorer_matches_reference(arrays, task, params, MC)
        assert_scorer_matches_composed(arrays, task, params, MC)


def as_edges(pairs, n):
    return (np.array([s % n for s, _ in pairs], dtype=np.int64),
            np.array([d % n for _, d in pairs], dtype=np.int64))


# Small node counts make duplicate positives, negatives that repeat each
# other or a positive, and empty edge types common.
@settings(max_examples=60, deadline=None)
@given(n_flows=st.integers(1, 6), n_ips=st.integers(0, 4),
       edge_lists=st.lists(edge_list, min_size=8, max_size=8),
       negative_lists=st.lists(edge_list, min_size=8, max_size=8),
       no_negatives=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_generated_link_prediction_matches_reference(
        n_flows, n_ips, edge_lists, negative_lists, no_negatives, seed):
    arrays = random_arrays(n_flows, n_ips, edge_lists, seed, num_layers=None)
    n = arrays.num_nodes
    negatives = {etype: as_edges([] if no_negatives else pairs, n)
                 for etype, pairs in zip(ALL_EDGE_TYPES, negative_lists)}
    task = LinkPredTask(arrays.edges, negatives, 0.0 if no_negatives else 1.0)
    config = ModelConfig(num_classes=2, hidden_size=4, classifier_hidden=4)
    params = scorer_params(config, FEATURES, SMALL_GC, seed)
    if not any(len(src) for src, _ in (*arrays.edges.values(),
                                       *negatives.values())):
        for loss_fn in (link_pred_loss, reference_ops.link_pred_loss):
            with pytest.raises(ValueError, match="no edges"):
                loss_fn(arrays, task, params, config)
        return
    assert_scorer_matches_reference(arrays, task, params, config)


@settings(max_examples=60, deadline=None)
@given(n_flows=st.integers(1, 6), n_ips=st.integers(0, 4),
       edge_lists=st.lists(edge_list, min_size=8, max_size=8),
       negative_lists=st.lists(edge_list, min_size=8, max_size=8),
       activation=st.sampled_from(("leaky_relu", "identity")),
       seed=st.integers(0, 2**32 - 1))
def test_generated_scores_match_composed_scorer(
        n_flows, n_ips, edge_lists, negative_lists, activation, seed):
    arrays = random_arrays(n_flows, n_ips, edge_lists, seed, num_layers=None)
    n = arrays.num_nodes
    task = LinkPredTask(arrays.edges,
                        {etype: as_edges(pairs, n) for etype, pairs
                         in zip(ALL_EDGE_TYPES, negative_lists)}, 1.0)
    if not any(len(src) for src, _ in (*task.positives.values(),
                                       *task.negatives.values())):
        return
    config = ModelConfig(num_classes=2, hidden_size=4, classifier_hidden=4,
                         activation=activation)
    params = scorer_params(config, FEATURES, SMALL_GC, seed)
    assert_scorer_matches_composed(arrays, task, params, config)


def one_row_task():
    """intra_src has one edge (one distinct source and destination: the
    one-row products), flow_to_src one destination for three sources,
    intra_dst one pair three times over and as its own negative, and
    inter_flow negatives only; the other types are empty."""
    lists = [[] for _ in ALL_EDGE_TYPES]
    negative_lists = [[] for _ in ALL_EDGE_TYPES]
    lists[ALL_EDGE_TYPES.index("intra_src")] = [(0, 2)]
    lists[ALL_EDGE_TYPES.index("flow_to_src")] = [(0, 5), (1, 5), (3, 5)]
    lists[ALL_EDGE_TYPES.index("intra_dst")] = [(1, 3)] * 3
    negative_lists[ALL_EDGE_TYPES.index("intra_dst")] = [(1, 3), (3, 1)]
    negative_lists[ALL_EDGE_TYPES.index("inter_flow")] = [(2, 0)]
    arrays = random_arrays(4, 2, lists, 5, num_layers=None)
    return arrays, LinkPredTask(arrays.edges, {
        etype: as_edges(pairs, arrays.num_nodes)
        for etype, pairs in zip(ALL_EDGE_TYPES, negative_lists)}, 1.0)


@pytest.mark.parametrize("activation", ("leaky_relu", "identity"))
def test_one_row_and_repeated_pairs_match_composed_scorer(activation):
    arrays, task = one_row_task()
    config = ModelConfig(num_classes=2, hidden_size=16, classifier_hidden=16,
                         activation=activation)
    params = scorer_params(config, FEATURES, SMALL_GC, 7)
    assert_scorer_matches_composed(arrays, task, params, config)


def test_nan_state_row_propagates_as_in_composed_scorer():
    config = ModelConfig(num_classes=2, hidden_size=8, classifier_hidden=8)
    params = init_scorer_params(config, Rng(3))
    states = Rng(4).normal((7, 8))
    states[2] = np.nan
    edges = (np.array([0, 2, 4, 4, 6, 1]), np.array([1, 3, 2, 5, 0, 1]))
    logits = score_edges(T.Tensor(states), edges, "intra_src", params,
                         config).data.reshape(-1)
    ref = reference_ops.composed_score_edges(
        T.Tensor(states), edges, "intra_src", params, config).data.reshape(-1)
    assert np.array_equal(logits, ref, equal_nan=True)
    assert np.array_equal(np.isnan(logits), (edges[0] == 2) | (edges[1] == 2))


def test_scorer_builds_one_matrix_per_side(monkeypatch):
    built = []
    sum_matrix = model._sum_matrix
    monkeypatch.setattr(model, "_sum_matrix",
                        lambda *args: built.append(args) or sum_matrix(*args))
    config = ModelConfig(num_classes=2, hidden_size=4, classifier_hidden=4)
    params = init_scorer_params(config, Rng(3))
    states = T.Tensor(Rng(4).normal((6, 4)))
    edges = (np.array([0, 0, 3, 5]), np.array([1, 2, 2, 2]))
    logits = score_edges(states, edges, "intra_src", params, config)
    # the placements of the 4 edges' rows: 3 distinct sources, 2 destinations
    assert [args[2] for args in built] == [(3, 4), (2, 4)]
    T.sum_all(logits).backward()
    assert len(built) == 2


def test_fused_scorer_forward_peaks_below_composed_scorer():
    gc = GraphBuildConfig(window_size=5.0, window_memory=3)
    records = temporal_pattern(n_windows=8, sources_per_window=3, burst_len=4,
                               seed=17)
    codec = fit_codec(records)
    graph = build_temporal_graphs(records, gc,
                                  encode_flows(records, codec))[-1]
    config = ModelConfig(num_classes=2, hidden_size=32, classifier_hidden=32)
    params = scorer_params(config, codec.feature_dim, gc, 29)
    arrays = prepare_graph(graph, gc)
    task = sample_negatives(arrays, 1.0, Rng(0))
    peaks = []
    for loss_fn in (link_pred_loss, reference_ops.composed_link_pred_loss):
        loss_fn(arrays, task, params, config)    # warm caches and imports
        tracemalloc.start()
        try:
            kept = loss_fn(arrays, task, params, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del kept
    assert peaks[0] < PEAK_SHARE * peaks[1], peaks


def test_link_prediction_gradient_check():
    # a repeated positive, a negative equal to a positive, a type with
    # negatives only and one with positives only; the rest are empty
    lists = [[] for _ in ALL_EDGE_TYPES]
    negative_lists = [[] for _ in ALL_EDGE_TYPES]
    lists[ALL_EDGE_TYPES.index("intra_src")] = [(0, 2), (0, 2), (3, 1)]
    negative_lists[ALL_EDGE_TYPES.index("intra_src")] = [(2, 3), (3, 1)]
    lists[ALL_EDGE_TYPES.index("flow_to_src")] = [(0, 4), (2, 4)]
    negative_lists[ALL_EDGE_TYPES.index("inter_flow")] = [(1, 3)]
    arrays = random_arrays(4, 1, lists, 3, num_layers=None)
    task = LinkPredTask(arrays.edges,
                        {etype: as_edges(pairs, 5) for etype, pairs
                         in zip(ALL_EDGE_TYPES, negative_lists)}, 1.0)
    config = ModelConfig(num_classes=2, num_layers=1, hidden_size=3,
                         classifier_hidden=3)
    params = scorer_params(config, FEATURES, SMALL_GC, 11)
    assert reference_ops.check_gradients(
        lambda p: link_pred_loss(arrays, task, p, config)[0], params) < 1e-8


class TestPretrain:
    def test_loss_decreases_after_one_epoch_median(self):
        graphs, codec = toy_graphs(14)
        corpus = PretrainCorpus(datasets=(("toy", "x"),), mode="in-context")
        deltas = []
        for seed in range(10):
            result = pretrain(corpus, graphs, MC, GC, codec.feature_dim,
                              epochs=2, lr=0.001, negative_ratio=1.0,
                              seed=seed)
            deltas.append(result.log[1]["loss"] - result.log[0]["loss"])
        assert statistics.median(deltas) < 0

    def test_empty_corpus_rejected(self):
        graphs, codec = toy_graphs(6)
        corpus = PretrainCorpus(datasets=(("toy", "x"),), mode="in-context")
        with pytest.raises(ValueError, match="empty"):
            pretrain(corpus, (), MC, GC, codec.feature_dim, epochs=1,
                     lr=0.0001, negative_ratio=1.0)

    def test_label_free_by_construction(self):
        records = temporal_pattern(n_windows=6, seed=7)
        stripped = strip_labels(records)
        codec = fit_codec(stripped)
        g_labeled = build_temporal_graphs(records, GC,
                                          encode_flows(records, codec))
        g_stripped = build_temporal_graphs(stripped, GC,
                                           encode_flows(stripped, codec))
        # snapshots carry no labels, so both graph sequences are identical
        assert [dump_temporal_graph(a) for a in g_labeled] == \
            [dump_temporal_graph(b) for b in g_stripped]


class TestCorpus:
    def test_out_of_context_excludes_target(self):
        with pytest.raises(ValueError, match="target"):
            PretrainCorpus(datasets=(("netA", "a.pptf"), ("netB", "b.pptf")),
                           mode="out-of-context", target_dataset="netA")

    def test_manifest_round_trip_text(self):
        corpus = PretrainCorpus(datasets=(("netB", "b.pptf"),
                                          ("netC", "c.pptf")),
                                mode="out-of-context", target_dataset="netA")
        text = corpus.manifest_text()
        assert "mode = out-of-context" in text
        assert "target = netA" in text
        assert "dataset = netB\tb.pptf" in text


class TestTransfer:
    def test_trunk_copies_classifier_fresh(self):
        graphs, codec = toy_graphs(10)
        corpus = PretrainCorpus(datasets=(("toy", "x"),), mode="in-context")
        pre = pretrain(corpus, graphs, MC, GC, codec.feature_dim, epochs=1,
                       lr=0.0001, negative_ratio=1.0, seed=0)
        transferred = transfer_weights(pre.params, MC, GC, codec.feature_dim,
                                       Rng(42))
        for name, p in transferred.items():
            if name.startswith(("encoder.", "layer")):
                assert np.array_equal(p.data, pre.params[name].data)
        for name in transferred:
            assert not name.startswith("scorer.")
        # classifier head differs from every pretrained tensor
        head = transferred["classifier.0.W"].data
        for name, p in pre.params.items():
            if p.data.shape == head.shape:
                assert not np.array_equal(p.data, head) or \
                    name == "classifier.0.W"
        assert not np.array_equal(head, pre.params["classifier.0.W"].data)

    def test_feature_dim_mismatch_names_encoder(self):
        graphs, codec = toy_graphs(8)
        corpus = PretrainCorpus(datasets=(("toy", "x"),), mode="in-context")
        pre = pretrain(corpus, graphs, MC, GC, codec.feature_dim, epochs=1,
                       lr=0.0001, negative_ratio=1.0, seed=0)
        with pytest.raises(CompatibilityError, match="encoder.flow.W"):
            transfer_weights(pre.params, MC, GC, codec.feature_dim + 4,
                             Rng(42))
