"""The sparse-operator message passing in `flowgnn.model` against the
reference gather + segment-reduce path in `reference_ops`: same logits and
same parameter gradients for every neighbour aggregator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops
from flowgnn import model
from flowgnn import tensor as T
from flowgnn.ingest import encode_flows, fit_codec
from flowgnn.model import (GraphArrays, ModelConfig, edge_operator,
                           forward_prepared, init_params, prepare_graph)
from flowgnn.synth import temporal_pattern
from flowgnn.tensor import Rng
from flowgnn.windows import ALL_EDGE_TYPES, GraphBuildConfig, build_temporal_graphs

AGGREGATORS = ("sum", "mean", "max")
LOGIT_ATOL = 1e-12
GRAD_RTOL = 1e-12


def logits_and_grads(arrays, params, config):
    T.zero_grads(params)
    _, logits = forward_prepared(arrays, params, config)
    targets = np.arange(len(logits.data)) % config.num_classes
    T.cross_entropy(logits, targets).backward()
    grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
             for name, p in params.items()}
    return logits.data.copy(), grads


def assert_matches_reference(arrays, params, config):
    logits, grads = logits_and_grads(arrays, params, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_hetero_step", reference_ops.hetero_step)
        ref_logits, ref_grads = logits_and_grads(arrays, params, config)
    assert logits.shape == ref_logits.shape
    assert np.abs(logits - ref_logits).max(initial=0.0) <= LOGIT_ATOL
    for name, ref in ref_grads.items():
        scale = np.abs(ref).max(initial=0.0)
        err = np.abs(grads[name] - ref).max(initial=0.0)
        assert err <= GRAD_RTOL * scale, (name, err, scale)


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_synth_graphs_match_reference(aggregator):
    gc = GraphBuildConfig(window_size=5.0, window_memory=3)
    records = temporal_pattern(n_windows=8, sources_per_window=3, burst_len=4,
                               seed=17)
    codec = fit_codec(records)
    graphs = build_temporal_graphs(records, gc, encode_flows(records, codec))
    config = ModelConfig(num_classes=3, hidden_size=8, classifier_hidden=8,
                         neighbor_aggregator=aggregator)
    params = init_params(config, codec.feature_dim, gc, Rng(23))
    prepared = [prepare_graph(g, gc) for g in graphs[-3:]]
    assert all(any(len(a.edges[e][0]) for a in prepared) for e in ALL_EDGE_TYPES)
    for arrays in prepared:
        assert_matches_reference(arrays, params, config)


SMALL_GC = GraphBuildConfig(flow_encoding_dim=2, window_encoding_dim=2)
FEATURES = 3


def random_arrays(n_flows, n_ips, edge_lists, seed):
    n = n_flows + n_ips
    rng = np.random.default_rng(seed)
    edges = {}
    for etype, pairs in zip(ALL_EDGE_TYPES, edge_lists):
        src = np.array([s % n for s, _ in pairs], dtype=np.int64)
        dst = np.array([d % n for _, d in pairs], dtype=np.int64)
        edges[etype] = (src, dst)
    return GraphArrays(
        n_flows=n_flows, n_ips=n_ips,
        flow_input=rng.normal(size=(n_flows, FEATURES + 2)),
        ip_input=rng.normal(size=(n_ips, 3)),
        edges=edges,
        operators={e: edge_operator(s, d, n) for e, (s, d) in edges.items()},
        window_bounds={"flow": np.array([0, n_flows]),
                       "ip": np.array([n_flows, n])},
        target_rows=np.arange(n_flows, dtype=np.int64),
        target_flow_ids=tuple(range(n_flows)))


# Small node counts make duplicate edges, empty edge types and nodes
# without in-edges common.
edge_list = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                     max_size=12)


@settings(max_examples=60, deadline=None)
@given(n_flows=st.integers(1, 6), n_ips=st.integers(0, 4),
       edge_lists=st.lists(edge_list, min_size=8, max_size=8),
       aggregator=st.sampled_from(AGGREGATORS),
       seed=st.integers(0, 2**32 - 1))
def test_generated_graphs_match_reference(n_flows, n_ips, edge_lists,
                                          aggregator, seed):
    arrays = random_arrays(n_flows, n_ips, edge_lists, seed)
    config = ModelConfig(num_classes=2, hidden_size=4, classifier_hidden=4,
                         neighbor_aggregator=aggregator)
    params = init_params(config, FEATURES, SMALL_GC, Rng(seed))
    assert_matches_reference(arrays, params, config)


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_duplicate_and_missing_edges_match_reference(aggregator):
    # intra_src repeats 0 -> 2, node 1 has no in-edge of any type, and
    # every type but intra_src and flow_to_src is empty
    lists = [[] for _ in ALL_EDGE_TYPES]
    lists[ALL_EDGE_TYPES.index("intra_src")] = [(0, 2), (3, 2), (0, 2), (2, 0)]
    lists[ALL_EDGE_TYPES.index("flow_to_src")] = [(0, 4), (2, 4), (3, 4)]
    arrays = random_arrays(4, 1, lists, 5)
    assert np.array_equal(arrays.operators["intra_src"].degree, [1.0, 3.0])
    config = ModelConfig(num_classes=2, hidden_size=4, classifier_hidden=4,
                         neighbor_aggregator=aggregator)
    assert_matches_reference(arrays, init_params(config, FEATURES, SMALL_GC,
                                                 Rng(8)), config)
