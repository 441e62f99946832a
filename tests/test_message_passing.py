"""The planned message passing in `flowgnn.model` against two oracles in
`reference_ops`, the gather + segment-reduce step and the per-type
sparse-operator step: same logits and same parameter gradients for every
neighbour aggregator, and logits bitwise equal to the sparse-operator
step's on the synth graphs and on dense random graphs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_ops
from flowgnn import model
from flowgnn import tensor as T
from flowgnn.ingest import encode_flows, fit_codec
from flowgnn.model import (EdgeOperator, GraphArrays, ModelConfig,
                           SourceProjection, forward_prepared, init_params,
                           message_plan, prepare_graph)
from flowgnn.synth import temporal_pattern
from flowgnn.tensor import Rng
from flowgnn.windows import ALL_EDGE_TYPES, GraphBuildConfig, build_temporal_graphs

AGGREGATORS = ("sum", "mean", "max")
ORACLES = (reference_ops.hetero_step, reference_ops.sparse_hetero_step)
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


def oracle_logits_and_grads(oracle, arrays, params, config):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_hetero_step", oracle)
        return logits_and_grads(arrays, params, config)


def assert_matches_reference(arrays, params, config):
    logits, grads = logits_and_grads(arrays, params, config)
    for oracle in ORACLES:
        ref_logits, ref_grads = oracle_logits_and_grads(oracle, arrays,
                                                        params, config)
        assert logits.shape == ref_logits.shape
        assert np.abs(logits - ref_logits).max(initial=0.0) <= LOGIT_ATOL
        for name, ref in ref_grads.items():
            scale = np.abs(ref).max(initial=0.0)
            err = np.abs(grads[name] - ref).max(initial=0.0)
            assert err <= GRAD_RTOL * scale, (oracle.__name__, name, err, scale)


def operator_kinds(arrays):
    """Which aggregation paths the non-empty edge types of `arrays` take."""
    ops = [op for op in arrays.operators.values() if len(op.rows)]
    return {"aggregate": any(isinstance(op, EdgeOperator) for op in ops),
            "project": any(isinstance(op, SourceProjection) for op in ops)}


def synth_setup(aggregator):
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
    assert all(all(operator_kinds(a).values()) for a in prepared)
    return prepared, params, config


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_synth_graphs_match_reference(aggregator):
    prepared, params, config = synth_setup(aggregator)
    for arrays in prepared:
        assert_matches_reference(arrays, params, config)


def assert_logits_equal_sparse_step(arrays, params, config):
    _, logits = forward_prepared(arrays, params, config)
    ref_logits, _ = oracle_logits_and_grads(
        reference_ops.sparse_hetero_step, arrays, params, config)
    assert np.array_equal(logits.data, ref_logits)


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_synth_logits_equal_sparse_step(aggregator):
    prepared, params, config = synth_setup(aggregator)
    for arrays in prepared:
        assert_logits_equal_sparse_step(arrays, params, config)


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
    operators, steps = message_plan(edges, n)
    return GraphArrays(
        n_flows=n_flows, n_ips=n_ips,
        flow_input=rng.normal(size=(n_flows, FEATURES + 2)),
        ip_input=rng.normal(size=(n_ips, 3)),
        edges=edges, operators=operators, steps=steps,
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


def dense_arrays(seed):
    """24 flows and 8 IPs with 40 random edges per type, so that rows are
    reached by three or four types of a phase and the order of their sum
    shows in the bits; src_to_flow and dst_to_flow give 20 flows one IP
    each, so both project shared sources."""
    rng = np.random.default_rng(seed)
    n_flows, n_ips = 24, 8
    lists = []
    for etype in ALL_EDGE_TYPES:
        if etype in ("src_to_flow", "dst_to_flow"):
            dst = rng.permutation(n_flows)[:20]
            src = n_flows + rng.integers(0, n_ips, len(dst))
        else:
            src, dst = rng.integers(0, n_flows + n_ips, (2, 40))
        lists.append(list(zip(src.tolist(), dst.tolist())))
    arrays = random_arrays(n_flows, n_ips, lists, seed)
    assert all(operator_kinds(arrays).values())
    return arrays


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_dense_logits_equal_sparse_step(aggregator):
    config = ModelConfig(num_classes=3, hidden_size=16, classifier_hidden=4,
                         neighbor_aggregator=aggregator)
    for seed in range(3):
        assert_logits_equal_sparse_step(
            dense_arrays(seed),
            init_params(config, FEATURES, SMALL_GC, Rng(seed)), config)


@st.composite
def mixed_graphs(draw):
    """Node counts and per-type edge lists where about half of the types
    give each destination one in-edge (projected) and the rest may repeat
    destinations (aggregated); sources repeat freely."""
    n_flows = draw(st.integers(1, 6))
    n_ips = draw(st.integers(0, 4))
    n = n_flows + n_ips
    lists = []
    for _ in ALL_EDGE_TYPES:
        if draw(st.booleans()):
            dst = draw(st.lists(st.integers(0, n - 1), unique=True))
            src = draw(st.lists(st.integers(0, n - 1), min_size=len(dst),
                                max_size=len(dst)))
            lists.append(list(zip(src, dst)))
        else:
            lists.append(draw(edge_list))
    return n_flows, n_ips, lists


@settings(max_examples=40, deadline=None)
@given(graph=mixed_graphs(), aggregator=st.sampled_from(AGGREGATORS),
       seed=st.integers(0, 2**32 - 1))
def test_projected_and_aggregated_types_match_reference(graph, aggregator,
                                                        seed):
    arrays = random_arrays(*graph, seed)
    kinds = operator_kinds(arrays)
    assume(kinds["aggregate"] and kinds["project"])
    config = ModelConfig(num_classes=2, hidden_size=4, classifier_hidden=4,
                         neighbor_aggregator=aggregator)
    params = init_params(config, FEATURES, SMALL_GC, Rng(seed))
    assert_matches_reference(arrays, params, config)


def mixed_arrays():
    """Every path once: intra_src aggregates (destination 2 repeats),
    flow_to_src and inter_ip project shared sources, src_to_flow projects
    one source per row, the rest are empty."""
    lists = [[] for _ in ALL_EDGE_TYPES]
    lists[ALL_EDGE_TYPES.index("intra_src")] = [(0, 2), (3, 2), (1, 2), (2, 0)]
    lists[ALL_EDGE_TYPES.index("flow_to_src")] = [(0, 4), (0, 5), (2, 6)]
    lists[ALL_EDGE_TYPES.index("src_to_flow")] = [(4, 1), (5, 0), (6, 3)]
    lists[ALL_EDGE_TYPES.index("inter_ip")] = [(4, 5), (4, 6)]
    arrays = random_arrays(4, 3, lists, 9)
    assert all(operator_kinds(arrays).values())
    return arrays


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_planned_step_gradients(aggregator):
    arrays = mixed_arrays()
    config = ModelConfig(num_classes=2, num_layers=1, hidden_size=3,
                         classifier_layers=1, neighbor_aggregator=aggregator)
    params = init_params(config, FEATURES, SMALL_GC, Rng(31))
    targets = np.arange(arrays.n_flows) % 2

    def loss(p):
        return T.cross_entropy(forward_prepared(arrays, p, config)[1], targets)

    assert T.check_gradients(loss, params) < 1e-8
