"""The planned message passing in `flowgnn.model` against two oracles in
`reference_ops`, the gather + segment-reduce step and the per-type
sparse-operator step: same logits and same parameter gradients for every
neighbour aggregator, and logits bitwise equal to the sparse-operator
step's on the synth graphs and on dense random graphs. Plans restricted to
the target rows' receptive field keep the read sets of the brute-force
oracle, never read a row outside them, and give logits bitwise equal to
the plan that reads every row. Forward passes without a tape give the same
logits and build no transpose; transposes built on first use give the
gradients of transposes built up front."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_ops
from flowgnn import model
from flowgnn import tensor as T
from flowgnn.ingest import encode_flows, fit_codec
from flowgnn.model import (PHASES, EdgeOperator, GraphArrays, ModelConfig,
                           SourceProjection, forward_prepared, init_params,
                           message_plan, prepare_graph)
from flowgnn.synth import temporal_pattern
from flowgnn.tensor import Rng, Tensor
from flowgnn.training import predict_flows
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


def plan_steps(arrays, num_layers):
    """The StepPlan that each step of a `num_layers`-layer model runs."""
    return [arrays.plan.step(back, phase) for back in range(num_layers)
            for phase in PHASES]


def operator_kinds(arrays, num_layers=2):
    """Which aggregation paths the non-empty edge types of `arrays` take."""
    ops = [op for step in plan_steps(arrays, num_layers)
           for op in step.operators]
    return {"aggregate": any(isinstance(op, EdgeOperator) for op in ops),
            "project": any(isinstance(op, SourceProjection) for op in ops)}


def w1_rows(arrays, num_layers):
    return sum(len(op.rows) for step in plan_steps(arrays, num_layers)
               for op in step.operators)


def synth_setup(aggregator, num_layers=2):
    """The last three synth graphs, with plans for the target rows of a
    `num_layers`-layer model and with plans that read every row."""
    gc = GraphBuildConfig(window_size=5.0, window_memory=3)
    records = temporal_pattern(n_windows=8, sources_per_window=3, burst_len=4,
                               seed=17)
    codec = fit_codec(records)
    graphs = build_temporal_graphs(records, gc, encode_flows(records, codec))
    config = ModelConfig(num_classes=3, num_layers=num_layers, hidden_size=8,
                         classifier_hidden=8, neighbor_aggregator=aggregator)
    params = init_params(config, codec.feature_dim, gc, Rng(23))
    prepared = [prepare_graph(g, gc, num_layers) for g in graphs[-3:]]
    every_row = [prepare_graph(g, gc) for g in graphs[-3:]]
    assert all(any(len(a.edges[e][0]) for a in prepared) for e in ALL_EDGE_TYPES)
    assert all(all(operator_kinds(a, num_layers).values()) for a in prepared)
    return prepared, every_row, params, config


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_synth_graphs_match_reference(aggregator):
    prepared, _, params, config = synth_setup(aggregator)
    for arrays in prepared:
        assert_matches_reference(arrays, params, config)


def assert_logits_equal_sparse_step(arrays, params, config):
    _, logits = forward_prepared(arrays, params, config)
    ref_logits, _ = oracle_logits_and_grads(
        reference_ops.sparse_hetero_step, arrays, params, config)
    assert np.array_equal(logits.data, ref_logits)


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_synth_logits_equal_sparse_step(aggregator):
    prepared, _, params, config = synth_setup(aggregator)
    for arrays in prepared:
        assert_logits_equal_sparse_step(arrays, params, config)


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_synth_logits_equal_all_rows_plan(aggregator, num_layers):
    prepared, every_row, params, config = synth_setup(aggregator, num_layers)
    for arrays, full in zip(prepared, every_row):
        assert w1_rows(arrays, num_layers) < w1_rows(full, num_layers)
        _, logits = forward_prepared(arrays, params, config)
        _, full_logits = forward_prepared(full, params, config)
        assert np.array_equal(logits.data, full_logits.data)


def oracle_steps(arrays, num_layers):
    """(back, phase, rows read before the step, rows read after it) of each
    step of a `num_layers`-layer model, from the last step back, by the
    brute-force receptive-field oracle."""
    after = sorted(int(r) for r in arrays.target_rows)
    for back, layer in enumerate(reference_ops.read_sets(
            arrays.edges, arrays.target_rows, num_layers)):
        for phase in ("spatial", "temporal"):
            yield back, phase, layer[phase], after
            after = layer[phase]


def assert_steps_keep_brute_force_edges(arrays, num_layers):
    """Each planned step keeps exactly the edges of its phase whose
    destination the oracle reads after it, in edge order."""
    assert len(arrays.plan.last) == num_layers
    for back, phase, _, after in oracle_steps(arrays, num_layers):
        read = set(after)
        kept = {}
        for etype in PHASES[phase]:
            pairs = [(s, d) for s, d in zip(*arrays.edges[etype]) if d in read]
            if pairs:
                kept[etype] = pairs
        step = arrays.plan.step(back, phase)
        assert step.etypes == tuple(kept)
        for etype, (src, dst) in zip(step.etypes, step.edges):
            assert list(zip(src, dst)) == kept[etype]


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_synth_steps_keep_brute_force_edges(num_layers):
    prepared, _, _, _ = synth_setup("sum", num_layers)
    for arrays in prepared:
        assert_steps_keep_brute_force_edges(arrays, num_layers)


def poisoned_logits(arrays, params, config):
    """Logits when every step's input holds NaN outside the oracle's read
    set of that step, and how many rows were poisoned."""
    step = model._hetero_step
    reads = {(config.num_layers - 1 - back, phase): rows for back, phase, rows, _
             in oracle_steps(arrays, config.num_layers)}
    poisoned = [0]

    def poisoning_step(states, arrays, params, layer, phase, config):
        rows = reads[layer, phase]
        data = np.full_like(states.data, np.nan)
        data[rows] = states.data[rows]
        poisoned[0] += len(data) - len(rows)
        return step(Tensor(data), arrays, params, layer, phase, config)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_hetero_step", poisoning_step)
        _, logits = forward_prepared(arrays, params, config)
    return logits.data, poisoned[0]


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_rows_outside_read_sets_are_never_read(aggregator, num_layers):
    prepared, _, params, config = synth_setup(aggregator, num_layers)
    for arrays in prepared:
        _, logits = forward_prepared(arrays, params, config)
        poisoned, count = poisoned_logits(arrays, params, config)
        assert count > 0
        assert np.isfinite(poisoned).all()
        assert np.array_equal(poisoned, logits.data)


def test_plan_serves_shallower_models_and_refuses_deeper_ones():
    prepared, every_row, params, config = synth_setup("mean", num_layers=3)
    shallow = replace(config, num_layers=2)
    for arrays, full in zip(prepared, every_row):
        assert arrays.plan.rest is None
        assert np.array_equal(forward_prepared(arrays, params, shallow)[1].data,
                              forward_prepared(full, params, shallow)[1].data)
        # the plan lookup of the first step fails before it reads layer 3
        with pytest.raises(ValueError, match="last 3 layers only, not 4"):
            forward_prepared(arrays, params, replace(config, num_layers=4))


def sparse_operators(arrays, build_gathers=False):
    """Every `SparseOperator` of the plan of `arrays`, with the `max`
    aggregator's gathers that are built (all of them, with
    `build_gathers`)."""
    plan = arrays.plan
    for step in [s for layer in plan.last for s in layer.values()] \
            + list((plan.rest or {}).values()):
        yield step.place
        for op in step.operators:
            if isinstance(op, SourceProjection):
                yield op.spread
                continue
            yield op
            if build_gathers or "gather" in vars(op):
                yield op.gather


def build_transposes(arrays):
    """Build every transpose of `arrays` now, as `prepare_graph` did before
    transposes were built on first use; returns `arrays`."""
    for op in sparse_operators(arrays, build_gathers=True):
        op.transpose
    return arrays


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_logits_equal_without_tape(aggregator, num_layers):
    prepared, every_row, params, config = synth_setup(aggregator, num_layers)
    for arrays in prepared + every_row:
        _, logits = forward_prepared(arrays, params, config)
        with T.no_grad():
            _, untaped = forward_prepared(arrays, params, config)
        assert logits._backward is not None and untaped._backward is None
        assert np.array_equal(untaped.data, logits.data)


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_forward_only_scoring_builds_no_transpose(aggregator):
    prepared, every_row, params, config = synth_setup(aggregator)
    predict_flows(prepared + every_row, params, config)
    ops = [op for arrays in prepared + every_row
           for op in sparse_operators(arrays)]
    assert not any("transpose" in vars(op) for op in ops)
    gathers = sum(isinstance(op, EdgeOperator) and "gather" in vars(op)
                  for op in ops)
    assert (gathers > 0) == (aggregator == "max")


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_lazy_transposes_sum_in_index_order_and_match_eager_gradients(
        aggregator):
    prepared, _, params, config = synth_setup(aggregator)
    for arrays in prepared:
        lazy = logits_and_grads(arrays, params, config)
        assert any("transpose" in vars(op) for op in sparse_operators(arrays))
        for op in sparse_operators(arrays, build_gathers=True):
            t = op.transpose
            assert t.shape == op.shape[::-1]
            for r in range(t.shape[0]):
                assert np.array_equal(t.indices[t.indptr[r]:t.indptr[r + 1]],
                                      op.row[op.col == r])
        eager = build_transposes(replace(arrays, plan=model.message_plan(
            arrays.edges, arrays.num_nodes, arrays.target_rows,
            config.num_layers)))
        logits, grads = logits_and_grads(eager, params, config)
        assert np.array_equal(logits, lazy[0])
        for name, g in grads.items():
            assert np.array_equal(g, lazy[1][name]), name


SMALL_GC = GraphBuildConfig(flow_encoding_dim=2, window_encoding_dim=2)
FEATURES = 3


def random_arrays(n_flows, n_ips, edge_lists, seed, num_layers=2):
    """GraphArrays over the given edges. With `num_layers` None every flow
    is a target and the plan reads every row, as pre-training's does;
    otherwise the targets are a seeded random half of the flows (at least
    one), planned for the target rows of a `num_layers`-layer model."""
    n = n_flows + n_ips
    rng = np.random.default_rng(seed)
    edges = {}
    for etype, pairs in zip(ALL_EDGE_TYPES, edge_lists):
        src = np.array([s % n for s, _ in pairs], dtype=np.int64)
        dst = np.array([d % n for _, d in pairs], dtype=np.int64)
        edges[etype] = (src, dst)
    if num_layers is None:
        targets = np.arange(n_flows, dtype=np.int64)
    else:
        targets = np.sort(rng.permutation(n_flows)[:max(1, n_flows // 2)])
    return GraphArrays(
        n_flows=n_flows, n_ips=n_ips,
        flow_input=rng.normal(size=(n_flows, FEATURES + 2)),
        ip_input=rng.normal(size=(n_ips, 3)),
        edges=edges, plan=message_plan(edges, n, targets, num_layers),
        window_bounds={"flow": np.array([0, n_flows]),
                       "ip": np.array([n_flows, n])},
        target_rows=targets, target_flow_ids=tuple(targets.tolist()))


# The oracle tests run each graph twice: with every flow a target on the
# plan that reads every row, then with half the flows as targets on the
# plan restricted to their receptive field.
PLANS = (None, 2)

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
    config = ModelConfig(num_classes=2, hidden_size=4, classifier_hidden=4,
                         neighbor_aggregator=aggregator)
    params = init_params(config, FEATURES, SMALL_GC, Rng(seed))
    for num_layers in PLANS:
        arrays = random_arrays(n_flows, n_ips, edge_lists, seed, num_layers)
        if num_layers is not None:
            assert_steps_keep_brute_force_edges(arrays, num_layers)
        assert_matches_reference(arrays, params, config)


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_duplicate_and_missing_edges_match_reference(aggregator):
    # intra_src repeats 0 -> 2, node 1 has no in-edge of any type, and
    # every type but intra_src and flow_to_src is empty
    lists = [[] for _ in ALL_EDGE_TYPES]
    lists[ALL_EDGE_TYPES.index("intra_src")] = [(0, 2), (3, 2), (0, 2), (2, 0)]
    lists[ALL_EDGE_TYPES.index("flow_to_src")] = [(0, 4), (2, 4), (3, 4)]
    prepared = [random_arrays(4, 1, lists, 5, num_layers)
                for num_layers in PLANS]
    full = prepared[0].plan.rest["temporal"]
    assert np.array_equal(full.operators[full.etypes.index("intra_src")].degree,
                          [1.0, 3.0])
    config = ModelConfig(num_classes=2, hidden_size=4, classifier_hidden=4,
                         neighbor_aggregator=aggregator)
    params = init_params(config, FEATURES, SMALL_GC, Rng(8))
    for arrays in prepared:
        assert_matches_reference(arrays, params, config)


def dense_arrays(seed, num_layers):
    """24 flows and 8 IPs with 40 random edges per type, so that rows are
    reached by three or four types of a phase and the order of their sum
    shows in the bits; src_to_flow and dst_to_flow give 20 flows one IP
    each, so both project shared sources. Planned as `random_arrays`."""
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
    arrays = random_arrays(n_flows, n_ips, lists, seed, num_layers)
    assert all(operator_kinds(arrays).values())
    return arrays


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_dense_logits_equal_sparse_step(aggregator):
    config = ModelConfig(num_classes=3, hidden_size=16, classifier_hidden=4,
                         neighbor_aggregator=aggregator)
    for seed in range(3):
        params = init_params(config, FEATURES, SMALL_GC, Rng(seed))
        for num_layers in PLANS:
            assert_logits_equal_sparse_step(dense_arrays(seed, num_layers),
                                            params, config)


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
    prepared = [random_arrays(*graph, seed, num_layers) for num_layers in PLANS]
    kinds = operator_kinds(prepared[0])
    assume(kinds["aggregate"] and kinds["project"])
    config = ModelConfig(num_classes=2, hidden_size=4, classifier_hidden=4,
                         neighbor_aggregator=aggregator)
    params = init_params(config, FEATURES, SMALL_GC, Rng(seed))
    for arrays in prepared:
        assert_matches_reference(arrays, params, config)


def mixed_arrays():
    """Every path in a two-layer plan for target flows 0 and 3: intra_src
    aggregates in the first layer (destination 2 repeats) and keeps only
    2 -> 0, projected, in the last; flow_to_src and inter_ip project shared
    sources, src_to_flow projects one source per row, the rest are
    empty."""
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
    assert np.array_equal(arrays.target_rows, [0, 3])
    config = ModelConfig(num_classes=2, num_layers=2, hidden_size=3,
                         classifier_layers=1, neighbor_aggregator=aggregator)
    params = init_params(config, FEATURES, SMALL_GC, Rng(31))
    targets = np.arange(len(arrays.target_rows)) % 2

    def loss(p):
        return T.cross_entropy(forward_prepared(arrays, p, config)[1], targets)

    assert reference_ops.check_gradients(loss, params) < 1e-8
