"""Acceptance suite: ten property-based criteria, one test each, every test
printing a PASS/FAIL line (visible with ``pytest tests/test_acceptance.py
-v -s``). Tolerances and budgets are pinned in the assertions.
"""

import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (builder_edge_set, mk_flow, naive_f1, oracle_edge_set,
                      oracle_windows, permute_graph, perturb_features,
                      records_to_csv,
                      sort_flows, write_schema)
from reference_ops import check_gradients
from flowgnn import tensor as T
from flowgnn.experiments import (prepare_splits, select_fraction,
                                 undersample_order)
from flowgnn.ingest import (build_label_vocabulary, encode_flows, fit_codec,
                            strip_labels)
from flowgnn.metrics import f1_scores, binarize
from flowgnn.model import (ModelConfig, forward, forward_prepared, init_params,
                           prepare_graph, spatial_step, temporal_step)
from flowgnn.pretrain import PretrainCorpus, pretrain, transfer_weights
from flowgnn.synth import feature_pattern, temporal_pattern
from flowgnn.tensor import Rng, Tensor
from flowgnn.training import TrainConfig, evaluate, predict_flows, train
from flowgnn.windows import (GraphBuildConfig, add_intra_temporal_edges,
                             assemble_temporal_graph, build_snapshots,
                             build_temporal_graphs, strip_temporal_edges)


def report(num: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status} {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. graph-construction oracle


def test_criterion_01_graph_construction_oracle():
    sizes = [0.5, 1.0, 5.0, 10.0, 20.0]
    memories = [1, 3, 5]
    started = time.perf_counter()
    mismatches = 0
    for case in range(200):
        rng = np.random.default_rng(case)
        n = int(rng.integers(1, 51))
        flows = []
        for i in range(n):
            start = float(rng.uniform(0, 40))
            long_flow = rng.uniform(0, 1) < 0.25
            duration = float(rng.uniform(0, 30)) if long_flow \
                else float(rng.uniform(0, 1.5))
            flows.append(mk_flow(i, start, start + duration,
                                 src=f"h{rng.integers(0, 7)}",
                                 dst=f"h{rng.integers(0, 7)}"))
        flows = sort_flows(flows)
        config = GraphBuildConfig(window_size=sizes[case % 5],
                                  window_memory=memories[case % 3])
        snaps = tuple(add_intra_temporal_edges(s, config)
                      for s in build_snapshots(flows, config))
        _, membership = oracle_windows(flows, config.window_size)
        assert len(snaps) == len(membership)
        for t in range(len(snaps)):
            graph = assemble_temporal_graph(snaps, t, config)
            if builder_edge_set(graph) != oracle_edge_set(flows, config, t,
                                                          membership):
                mismatches += 1
    elapsed = time.perf_counter() - started
    report(1, "graph-construction oracle",
           mismatches == 0 and elapsed < 60.0,
           f"200 cases, {mismatches} mismatches, {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. full-model gradient check


def test_criterion_02_gradient_check():
    gc = GraphBuildConfig(window_size=5.0, window_memory=2)
    flows = sort_flows([
        mk_flow(0, 0.2, 0.4, src="s0", dst="d0"),
        mk_flow(1, 0.8, 1.0, src="s0", dst="d1"),
        mk_flow(2, 1.5, 1.9, src="s1", dst="d0"),
        mk_flow(3, 2.2, 2.5, src="s1", dst="d1"),
        mk_flow(4, 3.0, 6.5, src="s0", dst="d0"),  # spans both windows
        mk_flow(5, 5.3, 5.6, src="s0", dst="d1"),
        mk_flow(6, 5.9, 6.2, src="s0", dst="d0"),
        mk_flow(7, 6.4, 6.8, src="s1", dst="d1"),
        mk_flow(8, 7.0, 7.3, src="s1", dst="d0"),
        mk_flow(9, 8.0, 8.4, src="s2", dst="d2"),
    ])
    codec = fit_codec(flows)
    graph = build_temporal_graphs(flows, gc, encode_flows(flows, codec))[1]
    arrays = prepare_graph(graph, gc)
    assert all(len(arrays.edges[e][0]) > 0 for e in arrays.edges), \
        "every edge type must be exercised"
    config = ModelConfig(num_classes=2, num_layers=2, hidden_size=8,
                         classifier_hidden=8, neighbor_aggregator="mean")
    params = init_params(config, codec.feature_dim, gc, Rng(77))
    targets = np.array([i % 2 for i in range(len(arrays.target_rows))])

    def loss_fn(p):
        _, logits = forward_prepared(arrays, p, config)
        return T.cross_entropy(logits, targets)

    started = time.perf_counter()
    err = check_gradients(loss_fn, params)
    elapsed = time.perf_counter() - started
    n = sum(p.data.size for p in params.values())
    report(2, "full-model gradient check",
           err < 1e-4 and elapsed < 120.0,
           f"{n} parameters, max relative error {err:.2e} (< 1e-4), "
           f"{elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# 3. metric oracle


def test_criterion_03_metric_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        c = int(rng.integers(2, 7))
        y_true = rng.integers(0, c, n).tolist()
        y_pred = rng.integers(0, c, n).tolist()
        for truth, pred, k in (
                (y_true, y_pred, c),
                (binarize(y_true).tolist(), binarize(y_pred).tolist(), 2)):
            mine = f1_scores(truth, pred, k)
            ref = naive_f1(truth, pred, k)
            worst = max(worst, abs(mine[0] - ref[0]), abs(mine[1] - ref[1]))
    report(3, "metric oracle", worst <= 1e-12,
           f"1000 cases (multiclass + binary), worst deviation {worst:.2e} "
           f"(<= 1e-12)")


# ---------------------------------------------------------------------------
# 4. equation fidelity (identity-weight hand calculations)


def test_criterion_04_equation_fidelity():
    hid = 6
    gc = GraphBuildConfig(window_size=5.0, window_memory=2)
    config = ModelConfig(num_classes=2, hidden_size=hid, classifier_hidden=hid,
                         neighbor_aggregator="mean", activation="identity")

    def params_for(etypes, phase, w1, w2):
        out = {}
        for etype, w2_scale in etypes.items():
            out[f"layer0.{phase}.{etype}.W1"] = Tensor(np.eye(hid) * w1)
            out[f"layer0.{phase}.{etype}.W2"] = Tensor(np.eye(hid) * w2_scale)
        return out

    worst = 0.0
    # (a) one temporal edge u -> v, W1=0, W2=I, mean, sum: h_v == h_u
    flows = sort_flows([mk_flow(0, 0.0, 0.1, src="a", dst="x"),
                        mk_flow(1, 1.0, 1.1, src="a", dst="y")])
    codec = fit_codec(flows)
    arrays = prepare_graph(
        build_temporal_graphs(flows, gc, encode_flows(flows, codec))[0], gc)
    h = Tensor(Rng(1).normal((arrays.num_nodes, hid)))
    out = temporal_step(h, arrays, params_for({"intra_src": 1.0}, "temporal",
                                              0.0, 1.0), 0, config)
    worst = max(worst, float(np.abs(out.data[1] - h.data[0]).max()))
    worst = max(worst, float(np.abs(out.data[0] - h.data[0]).max()))

    # (b) two temporal types contributing x and y: pre-activation x + y
    flows = sort_flows([mk_flow(0, 0.0, 0.1, src="a", dst="b"),
                        mk_flow(1, 1.0, 1.1, src="a", dst="b")])
    codec = fit_codec(flows)
    arrays = prepare_graph(
        build_temporal_graphs(flows, gc, encode_flows(flows, codec))[0], gc)
    h = Tensor(Rng(2).normal((arrays.num_nodes, hid)))
    params = {**params_for({"intra_src": 1.0}, "temporal", 0.0, 1.0),
              **params_for({"intra_dst": 2.0}, "temporal", 0.0, 2.0)}
    out = temporal_step(h, arrays, params, 0, config)
    expected = h.data[0] + 2.0 * h.data[0]
    worst = max(worst, float(np.abs(out.data[1] - expected).max()))

    # (c) spatial: flow between two IPs, W1=W2=I: 2 h_f + h_a + h_b
    flows = [mk_flow(0, 0.0, 0.1, src="a", dst="b")]
    codec = fit_codec(flows)
    arrays = prepare_graph(
        build_temporal_graphs(flows, gc, encode_flows(flows, codec))[0], gc)
    h = Tensor(Rng(3).normal((arrays.num_nodes, hid)))
    params = params_for({e: 1.0 for e in ("flow_to_src", "src_to_flow",
                                          "flow_to_dst", "dst_to_flow")},
                        "spatial", 1.0, 1.0)
    out = spatial_step(h, arrays, params, 0, config)
    h_f, h_a, h_b = h.data[0], h.data[1], h.data[2]
    worst = max(worst, float(np.abs(out.data[0] - (2 * h_f + h_a + h_b)).max()))
    worst = max(worst, float(np.abs(out.data[1] - (h_a + h_f)).max()))
    worst = max(worst, float(np.abs(out.data[2] - (h_b + h_f)).max()))

    report(4, "equation fidelity", worst < 1e-9,
           f"identity-weight closed forms, worst |err| {worst:.2e} (< 1e-9)")


# ---------------------------------------------------------------------------
# 5. permutation equivariance and memory locality on 50 random graphs


def test_criterion_05_equivariance_and_locality():
    gc = GraphBuildConfig(window_size=2.0, window_memory=2)
    config = ModelConfig(num_classes=2, hidden_size=8, classifier_hidden=8,
                         neighbor_aggregator="mean")
    checked = 0
    worst = 0.0
    locality_failures = 0
    set_index = 0
    while checked < 50:
        rng = np.random.default_rng(1000 + set_index)
        set_index += 1
        flows = sort_flows([
            mk_flow(i, float(rng.uniform(0, 10)),
                    float(rng.uniform(0, 10)) + float(rng.uniform(0, 3)),
                    src=f"h{rng.integers(0, 4)}", dst=f"h{rng.integers(0, 4)}")
            for i in range(int(rng.integers(5, 25)))])
        flows = sort_flows([replace(f, end_time=f.start_time +
                                    abs(f.end_time - f.start_time) % 3.0,
                                    duration=abs(f.end_time - f.start_time) % 3.0)
                            for f in flows])
        codec = fit_codec(flows)
        feats = encode_flows(flows, codec)
        snaps = tuple(add_intra_temporal_edges(s, gc)
                      for s in build_snapshots(flows, gc, feats))
        params = init_params(config, codec.feature_dim, gc,
                             Rng(set_index).child("p"))
        for t in range(len(snaps)):
            if checked >= 50:
                break
            graph = assemble_temporal_graph(snaps, t, gc)
            ids_a, logits_a = forward(graph, params, config, gc)
            ids_b, logits_b = forward(permute_graph(graph, t + 1), params,
                                      config, gc)
            by_a = dict(zip(ids_a, logits_a.data))
            by_b = dict(zip(ids_b, logits_b.data))
            assert by_a.keys() == by_b.keys()
            for fid in by_a:
                worst = max(worst, float(np.abs(by_a[fid] - by_b[fid]).max()))
            outside = t - gc.window_memory
            if outside >= 0:
                mutated = list(snaps)
                mutated[outside] = perturb_features(
                    snaps[outside], codec.feature_dim, 50.0)
                _, logits_c = forward(
                    assemble_temporal_graph(mutated, t, gc), params, config, gc)
                if not np.array_equal(logits_a.data, logits_c.data):
                    locality_failures += 1
            checked += 1
    report(5, "permutation equivariance + memory locality",
           worst < 1e-9 and locality_failures == 0,
           f"{checked} graphs, worst permutation deviation {worst:.2e} "
           f"(< 1e-9), {locality_failures} locality violations")


# ---------------------------------------------------------------------------
# 6. capacity: overfit a separable synthetic


def test_criterion_06_capacity():
    gc = GraphBuildConfig(window_size=5.0, window_memory=2)
    records = feature_pattern(n_flows=200, seed=42)
    vocab = build_label_vocabulary(records)
    codec = fit_codec(records)
    graphs = build_temporal_graphs(records, gc, encode_flows(records, codec))
    labels = {r.flow_id: r.label for r in records}
    config = ModelConfig(num_classes=vocab.num_classes, hidden_size=32,
                         classifier_hidden=32, neighbor_aggregator="mean")
    params = init_params(config, codec.feature_dim, gc, Rng(6))
    started = time.perf_counter()
    result = train(graphs, None, labels, params,
                   TrainConfig(epochs=200, lr=0.01, seed=6), config, gc)
    elapsed = time.perf_counter() - started
    prepared = [prepare_graph(g, gc) for g in graphs]
    preds = predict_flows(prepared, result.params, config)
    y_true = [labels[i] for i in sorted(preds)]
    y_pred = [preds[i] for i in sorted(preds)]
    macro = f1_scores(y_true, y_pred, vocab.num_classes)[1]
    report(6, "capacity (200-flow separable synthetic)",
           macro > 0.95 and elapsed < 300.0,
           f"train macro F1 {macro:.3f} (> 0.95) after 200 epochs in "
           f"{elapsed:.1f}s (< 300s)")


# ---------------------------------------------------------------------------
# 7. mechanism liveness: temporal edges beat spatial-only


@pytest.fixture(scope="module")
def mech_env():
    gc = GraphBuildConfig(window_size=5.0, window_memory=3)
    records = temporal_pattern(n_windows=30, sources_per_window=3,
                               burst_len=4, seed=101, network="netA")
    vocab = build_label_vocabulary(records)
    data = prepare_splits(records, vocab, gc, (0.6, 0.2, 0.2))
    config = ModelConfig(num_classes=vocab.num_classes, hidden_size=16,
                         classifier_hidden=16, neighbor_aggregator="sum")
    return gc, data, config


def test_criterion_07_mechanism_liveness(mech_env):
    gc, data, config = mech_env
    spatial = tuple(strip_temporal_edges(g) for g in data.train_graphs)
    spatial_val = tuple(strip_temporal_edges(g) for g in data.val_graphs)
    spatial_test = tuple(strip_temporal_edges(g) for g in data.test_graphs)
    temporal_scores, spatial_scores = [], []
    argmax_flip = False
    for seed in range(10):
        tc = TrainConfig(epochs=30, lr=0.01, seed=seed)
        params = init_params(config, data.codec.feature_dim, gc, Rng(seed))
        r_t = train(data.train_graphs, data.val_graphs, data.labels, params,
                    tc, config, gc)
        temporal_scores.append(
            evaluate(r_t.params, data.test_graphs, data.vocab, data.labels,
                     config, gc).multiclass_macro_f1)
        r_s = train(spatial, spatial_val, data.labels, params, tc,
                    config, gc)
        spatial_scores.append(
            evaluate(r_s.params, spatial_test, data.vocab, data.labels,
                     config, gc).multiclass_macro_f1)
        if seed == 0:
            full = predict_flows([prepare_graph(g, gc)
                                  for g in data.test_graphs], r_t.params,
                                 config)
            stripped = predict_flows([prepare_graph(g, gc)
                                      for g in spatial_test], r_t.params,
                                     config)
            argmax_flip = any(full[fid] != stripped[fid] for fid in full)
    med_t = statistics.median(temporal_scores)
    med_s = statistics.median(spatial_scores)
    report(7, "mechanism liveness (temporal vs spatial-only)",
           med_t - med_s > 0.05 and argmax_flip,
           f"10-seed medians: temporal {med_t:.3f} vs spatial {med_s:.3f}, "
           f"margin {med_t - med_s:.3f} (> 0.05); argmax flips without "
           f"temporal edges: {argmax_flip}")


# ---------------------------------------------------------------------------
# 8. pre-training benefit at fraction 0.1 / 9. training-time accounting


@pytest.fixture(scope="module")
def fewshot_env():
    gc = GraphBuildConfig(window_size=5.0, window_memory=3)
    kw = dict(sources_per_window=2, burst_len=6)
    target = temporal_pattern(n_windows=30, seed=101, network="netA", **kw)
    vocab = build_label_vocabulary(target)
    others = [temporal_pattern(n_windows=15, seed=s, network=n, **kw)
              for s, n in ((202, "netB"), (303, "netC"))]
    protocols = tuple(sorted({r.protocol for r in target}))
    data = prepare_splits(target, vocab, gc, (0.6, 0.2, 0.2),
                          protocol_vocab=protocols)
    config = ModelConfig(num_classes=vocab.num_classes, hidden_size=16,
                         classifier_hidden=16, neighbor_aggregator="sum")
    fd = data.codec.feature_dim

    def unlabeled_graphs(recs):
        recs = strip_labels(recs)
        codec = replace(fit_codec(recs), protocol_vocab=protocols)
        return list(build_temporal_graphs(recs, gc,
                                          encode_flows(recs, codec)))

    # in-context: the target network's own unlabeled traffic; out-of-context:
    # two other networks of comparable total volume
    base_in = pretrain(
        PretrainCorpus(datasets=(("netA", "-"),), mode="in-context",
                       target_dataset="netA"),
        unlabeled_graphs(target), config, gc, fd, epochs=40, lr=0.001,
        negative_ratio=1.0, seed=0).params
    base_out = pretrain(
        PretrainCorpus(datasets=(("netB", "-"), ("netC", "-")),
                       mode="out-of-context", target_dataset="netA"),
        unlabeled_graphs(others[0]) + unlabeled_graphs(others[1]), config,
        gc, fd, epochs=40, lr=0.001, negative_ratio=1.0, seed=0).params
    return gc, data, config, base_in, base_out


def test_criterion_08_pretraining_benefit(fewshot_env):
    gc, data, config, base_in, base_out = fewshot_env
    fd = data.codec.feature_dim
    order = undersample_order(data.train_graphs, data.labels,
                              config.num_classes)
    picked, _ = select_fraction(order, data.train_graphs, data.labels,
                                config.num_classes, 0.1)
    small = tuple(data.train_graphs[i] for i in picked)
    scores = {"none": [], "in-context": [], "out-of-context": []}
    for seed in range(10):
        tc = TrainConfig(epochs=50, lr=0.01, seed=seed)
        for mode, base in (("none", None), ("in-context", base_in),
                           ("out-of-context", base_out)):
            rng = Rng(seed).child(f"fs:{mode}")
            p0 = init_params(config, fd, gc, rng) if base is None \
                else transfer_weights(base, config, gc, fd, rng)
            r = train(small, data.val_graphs, data.labels, p0, tc, config, gc)
            scores[mode].append(
                evaluate(r.params, data.test_graphs, data.vocab, data.labels,
                         config, gc).multiclass_macro_f1)
    med = {k: statistics.median(v) for k, v in scores.items()}
    context_gap = abs(med["in-context"] - med["out-of-context"])
    report(8, "pre-training benefit at fraction 0.1",
           med["out-of-context"] >= med["none"] and context_gap < 0.1,
           f"10-seed medians: none {med['none']:.3f}, in-context "
           f"{med['in-context']:.3f}, out-of-context "
           f"{med['out-of-context']:.3f}; out >= none and "
           f"|in - out| = {context_gap:.3f} (< 0.1)")


def test_criterion_09_training_time_accounting(fewshot_env):
    gc, data, config, _, base_out = fewshot_env
    fd = data.codec.feature_dim
    params = init_params(config, fd, gc, Rng(900))
    scratch = train(data.train_graphs, data.val_graphs, data.labels, params,
                    TrainConfig(epochs=200, lr=0.001, seed=900), config, gc)
    order = undersample_order(data.train_graphs, data.labels,
                              config.num_classes)
    picked, _ = select_fraction(order, data.train_graphs, data.labels,
                                config.num_classes, 0.05)
    small = tuple(data.train_graphs[i] for i in picked)
    p0 = transfer_weights(base_out, config, gc, fd, Rng(901))
    fine = train(small, data.val_graphs, data.labels, p0,
                 TrainConfig(epochs=50, lr=0.01, seed=901), config, gc)
    ratio = fine.seconds / scratch.seconds
    report(9, "training-time accounting",
           ratio < 0.25,
           f"fine-tune {fine.seconds:.1f}s vs scratch {scratch.seconds:.1f}s "
           f"-> {100 * ratio:.1f}% (< 25%)")


# ---------------------------------------------------------------------------
# 10. determinism of CLI runs


def test_criterion_10_determinism(tmp_path):
    from flowgnn.cli import main

    records = temporal_pattern(n_windows=8, seed=5)
    csv_path = records_to_csv(records, tmp_path / "flows.csv")
    schema = write_schema(tmp_path / "schema.txt")
    cache = tmp_path / "flows.pptf"
    assert main(["ingest", "--input", str(csv_path), "--schema", str(schema),
                 "--out", str(cache)]) == 0

    fast = ["--set", "model.hidden_size=8", "--set",
            "model.classifier_hidden=8", "--set", "train.epochs=3",
            "--set", "pretrain.epochs=2", "--set", "graph.window_memory=2"]

    identical = True
    details = []
    for command, out_name in (("train", "t"), ("pretrain", "p")):
        out_dir = tmp_path / out_name
        args = [command, "--cache", str(cache), "--out-dir", str(out_dir),
                "--seed", "13", *fast]

        def snapshot():
            return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                    if "timing" not in p.name}

        assert main(args) == 0
        first = snapshot()
        assert main(args) == 0
        second = snapshot()
        same = first.keys() == second.keys() and \
            all(first[k] == second[k] for k in first)
        identical = identical and same
        details.append(f"{command}: {len(first)} files "
                       f"{'identical' if same else 'DIFFER'}")
    report(10, "determinism (rerun byte-identity)", identical,
           "; ".join(details))
