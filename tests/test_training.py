import contextlib
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import mk_flow, sort_flows
from flowgnn import tensor as T
from flowgnn import training
from flowgnn.experiments import (FewShotPlan, ablation_suite, fewshot,
                                 prepare_splits, select_fraction,
                                 undersample_order)
from flowgnn.ingest import (UNLABELED, build_label_vocabulary, encode_flows,
                            fit_codec, label_records)
from flowgnn.metrics import f1_scores
from flowgnn.model import ModelConfig, copy_params, init_params, prepare_graph
from flowgnn.pretrain import PretrainConfig
from flowgnn.synth import feature_pattern, temporal_pattern, topology_pattern
from flowgnn.tensor import Rng, Tensor
from flowgnn.training import (EmptyDataError, TrainConfig, chronological_split,
                              class_weights, evaluate, fit, predict_flows,
                              train)
from flowgnn.windows import GraphBuildConfig, build_temporal_graphs
from reference_ops import mul_const
from test_message_passing import build_transposes

GC = GraphBuildConfig(window_size=5.0, window_memory=2)


def small_model(num_classes=2, **kw):
    defaults = dict(hidden_size=16, classifier_hidden=16,
                    neighbor_aggregator="sum")
    defaults.update(kw)
    return ModelConfig(num_classes=num_classes, **defaults)


class TestChronologicalSplit:
    def test_all_train(self):
        flows = [mk_flow(i, float(i), i + 0.5) for i in range(10)]
        train_f, val_f, test_f = chronological_split(flows, (1.0, 0.0, 0.0), 5.0)
        assert len(train_f) == 10 and not val_f and not test_f

    def test_uniform_flows_quantile_boundaries(self):
        flows = [mk_flow(i, float(i), i + 0.5) for i in range(100)]
        train_f, val_f, test_f = chronological_split(flows, (0.6, 0.2, 0.2), 5.0)
        # boundaries snap to the window grid anchored at t=0
        b1 = max(f.start_time for f in train_f)
        assert len(train_f) + len(val_f) + len(test_f) == 100
        assert abs(len(train_f) - 60) <= 5
        assert abs(len(val_f) - 20) <= 5
        boundary = min(f.start_time for f in val_f)
        assert boundary % 5.0 == pytest.approx(0.0)

    def test_partition_no_flow_in_two_splits(self):
        rng = np.random.default_rng(3)
        flows = sort_flows([mk_flow(i, float(rng.uniform(0, 50)), 0.0)
                            for i in range(60)])
        flows = sort_flows([mk_flow(f.flow_id, f.start_time,
                                    f.start_time + 0.2) for f in flows])
        parts = chronological_split(flows, (0.5, 0.25, 0.25), 2.0)
        ids = [{f.flow_id for f in part} for part in parts]
        assert ids[0] | ids[1] | ids[2] == {f.flow_id for f in flows}
        assert not (ids[0] & ids[1]) and not (ids[1] & ids[2]) \
            and not (ids[0] & ids[2])

    def test_time_ordering_between_splits(self):
        flows = [mk_flow(i, i * 0.7, i * 0.7 + 0.1) for i in range(50)]
        train_f, val_f, test_f = chronological_split(flows, (0.6, 0.2, 0.2), 1.0)
        assert max(f.start_time for f in train_f) <= \
            min(f.start_time for f in val_f)
        assert max(f.start_time for f in val_f) <= \
            min(f.start_time for f in test_f)

    def test_empty_split_warns_not_raises(self):
        flows = [mk_flow(0, 0.0, 0.1), mk_flow(1, 1.0, 1.1)]
        with pytest.warns(UserWarning, match="empty"):
            chronological_split(flows, (0.98, 0.01, 0.01), 1.0)


class TestClassWeights:
    def test_inverse_frequency(self):
        w = class_weights([0, 0, 0, 1], 2)
        assert w[0] == pytest.approx(4 / (2 * 3))
        assert w[1] == pytest.approx(4 / (2 * 1))

    def test_missing_class_clamped(self):
        w = class_weights([0, 0], 2)
        assert np.isfinite(w).all()


def prepared_dataset(records, **model_kw):
    vocab = build_label_vocabulary(records)
    data = prepare_splits(records, vocab, GC, (0.6, 0.2, 0.2))
    config = small_model(num_classes=vocab.num_classes, **model_kw)
    return data, config


class TestTrain:
    def test_single_class_accuracy_one_within_five_epochs(self):
        flows = sort_flows([mk_flow(i, i * 0.5, i * 0.5 + 0.1, label=0,
                                    src=f"s{i % 2}") for i in range(20)])
        codec = fit_codec(flows)
        graphs = build_temporal_graphs(flows, GC, encode_flows(flows, codec))
        labels = {f.flow_id: 0 for f in flows}
        config = small_model()
        params = init_params(config, codec.feature_dim, GC, Rng(0))
        result = train(graphs, None, labels, params,
                       TrainConfig(epochs=5, lr=0.01, seed=0), config, GC)
        prepared = [prepare_graph(g, GC) for g in graphs]
        preds = predict_flows(prepared, result.params, config)
        assert all(p == 0 for p in preds.values())

    def test_overfits_separable_synthetic(self):
        records = feature_pattern(n_flows=120, seed=1)
        vocab = build_label_vocabulary(records)
        codec = fit_codec(records)
        graphs = build_temporal_graphs(records, GC,
                                       encode_flows(records, codec))
        labels = {r.flow_id: r.label for r in records}
        config = small_model(num_classes=vocab.num_classes)
        params = init_params(config, codec.feature_dim, GC, Rng(1))
        result = train(graphs, None, labels, params,
                       TrainConfig(epochs=40, lr=0.005, seed=1), config, GC)
        prepared = [prepare_graph(g, GC) for g in graphs]
        preds = predict_flows(prepared, result.params, config)
        y_true = [labels[i] for i in sorted(preds)]
        y_pred = [preds[i] for i in sorted(preds)]
        assert f1_scores(y_true, y_pred, 2)[1] > 0.9

    def test_identical_seeds_identical_logs(self):
        records = feature_pattern(n_flows=60, seed=2)
        data, config = prepared_dataset(records)
        runs = []
        for _ in range(2):
            params = init_params(config, data.codec.feature_dim, GC, Rng(5))
            result = train(data.train_graphs, data.val_graphs, data.labels,
                           params, TrainConfig(epochs=4, lr=0.01, seed=5),
                           config, GC)
            runs.append(result.log)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("batch_size", [2, 3])
    def test_batches_step_once_and_log_flow_weighted_loss(self, monkeypatch,
                                                          batch_size):
        records = feature_pattern(n_flows=60, seed=2)
        data, config = prepared_dataset(records)
        steps_seen = []
        real_fit = training.fit

        def recording_fit(params, epochs, lr, steps, score=None):
            def recorded(epoch):
                for loss, weight, stats in steps(epoch):
                    steps_seen.append((epoch, loss.item(), weight))
                    yield loss, weight, stats
            return real_fit(params, epochs, lr, recorded, score)

        monkeypatch.setattr(training, "fit", recording_fit)
        adam_calls = []
        real_adam = training.adam_step
        monkeypatch.setattr(training, "adam_step", lambda *a: (
            adam_calls.append(1), real_adam(*a)))
        params = init_params(config, data.codec.feature_dim, GC, Rng(5))
        result = train(data.train_graphs, None, data.labels, params,
                       TrainConfig(epochs=2, lr=0.01, seed=5,
                                   batch_size=batch_size), config, GC)
        labeled = [n for n in (
            sum(data.labels.get(f, UNLABELED) != UNLABELED
                for f in g.target_flow_ids)
            for g in (prepare_graph(g, GC) for g in data.train_graphs)) if n]
        per_epoch = math.ceil(len(labeled) / batch_size)
        assert len(adam_calls) == 2 * per_epoch
        for epoch, entry in enumerate(result.log):
            mine = [(l, w) for e, l, w in steps_seen if e == epoch]
            assert [w for _, w in mine] == [
                sum(labeled[lo:lo + batch_size])
                for lo in range(0, len(labeled), batch_size)]
            assert entry["loss"] == pytest.approx(
                sum(l * w for l, w in mine) / sum(labeled))

    def test_no_labeled_flows_raises(self):
        flows = sort_flows([mk_flow(i, i * 0.5, i * 0.5 + 0.1)
                            for i in range(5)])
        codec = fit_codec(flows)
        graphs = build_temporal_graphs(flows, GC, encode_flows(flows, codec))
        config = small_model()
        params = init_params(config, codec.feature_dim, GC, Rng(0))
        with pytest.raises(EmptyDataError):
            train(graphs, None, {f.flow_id: UNLABELED for f in flows}, params,
                  TrainConfig(epochs=1), config, GC)


def linear_steps(params, directions, weights):
    """One step per direction c, its loss the dot product c . params["w"]."""
    def steps(epoch):
        for c, weight in zip(directions, weights):
            loss = T.sum_all(mul_const(params["w"], np.asarray(c)))
            yield loss, weight, {"half": 0.5 * loss.item()}
    return steps


class TestFit:
    def test_first_epoch_with_highest_score_is_kept(self):
        params = {"w": Tensor(np.array([1.0, -2.0]))}
        seen = []
        scores = iter([0.2, 0.7, 0.7, 0.1])

        def score(p):
            seen.append(copy_params(p))
            return next(scores)

        steps = linear_steps(params, [[1.0, 1.0]], [1])
        result = fit(params, 4, 0.1, steps, score)
        assert [e["val_macro_f1"] for e in result.log] == [0.2, 0.7, 0.7, 0.1]
        assert np.array_equal(result.params["w"].data, seen[1]["w"].data)
        assert not np.array_equal(seen[1]["w"].data, seen[2]["w"].data)

    def test_without_score_final_params_come_back(self):
        params = {"w": Tensor(np.array([1.0, -2.0]))}
        result = fit(params, 3, 0.1, linear_steps(params, [[1.0, 1.0]], [1]))
        # Adam moves each weight by about lr per step under a constant gradient
        assert result.params["w"].data == pytest.approx([0.7, -2.3])
        assert all("val_macro_f1" not in e for e in result.log)

    def test_log_is_weighted_mean_over_steps(self):
        params = {"w": Tensor(np.zeros(2))}
        losses = []

        def steps(epoch):
            for loss, weight, stats in linear_steps(
                    params, [[1.0, 0.0], [0.0, 3.0]], [2, 3])(epoch):
                losses.append(loss.item())
                yield loss, weight, stats

        result = fit(params, 2, 0.1, steps)
        for epoch, entry in enumerate(result.log):
            first, second = losses[2 * epoch:2 * epoch + 2]
            assert entry["epoch"] == epoch
            assert entry["loss"] == (first * 2 + second * 3) / 5
            assert entry["half"] == pytest.approx(entry["loss"] / 2)


class TestEvaluate:
    def test_multi_window_flow_scored_once_with_last_prediction(self):
        # one long flow spans two target windows; predict_flows keeps the
        # later window's argmax
        flows = sort_flows([mk_flow(0, 0.0, 6.0, src="a"),
                            mk_flow(1, 1.0, 1.2, src="a"),
                            mk_flow(2, 6.5, 6.8, src="b")])
        codec = fit_codec(flows)
        graphs = build_temporal_graphs(flows, GC, encode_flows(flows, codec))
        config = small_model()
        params = init_params(config, codec.feature_dim, GC, Rng(2))
        prepared = [prepare_graph(g, GC) for g in graphs]
        preds_all = predict_flows(prepared, params, config)
        preds_last_only = predict_flows(prepared[-1:], params, config)
        assert preds_all[0] == preds_last_only[0]

    def test_empty_test_raises_empty_data(self):
        flows = sort_flows([mk_flow(0, 0.0, 0.1)])
        codec = fit_codec(flows)
        graphs = build_temporal_graphs(flows, GC, encode_flows(flows, codec))
        config = small_model()
        params = init_params(config, codec.feature_dim, GC, Rng(2))
        from flowgnn.ingest import LabelVocabulary
        with pytest.raises(EmptyDataError, match="no target flows"):
            evaluate(params, graphs, LabelVocabulary(("Benign", "X")),
                     {0: UNLABELED}, config, GC)

    def test_latency_per_target_window_with_flows(self):
        records = temporal_pattern(n_windows=8, sources_per_window=3,
                                   burst_len=4, seed=4)
        data, config = prepared_dataset(records)
        params = init_params(config, data.codec.feature_dim, GC, Rng(5))
        latencies = []
        report = evaluate(params, data.test_graphs, data.vocab, data.labels,
                          config, GC, latencies=latencies)
        assert_same_report(report, evaluate(params, data.test_graphs,
                                            data.vocab, data.labels,
                                            config, GC))
        assert len(latencies) == sum(1 for g in data.test_graphs
                                     if g.target.num_flows)
        assert all(s > 0 for s in latencies)


GENERATED = {
    "temporal": lambda: temporal_pattern(n_windows=8, sources_per_window=3,
                                         burst_len=4, seed=4),
    "feature": lambda: feature_pattern(n_flows=60, seed=2),
    "topology": lambda: topology_pattern(n_windows=6, seed=5),
}


def assert_same_report(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


class TestNoTape:
    """Forward-only scoring records no tape and gives the taped results."""

    @pytest.mark.parametrize("generator", sorted(GENERATED))
    @pytest.mark.parametrize("aggregator", ["sum", "max"])
    def test_predictions_and_reports_equal_with_the_tape_on(
            self, monkeypatch, generator, aggregator):
        data, config = prepared_dataset(GENERATED[generator](),
                                        neighbor_aggregator=aggregator)
        params = init_params(config, data.codec.feature_dim, GC, Rng(6))
        prepared = [prepare_graph(g, GC, config.num_layers)
                    for g in data.test_graphs]
        tapes = []
        forward = training.forward_prepared

        def recording(arrays, p, cfg):
            flow_ids, logits = forward(arrays, p, cfg)
            tapes.append(logits._backward is not None)
            return flow_ids, logits

        monkeypatch.setattr(training, "forward_prepared", recording)
        preds = predict_flows(prepared, params, config)
        report = evaluate(params, data.test_graphs, data.vocab, data.labels,
                          config, GC)
        assert tapes and not any(tapes)
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        tapes.clear()
        assert predict_flows(prepared, params, config) == preds
        assert_same_report(evaluate(params, data.test_graphs, data.vocab,
                                    data.labels, config, GC), report)
        assert tapes and all(tapes)

    @pytest.mark.parametrize("aggregator", ["sum", "mean", "max"])
    def test_training_on_lazy_transposes_matches_eager_ones(self, monkeypatch,
                                                            aggregator):
        data, config = prepared_dataset(GENERATED["temporal"](),
                                        neighbor_aggregator=aggregator)

        def run():
            params = init_params(config, data.codec.feature_dim, GC, Rng(7))
            return train(data.train_graphs, data.val_graphs, data.labels,
                         params, TrainConfig(epochs=3, lr=0.01, seed=7),
                         config, GC)

        lazy = run()
        monkeypatch.setattr(training, "prepare_graph",
                            lambda *args: build_transposes(prepare_graph(*args)))
        eager = run()
        assert lazy.log == eager.log
        for name, p in lazy.params.items():
            assert np.array_equal(p.data, eager.params[name].data), name

    def test_evaluate_peak_is_below_half_of_the_taped_peak(self, monkeypatch):
        gc = GraphBuildConfig(window_size=5.0, window_memory=5)
        records = temporal_pattern(n_windows=8, sources_per_window=3,
                                   burst_len=10, seed=3)
        vocab = build_label_vocabulary(records)
        codec = fit_codec(records)
        graphs = build_temporal_graphs(records, gc, encode_flows(records, codec))
        labels = {r.flow_id: r.label for r in label_records(records, vocab)}
        config = small_model(num_classes=vocab.num_classes, hidden_size=32,
                             classifier_hidden=32)
        params = init_params(config, codec.feature_dim, gc, Rng(1))

        def traced_peak():
            tracemalloc.start()
            try:
                report = evaluate(params, graphs, vocab, labels, config, gc)
                return tracemalloc.get_traced_memory()[1], report
            finally:
                tracemalloc.stop()

        evaluate(params, graphs, vocab, labels, config, gc)   # imports scipy
        untaped, report = traced_peak()
        monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
        taped, taped_report = traced_peak()
        assert_same_report(report, taped_report)
        assert untaped < taped / 2, (untaped, taped)


class TestUndersampling:
    def make_data(self):
        records = temporal_pattern(n_windows=16, seed=8)
        vocab = build_label_vocabulary(records)
        return prepare_splits(records, vocab, GC, (1.0, 0.0, 0.0)), vocab

    def test_monotone_selection_across_fractions(self):
        data, vocab = self.make_data()
        order = undersample_order(data.train_graphs, data.labels,
                                  vocab.num_classes)
        prev: set = set()
        for fraction in (0.05, 0.1, 0.2, 0.5, 1.0):
            picked, _ = select_fraction(order, data.train_graphs, data.labels,
                                        vocab.num_classes, fraction)
            assert prev.issubset(set(picked))
            prev = set(picked)

    def test_proportions_within_tolerance_at_02(self):
        data, vocab = self.make_data()
        order = undersample_order(data.train_graphs, data.labels,
                                  vocab.num_classes)
        picked, notes = select_fraction(order, data.train_graphs, data.labels,
                                        vocab.num_classes, 0.2)
        assert not any("deviate" in n for n in notes)

    def test_every_class_kept_at_tiny_fraction(self):
        data, vocab = self.make_data()
        order = undersample_order(data.train_graphs, data.labels,
                                  vocab.num_classes)
        picked, _ = select_fraction(order, data.train_graphs, data.labels,
                                    vocab.num_classes, 0.01)
        counts = np.zeros(vocab.num_classes)
        for i in picked:
            for node in data.train_graphs[i].target.flow_nodes:
                label = data.labels.get(node.flow_id, UNLABELED)
                if label != UNLABELED:
                    counts[label] += 1
        assert (counts > 0).all()


class TestHarnesses:
    def test_ablation_emits_three_rows_on_shared_test_windows(self):
        records = temporal_pattern(n_windows=10, seed=9)
        data, config = prepared_dataset(records)
        results = ablation_suite(data, config, GC,
                                 TrainConfig(epochs=3, lr=0.01, seed=1),
                                 PretrainConfig(epochs=2, lr=0.0001,
                                                negative_ratio=1.0))
        assert [name for name, _ in results] == \
            ["spatial_only", "temporal", "pretrained"]
        supports = [tuple(c.support for c in r.per_class)
                    for _, r in results]
        assert supports[0] == supports[1] == supports[2]

    def test_fewshot_row_per_fraction_and_mode(self):
        records = temporal_pattern(n_windows=10, seed=10)
        data, config = prepared_dataset(records)
        plan = FewShotPlan(reference_score=0.9, fractions=(0.2, 0.5),
                           modes=("none",))
        rows = fewshot(plan, {"none": None}, data, config, GC,
                       TrainConfig(epochs=2, lr=0.01), seed=0)
        assert len(rows) == 2
        assert {r["fraction"] for r in rows} == {0.2, 0.5}
        for row in rows:
            assert row["pct_loss"] == pytest.approx(
                100 * (0.9 - row["macro_f1"]) / 0.9)

    def test_fewshot_requires_positive_reference_score(self):
        records = temporal_pattern(n_windows=10, seed=10)
        data, config = prepared_dataset(records)
        with pytest.raises(ValueError, match="positive reference score"):
            fewshot(FewShotPlan(modes=("none",)), {"none": None}, data,
                    config, GC, TrainConfig(epochs=1, lr=0.01))

    def test_training_duration_monotone_in_epochs(self):
        records = feature_pattern(n_flows=200, seed=12)
        data, config = prepared_dataset(records)
        seconds = []
        for epochs in (2, 12):
            params = init_params(config, data.codec.feature_dim, GC, Rng(0))
            result = train(data.train_graphs, None, data.labels, params,
                           TrainConfig(epochs=epochs, lr=0.01, seed=0),
                           config, GC)
            seconds.append(result.seconds)
        assert seconds[0] < seconds[1]

    def test_full_fraction_recovers_reference_configuration(self):
        records = temporal_pattern(n_windows=8, seed=11)
        data, config = prepared_dataset(records)
        order = undersample_order(data.train_graphs, data.labels,
                                  config.num_classes)
        picked, _ = select_fraction(order, data.train_graphs, data.labels,
                                    config.num_classes, 1.0)
        labeled = [i for i, g in enumerate(data.train_graphs)
                   if any(data.labels.get(n.flow_id, UNLABELED) != UNLABELED
                          for n in g.target.flow_nodes)]
        assert picked == labeled
