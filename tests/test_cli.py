import re
import struct
from pathlib import Path

import pytest

from conftest import mk_flow, records_to_csv, write_schema
from flowgnn import experiments
from flowgnn.cli import DEFAULTS, main, parse_kv_file
from flowgnn.ingest import (build_label_vocabulary, fit_codec, read_flow_cache,
                            write_flow_cache)
from flowgnn.model import (ModelConfig, build_metadata, init_params,
                           load_checkpoint, save_checkpoint)
from flowgnn.reports import run_id_for
from flowgnn.synth import temporal_pattern
from flowgnn.tensor import Rng
from flowgnn.windows import GraphBuildConfig

FAST = [
    "--set", "model.hidden_size=8",
    "--set", "model.classifier_hidden=8",
    "--set", "train.epochs=2",
    "--set", "pretrain.epochs=1",
    "--set", "finetune.epochs=2",
    "--set", "graph.window_memory=2",
]


@pytest.fixture()
def cache(tmp_path):
    records = temporal_pattern(n_windows=8, seed=1)
    csv_path = records_to_csv(records, tmp_path / "flows.csv")
    schema = write_schema(tmp_path / "schema.txt")
    out = tmp_path / "flows.pptf"
    code = main(["ingest", "--input", str(csv_path), "--schema", str(schema),
                 "--out", str(out)])
    assert code == 0
    return out


def write_scratch_checkpoint(cache, path, edit_metadata):
    """An untrained supervised checkpoint matching `cache`, its metadata
    passed through `edit_metadata` before saving."""
    records = read_flow_cache(cache)
    vocab = build_label_vocabulary(records)
    codec = fit_codec(records)
    model_config = ModelConfig(num_classes=max(2, vocab.num_classes),
                               hidden_size=8, classifier_hidden=8)
    graph_config = GraphBuildConfig(window_memory=2)
    params = init_params(model_config, codec.feature_dim, graph_config, Rng(0))
    metadata = build_metadata(model_config, graph_config, codec, vocab,
                              extra={"checkpoint.kind": "supervised"})
    edit_metadata(metadata)
    save_checkpoint(params, metadata, path)
    return path


def assert_run_identity(out_dir, command, own):
    """The run's resolved config adds exactly `io.out_dir`, `run.command`
    and the command's `own` keys to the config keys, and every output file
    name ends in the run id of that config text and seed."""
    resolved = next(out_dir.glob("config-*.resolved"))
    values = parse_kv_file(resolved)
    assert {k: v for k, v in values.items() if k not in DEFAULTS} == {
        "io.out_dir": str(out_dir), "run.command": command, **own}
    run_id = run_id_for(resolved.read_text(encoding="utf-8"),
                        int(values["seed"]))
    for path in out_dir.iterdir():
        assert path.stem.endswith(f"-{run_id}"), path.name


class TestIngest:
    def test_valid_csv_exit_zero_counts_printed(self, tmp_path, capsys):
        records = temporal_pattern(n_windows=3, seed=2)
        csv_path = records_to_csv(records, tmp_path / "f.csv")
        schema = write_schema(tmp_path / "s.txt")
        code = main(["ingest", "--input", str(csv_path), "--schema",
                     str(schema), "--out", str(tmp_path / "f.pptf")])
        assert code == 0
        out = capsys.readouterr().out
        assert f"accepted {len(records)}" in out and "rejected 0" in out

    def test_missing_column_exit_two_names_column(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("start,end\n0,1\n", encoding="utf-8")
        schema = write_schema(tmp_path / "s.txt")
        code = main(["ingest", "--input", str(tmp_path / "bad.csv"),
                     "--schema", str(schema), "--out",
                     str(tmp_path / "x.pptf")])
        assert code == 2
        assert "src" in capsys.readouterr().err

    def test_unrepresentable_values_rejected_per_row(self, tmp_path, capsys):
        header = "id,start,end,src,dst,sport,dport,proto,ib,ob,ip,op,flags,label"
        good = "1000,80,6,100,50,3,2,18"
        rows = [f"1,0.0,1.0,a,b,{good},0",
                f"2,0.0,nan,a,b,{good},0",
                f"3,0.0,inf,a,b,{good},0",
                f"-4,0.0,1.0,a,b,{good},0",
                f"5,0.0,1.0,a,b,1000,80,6,{2 ** 63},50,3,2,18,0",
                f"6,0.0,1.0,a,b,{good},{2 ** 31}",
                f"7,0.0,1.0,{'a' * 70000},b,{good},0"]
        csv_path = tmp_path / "f.csv"
        csv_path.write_text("\n".join([header] + rows) + "\n")
        schema = tmp_path / "s.txt"
        schema.write_text("\n".join(
            f"{field} = {column}" for field, column in zip(
                ("flow_id", "start_time", "end_time", "src_ip", "dst_ip",
                 "src_port", "dst_port", "protocol", "in_bytes", "out_bytes",
                 "in_pkts", "out_pkts", "tcp_flags", "label"),
                header.split(","))) + "\n")
        out = tmp_path / "f.pptf"
        code = main(["ingest", "--input", str(csv_path), "--schema",
                     str(schema), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "accepted 1 rejected 6" in captured.out
        for line in range(3, 9):
            assert f"reject: line {line}:" in captured.err
        assert [r.flow_id for r in read_flow_cache(out)] == [1]

    def test_short_row_rejected_per_row(self, tmp_path, capsys):
        records = temporal_pattern(n_windows=3, seed=2)
        csv_path = records_to_csv(records, tmp_path / "f.csv")
        lines = csv_path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:5])
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["ingest", "--input", str(csv_path), "--schema",
                     str(write_schema(tmp_path / "s.txt")), "--out",
                     str(tmp_path / "f.pptf")])
        captured = capsys.readouterr()
        assert code == 0
        assert f"accepted {len(records) - 1} rejected 1" in captured.out
        assert "reject: line 4: short row (5 cells)" in captured.err

    @pytest.mark.parametrize("fault", ["oversized-cell", "invalid-utf8"])
    def test_unreadable_csv_exit_two_names_file(self, tmp_path, capsys, fault):
        records = temporal_pattern(n_windows=3, seed=2)
        csv_path = records_to_csv(records, tmp_path / "f.csv")
        raw = csv_path.read_bytes()
        at = raw.index(b"\n", raw.index(b"\n") + 1) + 1  # line 3 starts here
        raw = raw[:at] + (b"x" * 200_000 + b"," if fault == "oversized-cell"
                          else b"\xff") + raw[at:]
        csv_path.write_bytes(raw)
        code = main(["ingest", "--input", str(csv_path), "--schema",
                     str(write_schema(tmp_path / "s.txt")), "--out",
                     str(tmp_path / "f.pptf")])
        assert code == 2
        assert (f"{csv_path}: line 3: field larger than field limit"
                if fault == "oversized-cell" else
                f"{csv_path}: invalid UTF-8 in flow CSV at offset {at}") \
            in capsys.readouterr().err
        assert not (tmp_path / "f.pptf").exists()

    def test_reingest_byte_identical(self, tmp_path):
        records = temporal_pattern(n_windows=3, seed=3)
        csv_path = records_to_csv(records, tmp_path / "f.csv")
        schema = write_schema(tmp_path / "s.txt")
        a, b = tmp_path / "a.pptf", tmp_path / "b.pptf"
        assert main(["ingest", "--input", str(csv_path), "--schema",
                     str(schema), "--out", str(a)]) == 0
        assert main(["ingest", "--input", str(csv_path), "--schema",
                     str(schema), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_train_writes_checkpoint_and_reports(self, tmp_path, cache):
        out_dir = tmp_path / "run"
        code = main(["train", "--cache", str(cache), "--out-dir",
                     str(out_dir), "--seed", "3", *FAST])
        assert code == 0
        files = {p.name.split("-")[0] for p in out_dir.iterdir()}
        assert {"checkpoint", "metrics", "confusion", "summary", "config",
                "epochs", "timing"} <= files
        assert_run_identity(out_dir, "train", {"io.cache": str(cache)})

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    def test_diverging_run_exit_two_writes_nothing(self, tmp_path, cache,
                                                   capsys, command):
        out_dir = tmp_path / "run"
        assert main([command, "--cache", str(cache), "--out-dir",
                     str(out_dir), *FAST, "--set", f"{command}.lr=1e300"]) \
            == 2
        err = capsys.readouterr().err
        assert re.search(r"error: training diverged: loss \S+ at epoch 0, "
                         r"step \d+; lower the learning rate", err)
        assert not out_dir.exists()

    def test_rerun_byte_identical_checkpoints_and_reports(self, tmp_path,
                                                          cache):
        out_dir = tmp_path / "run"
        args = ["train", "--cache", str(cache), "--out-dir", str(out_dir),
                "--seed", "7", *FAST]

        def snapshot():
            return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                    if "timing" not in p.name}

        assert main(args) == 0
        first = snapshot()
        assert main(args) == 0
        second = snapshot()
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_seed_env_fallback(self, tmp_path, cache, monkeypatch):
        out_dir = tmp_path / "env"
        monkeypatch.setenv("PPT_SEED", "11")
        assert main(["train", "--cache", str(cache), "--out-dir",
                     str(out_dir), *FAST]) == 0
        config = next(out_dir.glob("config-*.resolved")).read_text()
        assert "seed = 11" in config
        provenance = next(out_dir.glob("provenance-*.txt")).read_text()
        assert "seed = env" in provenance

    def test_rerun_from_echoed_config_reproduces_outputs(self, tmp_path,
                                                         cache):
        out_dir = tmp_path / "echo"
        assert main(["train", "--cache", str(cache), "--out-dir",
                     str(out_dir), "--seed", "4", *FAST]) == 0
        echoed = next(out_dir.glob("config-*.resolved"))
        first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                 if "timing" not in p.name and "provenance" not in p.name}
        # rerun with the echoed file instead of --set/--seed flags
        assert main(["train", "--cache", str(cache), "--out-dir",
                     str(out_dir), "--config", str(echoed)]) == 0
        second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
                  if "timing" not in p.name and "provenance" not in p.name}
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name


class TestConfigResolution:
    def test_flag_overrides_file_overrides_default(self, tmp_path, cache):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.epochs = 3\ntrain.lr = 0.002\n",
                       encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(["train", "--cache", str(cache), "--out-dir",
                     str(out_dir), "--config", str(cfg), "--seed", "1",
                     "--set", "train.lr=0.004",
                     "--set", "model.hidden_size=8",
                     "--set", "model.classifier_hidden=8",
                     "--set", "graph.window_memory=2"])
        assert code == 0
        text = next(out_dir.glob("config-*.resolved")).read_text()
        assert "train.epochs = 3" in text
        assert "train.lr = 0.004" in text
        assert "train.batch_size = 1" in text
        provenance = next(out_dir.glob("provenance-*.txt")).read_text()
        assert "train.epochs = file" in provenance
        assert "train.lr = flag" in provenance
        assert "train.batch_size = default" in provenance
        assert "finetune.lr = default" in provenance
        assert "finetune.lr = 0.01" in text

    @pytest.mark.parametrize("command,setting", [
        pytest.param("train", "nope.key=1", id="unknown-key"),
        pytest.param("train", "train.split=0.5,0.5", id="short-split"),
        pytest.param("train", "train.batch_size=x", id="non-integer"),
        pytest.param("train", "model.neighbor_aggregator=median",
                     id="bad-choice"),
        pytest.param("train", "model.num_layers=x", id="non-integer-model"),
        pytest.param("train", "train.lr=nan", id="nan-float"),
        pytest.param("train", "train.lr=-inf", id="infinite-float"),
        pytest.param("train", "graph.window_size=nan", id="nan-window"),
        pytest.param("train", "train.split=nan,0.5,0.5", id="nan-tuple-item"),
        pytest.param("pretrain", "pretrain.epochs=0", id="pretrain-epochs"),
        pytest.param("ablate", "pretrain.epochs=0", id="ablate-epochs"),
        pytest.param("pretrain", "pretrain.negative_ratio=inf",
                     id="infinite-ratio"),
        pytest.param("pretrain", "pretrain.negative_ratio=-1",
                     id="negative-ratio"),
        pytest.param("pretrain", "pretrain.lr=-1", id="negative-lr"),
        pytest.param("fewshot", "finetune.epochs=0", id="finetune-epochs"),
        pytest.param("fewshot", "fewshot.reference_score=-1",
                     id="negative-reference"),
        pytest.param("fewshot", "fewshot.fractions=abc", id="non-float-tuple"),
        pytest.param("fewshot", "fewshot.modes=bogus", id="bad-mode"),
    ])
    def test_bad_config_exit_two(self, tmp_path, cache, capsys, command,
                                 setting):
        assert main([command, "--cache", str(cache), "--out-dir",
                     str(tmp_path / "o"), "--set", setting]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        key = setting.partition("=")[0]
        assert any(line.startswith("error:") and key in line
                   for line in err.splitlines())

    @pytest.mark.parametrize("flags,env", [
        pytest.param(["--set", "seed=abc"], None, id="non-integer-set"),
        pytest.param([], "x", id="non-integer-env"),
        pytest.param(["--seed", "-1"], None, id="negative-flag"),
        pytest.param(["--set", f"seed={2 ** 64}"], None, id="beyond-64-bits"),
    ])
    def test_bad_seed_exit_two(self, tmp_path, cache, capsys, monkeypatch,
                               flags, env):
        if env is not None:
            monkeypatch.setenv("PPT_SEED", env)
        out_dir = tmp_path / "o"
        assert main(["train", "--cache", str(cache), "--out-dir",
                     str(out_dir), *flags]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert any(line.startswith("error: seed must be")
                   for line in err.splitlines())
        assert not out_dir.exists()

    def test_readme_table_lists_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md") \
            .read_text(encoding="utf-8")
        section = readme.split("## Configuration")[1].split("\n## ")[0]
        table = {}
        for row in section.splitlines():
            cells = row.split("|")
            if len(cells) == 5 and cells[1].strip().startswith("`"):
                table.update(zip(re.findall(r"`([^`]+)`", cells[1]),
                                 re.findall(r"`([^`]*)`", cells[2])))
        assert table == {k: v for k, v in DEFAULTS.items() if k != "seed"}

    def test_unknown_flag_exits_with_usage(self, cache, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--cache", str(cache), "--bogus-flag", "x"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


class TestFinetuneEvaluate:
    def test_finetune_requires_checkpoint_flag(self, cache, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["finetune", "--cache", str(cache), "--out-dir", "/tmp/x"])
        assert exc.value.code == 2

    def test_pretrain_then_finetune_then_evaluate(self, tmp_path, cache):
        pre_dir = tmp_path / "pre"
        assert main(["pretrain", "--cache", str(cache), "--out-dir",
                     str(pre_dir), "--mode", "in-context", "--seed", "1",
                     *FAST]) == 0
        ckpt = next(pre_dir.glob("checkpoint-*.pptg"))
        fine_dir = tmp_path / "fine"
        assert main(["finetune", "--from-checkpoint", str(ckpt), "--cache",
                     str(cache), "--out-dir", str(fine_dir), "--seed", "1",
                     *FAST]) == 0
        fine_ckpt = next(fine_dir.glob("checkpoint-*.pptg"))
        eval_dir = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint", str(fine_ckpt), "--cache",
                     str(cache), "--out-dir", str(eval_dir)]) == 0
        assert next(eval_dir.glob("metrics-*.csv")).exists()
        assert_run_identity(pre_dir, "pretrain", {
            "io.caches": str(cache), "pretrain.mode": "in-context",
            "pretrain.target": "-"})
        assert_run_identity(fine_dir, "finetune", {
            "io.cache": str(cache), "io.from_checkpoint": str(ckpt)})
        assert_run_identity(eval_dir, "evaluate", {
            "io.cache": str(cache), "io.checkpoint": str(fine_ckpt)})

    def test_evaluate_timing_holds_window_latency(self, tmp_path, cache):
        train_dir = tmp_path / "t"
        assert main(["train", "--cache", str(cache), "--out-dir",
                     str(train_dir), "--seed", "2", *FAST]) == 0
        ckpt = next(train_dir.glob("checkpoint-*.pptg"))
        eval_dir = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--cache",
                     str(cache), "--out-dir", str(eval_dir)]) == 0
        for run_dir in (train_dir, eval_dir):
            lines = next(run_dir.glob("timing-*.csv")).read_text().split()
            rows = dict(line.split(",") for line in lines[1:])
            assert list(rows) == ["train", "window_latency_p50",
                                  "window_latency_p95", "window_latency_max"]
            p50, p95, most = (float(rows[f"window_latency_{k}"])
                              for k in ("p50", "p95", "max"))
            assert 0 < p50 <= p95 <= most

    def test_evaluate_unlabeled_cache_exit_four(self, tmp_path, cache,
                                                capsys):
        train_dir = tmp_path / "t"
        assert main(["train", "--cache", str(cache), "--out-dir",
                     str(train_dir), "--seed", "2", *FAST]) == 0
        ckpt = next(train_dir.glob("checkpoint-*.pptg"))
        from conftest import mk_flow, sort_flows
        from flowgnn.ingest import write_flow_cache
        unlabeled = sort_flows([mk_flow(i, i * 0.5, i * 0.5 + 0.1)
                                for i in range(4)])
        bare = tmp_path / "bare.pptf"
        write_flow_cache(unlabeled, bare)
        code = main(["evaluate", "--checkpoint", str(ckpt), "--cache",
                     str(bare), "--out-dir", str(tmp_path / "e")])
        assert code == 4
        assert "no target flows" in capsys.readouterr().err

    @pytest.mark.parametrize("spoiled,kind", [("cache", "flow cache"),
                                              ("checkpoint", "checkpoint")])
    def test_truncated_binary_input_exit_two(self, tmp_path, cache, capsys,
                                             spoiled, kind):
        # a FormatError is a ValueError: a malformed file is a usage error
        ckpt = write_scratch_checkpoint(cache, tmp_path / "ok.pptg",
                                        lambda meta: None)
        path = cache if spoiled == "cache" else ckpt
        path.write_bytes(path.read_bytes()[:-1])
        code = main(["evaluate", "--checkpoint", str(ckpt), "--cache",
                     str(cache), "--out-dir", str(tmp_path / "e")])
        assert code == 2
        assert f"truncated {kind}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_evaluate_non_finite_tensor_exit_three(self, tmp_path, cache,
                                                   capsys, value):
        ckpt = write_scratch_checkpoint(cache, tmp_path / "ok.pptg",
                                        lambda meta: None)
        last = sorted(load_checkpoint(ckpt)[0])[-1]
        # the payload of the last tensor in name order ends the file
        ckpt.write_bytes(ckpt.read_bytes()[:-8] + struct.pack("<d", value))
        out_dir = tmp_path / "e"
        code = main(["evaluate", "--checkpoint", str(ckpt), "--cache",
                     str(cache), "--out-dir", str(out_dir)])
        assert code == 3
        assert f"error: {ckpt}: tensor {last!r} holds non-finite values" \
            in capsys.readouterr().err
        assert not out_dir.exists()

    def test_pretrain_log_reports_shortfall(self, tmp_path):
        # one flow from a to a: every spatial block is complete, so none of
        # the four spatial negatives exists and shortfall per scored edge is 1
        one = tmp_path / "one.pptf"
        write_flow_cache([mk_flow(0, 0.0, 0.1, src="a", dst="a")], one)
        assert main(["pretrain", "--cache", str(one), "--out-dir",
                     str(tmp_path / "pre"), "--mode", "in-context",
                     *FAST]) == 0
        log = next((tmp_path / "pre").glob("pretrain_log-*.csv"))
        header, row = log.read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["shortfall"] == "1"

    def test_evaluate_rejects_pretrain_checkpoint(self, tmp_path, cache):
        pre_dir = tmp_path / "pre2"
        assert main(["pretrain", "--cache", str(cache), "--out-dir",
                     str(pre_dir), "--seed", "1", *FAST]) == 0
        ckpt = next(pre_dir.glob("checkpoint-*.pptg"))
        code = main(["evaluate", "--checkpoint", str(ckpt), "--cache",
                     str(cache), "--out-dir", str(tmp_path / "e2")])
        assert code == 3

    @pytest.mark.parametrize("key", ["model.num_layers", "graph.flow_memory",
                                     "codec.json", "codec.hash",
                                     "vocab.classes"])
    def test_evaluate_missing_metadata_key_exit_three(self, tmp_path, cache,
                                                      capsys, key):
        ckpt = write_scratch_checkpoint(cache, tmp_path / "old.pptg",
                                        lambda meta: meta.pop(key))
        code = main(["evaluate", "--checkpoint", str(ckpt), "--cache",
                     str(cache), "--out-dir", str(tmp_path / "e")])
        assert code == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        pytest.param("model.num_layers", "x", id="model.num_layers"),
        pytest.param("graph.window_size", "x", id="graph.window_size"),
        pytest.param("graph.window_size", "nan", id="graph.window_size-nan"),
        pytest.param("codec.json", "{}", id="codec.json-empty"),
        pytest.param("codec.json", "{", id="codec.json-invalid"),
        pytest.param("vocab.classes", "[", id="vocab.classes-invalid"),
        pytest.param("vocab.classes", "[]", id="vocab.classes-empty"),
    ])
    def test_evaluate_malformed_metadata_value_exit_three(self, tmp_path, cache,
                                                          capsys, key, value):
        ckpt = write_scratch_checkpoint(cache, tmp_path / "bad.pptg",
                                        lambda meta: meta.update({key: value}))
        code = main(["evaluate", "--checkpoint", str(ckpt), "--cache",
                     str(cache), "--out-dir", str(tmp_path / "e")])
        assert code == 3
        assert key in capsys.readouterr().err

    def test_evaluate_ignores_removed_edge_type_aggregator_key(self, tmp_path,
                                                               cache):
        ckpt = write_scratch_checkpoint(
            cache, tmp_path / "old.pptg",
            lambda meta: meta.update({"model.edge_type_aggregator": "sum"}))
        assert main(["evaluate", "--checkpoint", str(ckpt), "--cache",
                     str(cache), "--out-dir", str(tmp_path / "e")]) == 0


class TestHarnessCommands:
    def test_ablate_emits_three_variant_rows(self, tmp_path, cache):
        out_dir = tmp_path / "abl"
        assert main(["ablate", "--cache", str(cache), "--out-dir",
                     str(out_dir), "--seed", "1", *FAST]) == 0
        rows = next(out_dir.glob("ablation-*.csv")).read_text().splitlines()
        assert len(rows) == 4  # header + 3 variants
        assert rows[1].startswith("spatial_only,")
        assert rows[2].startswith("temporal,")
        assert rows[3].startswith("pretrained,")
        assert_run_identity(out_dir, "ablate", {"io.cache": str(cache)})

    def test_ablate_passes_negative_ratio(self, tmp_path, cache,
                                          monkeypatch):
        real_pretrain = experiments.pretrain
        ratios = []

        def recording_pretrain(*args, **kwargs):
            ratios.append(kwargs.get("negative_ratio"))
            return real_pretrain(*args, **kwargs)

        monkeypatch.setattr(experiments, "pretrain", recording_pretrain)
        assert main(["ablate", "--cache", str(cache), "--out-dir",
                     str(tmp_path / "abl"), "--seed", "1", *FAST,
                     "--set", "pretrain.negative_ratio=2"]) == 0
        assert ratios == [2.0]

    def test_fewshot_row_per_fraction_mode(self, tmp_path, cache):
        out_dir = tmp_path / "fs"
        code = main(["fewshot", "--cache", str(cache), "--out-dir",
                     str(out_dir), "--seed", "1", *FAST,
                     "--set", "fewshot.fractions=0.3,0.6",
                     "--set", "fewshot.modes=in-context,none",
                     "--set", "fewshot.reference_score=0.9"])
        assert code == 0
        rows = next(out_dir.glob("fewshot-*.csv")).read_text().splitlines()
        assert len(rows) == 1 + 2 * 2
        timing = next(out_dir.glob("fewshot_timing-*.csv")) \
            .read_text().splitlines()
        assert len(timing) == len(rows)
        assert_run_identity(out_dir, "fewshot", {"io.cache": str(cache),
                                                 "io.pretrain_caches": ""})

    def test_fewshot_fine_tunes_with_train_batch_size(self, tmp_path, cache,
                                                      monkeypatch):
        real_train = experiments.train
        batch_sizes = []

        def recording_train(*args, **kwargs):
            batch_sizes.append(args[4].batch_size)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(experiments, "train", recording_train)
        assert main(["fewshot", "--cache", str(cache), "--out-dir",
                     str(tmp_path / "fs"), "--seed", "1", *FAST,
                     "--set", "fewshot.fractions=0.3,0.6",
                     "--set", "fewshot.modes=none",
                     "--set", "fewshot.reference_score=0.9",
                     "--set", "train.batch_size=2"]) == 0
        assert batch_sizes == [2, 2]

    def test_fewshot_out_of_context_requires_corpus(self, tmp_path, cache):
        code = main(["fewshot", "--cache", str(cache), "--out-dir",
                     str(tmp_path / "x"), *FAST,
                     "--set", "fewshot.modes=out-of-context"])
        assert code == 2


class TestUnreadableFiles:
    @pytest.mark.parametrize("command,option", [("ingest", "--input"),
                                                ("train", "--cache"),
                                                ("evaluate", "--checkpoint")])
    def test_directory_for_file_exit_two_names_it(self, tmp_path, cache,
                                                  capsys, command, option):
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = {"ingest": ["--schema", str(write_schema(tmp_path / "s.txt")),
                           "--out", str(tmp_path / "x.pptf")],
                "train": ["--out-dir", str(tmp_path / "o")],
                "evaluate": ["--cache", str(cache),
                             "--out-dir", str(tmp_path / "o")]}[command]
        assert main([command, option, str(folder), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err
        assert not (tmp_path / "o").exists()
        assert not (tmp_path / "x.pptf").exists()

    @pytest.mark.parametrize("option", ["--schema", "--config"])
    def test_invalid_utf8_key_value_file_exit_two_names_file(
            self, tmp_path, cache, capsys, option):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"flow_id = id\xff\n")
        if option == "--schema":
            csv_path = records_to_csv(temporal_pattern(n_windows=1, seed=2),
                                      tmp_path / "f.csv")
            argv = ["ingest", "--input", str(csv_path), "--schema", str(bad),
                    "--out", str(tmp_path / "x.pptf")]
        else:
            argv = ["train", "--cache", str(cache), "--config", str(bad),
                    "--out-dir", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"error: {bad}: invalid UTF-8 in key-value file at offset 12" \
            in capsys.readouterr().err
