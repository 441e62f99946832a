"""Command-line pipeline driver.

Subcommands: ingest, pretrain, train, finetune, evaluate, ablate, fewshot.
Configuration is a flat ``key = value`` file with section prefixes
(graph.window_size, train.lr, ...). Precedence: flag > file > PPT_SEED
(seed only) > default; the fully resolved config (with per-key provenance)
is echoed into every output directory. Exit codes: 0 success, 2
usage/config/file error or a diverging run, 3 checkpoint/codec
compatibility error, 4 empty data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .experiments import (ExperimentData, FewShotPlan, ablation_suite,
                          fewshot, prepare_splits)
from .ingest import (FeatureCodec, FormatError, NUMERIC_FEATURES,
                     build_label_vocabulary, label_records, load_flow_csv,
                     read_flow_cache, strip_labels, write_flow_cache,
                     LabelVocabulary, encode_flows, fit_codec)
from .model import (CompatibilityError, ModelConfig, build_metadata,
                    config_from_items, config_items, configs_from_metadata,
                    init_params, load_checkpoint, parse_config_text,
                    save_checkpoint)
from .pretrain import (PRETRAIN_MODES, PretrainConfig, PretrainCorpus,
                       pretrain, transfer_weights)
from .reports import (run_id_for, write_ablation_csv, write_epoch_log_csv,
                      write_fewshot_csv, write_fewshot_timing_csv,
                      write_report_files, write_timing_csv)
from .tensor import Rng
from .training import EmptyDataError, TrainConfig, evaluate, train
from .windows import GraphBuildConfig, build_temporal_graphs

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPAT = 3
EXIT_EMPTY = 4


@dataclass(frozen=True)
class FinetuneConfig:
    """The `finetune.*` keys: the `train.*` values fine-tuning replaces."""

    epochs: int = 50
    lr: float = 0.01

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


#: fields set from the data (class count) or the top-level `seed` key
#: rather than from a key of their own
_NOT_KEYS = ("model.num_classes", "train.seed")

DEFAULTS = {
    "seed": "0",
    **{key: value
       for prefix, cfg in (("graph", GraphBuildConfig()),
                           ("model", ModelConfig(num_classes=2)),
                           ("train", TrainConfig()),
                           ("pretrain", PretrainConfig()),
                           ("finetune", FinetuneConfig()),
                           ("fewshot", FewShotPlan()))
       for key, value in config_items(prefix, cfg).items()
       if key not in _NOT_KEYS},
}


def parse_kv_file(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: invalid UTF-8 in key-value file at "
                          f"offset {exc.start}") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        out[key.strip()] = value.strip()
    return out


#: keys the commands inject to record run identity; accepted from config
#: files (so an echoed config can be re-used) but always rebuilt from flags
RESERVED_PREFIXES = ("io.", "run.")
RESERVED_KEYS = {"pretrain.mode", "pretrain.target"}


@dataclass
class RunConfig:
    """A command's resolved config and the run identity fixed from it when
    the run opens: the seed, the run id (a digest of the resolved text plus
    the seed) and the output directory."""

    values: dict
    provenance: dict
    seed: int = field(init=False)
    run_id: str = field(init=False)
    out_dir: Path = field(init=False)

    def __post_init__(self):
        # parsed as an int config field and checked to be a 64-bit seed,
        # since `Rng` would alias any other value to one
        self.seed = parse_config_text("seed", self.values["seed"], int)
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        self.run_id = run_id_for(self.text(), self.seed)
        self.out_dir = Path(self.values["io.out_dir"])

    def text(self) -> str:
        """Resolved `key = value` lines; valid --config input for a rerun."""
        lines = [f"{k} = {self.values[k]}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def path(self, stem: str, suffix: str) -> Path:
        """The output file `<stem>-<run id><suffix>` of this run."""
        return self.out_dir / f"{stem}-{self.run_id}{suffix}"

    def echo(self) -> None:
        """Make the output directory and write the resolved config (reusable
        via --config) plus a provenance sidecar recording where each value
        came from (flag | file | env | default)."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.path("config", ".resolved").write_text(self.text(),
                                                    encoding="utf-8")
        self.path("provenance", ".txt").write_text(
            "".join(f"{k} = {self.provenance[k]}\n" for k in
                    sorted(self.values)), encoding="utf-8")

    def section(self, cls, prefix: str, **given):
        """The `cls` config of the `prefix.*` keys, `given` fields set."""
        return config_from_items(cls, prefix, self.values, **given)

    def train_config(self) -> TrainConfig:
        return self.section(TrainConfig, "train", seed=self.seed)

    def finetune_config(self) -> TrainConfig:
        """`train.*` with `finetune.epochs` and `finetune.lr` replaced in."""
        finetune = self.section(FinetuneConfig, "finetune")
        return replace(self.train_config(), epochs=finetune.epochs,
                       lr=finetune.lr)


def open_run(args, **own) -> RunConfig:
    """The config of the command `args` parsed to: defaults < PPT_SEED (seed
    only) < --config file < --set < --seed, then `io.out_dir`, `run.command`
    and the command's `own` identity keys, which only its flags set."""
    values = dict(DEFAULTS)
    provenance = dict.fromkeys(DEFAULTS, "default")

    def put(key, value, source):
        values[key] = value
        provenance[key] = source

    if args.config:
        for key, value in parse_kv_file(args.config).items():
            if key not in DEFAULTS and key not in RESERVED_KEYS \
                    and not key.startswith(RESERVED_PREFIXES):
                raise ValueError(f"unknown config key {key!r}")
            put(key, value, "file")
    env_seed = os.environ.get("PPT_SEED")
    if env_seed is not None and provenance["seed"] == "default":
        put("seed", env_seed, "env")
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects key=value, got {item!r}")
        if key.strip() not in DEFAULTS:
            raise ValueError(f"unknown config key {key.strip()!r}")
        put(key.strip(), value.strip(), "flag")
    if args.seed is not None:
        put("seed", str(args.seed), "flag")
    for key, value in {"io.out_dir": args.out_dir, "run.command": args.command,
                       **own}.items():
        put(key, value, "flag")
    return RunConfig(values, provenance)


def _labeled_splits(records, graph_config: GraphBuildConfig, split,
                    protocol_vocab=None) -> ExperimentData:
    """Records read from a cache, labelled by their own attack names and
    split chronologically into graph sequences."""
    vocab = build_label_vocabulary(records)
    return prepare_splits(label_records(records, vocab), vocab, graph_config,
                          split, protocol_vocab=protocol_vocab)


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args) -> int:
    schema = parse_kv_file(args.schema)
    result = load_flow_csv(args.input, schema)
    records = label_records(result.records,
                            build_label_vocabulary(result.records))
    write_flow_cache(records, args.out)
    for diag in result.diagnostics:
        print(f"reject: {diag}", file=sys.stderr)
    print(f"accepted {result.accepted} rejected {result.rejected} "
          f"-> {args.out}")
    return EXIT_OK


def _neutral_codec(protocol_vocab: tuple[int, ...]) -> FeatureCodec:
    n = len(NUMERIC_FEATURES)
    return FeatureCodec(NUMERIC_FEATURES, (0.0,) * n, (1.0,) * n,
                        tuple(protocol_vocab))


def _pretrain_from(config: RunConfig, mode: str, target: str | None,
                   datasets, model_config: ModelConfig,
                   graph_config: GraphBuildConfig, protocol_vocab):
    """Link-prediction pre-training with the `pretrain.*` keys and seed of
    `config` on the label-stripped graphs of `datasets`, (id, cache path,
    records) triples, each encoded by its own codec with the shared
    `protocol_vocab`.

    Returns (corpus, graph count, FitResult)."""
    pretrain_config = config.section(PretrainConfig, "pretrain")
    corpus = PretrainCorpus(tuple((ds, path) for ds, path, _ in datasets),
                            mode, target)
    graphs = []
    for _, _, records in datasets:
        recs = strip_labels(records)
        codec = replace(fit_codec(recs), protocol_vocab=protocol_vocab)
        graphs.extend(build_temporal_graphs(recs, graph_config,
                                            encode_flows(recs, codec)))
    result = pretrain(corpus, graphs, model_config, graph_config,
                      _neutral_codec(protocol_vocab).feature_dim,
                      **asdict(pretrain_config), seed=config.seed)
    return corpus, len(graphs), result


def cmd_pretrain(args) -> int:
    config = open_run(args, **{"io.caches": ",".join(args.cache),
                               "pretrain.mode": args.mode,
                               "pretrain.target": args.target_dataset or "-"})
    datasets = [(Path(p).stem, p, read_flow_cache(p)) for p in args.cache]
    protocol_vocab = tuple(sorted({r.protocol for _, _, recs in datasets
                                   for r in recs}))
    graph_config = config.section(GraphBuildConfig, "graph")
    model_config = config.section(ModelConfig, "model", num_classes=2)
    corpus, n_graphs, result = _pretrain_from(
        config, args.mode, args.target_dataset, datasets, model_config,
        graph_config, protocol_vocab)
    metadata = build_metadata(
        model_config, graph_config, _neutral_codec(protocol_vocab),
        LabelVocabulary(("Benign",)), extra={
            "checkpoint.kind": "pretrain",
            "pretrain.manifest": json.dumps(corpus.manifest_text())})
    config.echo()
    ckpt = config.path("checkpoint", ".pptg")
    save_checkpoint(result.params, metadata, ckpt)
    write_epoch_log_csv(result.log, config.path("pretrain_log", ".csv"))
    write_timing_csv({"pretrain": result.seconds},
                     config.path("timing", ".csv"))
    config.path("manifest", ".txt").write_text(corpus.manifest_text(),
                                               encoding="utf-8")
    final = result.log[-1]
    print(f"pretrained {n_graphs} graphs, final loss "
          f"{final['loss']:.4f} acc {final['accuracy']:.3f} -> {ckpt}")
    return EXIT_OK


def _report(config: RunConfig, report, vocab: LabelVocabulary,
            latencies: list[float], scope: str) -> int:
    paths = write_report_files(report, vocab, config.path,
                               f"evaluation ({config.run_id})", latencies)
    print(f"{scope}multiclass macro F1 {report.multiclass_macro_f1:.4f} "
          f"-> {paths['metrics']}")
    return EXIT_OK


def _train_and_report(config: RunConfig, data: ExperimentData, params,
                      model_config, graph_config, train_config,
                      extra_meta) -> int:
    result = train(data.train_graphs, data.val_graphs, data.labels, params,
                   train_config, model_config, graph_config)
    metadata = build_metadata(model_config, graph_config, data.codec,
                              data.vocab, extra=extra_meta)
    config.echo()
    ckpt = config.path("checkpoint", ".pptg")
    save_checkpoint(result.params, metadata, ckpt)
    write_epoch_log_csv(result.log, config.path("epochs", ".csv"))
    print(f"trained {train_config.epochs} epochs -> {ckpt}")
    latencies: list[float] = []
    try:
        report = evaluate(result.params, data.test_graphs, data.vocab,
                          data.labels, model_config, graph_config,
                          result.seconds, latencies)
    except EmptyDataError:
        write_timing_csv({"train": result.seconds},
                         config.path("timing", ".csv"))
        print("no labeled test flows; skipping evaluation")
        return EXIT_OK
    return _report(config, report, data.vocab, latencies, "test ")


def cmd_train(args) -> int:
    config = open_run(args, **{"io.cache": args.cache})
    graph_config = config.section(GraphBuildConfig, "graph")
    train_config = config.train_config()
    data = _labeled_splits(read_flow_cache(args.cache), graph_config,
                           train_config.split)
    model_config = config.section(ModelConfig, "model",
                                  num_classes=max(2, data.vocab.num_classes))
    params = init_params(model_config, data.codec.feature_dim, graph_config,
                         Rng(config.seed).child("train"))
    return _train_and_report(config, data, params, model_config, graph_config,
                             train_config, {"checkpoint.kind": "supervised",
                                            "provenance": "scratch"})


def cmd_finetune(args) -> int:
    config = open_run(args, **{"io.cache": args.cache,
                               "io.from_checkpoint": args.from_checkpoint})
    train_config = config.finetune_config()
    base_params, meta = load_checkpoint(args.from_checkpoint)
    base_model, graph_config, base_codec, _ = configs_from_metadata(meta)
    data = _labeled_splits(read_flow_cache(args.cache), graph_config,
                           train_config.split, base_codec.protocol_vocab)
    model_config = replace(base_model,
                           num_classes=max(2, data.vocab.num_classes))
    params = transfer_weights(base_params, model_config, graph_config,
                              data.codec.feature_dim,
                              Rng(config.seed).child("finetune"))
    provenance = meta.get("pretrain.manifest", json.dumps("scratch"))
    return _train_and_report(config, data, params, model_config, graph_config,
                             train_config, {"checkpoint.kind": "supervised",
                                            "provenance": provenance})


def cmd_evaluate(args) -> int:
    config = open_run(args, **{"io.cache": args.cache,
                               "io.checkpoint": args.checkpoint})
    params, meta = load_checkpoint(args.checkpoint)
    if meta.get("checkpoint.kind") != "supervised":
        raise CompatibilityError("checkpoint is not a supervised model")
    model_config, graph_config, codec, vocab = configs_from_metadata(meta)
    records = read_flow_cache(args.cache)
    try:
        records = label_records(records, vocab)
    except KeyError as exc:
        raise CompatibilityError(f"cache labels do not match checkpoint "
                                 f"vocabulary: {exc}") from exc
    graphs = build_temporal_graphs(records, graph_config,
                                   encode_flows(records, codec))
    labels = {r.flow_id: r.label for r in records}
    latencies: list[float] = []
    report = evaluate(params, graphs, vocab, labels, model_config,
                      graph_config, latencies=latencies)
    config.echo()
    return _report(config, report, vocab, latencies, "")


def cmd_ablate(args) -> int:
    config = open_run(args, **{"io.cache": args.cache})
    graph_config = config.section(GraphBuildConfig, "graph")
    train_config = config.train_config()
    data = _labeled_splits(read_flow_cache(args.cache), graph_config,
                           train_config.split)
    model_config = config.section(ModelConfig, "model",
                                  num_classes=max(2, data.vocab.num_classes))
    results = ablation_suite(data, model_config, graph_config, train_config,
                             config.section(PretrainConfig, "pretrain"))
    config.echo()
    write_ablation_csv(results, config.path("ablation", ".csv"))
    write_timing_csv({name: r.train_seconds for name, r in results},
                     config.path("timing", ".csv"))
    for name, report in results:
        print(f"{name}: multiclass macro F1 {report.multiclass_macro_f1:.4f}")
    return EXIT_OK


def cmd_fewshot(args) -> int:
    config = open_run(args, **{"io.cache": args.cache, "io.pretrain_caches":
                               ",".join(args.pretrain_cache)})
    graph_config = config.section(GraphBuildConfig, "graph")
    train_config = config.train_config()
    finetune_config = config.finetune_config()
    plan = config.section(FewShotPlan, "fewshot")

    records = read_flow_cache(args.cache)
    target = (Path(args.cache).stem, args.cache, records)
    ooc_datasets = [(Path(p).stem, p, read_flow_cache(p))
                    for p in args.pretrain_cache]
    if "out-of-context" in plan.modes and not ooc_datasets:
        raise ValueError("out-of-context mode requires --pretrain-cache")
    protocol_vocab = tuple(sorted({r.protocol for _, _, recs in
                                   [target, *ooc_datasets] for r in recs}))
    data = _labeled_splits(records, graph_config, train_config.split,
                           protocol_vocab)
    model_config = config.section(ModelConfig, "model",
                                  num_classes=max(2, data.vocab.num_classes))

    # in-context: the target network's own unlabeled traffic
    corpora = {"in-context": [target], "out-of-context": ooc_datasets}
    bases: dict[str, dict | None] = {"none": None}
    for mode, datasets in corpora.items():
        if mode in plan.modes:
            bases[mode] = _pretrain_from(config, mode, target[0], datasets,
                                         model_config, graph_config,
                                         protocol_vocab)[2].params

    if plan.reference_score == 0:
        params = init_params(model_config, data.codec.feature_dim,
                             graph_config, Rng(config.seed).child("reference"))
        result = train(data.train_graphs, data.val_graphs, data.labels,
                       params, train_config, model_config, graph_config)
        reference = evaluate(result.params, data.test_graphs, data.vocab,
                             data.labels, model_config,
                             graph_config).multiclass_macro_f1
        print(f"computed reference macro F1 {reference:.4f} from scratch run")
        plan = replace(plan, reference_score=reference)

    rows = fewshot(plan, bases, data, model_config, graph_config,
                   finetune_config, config.seed)
    config.echo()
    write_fewshot_csv(rows, config.path("fewshot", ".csv"))
    write_fewshot_timing_csv(rows, config.path("fewshot_timing", ".csv"))
    for row in rows:
        print(f"fraction {row['fraction']:<5} mode {row['mode']:<15} "
              f"macro F1 {row['macro_f1']:.4f} loss {row['pct_loss']:.1f}%")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowgnn",
        description="Sliding-window flow-graph GNN pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func):
        p.add_argument("--out-dir", required=True)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="seed (overrides config and PPT_SEED)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key")
        p.set_defaults(func=func)

    p = sub.add_parser("ingest", help="CSV -> binary flow cache")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", required=True,
                   help="field = column mapping file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pretrain", help="self-supervised link prediction")
    p.add_argument("--cache", action="append", required=True)
    p.add_argument("--mode", choices=PRETRAIN_MODES, default="in-context")
    p.add_argument("--target-dataset", default=None)
    common(p, cmd_pretrain)

    p = sub.add_parser("train", help="supervised training from scratch")
    p.add_argument("--cache", required=True)
    common(p, cmd_train)

    p = sub.add_parser("finetune", help="fine-tune from a checkpoint")
    p.add_argument("--from-checkpoint", required=True)
    p.add_argument("--cache", required=True)
    common(p, cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a cache")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache", required=True)
    common(p, cmd_evaluate)

    p = sub.add_parser("ablate", help="spatial-only / temporal / pretrained")
    p.add_argument("--cache", required=True)
    common(p, cmd_ablate)

    p = sub.add_parser("fewshot", help="few-shot fine-tuning protocol")
    p.add_argument("--cache", required=True)
    p.add_argument("--pretrain-cache", action="append", default=[],
                   help="out-of-context corpus cache (repeatable)")
    common(p, cmd_fewshot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_COMPAT if isinstance(exc, CompatibilityError) else
                EXIT_EMPTY if isinstance(exc, EmptyDataError) else EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
