"""Canonical report files: metrics/confusion/few-shot CSV tables plus a
human-readable text summary.

Every value except wall-clock timing is deterministic for a fixed config
and seed, so reruns produce byte-identical files. Timing therefore lives in
separate ``*timing*.csv`` files that are excluded from the byte-identity
contract.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .ingest import LabelVocabulary
from .metrics import MetricsReport


def fmt(x: float) -> str:
    return f"{x:.12g}"


def run_id_for(resolved_config_text: str, seed: int) -> str:
    digest = hashlib.sha256(resolved_config_text.encode()).hexdigest()[:8]
    return f"{digest}-s{seed}"


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(report: MetricsReport, path: Path) -> None:
    rows = [
        ("multiclass_weighted_f1", "", fmt(report.multiclass_weighted_f1)),
        ("multiclass_macro_f1", "", fmt(report.multiclass_macro_f1)),
        ("binary_weighted_f1", "", fmt(report.binary_weighted_f1)),
        ("binary_macro_f1", "", fmt(report.binary_macro_f1)),
    ]
    for cm in report.per_class:
        rows.append(("precision", cm.name, fmt(cm.precision)))
        rows.append(("recall", cm.name, fmt(cm.recall)))
        rows.append(("f1", cm.name, fmt(cm.f1)))
        rows.append(("support", cm.name, str(cm.support)))
    _write_csv(path, ("metric", "class", "value"), rows)


def write_confusion_csv(report: MetricsReport, vocab: LabelVocabulary,
                        path: Path, normalized: bool = False) -> None:
    mat = report.confusion_normalized if normalized else report.confusion
    header = ["actual\\predicted"] + list(vocab.classes)
    rows = []
    for i, name in enumerate(vocab.classes):
        values = [fmt(v) if normalized else str(int(v)) for v in mat[i]]
        rows.append([name] + values)
    _write_csv(path, header, rows)


def write_timing_csv(entries: Mapping[str, float], path: Path) -> None:
    _write_csv(path, ("phase", "seconds"),
               [(k, f"{v:.6f}") for k, v in entries.items()])


def latency_entries(window_seconds: Sequence[float]) -> dict[str, float]:
    """p50, p95 and max of the per-window detection latency (none without
    a scored window), percentiles linearly interpolated."""
    if not window_seconds:
        return {}
    p50, p95 = np.percentile(window_seconds, [50, 95])
    return {"window_latency_p50": float(p50),
            "window_latency_p95": float(p95),
            "window_latency_max": max(window_seconds)}


def write_epoch_log_csv(log: Sequence[Mapping], path: Path) -> None:
    if not log:
        _write_csv(path, ("epoch",), [])
        return
    keys = list(log[0].keys())
    rows = [[fmt(e[k]) if isinstance(e[k], float) else str(e[k])
             for k in keys] for e in log]
    _write_csv(path, keys, rows)


def write_ablation_csv(results: Sequence[tuple[str, MetricsReport]],
                       path: Path) -> None:
    rows = [(name,
             fmt(r.multiclass_weighted_f1), fmt(r.multiclass_macro_f1),
             fmt(r.binary_weighted_f1), fmt(r.binary_macro_f1))
            for name, r in results]
    _write_csv(path, ("variant", "multiclass_weighted_f1",
                      "multiclass_macro_f1", "binary_weighted_f1",
                      "binary_macro_f1"), rows)


def write_fewshot_csv(rows: Sequence[Mapping], path: Path) -> None:
    table = [(fmt(r["fraction"]), r["mode"], fmt(r["macro_f1"]),
              fmt(r["pct_loss"]), str(r["windows"]), r["notes"])
             for r in rows]
    _write_csv(path, ("fraction", "mode", "macro_f1", "pct_loss",
                      "windows", "notes"), table)


def write_fewshot_timing_csv(rows: Sequence[Mapping], path: Path) -> None:
    table = [(fmt(r["fraction"]), r["mode"], f"{r['seconds']:.3f}")
             for r in rows]
    _write_csv(path, ("fraction", "mode", "seconds"), table)


def summary_text(report: MetricsReport, vocab: LabelVocabulary,
                 title: str) -> str:
    lines = [title, "=" * len(title), "",
             f"multiclass weighted F1: {fmt(report.multiclass_weighted_f1)}",
             f"multiclass macro F1:    {fmt(report.multiclass_macro_f1)}",
             f"binary weighted F1:     {fmt(report.binary_weighted_f1)}",
             f"binary macro F1:        {fmt(report.binary_macro_f1)}", "",
             f"{'class':<16}{'precision':>10}{'recall':>10}"
             f"{'f1':>10}{'support':>9}"]
    for cm in report.per_class:
        lines.append(f"{cm.name:<16}{cm.precision:>10.4f}{cm.recall:>10.4f}"
                     f"{cm.f1:>10.4f}{cm.support:>9d}")
    lines.append("")
    lines.append("confusion (rows=actual, cols=predicted):")
    header = " " * 16 + "".join(f"{name[:10]:>11}" for name in vocab.classes)
    lines.append(header)
    for i, name in enumerate(vocab.classes):
        cells = "".join(f"{int(v):>11d}" for v in report.confusion[i])
        lines.append(f"{name:<16}{cells}")
    return "\n".join(lines) + "\n"


def write_report_files(report: MetricsReport, vocab: LabelVocabulary,
                       path: Callable[[str, str], Path], title: str,
                       window_seconds: Sequence[float] = ()) -> dict:
    """Emit the full deterministic report set plus the timing side file,
    which also summarises the per-window detection latency of `evaluate`.
    `path(stem, suffix)` names each file, in an existing directory."""
    paths = {stem: path(stem, suffix) for stem, suffix in (
        ("metrics", ".csv"), ("confusion", ".csv"),
        ("confusion_normalized", ".csv"), ("summary", ".txt"),
        ("timing", ".csv"))}
    write_metrics_csv(report, paths["metrics"])
    write_confusion_csv(report, vocab, paths["confusion"], normalized=False)
    write_confusion_csv(report, vocab, paths["confusion_normalized"],
                        normalized=True)
    paths["summary"].write_text(summary_text(report, vocab, title),
                                encoding="utf-8")
    write_timing_csv({"train": report.train_seconds,
                      **latency_entries(window_seconds)},
                     paths["timing"])
    return paths
