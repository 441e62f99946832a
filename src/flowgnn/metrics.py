"""Classification metrics: weighted and macro F1 (multiclass and binary),
per-class precision/recall/F1, and confusion matrices.

Conventions: classes are the full index range [0, num_classes); a class
never occurring in either labels or predictions contributes F1 = 0 to the
macro average and weight 0 to the weighted average. Confusion matrices are
rows = actual, columns = predicted; the normalized variant divides each
column by its sum (normalization over model predictions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import LabelVocabulary


@dataclass(frozen=True)
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    multiclass_weighted_f1: float
    multiclass_macro_f1: float
    binary_weighted_f1: float
    binary_macro_f1: float
    per_class: tuple[ClassMetrics, ...]
    confusion: np.ndarray
    confusion_normalized: np.ndarray
    train_seconds: float = 0.0


def confusion_matrix(y_true, y_pred, num_classes: int) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("label/prediction length mismatch")
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (y_true, y_pred), 1)
    return mat


def normalize_on_predictions(confusion: np.ndarray) -> np.ndarray:
    col_sums = confusion.sum(axis=0, keepdims=True).astype(np.float64)
    out = np.zeros_like(confusion, dtype=np.float64)
    np.divide(confusion, col_sums, out=out, where=col_sums > 0)
    return out


def precision_recall_f1(confusion: np.ndarray):
    tp = np.diag(confusion).astype(np.float64)
    predicted = confusion.sum(axis=0).astype(np.float64)
    actual = confusion.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, predicted, out=np.zeros_like(tp),
                          where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros_like(tp), where=actual > 0)
    denom = precision + recall
    f1 = np.divide(2 * precision * recall, denom,
                   out=np.zeros_like(tp), where=denom > 0)
    return precision, recall, f1


def f1_scores(y_true, y_pred, num_classes: int) -> tuple[float, float]:
    """(weighted F1, macro F1) over the class range [0, num_classes)."""
    confusion = confusion_matrix(y_true, y_pred, num_classes)
    _, _, f1 = precision_recall_f1(confusion)
    support = confusion.sum(axis=1).astype(np.float64)
    total = support.sum()
    weighted = float((f1 * support).sum() / total) if total > 0 else 0.0
    macro = float(f1.mean())
    return weighted, macro


def binarize(labels) -> np.ndarray:
    """Collapse all attack classes against class 0 (benign)."""
    return (np.asarray(labels, dtype=np.int64) != 0).astype(np.int64)


def build_report(y_true, y_pred, vocab: LabelVocabulary,
                 train_seconds: float = 0.0) -> MetricsReport:
    num_classes = vocab.num_classes
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    confusion = confusion_matrix(y_true, y_pred, num_classes)
    precision, recall, f1 = precision_recall_f1(confusion)
    support = confusion.sum(axis=1)
    mc_weighted, mc_macro = f1_scores(y_true, y_pred, num_classes)
    bin_weighted, bin_macro = f1_scores(binarize(y_true), binarize(y_pred), 2)
    per_class = tuple(
        ClassMetrics(vocab.name_of(c), float(precision[c]), float(recall[c]),
                     float(f1[c]), int(support[c]))
        for c in range(num_classes))
    return MetricsReport(
        multiclass_weighted_f1=mc_weighted,
        multiclass_macro_f1=mc_macro,
        binary_weighted_f1=bin_weighted,
        binary_macro_f1=bin_macro,
        per_class=per_class,
        confusion=confusion,
        confusion_normalized=normalize_on_predictions(confusion),
        train_seconds=train_seconds,
    )
