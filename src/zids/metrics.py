"""Confusion matrices and per-class classification reports.

Scores are computed in float64 from exact integer counts; text rendering
rounds half-to-even to four decimals. A ClassificationReport has the
fields and nesting of report.json, which is its dataclasses.asdict.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from ._atomic import csv_bytes
from .errors import (
    EmptyMatrixError,
    LabelOutOfRangeError,
    MalformedReportError,
    ShapeMismatchError,
)

# Precision of a class the model never predicts: 0/0, reported as 1.0, as
# such rows usually are for models that simply ignore a class. The class's
# recall is 0 all the same, so its F1 is 0.
EMPTY_PREDICTION_PRECISION = 1.0


@dataclass
class ConfusionMatrix:
    """m[i][j] counts true class i predicted as class j."""

    m: np.ndarray
    class_names: list[str]

    @property
    def k(self) -> int:
        return self.m.shape[0]

    @property
    def total(self) -> int:
        return int(self.m.sum())


@dataclass
class ClassScores:
    name: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class AverageScores:
    precision: float
    recall: float
    f1: float


@dataclass
class ClassificationReport:
    classes: list[ClassScores]
    accuracy: float
    macro_avg: AverageScores
    weighted_avg: AverageScores
    total_support: int


def confusion(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    k: int,
    class_names: Optional[Sequence[str]] = None,
) -> ConfusionMatrix:
    """Exact K x K count matrix from parallel label vectors."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ShapeMismatchError(
            f"label vectors disagree: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size and (
        y_true.min() < 0 or y_true.max() >= k or y_pred.min() < 0 or y_pred.max() >= k
    ):
        raise LabelOutOfRangeError(f"labels must lie in 0..{k - 1}")
    m = np.bincount(y_true * k + y_pred, minlength=k * k).reshape(k, k)
    if class_names is None:
        class_names = [f"class_{i}" for i in range(k)]
    elif len(class_names) != k:
        raise ShapeMismatchError(f"{len(class_names)} names for {k} classes")
    return ConfusionMatrix(m=m, class_names=list(class_names))


def report(cm: ConfusionMatrix) -> ClassificationReport:
    """Per-class precision/recall/F1 plus accuracy and both averages.

    A class that is never predicted has an undefined precision; it is
    reported as EMPTY_PREDICTION_PRECISION. Recall of a class with zero
    support is 0, and F1 is 0 whenever precision + recall is 0.
    """
    m = cm.m.astype(np.int64)
    total = int(m.sum())
    if total == 0:
        raise EmptyMatrixError("confusion matrix is all zeros")
    k = cm.k
    diag = np.diag(m).astype(np.float64)
    col_sums = m.sum(axis=0).astype(np.float64)
    row_sums = m.sum(axis=1).astype(np.float64)

    classes = []
    for c in range(k):
        precision = (
            diag[c] / col_sums[c] if col_sums[c] > 0 else EMPTY_PREDICTION_PRECISION
        )
        recall = diag[c] / row_sums[c] if row_sums[c] > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        classes.append(
            ClassScores(
                name=cm.class_names[c],
                precision=float(precision),
                recall=float(recall),
                f1=float(f1),
                support=int(row_sums[c]),
            )
        )

    accuracy = float(np.trace(m) / total)
    macro = AverageScores(
        precision=float(np.mean([s.precision for s in classes])),
        recall=float(np.mean([s.recall for s in classes])),
        f1=float(np.mean([s.f1 for s in classes])),
    )
    supports = np.array([s.support for s in classes], dtype=np.float64)
    weighted = AverageScores(
        precision=float(np.dot(supports, [s.precision for s in classes]) / total),
        recall=float(np.dot(supports, [s.recall for s in classes]) / total),
        f1=float(np.dot(supports, [s.f1 for s in classes]) / total),
    )
    return ClassificationReport(
        classes=classes,
        accuracy=accuracy,
        macro_avg=macro,
        weighted_avg=weighted,
        total_support=total,
    )


_NUMBER = (int, float)


def _field(doc, key: str, kind):
    """doc[key], which must be an instance of kind (bools never count)."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedReportError(f"report field {key!r} is missing or mistyped")
    return value


def report_from_dict(doc) -> ClassificationReport:
    """The report a report.json document holds; raises MalformedReportError
    on a document of any other shape."""

    def scores(d) -> tuple:
        return tuple(_field(d, key, _NUMBER) for key in ("precision", "recall", "f1"))

    return ClassificationReport(
        classes=[ClassScores(_field(c, "name", str), *scores(c), _field(c, "support", int))
                 for c in _field(doc, "classes", list)],
        accuracy=_field(doc, "accuracy", _NUMBER),
        macro_avg=AverageScores(*scores(_field(doc, "macro_avg", dict))),
        weighted_avg=AverageScores(*scores(_field(doc, "weighted_avg", dict))),
        total_support=_field(doc, "total_support", int),
    )


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _rows(rep: ClassificationReport, fmt) -> list[tuple]:
    """The table rows of a report, scores rendered by fmt: one per class,
    then Accuracy, Macro average and Weighted average."""
    rows = [(s.name, fmt(s.precision), fmt(s.recall), fmt(s.f1), s.support)
            for s in rep.classes]
    rows.append(("Accuracy", fmt(rep.accuracy), "", "", rep.total_support))
    for label, avg in (("Macro average", rep.macro_avg),
                       ("Weighted average", rep.weighted_avg)):
        rows.append((label, fmt(avg.precision), fmt(avg.recall), fmt(avg.f1),
                     rep.total_support))
    return rows


def render_report(rep: ClassificationReport, format: str = "text") -> bytes:
    """Serialize a report as text, csv, or json (UTF-8 bytes).

    The text and csv tables list one row per class, then Accuracy, Macro
    average, and Weighted average footer rows; csv keeps every digit.
    json is the report's own tree, keys sorted.
    """
    if format == "json":
        return json.dumps(asdict(rep), indent=2, sort_keys=True).encode("utf-8")
    if format == "csv":
        return csv_bytes([["class", "precision", "recall", "f1", "support"],
                          *_rows(rep, repr)])
    if format == "text":
        name_width = max([len("Weighted average")] + [len(s.name) for s in rep.classes])
        lines = [
            f"{name:<{name_width}}  {precision:>9}  {recall:>9}  {f1:>9}  {support:>9}"
            for name, precision, recall, f1, support in [
                ("Class", "Precision", "Recall", "F1", "Support"), *_rows(rep, _fmt)
            ]
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format: {format!r}")


def render_confusion_csv(cm: ConfusionMatrix) -> bytes:
    """CSV with a header row and column of class names."""
    return csv_bytes([["", *cm.class_names],
                      *([name, *map(int, row)] for name, row in zip(cm.class_names, cm.m))])
