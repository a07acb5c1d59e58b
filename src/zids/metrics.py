"""Confusion matrices and per-class classification reports.

Scores are computed in float64 from exact integer counts; text rendering
rounds half-to-even to four decimals.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptyMatrixError,
    LabelOutOfRangeError,
    MalformedReportError,
    ShapeMismatchError,
)


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
    class_names: list[str]
    per_class: list[ClassScores]
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


def report(
    cm: ConfusionMatrix, empty_prediction_precision: float = 1.0
) -> ClassificationReport:
    """Per-class precision/recall/F1 plus accuracy and both averages.

    A class that is never predicted has an undefined precision; it defaults
    to 1.0 (empty_prediction_precision), matching how such rows are usually
    reported for models that simply ignore a class. Recall of a class with
    zero support is 0, and F1 is 0 whenever precision + recall is 0.
    """
    m = cm.m.astype(np.int64)
    total = int(m.sum())
    if total == 0:
        raise EmptyMatrixError("confusion matrix is all zeros")
    k = cm.k
    diag = np.diag(m).astype(np.float64)
    col_sums = m.sum(axis=0).astype(np.float64)
    row_sums = m.sum(axis=1).astype(np.float64)

    per_class = []
    for c in range(k):
        precision = (
            diag[c] / col_sums[c] if col_sums[c] > 0 else empty_prediction_precision
        )
        recall = diag[c] / row_sums[c] if row_sums[c] > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append(
            ClassScores(
                precision=float(precision),
                recall=float(recall),
                f1=float(f1),
                support=int(row_sums[c]),
            )
        )

    accuracy = float(np.trace(m) / total)
    macro = AverageScores(
        precision=float(np.mean([s.precision for s in per_class])),
        recall=float(np.mean([s.recall for s in per_class])),
        f1=float(np.mean([s.f1 for s in per_class])),
    )
    supports = np.array([s.support for s in per_class], dtype=np.float64)
    weighted = AverageScores(
        precision=float(np.dot(supports, [s.precision for s in per_class]) / total),
        recall=float(np.dot(supports, [s.recall for s in per_class]) / total),
        f1=float(np.dot(supports, [s.f1 for s in per_class]) / total),
    )
    return ClassificationReport(
        class_names=list(cm.class_names),
        per_class=per_class,
        accuracy=accuracy,
        macro_avg=macro,
        weighted_avg=weighted,
        total_support=total,
    )


def report_to_dict(rep: ClassificationReport) -> dict:
    return {
        "classes": [
            {
                "name": name,
                "precision": s.precision,
                "recall": s.recall,
                "f1": s.f1,
                "support": s.support,
            }
            for name, s in zip(rep.class_names, rep.per_class)
        ],
        "accuracy": rep.accuracy,
        "macro_avg": {
            "precision": rep.macro_avg.precision,
            "recall": rep.macro_avg.recall,
            "f1": rep.macro_avg.f1,
        },
        "weighted_avg": {
            "precision": rep.weighted_avg.precision,
            "recall": rep.weighted_avg.recall,
            "f1": rep.weighted_avg.f1,
        },
        "total_support": rep.total_support,
    }


_NUMBER = (int, float)


def _field(doc, key: str, kind):
    """doc[key], which must be an instance of kind (bools never count)."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedReportError(f"report field {key!r} is missing or mistyped")
    return value


def report_from_dict(doc) -> ClassificationReport:
    """Inverse of report_to_dict; raises MalformedReportError on a document
    of any other shape."""

    def scores(d) -> tuple:
        return tuple(_field(d, key, _NUMBER) for key in ("precision", "recall", "f1"))

    classes = _field(doc, "classes", list)
    return ClassificationReport(
        class_names=[_field(c, "name", str) for c in classes],
        per_class=[ClassScores(*scores(c), _field(c, "support", int)) for c in classes],
        accuracy=_field(doc, "accuracy", _NUMBER),
        macro_avg=AverageScores(*scores(_field(doc, "macro_avg", dict))),
        weighted_avg=AverageScores(*scores(_field(doc, "weighted_avg", dict))),
        total_support=_field(doc, "total_support", int),
    )


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def render_report(rep: ClassificationReport, format: str = "text") -> bytes:
    """Serialize a report as text, csv, or json (UTF-8 bytes).

    The text table lists one row per class, then Accuracy, Macro average,
    and Weighted average footer rows.
    """
    if format == "json":
        return json.dumps(report_to_dict(rep), indent=2, sort_keys=True).encode(
            "utf-8"
        )
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["class", "precision", "recall", "f1", "support"])
        for name, s in zip(rep.class_names, rep.per_class):
            writer.writerow([name, repr(s.precision), repr(s.recall), repr(s.f1), s.support])
        writer.writerow(["Accuracy", repr(rep.accuracy), "", "", rep.total_support])
        writer.writerow(
            [
                "Macro average",
                repr(rep.macro_avg.precision),
                repr(rep.macro_avg.recall),
                repr(rep.macro_avg.f1),
                rep.total_support,
            ]
        )
        writer.writerow(
            [
                "Weighted average",
                repr(rep.weighted_avg.precision),
                repr(rep.weighted_avg.recall),
                repr(rep.weighted_avg.f1),
                rep.total_support,
            ]
        )
        return buf.getvalue().encode("utf-8")
    if format == "text":
        name_width = max(
            [len("Weighted average")] + [len(n) for n in rep.class_names]
        )
        lines = [
            f"{'Class':<{name_width}}  {'Precision':>9}  {'Recall':>9}  "
            f"{'F1':>9}  {'Support':>9}"
        ]
        for name, s in zip(rep.class_names, rep.per_class):
            lines.append(
                f"{name:<{name_width}}  {_fmt(s.precision):>9}  {_fmt(s.recall):>9}  "
                f"{_fmt(s.f1):>9}  {s.support:>9}"
            )
        lines.append(
            f"{'Accuracy':<{name_width}}  {_fmt(rep.accuracy):>9}  {'':>9}  "
            f"{'':>9}  {rep.total_support:>9}"
        )
        for label, avg in (
            ("Macro average", rep.macro_avg),
            ("Weighted average", rep.weighted_avg),
        ):
            lines.append(
                f"{label:<{name_width}}  {_fmt(avg.precision):>9}  "
                f"{_fmt(avg.recall):>9}  {_fmt(avg.f1):>9}  {rep.total_support:>9}"
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format: {format!r}")


def render_confusion_csv(cm: ConfusionMatrix) -> bytes:
    """CSV with a header row and column of class names."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([""] + list(cm.class_names))
    for name, row in zip(cm.class_names, cm.m):
        writer.writerow([name] + [int(v) for v in row])
    return buf.getvalue().encode("utf-8")
