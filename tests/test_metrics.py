"""Confusion matrices and classification reports against brute-force counts."""

import json

import numpy as np
import pytest

from zids import metrics
from zids.errors import EmptyMatrixError, LabelOutOfRangeError, ShapeMismatchError


def brute_force_scores(y_true, y_pred, k, empty_precision=1.0):
    """Independent per-class TP/FP/FN counter."""
    out = []
    for c in range(k):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp > 0 else empty_precision
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        out.append((precision, recall, f1, tp + fn))
    return out


class TestConfusion:
    def test_identity_is_diagonal(self):
        y = np.array([0, 1, 2, 2, 1])
        cm = metrics.confusion(y, y, 3)
        assert np.array_equal(cm.m, np.diag([1, 2, 2]))

    def test_empty_inputs(self):
        cm = metrics.confusion(np.array([], dtype=int), np.array([], dtype=int), 2)
        assert np.array_equal(cm.m, np.zeros((2, 2), dtype=int))

    def test_hand_count(self):
        cm = metrics.confusion(np.array([0, 0, 1]), np.array([0, 1, 1]), 2)
        assert cm.m.tolist() == [[1, 1], [0, 1]]

    def test_row_sums_are_support(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, 100)
        y_pred = rng.integers(0, 4, 100)
        cm = metrics.confusion(y_true, y_pred, 4)
        assert np.array_equal(cm.m.sum(axis=1), np.bincount(y_true, minlength=4))
        assert cm.total == 100

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError):
            metrics.confusion(np.array([0, 5]), np.array([0, 1]), 3)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            metrics.confusion(np.array([0, 1]), np.array([0]), 2)

    def test_class_names_must_name_every_class(self):
        with pytest.raises(ShapeMismatchError, match="1 names for 2 classes"):
            metrics.confusion(np.array([0, 1]), np.array([0, 1]), 2, ["a"])


class TestReport:
    def test_perfect_scores(self):
        y = np.array([0, 1, 2, 0])
        rep = metrics.report(metrics.confusion(y, y, 3))
        assert rep.accuracy == 1.0
        assert all(s.precision == s.recall == s.f1 == 1.0 for s in rep.classes)

    def test_never_predicted_class(self):
        # class 1 exists but is never predicted: precision 1 (by the
        # EMPTY_PREDICTION_PRECISION convention), recall 0, f1 0
        y_true = np.array([0, 1, 1, 0])
        y_pred = np.array([0, 0, 0, 0])
        rep = metrics.report(metrics.confusion(y_true, y_pred, 2))
        s = rep.classes[1]
        assert (s.precision, s.recall, s.f1) == (1.0, 0.0, 0.0)

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(4)
        y_true = rng.integers(0, 5, 300)
        y_pred = rng.integers(0, 5, 300)
        cm = metrics.confusion(y_true, y_pred, 5)
        rep = metrics.report(cm)
        assert rep.accuracy == np.trace(cm.m) / cm.total

    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(5, 200))
            y_true = rng.integers(0, k, n)
            y_pred = rng.integers(0, k, n)
            rep = metrics.report(metrics.confusion(y_true, y_pred, k))
            assert abs(rep.weighted_avg.recall - rep.accuracy) <= 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(4, 120))
            y_true = rng.integers(0, k, n)
            y_pred = rng.integers(0, k, n)
            rep = metrics.report(metrics.confusion(y_true, y_pred, k))
            expected = brute_force_scores(y_true, y_pred, k)
            for s, (p, r, f1, support) in zip(rep.classes, expected):
                assert s.precision == p
                assert s.recall == r
                assert abs(s.f1 - f1) <= 1e-15
                assert s.support == support

    def test_macro_is_unweighted_mean(self):
        y_true = np.array([0, 0, 0, 1])
        y_pred = np.array([0, 0, 0, 0])
        rep = metrics.report(metrics.confusion(y_true, y_pred, 2))
        assert rep.macro_avg.recall == (1.0 + 0.0) / 2

    def test_empty_matrix(self):
        cm = metrics.confusion(np.array([], dtype=int), np.array([], dtype=int), 2)
        with pytest.raises(EmptyMatrixError):
            metrics.report(cm)


class TestRendering:
    def make_report(self):
        y_true = np.array([0, 0, 0, 1, 1, 2])
        y_pred = np.array([0, 0, 1, 1, 1, 0])
        return metrics.report(
            metrics.confusion(y_true, y_pred, 3, ["Normal", "DoS", "Probe"])
        )

    def test_text_footer(self):
        text = metrics.render_report(self.make_report(), "text").decode()
        assert "Macro average" in text
        assert "Weighted average" in text
        assert "Accuracy" in text
        assert "Normal" in text.splitlines()[1]

    def test_text_four_decimals(self):
        text = metrics.render_report(self.make_report(), "text").decode()
        assert "0.6667" in text  # recall of Normal = 2/3

    def test_csv_header(self):
        lines = metrics.render_report(self.make_report(), "csv").decode().splitlines()
        assert lines[0] == "class,precision,recall,f1,support"
        assert len(lines) == 1 + 3 + 3  # classes + accuracy/macro/weighted

    def test_csv_bytes(self):
        assert metrics.render_report(self.make_report(), "csv") == (
            b"class,precision,recall,f1,support\r\n"
            b"Normal,0.6666666666666666,0.6666666666666666,0.6666666666666666,3\r\n"
            b"DoS,0.6666666666666666,1.0,0.8,2\r\n"
            b"Probe,1.0,0.0,0.0,1\r\n"
            b"Accuracy,0.6666666666666666,,,6\r\n"
            b"Macro average,0.7777777777777777,0.5555555555555555,0.48888888888888893,6\r\n"
            b"Weighted average,0.7222222222222222,0.6666666666666666,0.6,6\r\n"
        )

    def test_text_bytes(self):
        assert metrics.render_report(self.make_report(), "text") == (
            b"Class             Precision     Recall         F1    Support\n"
            b"Normal               0.6667     0.6667     0.6667          3\n"
            b"DoS                  0.6667     1.0000     0.8000          2\n"
            b"Probe                1.0000     0.0000     0.0000          1\n"
            b"Accuracy             0.6667                                6\n"
            b"Macro average        0.7778     0.5556     0.4889          6\n"
            b"Weighted average     0.7222     0.6667     0.6000          6\n"
        )

    def test_json_bytes(self):
        assert metrics.render_report(self.make_report(), "json") == (
            b'{\n'
            b'  "accuracy": 0.6666666666666666,\n'
            b'  "classes": [\n'
            b'    {\n'
            b'      "f1": 0.6666666666666666,\n'
            b'      "name": "Normal",\n'
            b'      "precision": 0.6666666666666666,\n'
            b'      "recall": 0.6666666666666666,\n'
            b'      "support": 3\n'
            b'    },\n'
            b'    {\n'
            b'      "f1": 0.8,\n'
            b'      "name": "DoS",\n'
            b'      "precision": 0.6666666666666666,\n'
            b'      "recall": 1.0,\n'
            b'      "support": 2\n'
            b'    },\n'
            b'    {\n'
            b'      "f1": 0.0,\n'
            b'      "name": "Probe",\n'
            b'      "precision": 1.0,\n'
            b'      "recall": 0.0,\n'
            b'      "support": 1\n'
            b'    }\n'
            b'  ],\n'
            b'  "macro_avg": {\n'
            b'    "f1": 0.48888888888888893,\n'
            b'    "precision": 0.7777777777777777,\n'
            b'    "recall": 0.5555555555555555\n'
            b'  },\n'
            b'  "total_support": 6,\n'
            b'  "weighted_avg": {\n'
            b'    "f1": 0.6,\n'
            b'    "precision": 0.7222222222222222,\n'
            b'    "recall": 0.6666666666666666\n'
            b'  }\n'
            b'}'
        )

    def test_json_round_trip_stable(self):
        rep = self.make_report()
        blob = metrics.render_report(rep, "json")
        parsed = metrics.report_from_dict(json.loads(blob.decode()))
        assert metrics.render_report(parsed, "json") == blob

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            metrics.render_report(self.make_report(), "xml")

    def test_confusion_csv(self):
        cm = metrics.confusion(
            np.array([0, 1, 1]), np.array([0, 1, 0]), 2, ["neg", "pos"]
        )
        assert metrics.render_confusion_csv(cm) == (
            b",neg,pos\r\n"
            b"neg,1,0\r\n"
            b"pos,1,1\r\n"
        )
