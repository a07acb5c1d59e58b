"""The benchmark's workloads: CLI commands, and checks on what they write.

Each workload loads a different layer of the pipeline:

- ingest-10x: prepare on the 10x synthetic profile (277,520 rows), then a
  1-epoch train and an evaluate. Parse and encode do nearly all the work,
  and it is the only workload that writes and reads containers at scale.
- train-1x: train and evaluate all four variants at the paper's defaults
  on the 1x corpus. The optimizer step does most of the work.
- explain-1x: default KernelSHAP of the two 4-class models, which
  criterion 8 compares. Masked forward passes and the solve do the work.

Argument templates name `{corpus}`, `{seed}`, `{setup}` (artifacts made in
set-up) and `{out}` (artifacts of one timed iteration). A check receives
the two directories and returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

Check = Callable[[Path, Path], list]


@dataclass(frozen=True)
class Step:
    argv: tuple
    stage: bool = False  # counts toward stage_s
    check: Optional[Check] = None


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int  # multiple of the synthetic DEFAULT_PROFILE counts
    setup: tuple
    steps: tuple
    stage_rows: int  # rows the stage steps process, as the checks confirm


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _report(out: Path, name: str) -> dict:
    return _json(out / name / "report.json")


def _class(report: dict, name: str) -> dict:
    return next(c for c in report["classes"] if c["name"] == name)


# --- ingest-10x -------------------------------------------------------------

# The 10x profile, grouped by category, and its stratified 67/33 split.
INGEST_COUNTS = {"Normal": 52000, "DoS": 222100, "Probe": 2200,
                 "UnauthorizedAccess": 1220}
INGEST_SPLIT = (185938, 91582)
# One epoch of `truncated` on the 10x corpus measured 0.9918 at seed 0.
INGEST_MIN_ACCURACY = 0.98


def check_ingest_prepare(setup: Path, out: Path) -> list:
    problems = []
    with open(out / "prepared" / "counts.csv", newline="", encoding="utf-8") as fh:
        counts = {row["category"]: int(row["count"]) for row in csv.DictReader(fh)}
    if counts != INGEST_COUNTS:
        problems.append(f"counts.csv {counts} != {INGEST_COUNTS}")
    data = _json(out / "prepared" / "manifest.json")["data"]
    split = (data["train_rows"], data["test_rows"])
    if split != INGEST_SPLIT:
        problems.append(f"split {split} != {INGEST_SPLIT}")
    return problems


def check_ingest_model(setup: Path, out: Path) -> list:
    if not (out / "truncated" / "model.zmlp").is_file():
        return ["no model.zmlp"]
    return []


def check_ingest_accuracy(setup: Path, out: Path) -> list:
    accuracy = _report(out, "eval")["accuracy"]
    if accuracy < INGEST_MIN_ACCURACY:
        return [f"accuracy {accuracy:.4f} < {INGEST_MIN_ACCURACY}"]
    return []


INGEST = Workload(
    name="ingest-10x",
    scale=10,
    setup=(),
    steps=(
        Step(("prepare", "--data", "{corpus}", "--out", "{out}/prepared",
              "--seed", "{seed}"), stage=True, check=check_ingest_prepare),
        Step(("train", "--prepared", "{out}/prepared", "--variant", "truncated",
              "--epochs", "1", "--out", "{out}/truncated", "--seed", "{seed}"),
             check=check_ingest_model),
        Step(("evaluate", "--model", "{out}/truncated/model.zmlp",
              "--test", "{out}/prepared/test.zids", "--out", "{out}/eval"),
             check=check_ingest_accuracy),
    ),
    stage_rows=sum(INGEST_COUNTS.values()),
)


# --- train-1x ---------------------------------------------------------------

VARIANTS = ("base", "weighted-base", "truncated", "weighted-truncated")
EPOCHS = 20
TRAIN_SPLIT_1X = (18593, 9159)


def check_prepare_1x(setup: Path, out: Path) -> list:
    data = _json(setup / "prepared" / "manifest.json")["data"]
    split = (data["train_rows"], data["test_rows"])
    return [] if split == TRAIN_SPLIT_1X else [f"split {split} != {TRAIN_SPLIT_1X}"]


def check_epochs(variant: str) -> Check:
    def check(setup: Path, out: Path) -> list:
        history = (out / variant / "history.csv").read_text().splitlines()
        epochs = len(history) - 1
        return [] if epochs == EPOCHS else [f"{variant}: {epochs} epochs"]

    return check


def check_base(setup: Path, out: Path) -> list:
    """Criterion 5s: accuracy >= 0.98 with >= 5 zero-recall classes."""
    rep = _report(out, "eval-base")
    dead = sum(1 for c in rep["classes"] if c["recall"] == 0.0)
    if rep["accuracy"] >= 0.98 and dead >= 5:
        return []
    return [f"base: accuracy {rep['accuracy']:.4f}, {dead} zero-recall classes"]


def check_truncated(setup: Path, out: Path) -> list:
    """Criterion 3s: accuracy >= 0.99."""
    accuracy = _report(out, "eval-truncated")["accuracy"]
    return [] if accuracy >= 0.99 else [f"truncated: accuracy {accuracy:.4f}"]


def check_weighted_truncated(setup: Path, out: Path) -> list:
    """Criterion 4s: accuracy >= 0.95, UA recall >= 0.10, and a higher
    macro recall than the unweighted model."""
    rep = _report(out, "eval-weighted-truncated")
    plain = _report(out, "eval-truncated")
    ua = _class(rep, "UnauthorizedAccess")["recall"]
    macro, plain_macro = rep["macro_avg"]["recall"], plain["macro_avg"]["recall"]
    if rep["accuracy"] >= 0.95 and ua >= 0.10 and macro > plain_macro:
        return []
    return [f"weighted-truncated: accuracy {rep['accuracy']:.4f}, UA recall "
            f"{ua:.4f}, macro recall {macro:.4f} vs {plain_macro:.4f}"]


def check_report_exists(variant: str) -> Check:
    def check(setup: Path, out: Path) -> list:
        _report(out, f"eval-{variant}")
        return []

    return check


TRAIN_CHECKS = {
    "base": check_base,
    "weighted-base": check_report_exists("weighted-base"),
    "truncated": check_truncated,
    "weighted-truncated": check_weighted_truncated,
}


PREPARE_1X = Step(("prepare", "--data", "{corpus}", "--out", "{setup}/prepared",
                   "--seed", "{seed}"), check=check_prepare_1x)

TRAIN = Workload(
    name="train-1x",
    scale=1,
    setup=(PREPARE_1X,),
    steps=tuple(
        step
        for v in VARIANTS
        for step in (
            Step(("train", "--prepared", "{setup}/prepared", "--variant", v,
                  "--out", f"{{out}}/{v}", "--seed", "{seed}"), stage=True,
                 check=check_epochs(v)),
            Step(("evaluate", "--model", f"{{out}}/{v}/model.zmlp",
                  "--test", "{setup}/prepared/test.zids",
                  "--out", f"{{out}}/eval-{v}"), check=TRAIN_CHECKS[v]),
        )
    ),
    stage_rows=len(VARIANTS) * EPOCHS * TRAIN_SPLIT_1X[0],
)


# --- explain-1x -------------------------------------------------------------

EXPLAINED = ("truncated", "weighted-truncated")
EXPLAIN_N = 50
EFFICIENCY_BOUND = 1e-6
TOP_K = 5


def _top5(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ranking: dict = {}
    for row in rows:
        float(row["mean_abs_shap"])  # raises, failing the check, if not a number
        ranking.setdefault(row["class"], []).append(row["feature"])
    return ranking


def check_explanation(variant: str) -> Check:
    """50 explained rows, per-class efficiency residuals within 1e-6, and
    a complete top5.csv."""

    def check(setup: Path, out: Path) -> list:
        problems = []
        manifest = _json(out / variant / "manifest.json")
        explained = len(manifest["samples"]["explained_indices"])
        if explained != EXPLAIN_N:
            problems.append(f"{variant}: {explained} rows explained")
        residuals = manifest["efficiency_max_residual"]
        worst = max(residuals.values())
        if len(residuals) != 4 or not worst <= EFFICIENCY_BOUND:
            problems.append(f"{variant}: efficiency residuals {residuals}")
        ranking = _top5(out / variant / "top5.csv")
        if sorted(ranking) != sorted(residuals) or any(
            len(features) != TOP_K for features in ranking.values()
        ):
            problems.append(f"{variant}: incomplete top5.csv {ranking}")
        return problems

    return check


def check_rankings_differ(setup: Path, out: Path) -> list:
    """Criterion 8: at least one class ranks differently in the two models."""
    problems = check_explanation("weighted-truncated")(setup, out)
    a, b = (_top5(out / v / "top5.csv") for v in EXPLAINED)
    if not any(a[name] != b.get(name) for name in a):
        problems.append("top-5 rankings identical for every class")
    return problems


EXPLAIN = Workload(
    name="explain-1x",
    scale=1,
    setup=(PREPARE_1X,) + tuple(
        Step(("train", "--prepared", "{setup}/prepared", "--variant", v,
              "--out", f"{{setup}}/{v}", "--seed", "{seed}"))
        for v in EXPLAINED
    ),
    steps=(
        Step(("explain", "--model", "{setup}/truncated/model.zmlp",
              "--prepared", "{setup}/prepared", "--out", "{out}/truncated",
              "--seed", "{seed}"), stage=True,
             check=check_explanation("truncated")),
        Step(("explain", "--model", "{setup}/weighted-truncated/model.zmlp",
              "--prepared", "{setup}/prepared", "--out", "{out}/weighted-truncated",
              "--seed", "{seed}"), stage=True, check=check_rankings_differ),
    ),
    stage_rows=len(EXPLAINED) * EXPLAIN_N,
)

WORKLOADS = {w.name: w for w in (INGEST, TRAIN, EXPLAIN)}
