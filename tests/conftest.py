"""Shared fixtures: the synthetic corpus and lazily trained experiment runs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from zids import synthetic
from zids.cli import main

# Small corpus for CLI mechanics tests; every label keeps >= 2 rows so the
# stratified split puts at least one row of each class on both sides.
SMALL_PROFILE = {
    "smurf": 1200,
    "neptune": 450,
    "normal": 420,
    "back": 25,
    "satan": 20,
    "ipsweep": 15,
    "portsweep": 12,
    "teardrop": 12,
    "warezclient": 12,
    "pod": 8,
    "nmap": 8,
    "guess_passwd": 8,
    "buffer_overflow": 5,
    "land": 5,
    "warezmaster": 4,
    "imap": 4,
    "rootkit": 4,
    "loadmodule": 3,
    "ftp_write": 3,
    "multihop": 3,
    "phf": 3,
    "perl": 3,
    "spy": 2,
}


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_counts(path: Path) -> dict:
    """category -> count from a prepared counts.csv."""
    rows = path.read_text().strip().splitlines()[1:]
    return {name: int(value) for name, value in (row.split(",") for row in rows)}


class Experiment:
    """Lazy prepare/train/evaluate/explain over one corpus, cached per session."""

    def __init__(self, root: Path, profile=None, seed: int = 0, corpus_path=None):
        self.root = root
        self.profile = profile
        self.seed = seed
        self.corpus_path = corpus_path
        self._prepared = False

    @property
    def corpus(self) -> Path:
        if self.corpus_path is not None:
            return Path(self.corpus_path)
        path = self.root / "corpus.kdd"
        if not path.exists():
            synthetic.write_corpus(path, self.profile, seed=self.seed)
        return path

    @property
    def prepared(self) -> Path:
        out = self.root / "prepared"
        if not self._prepared:
            rc = run_cli("prepare", "--data", self.corpus, "--out", out,
                         "--seed", self.seed)
            assert rc == 0
            self._prepared = True
        return out

    def train(self, variant: str, **flags) -> Path:
        out = self.root / f"run_{variant}"
        if not out.exists():
            args = ["train", "--prepared", self.prepared, "--variant", variant,
                    "--out", out, "--seed", self.seed]
            for key, value in flags.items():
                args += [f"--{key.replace('_', '-')}", value]
            rc = run_cli(*args)
            assert rc == 0
        return out

    def evaluate(self, variant: str) -> dict:
        out = self.root / f"eval_{variant}"
        if not out.exists():
            model = self.train(variant) / "model.zmlp"
            rc = run_cli("evaluate", "--model", model,
                         "--test", self.prepared / "test.zids", "--out", out)
            assert rc == 0
        return json.loads((out / "report.json").read_text())

    def explain(self, variant: str, budget: int = 300, explain_n: int = 12,
                background_n: int = 25) -> Path:
        out = self.root / f"explain_{variant}"
        if not out.exists():
            model = self.train(variant) / "model.zmlp"
            rc = run_cli("explain", "--model", model, "--prepared", self.prepared,
                         "--out", out, "--seed", self.seed, "--budget", budget,
                         "--explain-n", explain_n, "--background-n", background_n)
            assert rc == 0
        return out


@pytest.fixture(scope="session")
def experiment(tmp_path_factory) -> Experiment:
    """Full-size synthetic corpus with the default imbalance profile."""
    return Experiment(tmp_path_factory.mktemp("experiment"), profile=None)


@pytest.fixture(scope="session")
def small_experiment(tmp_path_factory) -> Experiment:
    """Quick corpus for CLI mechanics; a few seconds end to end."""
    return Experiment(tmp_path_factory.mktemp("small"), profile=SMALL_PROFILE)
