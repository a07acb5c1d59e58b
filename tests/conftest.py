"""Shared fixtures: the synthetic corpus and lazily trained experiment runs."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
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


def masked_reference(fn, x, bg, masks):
    """The full broadcast: every (mask, background row) pair evaluated."""
    z = np.where(masks[:, None, :], x, bg).reshape(-1, x.size)
    return fn(z).reshape(masks.shape[0], bg.shape[0], -1).mean(axis=1)


def exact_shapley(fn, x, bg):
    """Exact Shapley values, (K, M): phi_j is the sum over S without j of
    |S|! (M-|S|-1)! / M! * (v(S + j) - v(S)), with v(S) taken from the
    full broadcast over all 2^M masks."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    m = x.size
    ints = np.arange(1 << m)
    masks = (ints[:, None] >> np.arange(m)) & 1 == 1  # mask i = the bits of i
    v = masked_reference(fn, x, np.asarray(bg, dtype=np.float64), masks)
    sizes = masks.sum(axis=1)
    weight = np.array([math.factorial(s) * math.factorial(m - s - 1)
                       for s in range(m)]) / math.factorial(m)
    phi = np.empty((v.shape[1], m))
    for j in range(m):
        without = ints[~masks[:, j]]
        phi[:, j] = weight[sizes[without]] @ (v[without | (1 << j)] - v[without])
    return phi


def reference_forward(model, x, piece=1024):
    """Class probabilities of the rows x, in zero-padded pieces of `piece`
    rows, with the softmax's row max and row sum taken by np.max and
    np.sum along axis 1."""
    dtype = model.weights[0].dtype
    probs = np.empty((x.shape[0], model.weights[-1].shape[1]), dtype)
    for start in range(0, x.shape[0], piece):
        rows = x[start : start + piece]
        h = np.zeros((piece, x.shape[1]), dtype)
        h[: rows.shape[0]] = rows
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            h = h @ w + b
            if i < len(model.weights) - 1:
                h = np.maximum(h, 0.0)
        h = np.exp(h - np.max(h, axis=1, keepdims=True))
        probs[start : start + rows.shape[0]] = (h / np.sum(h, axis=1, keepdims=True))[
            : rows.shape[0]]
    return probs


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
