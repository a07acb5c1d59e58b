"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The dataset-bound criteria run twice where possible: always against the
bundled synthetic corpus (same thresholds; the corpus is built to carry
the same imbalance structure), and against the real KDD99 files whenever
their paths are exported:

    ZIDS_KDD99_DATA   full kddcup.data (or .gz)      -> criterion 1 exact
    ZIDS_KDD99_10PCT  kddcup.data_10_percent (or .gz) -> criteria 1d, 3, 4, 5

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import os

import numpy as np
import pytest

from zids import dataset as ds
from zids import metrics, mlp, shap
from zids import preprocess as pp
from zids import synthetic
from zids.preprocess import ClassWeights

from conftest import SMALL_PROFILE, Experiment, read_counts, run_cli
from test_metrics import brute_force_scores
from test_mlp import finite_difference_gradients, max_relative_error

FULL_DATA = os.environ.get("ZIDS_KDD99_DATA")
TENPCT_DATA = os.environ.get("ZIDS_KDD99_10PCT")

needs_full = pytest.mark.skipif(
    not FULL_DATA, reason="set ZIDS_KDD99_DATA to the full kddcup.data file"
)
needs_tenpct = pytest.mark.skipif(
    not TENPCT_DATA, reason="set ZIDS_KDD99_10PCT to the 10% subset file"
)


def check(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num}] {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="session")
def real_experiment(tmp_path_factory):
    """Prepared and trained runs over the real 10% subset (env-gated)."""
    return Experiment(
        tmp_path_factory.mktemp("real"), corpus_path=TENPCT_DATA, seed=0
    )


# --- criterion 1: Table 1 reproduction ---------------------------------------


@needs_full
def test_criterion_1_category_counts_exact(tmp_path):
    out = tmp_path / "prep_full"
    rc = run_cli("prepare", "--data", FULL_DATA, "--out", out, "--seed", 0)
    assert rc == 0
    counts = read_counts(out / "counts.csv")
    expected = {
        "DoS": 3_883_370,
        "Normal": 972_781,
        "Probe": 41_102,
        "UnauthorizedAccess": 1_178,
    }
    vocab = json.loads((out / "manifest.json").read_text())["data"]["vocabulary_sizes"]
    check(
        "1",
        "full-file category counts reproduce exactly",
        counts == expected
        and sum(counts.values()) == 4_898_431
        and vocab["protocol_type"] == 3
        and vocab["flag"] == 11,
        f"got {counts}, vocabulary sizes {vocab}",
    )


def _degraded_counts_ok(counts) -> bool:
    ordered = (
        counts["DoS"] > counts["Normal"] > counts["Probe"]
        > counts["UnauthorizedAccess"]
    )
    return ordered and all(v > 0 for v in counts.values())


@needs_tenpct
def test_criterion_1_degraded_subset(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("prepare", "--data", TENPCT_DATA, "--out", out, "--seed", 0) == 0
        outs.append(out)
    counts = read_counts(outs[0] / "counts.csv")
    stable = (outs[0] / "counts.csv").read_bytes() == (outs[1] / "counts.csv").read_bytes()
    check(
        "1d",
        "10% subset: categories nonempty, DoS > Normal > Probe > UA, reruns stable",
        _degraded_counts_ok(counts) and stable,
        f"got {counts}",
    )


def test_criterion_1_synthetic_analog(experiment, tmp_path):
    counts = read_counts(experiment.prepared / "counts.csv")
    again = tmp_path / "again"
    assert run_cli("prepare", "--data", experiment.corpus, "--out", again,
                   "--seed", 0) == 0
    stable = (again / "counts.csv").read_bytes() == (
        experiment.prepared / "counts.csv"
    ).read_bytes()
    check(
        "1s",
        "synthetic corpus: category ordering and rerun stability",
        _degraded_counts_ok(counts) and stable,
        f"got {counts}",
    )


# --- criterion 2: parameter counts -------------------------------------------


def test_criterion_2_parameter_counts():
    truncated = mlp.count_parameters(mlp.init([119, 112, 4], 0))
    base = mlp.count_parameters(mlp.init([122, 256, 112, 23], 0))
    check(
        "2",
        "default truncated dims -> 13892 parameters, base dims -> 62871",
        truncated == 13_892 and base == 62_871,
        f"truncated={truncated} base={base}",
    )


# --- criteria 3-5: the four experiment variants -------------------------------


def _variant_scores(exp: Experiment, variant: str):
    rep = exp.evaluate(variant)
    by_name = {c["name"]: c for c in rep["classes"]}
    return rep, by_name


def test_criterion_3_truncated_accuracy(experiment):
    rep, _ = _variant_scores(experiment, "truncated")
    check(
        "3s",
        "synthetic: truncated test accuracy >= 0.99 after 20 epochs",
        rep["accuracy"] >= 0.99,
        f"accuracy={rep['accuracy']:.4f}",
    )


@needs_tenpct
def test_criterion_3_truncated_accuracy_real(real_experiment):
    rep, _ = _variant_scores(real_experiment, "truncated")
    check(
        "3",
        "KDD99 10%: truncated test accuracy >= 0.99 after 20 epochs",
        rep["accuracy"] >= 0.99,
        f"accuracy={rep['accuracy']:.4f}",
    )


def _weighted_tradeoff(exp: Experiment):
    rep_w, by_name = _variant_scores(exp, "weighted-truncated")
    rep_u, _ = _variant_scores(exp, "truncated")
    ua_recall = by_name["UnauthorizedAccess"]["recall"]
    return (
        rep_w["accuracy"] >= 0.95
        and ua_recall >= 0.10
        and rep_w["macro_avg"]["recall"] > rep_u["macro_avg"]["recall"],
        f"accuracy={rep_w['accuracy']:.4f} ua_recall={ua_recall:.4f} "
        f"macro={rep_w['macro_avg']['recall']:.4f} vs {rep_u['macro_avg']['recall']:.4f}",
    )


def test_criterion_4_weighted_tradeoff(experiment):
    ok, detail = _weighted_tradeoff(experiment)
    check("4s", "synthetic: weighted-truncated trade-off", ok, detail)


@needs_tenpct
def test_criterion_4_weighted_tradeoff_real(real_experiment):
    ok, detail = _weighted_tradeoff(real_experiment)
    check("4", "KDD99 10%: weighted-truncated trade-off", ok, detail)


def _base_behavior(exp: Experiment):
    rep, _ = _variant_scores(exp, "base")
    zero_recall = [c["name"] for c in rep["classes"] if c["recall"] == 0.0]
    return (
        rep["accuracy"] >= 0.98 and len(zero_recall) >= 5,
        f"accuracy={rep['accuracy']:.4f} zero-recall classes={len(zero_recall)}",
    )


def test_criterion_5_base_model(experiment):
    ok, detail = _base_behavior(experiment)
    check("5s", "synthetic: base accuracy >= 0.98 with >= 5 dead minority classes",
          ok, detail)


@needs_tenpct
def test_criterion_5_base_model_real(real_experiment):
    ok, detail = _base_behavior(real_experiment)
    check("5", "KDD99 10%: base accuracy >= 0.98 with >= 5 dead minority classes",
          ok, detail)


# --- criterion 6: gradient oracle ---------------------------------------------


def _kink_margin(model, x):
    """Smallest |pre-activation| over all hidden units and batch rows.

    Central differences are only a valid oracle away from the rectifier's
    kink; batches too close to it get redrawn.
    """
    h = np.asarray(x, dtype=np.float64)
    margin = np.inf
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ w + b
        margin = min(margin, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    return margin


def test_criterion_6_gradient_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    accepted = 0
    while accepted < 100:
        depth = int(rng.integers(1, 3))
        dims = [int(rng.integers(2, 8))]
        dims += [int(rng.integers(2, 9)) for _ in range(depth)]
        dims += [int(rng.integers(2, 5))]
        model = mlp.init(dims, seed=int(rng.integers(0, 10_000)))
        for w in model.weights:
            w += rng.normal(scale=0.3, size=w.shape)
        n = int(rng.integers(2, 8))
        x = rng.normal(size=(n, dims[0]))
        if _kink_margin(model, x) < 0.05:
            continue
        accepted += 1
        y = rng.integers(0, dims[-1], size=n)
        weights = None
        if rng.random() < 0.5:
            raw = rng.uniform(0.2, 3.0, size=dims[-1])
            weights = ClassWeights(raw / raw.mean())
        analytic = mlp.gradients(model, x, y, weights)
        numeric = finite_difference_gradients(model, x, y, weights)
        worst = max(
            worst,
            max_relative_error(analytic[0], numeric[0]),
            max_relative_error(analytic[1], numeric[1]),
        )
    check(
        "6",
        "analytic gradients match central differences on 100 random models",
        worst <= 1e-4,
        f"max relative error={worst:.2e}",
    )


# --- criterion 7: Shapley oracle ----------------------------------------------


def test_criterion_7_shapley_oracle(experiment):
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(3, 11))
        model = mlp.init([m, 6, 3], seed=trial)
        for w in model.weights:
            w += rng.normal(scale=0.5, size=w.shape)
        fn = lambda z: mlp.forward(model, z)
        bg = rng.normal(size=(int(rng.integers(2, 8)), m))
        x = rng.normal(size=m)
        expl = shap.kernel_shap(fn, x[None, :], bg, budget=2**m, seed=0)
        exact = shap.exact_shapley(fn, x, bg)
        worst = max(worst, float(np.abs(expl.phi[:, 0, :] - exact).max()))

    # sampled-coalition efficiency against the trained truncated model
    model = mlp.load(experiment.train("truncated") / "model.zmlp")
    test_ds = pp.read_container(experiment.prepared / "test.zids", "coarse")
    fn = lambda z: mlp.forward(model, z)
    background = test_ds.rows(pp.sample_indices(test_ds.n, 20, 1)).dense()
    rows = test_ds.rows(pp.sample_indices(test_ds.n, 4, 2)).dense()
    expl = shap.kernel_shap(fn, rows, background, budget=300, seed=0)
    residual = float(shap.efficiency_residuals(expl, fn(rows)).max())

    check(
        "7",
        "enumerated kernel estimate equals exact Shapley; sampled runs stay efficient",
        worst <= 1e-8 and residual <= 1e-6,
        f"max |kernel - exact|={worst:.2e}, sampled residual={residual:.2e}",
    )


# --- criterion 8: explanation divergence --------------------------------------


def test_criterion_8_ranking_divergence(experiment):
    rankings = {}
    for variant in ("truncated", "weighted-truncated"):
        out = experiment.explain(variant)
        lines = (out / "top5.csv").read_text().strip().splitlines()[1:]
        per_class = {}
        for line in lines:
            name, rank, feature, _ = line.split(",")
            per_class.setdefault(name, []).append(feature)
        rankings[variant] = per_class
    differing = [
        name
        for name in rankings["truncated"]
        if rankings["truncated"][name] != rankings["weighted-truncated"][name]
    ]
    check(
        "8",
        "top-5 rankings differ between truncated and weighted-truncated",
        len(differing) >= 1,
        f"classes with differing rankings: {differing}",
    )


# --- criterion 9: determinism suite -------------------------------------------


def test_criterion_9_determinism(tmp_path):
    corpus = tmp_path / "corpus.kdd"
    synthetic.write_corpus(corpus, SMALL_PROFILE, seed=0)
    artifacts = {}
    for run in ("one", "two"):
        root = tmp_path / run
        assert run_cli("prepare", "--data", corpus, "--out", root / "prep",
                       "--seed", 11) == 0
        assert run_cli("train", "--prepared", root / "prep",
                       "--variant", "weighted-truncated", "--out", root / "model",
                       "--seed", 11, "--epochs", 6) == 0
        assert run_cli("evaluate", "--model", root / "model" / "model.zmlp",
                       "--test", root / "prep" / "test.zids",
                       "--out", root / "eval") == 0
        assert run_cli("explain", "--model", root / "model" / "model.zmlp",
                       "--prepared", root / "prep", "--out", root / "shap",
                       "--seed", 11, "--budget", 128, "--explain-n", 6,
                       "--background-n", 12) == 0
        artifacts[run] = {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        }
    same_names = artifacts["one"].keys() == artifacts["two"].keys()
    mismatched = [
        name for name in artifacts["one"]
        if artifacts["one"].get(name) != artifacts["two"].get(name)
    ]
    check(
        "9",
        "identical config and seeds give byte-identical artifacts",
        same_names and not mismatched,
        f"compared {len(artifacts['one'])} files",
    )


# --- criterion 10: metrics oracle ---------------------------------------------


def test_criterion_10_metrics_oracle():
    rng = np.random.default_rng(10)
    identity_worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(2, 60))
        y_true = rng.integers(0, k, n)
        y_pred = rng.integers(0, k, n)
        rep = metrics.report(metrics.confusion(y_true, y_pred, k))
        expected = brute_force_scores(y_true, y_pred, k)
        for s, (p, r, f1, support) in zip(rep.per_class, expected):
            assert s.precision == p and s.recall == r and s.support == support
            assert s.f1 == f1
        identity_worst = max(
            identity_worst, abs(rep.weighted_avg.recall - rep.accuracy)
        )
    check(
        "10",
        "report matches brute-force counts on 1000 vectors; weighted recall "
        "equals accuracy",
        identity_worst <= 1e-12,
        f"max |weighted recall - accuracy|={identity_worst:.1e}",
    )
