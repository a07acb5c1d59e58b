"""Network engine: init, forward, loss, gradients, training, persistence."""

import numpy as np
import pytest

from zids import mlp
from zids.errors import (
    BadDimsError,
    CorruptModelError,
    NonFiniteLossError,
    ShapeMismatchError,
    VersionMismatchError,
)
from zids.preprocess import ClassWeights, EncodedDataset


def toy_dataset(seed=5, n=200):
    rng = np.random.default_rng(seed)
    x0 = rng.normal((-2.0, 0.0), 0.5, size=(n // 2, 2))
    x1 = rng.normal((2.0, 0.0), 0.5, size=(n // 2, 2))
    x = np.vstack([x0, x1]).astype(np.float32)
    y = np.array([0] * (n // 2) + [1] * (n // 2), dtype=np.int32)
    return EncodedDataset(x=x, y=y, class_names=["a", "b"], scaling=[])


class TestInit:
    def test_zero_biases(self):
        model = mlp.init([2, 2], seed=3)
        assert np.all(model.biases[0] == 0.0)

    def test_deterministic(self):
        a = mlp.init([4, 3, 2], seed=7)
        b = mlp.init([4, 3, 2], seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_glorot_bound(self):
        model = mlp.init([100, 50], seed=0)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(model.weights[0]).max() <= bound

    def test_bad_dims(self):
        with pytest.raises(BadDimsError):
            mlp.init([5], seed=0)
        with pytest.raises(BadDimsError):
            mlp.init([5, 0, 2], seed=0)


class TestCountParameters:
    def test_reference_sizes(self):
        assert mlp.count_parameters(mlp.init([119, 112, 4], 0)) == 13892
        assert mlp.count_parameters(mlp.init([122, 256, 112, 23], 0)) == 62871

    def test_minimal(self):
        assert mlp.count_parameters(mlp.init([1, 1], 0)) == 2


class TestForward:
    def test_zero_model_uniform(self):
        model = mlp.init([3, 4], seed=0)
        model.weights[0][:] = 0.0
        probs = mlp.forward(model, np.ones((5, 3)))
        assert np.allclose(probs, 0.25)

    def test_rows_sum_to_one(self):
        model = mlp.init([6, 8, 4], seed=1)
        probs = mlp.forward(model, np.random.default_rng(0).normal(size=(32, 6)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-6
        assert probs.min() > 0.0 and probs.max() < 1.0

    def test_batch_independence(self):
        model = mlp.init([6, 8, 4], seed=1)
        x = np.random.default_rng(2).normal(size=(32, 6))
        full = mlp.forward(model, x)
        single = mlp.forward(model, x[10:11])
        assert np.abs(full[10] - single[0]).max() <= 1e-7

    def test_large_logits_stable(self):
        model = mlp.init([2, 3], seed=0)
        model.weights[0][:] = 500.0
        probs = mlp.forward(model, np.array([[3.0, 4.0]]))
        assert np.isfinite(probs).all()

    def test_shape_mismatch(self):
        model = mlp.init([3, 2], seed=0)
        with pytest.raises(ShapeMismatchError):
            mlp.forward(model, np.ones((4, 5)))

    def test_predict_tie_break(self):
        model = mlp.init([2, 2], seed=0)
        model.weights[0][:] = 0.0  # uniform probs, exact tie
        assert np.all(mlp.predict(model, np.ones((3, 2))) == 0)

    def test_predict_matches_argmax(self):
        model = mlp.init([5, 7, 3], seed=4)
        x = np.random.default_rng(1).normal(size=(40, 5))
        assert np.array_equal(
            mlp.predict(model, x), np.argmax(mlp.forward(model, x), axis=1)
        )

    def test_chunked_inference_matches_one_pass(self, monkeypatch):
        data = toy_dataset()
        model = mlp.init([2, 4, 2], seed=0)
        weights = ClassWeights(np.array([0.5, 1.5]))
        probs = mlp.forward(model, data.x)
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", 64)  # 200 rows: four chunks
        assert np.array_equal(mlp.predict(model, data.x), np.argmax(probs, axis=1))
        val_loss, val_accuracy = mlp._evaluate(model, data.x, data.y, weights)
        assert val_loss == pytest.approx(mlp.loss(probs, data.y, weights), rel=1e-12)
        assert val_accuracy == np.mean(np.argmax(probs, axis=1) == data.y)


class TestLoss:
    def test_perfect_predictions(self):
        probs = np.eye(3)[np.array([0, 1, 2, 1])]
        assert mlp.loss(probs, np.array([0, 1, 2, 1])) <= 1e-10

    def test_uniform_is_log_k(self):
        probs = np.full((9, 4), 0.25)
        y = np.arange(9) % 4
        w = ClassWeights(np.array([0.4, 0.8, 1.2, 1.6]))
        assert abs(mlp.loss(probs, y) - np.log(4)) <= 1e-9
        assert abs(mlp.loss(probs, y, w) - np.log(4)) <= 1e-9

    def test_non_negative_at_saturation(self):
        probs = np.zeros((2, 3))
        probs[:, 0] = 1.0  # float softmax can saturate exactly
        assert mlp.loss(probs, np.array([0, 0])) >= 0.0

    def test_all_ones_weights_reduce(self):
        rng = np.random.default_rng(8)
        probs = rng.dirichlet(np.ones(5), size=20)
        y = rng.integers(0, 5, 20)
        plain = mlp.loss(probs, y)
        weighted = mlp.loss(probs, y, ClassWeights(np.ones(5)))
        assert abs(plain - weighted) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mlp.loss(np.ones((3, 2)) / 2, np.array([0, 1]))


def finite_difference_gradients(model, x, y, weights, h=1e-4):
    """Central-difference oracle over every parameter."""
    fd_w = [np.zeros_like(w) for w in model.weights]
    fd_b = [np.zeros_like(b) for b in model.biases]
    for arrays, grads in ((model.weights, fd_w), (model.biases, fd_b)):
        for arr, g in zip(arrays, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = mlp.loss(mlp.forward(model, x), y, weights)
                arr[idx] = orig - h
                down = mlp.loss(mlp.forward(model, x), y, weights)
                arr[idx] = orig
                g[idx] = (up - down) / (2 * h)
    return fd_w, fd_b


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        model = mlp.init([5, 4, 3], seed=42)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        w = ClassWeights(np.array([0.5, 1.5, 1.0]))
        gw, gb = mlp.gradients(model, x, y, w)
        fw, fb = finite_difference_gradients(model, x, y, w)
        assert max_relative_error(gw, fw) <= 1e-4
        assert max_relative_error(gb, fb) <= 1e-4

    def test_duplicated_rows_equal_single(self):
        rng = np.random.default_rng(3)
        model = mlp.init([4, 3], seed=1)
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        gw1, gb1 = mlp.gradients(model, x, y)
        gw2, gb2 = mlp.gradients(model, np.vstack([x, x]), np.concatenate([y, y]))
        assert all(np.allclose(a, b, atol=1e-12) for a, b in zip(gw1, gw2))
        assert all(np.allclose(a, b, atol=1e-12) for a, b in zip(gb1, gb2))

    def test_near_zero_at_perfect_point(self):
        model = mlp.init([2, 2], seed=0)
        model.weights[0][:] = np.array([[40.0, -40.0], [-40.0, 40.0]])
        x = np.array([[1.0, -1.0], [-1.0, 1.0]])
        y = np.array([0, 1])
        gw, gb = mlp.gradients(model, x, y)
        assert max(np.abs(g).max() for g in gw + gb) <= 1e-10


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            mlp.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            mlp.TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            mlp.TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            mlp.TrainConfig(optimizer="lbfgs")

    def test_separable_toy_reaches_full_accuracy(self):
        toy = toy_dataset()
        model = mlp.init([2, 8, 2], seed=0)
        cfg = mlp.TrainConfig(epochs=20, batch_size=16, learning_rate=1e-2, seed=0)
        _, history = mlp.train(model, toy, toy, cfg)
        assert len(history) == 20
        assert history[-1].val_accuracy == 1.0
        assert all(
            h.train_loss >= 0 and h.val_loss >= 0 and 0 <= h.val_accuracy <= 1
            for h in history
        )

    def test_uniform_weights_match_unweighted(self):
        toy = toy_dataset()
        m1, m2 = mlp.init([2, 4, 2], 1), mlp.init([2, 4, 2], 1)
        base = dict(epochs=3, batch_size=32, seed=3)
        _, h1 = mlp.train(m1, toy, toy, mlp.TrainConfig(**base))
        _, h2 = mlp.train(
            m2, toy, toy,
            mlp.TrainConfig(**base, class_weights=ClassWeights(np.ones(2))),
        )
        assert [(e.train_loss, e.val_loss) for e in h1] == [
            (e.train_loss, e.val_loss) for e in h2
        ]
        assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))

    def test_deterministic(self):
        toy = toy_dataset()
        runs = []
        for _ in range(2):
            model = mlp.init([2, 4, 2], 9)
            mlp.train(model, toy, toy, mlp.TrainConfig(epochs=2, batch_size=32, seed=9))
            runs.append(model)
        assert all(
            np.array_equal(a, b) for a, b in zip(runs[0].weights, runs[1].weights)
        )

    def test_non_finite_loss_aborts(self):
        toy = toy_dataset(n=50)
        model = mlp.init([2, 4, 2], 0)
        model.weights[0][:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLossError) as err:
                mlp.train(model, toy, toy, mlp.TrainConfig(epochs=2, batch_size=32, seed=0))
        assert err.value.epoch == 1

    def test_label_out_of_range(self):
        toy = toy_dataset(n=20)
        model = mlp.init([2, 4, 2], 0)
        bad = EncodedDataset(
            x=toy.x, y=np.full(toy.n, 5, dtype=np.int32),
            class_names=toy.class_names, scaling=[],
        )
        with pytest.raises(ShapeMismatchError):
            mlp.train(model, bad, toy, mlp.TrainConfig(epochs=1))

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_single_step_decreases_convex_loss(self, optimizer):
        model = mlp.init([3, 2], seed=2)
        x = np.array([[0.5, -1.0, 2.0], [1.0, 0.3, -0.7], [-0.2, 0.8, 0.1]])
        y = np.array([0, 1, 0])
        before = mlp.loss(mlp.forward(model, x), y)
        cfg = mlp.TrainConfig(learning_rate=1e-3, optimizer=optimizer, seed=0)
        mlp.optimizer_step(model, x, y, cfg)
        after = mlp.loss(mlp.forward(model, x), y)
        assert after < before

    def test_history_csv(self):
        history = [mlp.EpochStats(0.5, 0.4, 0.9), mlp.EpochStats(0.3, 0.2, 0.95)]
        text = mlp.history_csv(history).decode()
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert len(lines) == 3
        assert lines[1].startswith("1,0.5,")


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = mlp.init([7, 5, 3], seed=13)
        path = tmp_path / "model.zmlp"
        mlp.save(model, path)
        loaded = mlp.load(path)
        assert loaded.dims == model.dims
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, model.biases))

    def test_save_deterministic(self, tmp_path):
        model = mlp.init([4, 3], seed=2)
        mlp.save(model, tmp_path / "a")
        mlp.save(model, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.zmlp"
        mlp.save(mlp.init([4, 3], 0), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(CorruptModelError):
            mlp.load(path)

    def test_corrupted_checksum(self, tmp_path):
        path = tmp_path / "model.zmlp"
        mlp.save(mlp.init([4, 3], 0), path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptModelError):
            mlp.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.zmlp"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(CorruptModelError):
            mlp.load(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.zmlp"
        mlp.save(mlp.init([4, 3], 0), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 42
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            mlp.load(path)
