"""Network engine: init, forward, loss, gradients, training, persistence."""

import tracemalloc
import zlib

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
from zids.preprocess import ClassWeights, EncodedDataset, Rows

from conftest import reference_forward


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
        with pytest.raises(ShapeMismatchError, match="input width 5 does not match"):
            mlp.forward(model, Rows(np.ones((4, 5), dtype=np.float32)))

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
        # 200 rows: blocks of 64, 64, 64 and 8 rows, each one forward() call
        monkeypatch.setattr(mlp, "_SUM_ROWS", 64)
        assert np.array_equal(mlp.predict(model, data.x), np.argmax(probs, axis=1))
        val_loss, val_accuracy = mlp._evaluate(model, data.x, data.y, weights)
        assert val_loss == pytest.approx(mlp.loss(probs, data.y, weights), rel=1e-12)
        assert val_accuracy == np.mean(np.argmax(probs, axis=1) == data.y)


# The truncated and base nets at the synthetic corpus width; the row counts
# are the 1x and 10x test splits, and sizes around one _SUM_ROWS block.
INFERENCE_DIMS = ([61, 112, 4], [61, 256, 112, 23])
INFERENCE_ROWS = (5000, 9159, 26046, 65537, 91582)


class TestInferenceBlocks:
    @pytest.mark.parametrize("n", INFERENCE_ROWS)
    @pytest.mark.parametrize("dims", INFERENCE_DIMS, ids=str)
    def test_bit_identical_to_one_forward_per_block(self, dims, n):
        model = mlp.init(dims, seed=0)
        x = np.random.default_rng(n).random((n, dims[0]), dtype=np.float32)
        covered = 0
        for rows, probs in mlp._probability_blocks(model, x):
            assert rows.start == covered
            assert np.array_equal(probs, mlp.forward(model, x[rows]))
            covered += probs.shape[0]
        assert covered == n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("dims", INFERENCE_DIMS, ids=str)
    def test_row_bits_do_not_depend_on_the_call(self, dims, dtype):
        """Without the padded pieces, calls of other sizes changed some
        rows' last bits, on both nets and in both dtypes."""
        model = mlp.init(dims, seed=0, dtype=dtype)
        rng = np.random.default_rng(7)
        x = rng.random((9159, dims[0]), dtype=np.float32)
        whole = mlp.forward(model, x)
        assert whole.dtype == dtype
        p = mlp._PIECE_ROWS
        for n in (1, 37, p - 1, p + 1, 9159):
            take = rng.permutation(9159)[:n]
            assert np.array_equal(mlp.forward(model, x[take]), whole[take]), n
            blocks = [probs for _, probs in mlp._probability_blocks(model, x[take])]
            assert np.array_equal(np.concatenate(blocks), whole[take]), n
            assert np.array_equal(mlp.predict(model, x[take]),
                                  np.argmax(whole[take], axis=1)), n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("k", [1, 2, 4, 7, 8, 23])
    def test_softmax_matches_the_reference(self, k, dtype):
        """The column-wise softmax gives np.max's and np.sum's bits, on
        either side of np.sum's 8-element blocks, also for tied logits
        (columns 0 and 1 share their weights, and a row of zeros ties every
        class), a row of signed zeros and a row of NaNs."""
        model = mlp.init([6, 9, k], seed=k, dtype=dtype)
        model.weights[-1][:, 1:2] = model.weights[-1][:, :1]
        rng = np.random.default_rng(k)
        x = (rng.normal(size=(1500, 6)) * 4).astype(dtype)
        x[3], x[4], x[5] = 0.0, -0.0, np.nan
        x[6, ::2] = -0.0
        with np.errstate(invalid="ignore"):
            probs, expected = mlp.forward(model, x), reference_forward(model, x)
        assert probs.tobytes() == expected.tobytes()
        assert np.isnan(probs[5]).all() and not np.isnan(np.delete(probs, 5, 0)).any()

    @pytest.mark.parametrize(
        "n, calls",
        [
            (3000, [3000]),
            (9159, [9159]),
            (70000, [65536, 4464]),
        ],
    )
    def test_forward_call_sizes(self, monkeypatch, n, calls):
        """One forward() call per _SUM_ROWS block, and every matmul of it
        _PIECE_ROWS rows tall."""
        model = mlp.init([5, 3, 4], seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 5)).astype(np.float32)
        y = rng.integers(0, 4, n)
        seen, heights = [], set()
        forward, forward_into = mlp.forward, mlp._forward_into

        def recording_forward(model, x_batch):
            seen.append(len(x_batch))
            return forward(model, x_batch)

        def recording_forward_into(model, x, acts, row):
            heights.add(x.shape[0])
            return forward_into(model, x, acts, row)

        monkeypatch.setattr(mlp, "forward", recording_forward)
        monkeypatch.setattr(mlp, "_forward_into", recording_forward_into)
        mlp.predict(model, x)
        assert seen == calls
        seen.clear()
        mlp._evaluate(model, x, y, None)
        assert seen == calls
        assert heights == {mlp._PIECE_ROWS}

    def test_loss_summed_per_block(self):
        # The float sum of a block's losses differs from the sum of its
        # pieces' sums, so the history's val_loss pins where the sums are.
        model = mlp.init([61, 112, 4], seed=0)
        rng = np.random.default_rng(1)
        x = rng.random((70000, 61), dtype=np.float32)
        y = rng.integers(0, 4, 70000)
        weights = ClassWeights(np.array([0.25, 0.5, 1.25, 2.0]))
        nll = weight_sum = correct = 0
        for start in (0, 65536):
            rows = slice(start, start + 65536)
            probs = mlp.forward(model, x[rows])
            block_nll, block_weight = mlp._nll_sum(probs, y[rows], weights)
            nll += block_nll
            weight_sum += block_weight
            correct += int((np.argmax(probs, axis=1) == y[rows]).sum())
        val_loss, val_accuracy = mlp._evaluate(model, x, y, weights)
        assert val_loss == nll / weight_sum
        assert val_accuracy == correct / 70000

    def test_predict_peak_memory(self):
        # One matmul of the whole block would hold 65,536 float64 rows
        # of every layer: 205 MB of activations on this net.
        model = mlp.init([61, 256, 112, 23], seed=0)
        x = np.random.default_rng(0).random((65536, 61), dtype=np.float32)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            mlp.predict(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 64 * 2**20


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


class TestFloat32:
    """The float32 network against the float64 computation on the same
    parameters."""

    @pytest.mark.parametrize("dims", INFERENCE_DIMS, ids=str)
    def test_probabilities_and_gradients_match_float64(self, dims):
        rng = np.random.default_rng(5)
        narrow = mlp.init(dims, seed=3, dtype=np.float32)
        narrow.biases = [rng.normal(scale=0.1, size=b.shape).astype(np.float32)
                         for b in narrow.biases]
        wide = mlp.init(dims, seed=3)
        wide.weights = [w.astype(np.float64) for w in narrow.weights]
        wide.biases = [b.astype(np.float64) for b in narrow.biases]
        x = rng.random((1500, dims[0]), dtype=np.float32)
        y = rng.integers(0, dims[-1], 1500)
        raw = rng.uniform(0.2, 3.0, dims[-1])
        weights = ClassWeights(raw / raw.mean())
        probs = mlp.forward(narrow, x)
        assert probs.dtype == np.float32
        np.testing.assert_allclose(probs, mlp.forward(wide, x), rtol=0, atol=1e-6)
        gw32, gb32 = mlp.gradients(narrow, x, y, weights)
        gw64, gb64 = mlp.gradients(wide, x, y, weights)
        for ours, theirs in zip(gw32 + gb32, gw64 + gb64):
            assert ours.dtype == np.float32
            # entries that cancel to near 0 keep no relative accuracy;
            # they are held to 1e-5 of the array's largest entry
            np.testing.assert_allclose(ours, theirs, rtol=1e-3,
                                       atol=1e-5 * np.abs(theirs).max())

    def test_training_keeps_the_dtype(self):
        toy = toy_dataset()
        model = mlp.init([2, 8, 2], seed=0, dtype=np.float32)
        cfg = mlp.TrainConfig(epochs=3, batch_size=16, learning_rate=1e-2, seed=0)
        _, history = mlp.train(model, toy, toy, cfg)
        assert history[-1].val_accuracy == 1.0
        assert all(p.dtype == np.float32 for p in model.weights + model.biases)
        assert all(isinstance(h.val_loss, float) for h in history)


class TestTrain:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            mlp.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            mlp.TrainConfig(batch_size=0)
        for learning_rate in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and > 0"):
                mlp.TrainConfig(learning_rate=learning_rate)
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
        # train() keeps the overflow's warnings to itself: under
        # filterwarnings = error, one escaping would fail this test
        toy = toy_dataset(n=50)
        for dtype in (np.float64, np.float32):
            model = mlp.init([2, 4, 2], 0, dtype=dtype)
            model.weights[0][:] = np.finfo(dtype).max / 2
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

    def test_data_width_mismatch(self):
        toy = toy_dataset(n=20)  # 2 columns
        model = mlp.init([3, 4, 2], 0)
        with pytest.raises(ShapeMismatchError, match="data width 2/2 vs model width 3"):
            mlp.train(model, toy, toy, mlp.TrainConfig(epochs=1))
        wide = EncodedDataset(x=np.ones((20, 3), np.float32), y=toy.y,
                              class_names=toy.class_names, scaling=[])
        with pytest.raises(ShapeMismatchError, match="data width 3/2 vs model width 3"):
            mlp.train(model, wide, toy, mlp.TrainConfig(epochs=1))

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
        assert mlp.history_csv(history) == (
            b"epoch,train_loss,val_loss,val_accuracy\r\n"
            b"1,0.5,0.4,0.9\r\n"
            b"2,0.3,0.2,0.95\r\n"
        )
        # every digit of a float: repr, not a rounded format
        third = mlp.history_csv([mlp.EpochStats(1 / 3, 0.1 + 0.2, 2 / 3)])
        assert third.endswith(b"\r\n1,0.3333333333333333,0.30000000000000004,"
                              b"0.6666666666666666\r\n")


class ReferenceTrainer:
    """The training step written with fresh arrays for every intermediate:
    forward, loss, backprop and the Adam/SGD update as they were before the
    step moved into a reused workspace. The workspace step must match it
    bit for bit."""

    def __init__(self, model, config):
        self.model = model
        self.config = config
        self.t = 0
        params = [p for pair in zip(model.weights, model.biases) for p in pair]
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, x, y):
        model, cfg = self.model, self.config
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        activations = [x]
        h = x
        last = len(model.weights) - 1
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = h @ w + b
            if i == last:
                shifted = z - z.max(axis=1, keepdims=True)
                e = np.exp(shifted)
                h = e / e.sum(axis=1, keepdims=True)
            else:
                h = np.maximum(z, 0.0)
            activations.append(h)
        probs = h
        n = probs.shape[0]
        cw = cfg.class_weights
        sw = np.ones(n) if cw is None else cw.w[y]
        picked = probs[np.arange(n), y]
        nll = -(sw * np.log(np.minimum(picked + mlp.LOG_FLOOR, 1.0))).sum()
        batch_loss = float(nll) / float(sw.sum())

        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        delta *= (sw / sw.sum())[:, None]
        grads_w = [None] * len(model.weights)
        grads_b = [None] * len(model.weights)
        for i in range(last, -1, -1):
            grads_w[i] = activations[i].T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ model.weights[i].T
                delta[activations[i] <= 0.0] = 0.0

        params = [p for pair in zip(model.weights, model.biases) for p in pair]
        grads = [g for pair in zip(grads_w, grads_b) for g in pair]
        if cfg.optimizer == "sgd":
            for p, g in zip(params, grads):
                p -= cfg.learning_rate * g
            return batch_loss
        self.t += 1
        c1 = 1.0 - mlp.ADAM_BETA1**self.t
        c2 = 1.0 - mlp.ADAM_BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= mlp.ADAM_BETA1
            m += (1.0 - mlp.ADAM_BETA1) * g
            v *= mlp.ADAM_BETA2
            v += (1.0 - mlp.ADAM_BETA2) * g * g
            p -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + mlp.ADAM_EPS)
        return batch_loss


class TestWorkspaceStep:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_reference(self, optimizer, weighted):
        rng = np.random.default_rng(21)
        weights = ClassWeights(np.array([0.3, 1.7, 1.0])) if weighted else None
        cfg = mlp.TrainConfig(batch_size=8, learning_rate=3e-2,
                              optimizer=optimizer, class_weights=weights)
        model = mlp.init([5, 7, 6, 3], seed=4)
        ref = ReferenceTrainer(mlp.init([5, 7, 6, 3], seed=4), cfg)
        state = None
        # full batches, a partial last batch, and a batch larger than
        # batch_size, which replaces the workspace
        for n in (8, 8, 3, 8, 13, 8, 5, 13):
            x = rng.normal(size=(n, 5)).astype(np.float32)
            y = rng.integers(0, 3, size=n).astype(np.int32)
            state, batch_loss = mlp.optimizer_step(model, x, y, cfg, state)
            assert batch_loss == ref.step(x, y)
            for ours, theirs in zip(model.weights + model.biases,
                                    ref.model.weights + ref.model.biases):
                assert np.array_equal(ours, theirs)
        assert state.workspace.rows == 13

    def test_gradients_match_reference_backprop(self):
        rng = np.random.default_rng(8)
        weights = ClassWeights(np.array([0.5, 1.5, 1.0]))
        model = mlp.init([4, 6, 3], seed=2)
        x = rng.normal(size=(9, 4))
        y = rng.integers(0, 3, size=9)
        gw, gb = mlp.gradients(model, x, y, weights)
        cfg = mlp.TrainConfig(learning_rate=1.0, optimizer="sgd",
                              class_weights=weights)
        ref = ReferenceTrainer(mlp.init([4, 6, 3], seed=2), cfg)
        ref.step(x, y)  # with lr = 1 the SGD update is exactly p - g
        for p, g, q in zip(model.weights + model.biases, gw + gb,
                           ref.model.weights + ref.model.biases):
            assert np.array_equal(p - g, q)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_step_allocates_no_batch_sized_array(self, optimizer):
        rng = np.random.default_rng(0)
        model = mlp.init([122, 256, 112, 4], seed=0)
        cfg = mlp.TrainConfig(optimizer=optimizer,
                              class_weights=ClassWeights(np.full(4, 1.0)))
        x = rng.normal(size=(1024, 122)).astype(np.float32)
        y = rng.integers(0, 4, size=1024).astype(np.int32)
        state, _ = mlp.optimizer_step(model, x, y, cfg)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            mlp.optimizer_step(model, x[:1000], y[:1000], cfg, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_activation = 1024 * 256 * 8
        assert peak - start < one_activation // 8

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range_rejected(self, label):
        model = mlp.init([2, 4, 3], seed=0)
        y = np.array([0, label])
        with pytest.raises(ShapeMismatchError):
            mlp.optimizer_step(model, np.ones((2, 2)), y, mlp.TrainConfig())
        with pytest.raises(ShapeMismatchError):
            mlp.gradients(model, np.ones((2, 2)), y)


class TestOutputsDoNotAlias:
    """Callers keep what forward() and gradients() return (kernel_shap keeps
    every chunk's output), so a later call must not write into it."""

    def test_forward(self):
        model = mlp.init([5, 6, 4], seed=1)
        rng = np.random.default_rng(0)
        first = mlp.forward(model, rng.normal(size=(10, 5)))
        kept = first.copy()
        mlp.forward(model, rng.normal(size=(10, 5)))
        mlp.forward(model, rng.normal(size=(4, 5)))
        assert np.array_equal(first, kept)

    def test_gradients(self):
        model = mlp.init([5, 6, 4], seed=1)
        rng = np.random.default_rng(0)
        gw, gb = mlp.gradients(model, rng.normal(size=(10, 5)),
                               rng.integers(0, 4, size=10))
        kept = [g.copy() for g in gw + gb]
        mlp.gradients(model, rng.normal(size=(10, 5)), rng.integers(0, 4, size=10))
        assert all(np.array_equal(g, k) for g, k in zip(gw + gb, kept))


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = mlp.init([7, 5, 3], seed=13, dtype=np.float32)
        model.label_column = "coarse"
        model.feature_names = ["duration", "a", "b", "c", "service=http", "x", "é"]
        model.class_names = ["Normal", "DoS", "Probe"]
        path = tmp_path / "model.zmlp"
        mlp.save(model, path)
        loaded = mlp.load(path)
        assert loaded.dims == model.dims == [7, 5, 3]
        assert loaded.label_column == "coarse"
        assert loaded.feature_names == model.feature_names
        assert loaded.class_names == ["Normal", "DoS", "Probe"]
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, model.biases))
        assert all(p.dtype == np.float32 for p in loaded.weights + loaded.biases)

    def test_save_refuses_float64(self, tmp_path):
        # rounding them would break load(save(m)) == m
        path = tmp_path / "model.zmlp"
        with pytest.raises(TypeError, match="float32"):
            mlp.save(mlp.init([4, 3], seed=0), path)
        assert not path.exists()

    def test_save_deterministic(self, tmp_path):
        model = mlp.init([4, 3], seed=2, dtype=np.float32)
        mlp.save(model, tmp_path / "a")
        mlp.save(model, tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.zmlp"
        mlp.save(mlp.init([4, 3], 0, dtype=np.float32), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(CorruptModelError):
            mlp.load(path)

    def test_corrupted_checksum(self, tmp_path):
        path = tmp_path / "model.zmlp"
        mlp.save(mlp.init([4, 3], 0, dtype=np.float32), path)
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
        mlp.save(mlp.init([4, 3], 0, dtype=np.float32), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 42
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError) as exc:
            mlp.load(path)
        assert str(exc.value) == (f"{path}: unsupported format version 42 "
                                  f"(supported: {mlp.MODEL_VERSION})")

    def test_init_names_classes_under_no_column(self):
        model = mlp.init([4, 3], 0)
        assert model.label_column == ""
        assert model.feature_names == ["f0", "f1", "f2", "f3"]
        assert model.class_names == ["class_0", "class_1", "class_2"]

    @staticmethod
    def assert_names_must_fit_weights(tmp_path, names: str, narrow_dims):
        """save refuses a model whose `names` list does not fit its weights;
        load refuses a checksum-valid file whose name lists, those of a
        narrow_dims model, do not fit the parameters that follow them."""
        path = tmp_path / "model.zmlp"
        model = mlp.init([4, 3], 0, dtype=np.float32)
        setattr(model, names, getattr(model, names)[:2])
        with pytest.raises(ShapeMismatchError) as refused:
            mlp.save(model, path)
        assert str(refused.value) == (
            "feature and class names do not fit layer sizes [4, 3]")
        assert not path.exists()

        mlp.save(mlp.init([4, 3], 0, dtype=np.float32), path)
        wide = path.read_bytes()
        mlp.save(mlp.init(narrow_dims, 0, dtype=np.float32), path)
        narrow = path.read_bytes()
        names_end = len(narrow) - 4 - 4 * mlp.count_parameters(mlp.init(narrow_dims, 0))
        params = wide[len(wide) - 4 - 4 * mlp.count_parameters(model): -4]
        crafted = narrow[:names_end] + params  # the checksum covers every byte
        path.write_bytes(crafted + zlib.crc32(crafted).to_bytes(4, "little"))
        with pytest.raises(CorruptModelError) as refused:
            mlp.load(path)
        left = len(params) - (len(narrow) - 4 - names_end)
        assert str(refused.value) == (
            f"corrupt model file: {path}: {left} bytes left before the checksum")

    def test_class_name_count_must_match_outputs(self, tmp_path):
        self.assert_names_must_fit_weights(tmp_path, "class_names", [4, 2])

    def test_feature_name_count_must_match_inputs(self, tmp_path):
        self.assert_names_must_fit_weights(tmp_path, "feature_names", [2, 3])
