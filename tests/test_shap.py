"""Kernel weighting, coalition sampling, the WLS solve, and the exact oracle."""

import contextlib
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from zids import _blas, mlp, shap
from zids.errors import (
    BadBudgetError,
    OutOfRangeError,
    ShapeMismatchError,
    SingularSystemError,
    TooManyFeaturesError,
)


def random_mlp_fn(m, k=3, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    model = mlp.init([m, 6, k], seed)
    for w in model.weights:
        w += rng.normal(scale=scale, size=w.shape)
    return lambda z: mlp.forward(model, z)


class TestKernelWeight:
    def test_reference_values(self):
        assert shap.kernel_weight(4, 1) == pytest.approx(0.25, abs=1e-15)
        assert shap.kernel_weight(4, 2) == pytest.approx(0.125, abs=1e-15)

    def test_symmetry(self):
        for m in range(2, 12):
            for s in range(1, m):
                assert shap.kernel_weight(m, s) == pytest.approx(
                    shap.kernel_weight(m, m - s), rel=1e-12
                )

    def test_constraint_sizes_rejected(self):
        with pytest.raises(OutOfRangeError):
            shap.kernel_weight(4, 0)
        with pytest.raises(OutOfRangeError):
            shap.kernel_weight(4, 4)


class TestCoalitions:
    def test_small_budget_enumerates_fully(self):
        masks, weights = shap.enumerate_or_sample_coalitions(3, 10, seed=0)
        assert masks.shape == (6, 3) and masks.dtype == bool
        assert weights.shape == (6,) and weights.dtype == np.float64
        sizes = masks.sum(axis=1)
        assert Counter(sizes.tolist()) == {1: 3, 2: 3}
        for s, w in zip(sizes, weights):
            assert w == pytest.approx(shap.kernel_weight(3, int(s)), rel=1e-12)

    def test_budget_respected_with_pairing(self):
        for budget in (2048, 2047):
            masks, weights = shap.enumerate_or_sample_coalitions(20, budget, seed=5)
            assert masks.shape == (budget, 20)
            assert weights.shape == (budget,)
            counts = Counter(map(bytes, masks[: budget - budget % 2]))
            for mask, n in counts.items():
                complement = bytes(~np.frombuffer(mask, dtype=bool))
                assert counts[complement] == n
        # an odd budget leaves the last draw without its complement
        assert 0 < masks[-1].sum() < 20
        assert not np.array_equal(masks[-2], ~masks[-1])

    def test_no_constraint_masks(self):
        masks, weights = shap.enumerate_or_sample_coalitions(12, 500, seed=1)
        sizes = masks.sum(axis=1)
        assert (sizes > 0).all() and (sizes < 12).all()
        assert (weights > 0).all()

    def test_deterministic(self):
        a = shap.enumerate_or_sample_coalitions(15, 300, seed=9)
        b = shap.enumerate_or_sample_coalitions(15, 300, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = shap.enumerate_or_sample_coalitions(15, 300, seed=10)
        assert not np.array_equal(a[0], c[0])

    def test_default_explain_set_pinned(self):
        """Guards the coalition set of the default explain (61 encoded
        features, default budget): any drift in masks, order or weights
        shows here."""
        assert shap.default_budget(61) == 2170
        masks, weights = shap.enumerate_or_sample_coalitions(61, 2170, seed=0)
        digest = hashlib.sha256(masks.tobytes() + weights.tobytes()).hexdigest()
        assert digest == (
            "07278d2890f206f019b3f222ea802d3dc7012cb0b12a570481bf1eca6cf965d8"
        )

    def test_bad_budget(self):
        with pytest.raises(BadBudgetError):
            shap.enumerate_or_sample_coalitions(5, 1, seed=0)


def masked_reference(fn, x, bg, masks):
    """The full broadcast: every (mask, background row) pair evaluated."""
    z = np.where(masks[:, None, :], x, bg).reshape(-1, x.size)
    return fn(z).reshape(masks.shape[0], bg.shape[0], -1).mean(axis=1)


def sparse_background(d, b, changed, seed):
    """x plus b background rows that each differ from x in `changed` columns."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=d)
    bg = np.tile(x, (b, 1))
    for row in bg:
        cols = rng.choice(d, size=changed, replace=False)
        row[cols] = rng.normal(size=changed)
    return x, bg


class CountingFn:
    """Row-wise model that records the size of every call."""

    def __init__(self, m, seed=0):
        self.fn = random_mlp_fn(m, seed=seed)
        self.calls = []

    def __call__(self, z):
        self.calls.append(z.shape[0])
        return self.fn(z)


class TestMaskedEval:
    @pytest.mark.parametrize(
        "case",
        ["duplicate-background", "x-in-background", "single-background",
         "two-key-words"],
    )
    def test_deduplicated_matches_full_broadcast(self, case):
        d = 70 if case == "two-key-words" else 12
        x, bg = sparse_background(d, 9, changed=4, seed=13)
        if case == "duplicate-background":
            bg[[3, 7]] = bg[0]
        elif case == "x-in-background":
            bg[4] = x
        elif case == "single-background":
            bg = bg[:1]
        else:  # differences on both sides of the 64-column word boundary
            bg[:, 66] = x[66] + 1.0
        rng = np.random.default_rng(14)
        masks = rng.random((200, d)) < 0.5
        masks[0] = True
        masks[1] = False
        fn = random_mlp_fn(d, seed=4)
        masked = shap._masked_means(fn, x[None, :], bg, masks)
        assert masked.means.shape == (1, 200, 3)
        np.testing.assert_allclose(masked.means[0], masked_reference(fn, x, bg, masks),
                                   rtol=0, atol=1e-12)
        assert masked.model_rows < masks.shape[0] * bg.shape[0]

    def test_model_sees_each_distinct_row_once(self):
        d = 10
        x, bg = sparse_background(d, 6, changed=2, seed=15)
        masks = np.random.default_rng(16).random((100, d)) < 0.5
        fn = CountingFn(d)
        evaluated = shap._masked_means(fn, x[None, :], bg, masks).model_rows
        distinct = sum(
            len({tuple(mask[row != x]) for mask in masks}) for row in bg
        )
        assert distinct <= 4 * bg.shape[0]
        assert sum(fn.calls) == evaluated == distinct

    def test_chunked_runs_bit_identical(self):
        d = 16
        x, bg = sparse_background(d, 40, changed=6, seed=17)
        masks = np.random.default_rng(18).random((300, d)) < 0.5
        runs = []
        for _ in range(2):
            fn = CountingFn(d, seed=5)
            runs.append(shap._masked_means(fn, x[None, :], bg, masks))
            assert len(fn.calls) > 1
            assert max(fn.calls) <= shap._CHUNK_ROWS
        a, b = runs
        assert a.model_rows > shap._CHUNK_ROWS
        assert a.means.tobytes() == b.means.tobytes()
        np.testing.assert_allclose(a.means[0], masked_reference(fn, x, bg, masks),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2049, 3000])
    def test_pieces_are_range_slices(self, n):
        pieces = shap._pieces(n)
        assert [(p.start, p.stop) for p in pieces] == [
            (a, min(a + shap._CHUNK_ROWS, n)) for a in range(0, n, shap._CHUNK_ROWS)]

    def test_signed_zero_is_a_difference(self):
        # -0.0 == 0.0, but the masked row must still carry x's sign bit
        fn = lambda z: np.signbit(z).astype(np.float64)
        x = np.array([-0.0, 1.0])
        bg = np.array([[0.0, 1.0]])
        masks = np.array([[True, False], [False, True]])
        v = shap._masked_means(fn, x[None, :], bg, masks).means[0]
        assert v.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_all_on_is_model_output(self):
        fn = random_mlp_fn(5, seed=2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=5)
        bg = rng.normal(size=(8, 5))
        v = shap.masked_eval(fn, x, bg, [True] * 5)
        assert np.allclose(v, fn(x[None, :])[0], atol=1e-12)

    def test_all_off_is_base_value(self):
        fn = random_mlp_fn(5, seed=2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=5)
        bg = rng.normal(size=(8, 5))
        v = shap.masked_eval(fn, x, bg, [False] * 5)
        assert np.allclose(v, fn(bg).mean(axis=0), atol=1e-12)

    def test_single_background_row(self):
        fn = random_mlp_fn(4, seed=3)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        bg = np.array([[0.0, 0.0, 0.0, 0.0]])
        mask = [True, False, True, False]
        expected = fn(np.array([[1.0, 0.0, 3.0, 0.0]]))[0]
        assert np.allclose(shap.masked_eval(fn, x, bg, mask), expected, atol=1e-12)

    def test_width_mismatch(self):
        fn = random_mlp_fn(4)
        with pytest.raises(ShapeMismatchError):
            shap.masked_eval(fn, np.ones(4), np.ones((3, 5)), [True] * 4)

    @pytest.mark.parametrize("bg", [np.ones(4), np.ones((0, 4))], ids=["1d", "empty"])
    def test_background_must_be_nonempty_2d(self, bg):
        fn = random_mlp_fn(4)
        with pytest.raises(ShapeMismatchError):
            shap.masked_eval(fn, np.ones(4), bg, [True] * 4)
        with pytest.raises(ShapeMismatchError):
            shap.kernel_shap(fn, np.ones((1, 4)), bg)


SHARING = ["all-background", "some-background", "duplicate-rows",
           "two-key-words", "odd-budget"]


def sharing_case(case):
    """Explained rows, background and masks for one shape of sharing: rows
    that differ in a few columns, as KDD rows do."""
    d = 70 if case == "two-key-words" else 10
    x, bg = sparse_background(d, 8, changed=3, seed=43)
    if case == "two-key-words":  # differences on both sides of column 64
        bg[::2, 3] += 1.0
        bg[1::2, 66] += 1.0
    rows = bg.copy()
    if case == "some-background":
        rows = np.concatenate([bg[[1, 4, 6]], x[None, :], x[None, :] + 0.5])
    elif case == "duplicate-rows":
        bg[5] = bg[2]
        rows = np.concatenate([bg[[2, 5, 3, 3]], x[None, :], x[None, :]])
    elif case == "odd-budget":
        rows = np.concatenate([bg[:5], x[None, :]])
    budget = 201 if case == "odd-budget" else 200
    masks, _ = shap.enumerate_or_sample_coalitions(d, budget, seed=44)
    return rows, bg, masks


def brute_force_rows(rows, bg, masks, by_step=True):
    """Distinct (unordered row-pattern pair, masked row) over every
    (explained row, background row, mask), each counted once per step:
    the later of the background row's position and the explained row's
    first position in the background (-1 when it has none)."""
    first = {}
    for b, row in enumerate(bg):
        first.setdefault(row.tobytes(), b)
    seen = set()
    for x in rows:
        start = first.get(x.tobytes(), -1)
        for b, g in enumerate(bg):
            pair = frozenset((x.tobytes(), g.tobytes()))
            step = max(b, start) if by_step else 0
            seen.update((step, pair, np.where(mask, x, g).tobytes()) for mask in masks)
    return len(seen)


class TestSharedPairs:
    """_masked_means serves both rows of a pattern pair with one masked row:
    (x over g, mask S) is the row of (g over x, ~S)."""

    @pytest.mark.parametrize("case", SHARING)
    def test_matches_full_broadcast(self, case):
        rows, bg, masks = sharing_case(case)
        fn = random_mlp_fn(bg.shape[1], seed=45)
        masked = shap._masked_means(fn, rows, bg, masks)
        for i, x in enumerate(rows):
            np.testing.assert_allclose(masked.means[masked.row_pattern[i]],
                                       masked_reference(fn, x, bg, masks),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", SHARING)
    def test_each_row_as_if_explained_alone(self, case):
        """With 3 outputs, the means of a row explained among others are the
        bits of that row explained alone, and of numpy's mean over the full
        broadcast at 1 BLAS thread, as the pool runs: neither the grouping
        of masked rows into model calls nor the sharing reaches them."""
        rows, bg, masks = sharing_case(case)
        fn = random_mlp_fn(bg.shape[1], k=3, seed=46)
        masked = shap._masked_means(fn, rows, bg, masks)
        for i in range(rows.shape[0]):
            means = masked.means[masked.row_pattern[i]].tobytes()
            alone = shap._masked_means(fn, rows[i : i + 1], bg, masks)
            assert alone.means[0].tobytes() == means
            with _blas.single_threaded():
                assert masked_reference(fn, rows[i], bg, masks).tobytes() == means

    @pytest.mark.parametrize("case", SHARING)
    def test_model_sees_each_pair_row_once(self, case):
        rows, bg, masks = sharing_case(case)
        fn = CountingFn(bg.shape[1])
        masked = shap._masked_means(fn, rows, bg, masks)
        assert sum(fn.calls) == masked.model_rows == brute_force_rows(rows, bg, masks)
        if case != "duplicate-rows":  # no background row repeats: once per call
            assert masked.model_rows == brute_force_rows(rows, bg, masks, by_step=False)
        assert masked.model_rows < rows.shape[0] * bg.shape[0] * masks.shape[0]
        assert min(fn.calls) > 1

    @pytest.mark.parametrize("case", SHARING)
    def test_shared_pairs_counted(self, case):
        rows, bg, masks = sharing_case(case)
        masked = shap._masked_means(CountingFn(bg.shape[1]), rows, bg, masks)
        both = {r.tobytes() for r in rows} & {g.tobytes() for g in bg}
        assert masked.shared_pairs == len(both) * (len(both) - 1) // 2
        if case in ("all-background", "two-key-words"):
            assert masked.shared_pairs == 28  # 8 distinct rows

    def test_rows_that_are_their_background_halve_the_model_rows(self):
        rows, bg, masks = sharing_case("all-background")
        masked = shap._masked_means(CountingFn(10), rows, bg, masks)
        one_sided = sum(
            shap._masked_means(CountingFn(10), rows[i : i + 1], bg, masks).model_rows
            for i in range(rows.shape[0])
        )
        # the 8 self pairs give one row each and are not shared
        assert masked.model_rows == (one_sided - 8) // 2 + 8

    def test_one_masked_row_is_one_call(self):
        fn = CountingFn(3)
        x = np.array([1.0, 2.0, 3.0])
        v = shap.masked_eval(fn, x, x[None, :], [True, False, True])
        assert fn.calls == [1]
        assert np.array_equal(v, fn.fn(np.stack([x, x]))[0])


class TestKernelShap:
    @pytest.mark.parametrize("names", [
        {"feature_names": ["a", "b", "c"]},
        {"feature_names": ["a", "b", "c", "d", "e"]},
        {"class_names": ["x", "y"]},
        {"class_names": ["w", "x", "y", "z"]},
    ], ids=["3_features", "5_features", "2_classes", "4_classes"])
    def test_name_lists_must_fit(self, names):
        """4 features and 3 model outputs: a name list of another length
        is refused at the call."""
        fn = random_mlp_fn(4, k=3)
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeMismatchError, match="names for"):
            shap.kernel_shap(fn, rng.normal(size=(2, 4)), rng.normal(size=(3, 4)),
                             budget=8, **names)

    def test_dummy_feature_zero(self):
        # model ignores the last coordinate and x matches the background there
        rng = np.random.default_rng(6)
        c = np.array([1.0, -2.0, 3.0, 0.0])
        fn = lambda z: (z @ c)[:, None]
        bg = rng.normal(size=(6, 4))
        bg[:, 3] = 7.0
        x = np.array([0.5, 1.5, -0.5, 7.0])
        expl = shap.kernel_shap(fn, x[None, :], bg, budget=2**4, seed=0)
        assert abs(expl.phi[0, 0, 3]) <= 1e-8

    def test_constant_features_counted_per_row(self):
        # row 0 equals every background row in columns 1 and 4; row 1 only
        # in column 4, and its -0.0 in column 2 differs from 0.0 bit for bit
        rng = np.random.default_rng(12)
        bg = rng.normal(size=(5, 6))
        bg[:, 1] = 2.5
        bg[:, 2] = 0.0
        bg[:, 4] = -1.0
        x = rng.normal(size=(2, 6))
        x[0, [1, 4]] = 2.5, -1.0
        x[1, [1, 2, 4]] = 3.0, -0.0, -1.0
        fn = random_mlp_fn(6, seed=3)
        expl = shap.kernel_shap(fn, x, bg, budget=64, seed=0)
        assert expl.constant_features == (1, 2)
        assert shap.kernel_shap(fn, x[:1], bg, budget=64, seed=0).constant_features == (2, 2)

    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(7)
        c = np.array([1.5, -2.0, 0.7])
        fn = lambda z: (z @ c)[:, None]
        bg = rng.normal(size=(9, 3))
        x = rng.normal(size=3)
        expl = shap.kernel_shap(fn, x[None, :], bg, budget=6, seed=0)
        expected = c * (x - bg.mean(axis=0))
        assert np.abs(expl.phi[0, 0] - expected).max() <= 1e-6

    def test_matches_exact_oracle_under_enumeration(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            m = int(rng.integers(3, 9))
            fn = random_mlp_fn(m, seed=trial)
            bg = rng.normal(size=(5, m))
            x = rng.normal(size=m)
            expl = shap.kernel_shap(fn, x[None, :], bg, budget=2**m, seed=0)
            exact = shap.exact_shapley(fn, x, bg)
            assert np.abs(expl.phi[:, 0, :] - exact).max() <= 1e-8

    def test_sampled_efficiency(self):
        rng = np.random.default_rng(9)
        m = 14
        fn = random_mlp_fn(m, seed=4)
        bg = rng.normal(size=(10, m))
        xs = rng.normal(size=(4, m))
        expl = shap.kernel_shap(fn, xs, bg, budget=400, seed=3)  # sampled: 2^14-2 > 400
        assert expl.fx.tobytes() == fn(xs).tobytes()
        residuals = shap.efficiency_residuals(expl, expl.fx)
        assert residuals.max() <= 1e-6

    def test_linearity_under_shared_coalitions(self):
        rng = np.random.default_rng(10)
        m = 5
        f = random_mlp_fn(m, seed=1)
        g = random_mlp_fn(m, seed=2)
        combined = lambda z: 2.0 * f(z) - 0.5 * g(z)
        bg = rng.normal(size=(6, m))
        x = rng.normal(size=(2, m))
        kwargs = dict(budget=2**m, seed=0)
        phi_f = shap.kernel_shap(f, x, bg, **kwargs).phi
        phi_g = shap.kernel_shap(g, x, bg, **kwargs).phi
        phi_c = shap.kernel_shap(combined, x, bg, **kwargs).phi
        assert np.abs(phi_c - (2.0 * phi_f - 0.5 * phi_g)).max() <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        m = 12
        fn = random_mlp_fn(m, seed=5)
        bg = rng.normal(size=(6, m))
        x = rng.normal(size=(3, m))
        a = shap.kernel_shap(fn, x, bg, budget=256, seed=7)
        b = shap.kernel_shap(fn, x, bg, budget=256, seed=7)
        assert np.array_equal(a.phi, b.phi)

    def test_fortran_ordered_inputs_match_c_order(self):
        rng = np.random.default_rng(23)
        m = 20
        fn = random_mlp_fn(m, seed=8)
        bg = rng.normal(size=(6, m))
        x = rng.normal(size=(3, m))
        bg_f, x_f = np.asfortranarray(bg), np.asfortranarray(x)
        c = shap.kernel_shap(fn, x, bg, budget=256, seed=1)
        f = shap.kernel_shap(fn, x_f, bg_f, budget=256, seed=1)
        assert np.array_equal(f.phi, c.phi)
        mask = rng.random(m) < 0.5
        assert np.array_equal(shap.masked_eval(fn, x_f[0], bg_f, mask),
                              shap.masked_eval(fn, x[0], bg, mask))
        small = 12  # exact_shapley stops at 15 features
        fn = random_mlp_fn(small, seed=8)
        assert np.array_equal(
            shap.exact_shapley(fn, x_f[0, :small], np.asfortranarray(bg[:, :small])),
            shap.exact_shapley(fn, x[0, :small], bg[:, :small]),
        )

    def test_model_rows_counts_every_row_sent(self):
        m = 12
        x, bg = sparse_background(m, 6, changed=3, seed=19)
        fn = CountingFn(m)
        expl = shap.kernel_shap(fn, x[None, :], bg, budget=256, seed=7)
        assert expl.model_rows == sum(fn.calls)
        assert expl.model_rows < 1 + 6 + 256 * 6
        assert expl.ridge_used is False
        assert (expl.budget, expl.masked_rows) == (256, 256 * 6)
        expl = shap.kernel_shap(fn, x[None, :], bg, seed=7)
        assert (expl.budget, expl.masked_rows) == (2 * m + 2048, (2 * m + 2048) * 6)
        expl = shap.kernel_shap(fn, x[None, :], bg, budget=2**m, seed=7)
        assert (expl.budget, expl.masked_rows) == (2**m, (2**m - 2) * 6)

    def test_singular_without_ridge(self):
        # two coalitions cannot identify nine attributions
        fn = random_mlp_fn(10, seed=6)
        rng = np.random.default_rng(12)
        bg = rng.normal(size=(4, 10))
        x = rng.normal(size=(1, 10))
        with pytest.raises(SingularSystemError):
            shap.kernel_shap(fn, x, bg, budget=2, seed=0, ridge=0.0)

    def test_ridge_keeps_degenerate_budget_solvable(self):
        fn = random_mlp_fn(10, seed=6)
        rng = np.random.default_rng(12)
        bg = rng.normal(size=(4, 10))
        x = rng.normal(size=(1, 10))
        expl = shap.kernel_shap(fn, x, bg, budget=2, seed=0)
        assert expl.ridge_used is True
        residuals = shap.efficiency_residuals(expl, fn(x))
        assert residuals.max() <= 1e-6  # efficiency survives regardless

    def test_needs_two_features(self):
        fn = lambda z: z
        with pytest.raises(OutOfRangeError):
            shap.kernel_shap(fn, np.ones((1, 1)), np.ones((2, 1)))


def fake_cores(monkeypatch, cores):
    """kernel_shap sees `cores` BLAS threads to fill, with BLAS still set to
    1 thread while its pool runs."""
    real = _blas.single_threaded

    @contextlib.contextmanager
    def single_threaded():
        with real():
            yield cores

    monkeypatch.setattr(_blas, "single_threaded", single_threaded)


@contextlib.contextmanager
def blas_threads(n):
    """OpenBLAS at n threads for the block; skips without OpenBLAS."""
    before = _blas.get_num_threads()
    if before is None:
        pytest.skip("numpy bundles no OpenBLAS")
    setter = _blas._functions()[1]
    setter(n)
    try:
        yield
    finally:
        setter(before)


class ThirdCallFails(Exception):
    pass


class TestRowPool:
    @staticmethod
    def explain(fn, n_rows):
        rng = np.random.default_rng(31)
        m = 12
        bg = rng.normal(size=(8, m))
        x = rng.normal(size=(n_rows, m))
        return shap.kernel_shap(fn, x, bg, budget=256, seed=4)

    @staticmethod
    def same_bytes(a, b):
        assert a.phi.tobytes() == b.phi.tobytes()
        assert a.base_values.tobytes() == b.base_values.tobytes()
        assert a.model_rows == b.model_rows

    @pytest.mark.parametrize("n_rows", [1, 3, 7])  # 1 row: 2 units, 2 workers
    def test_pool_matches_one_worker(self, monkeypatch, n_rows):
        fn = random_mlp_fn(12, seed=9)
        fake_cores(monkeypatch, 1)
        serial = self.explain(fn, n_rows)
        assert serial.workers == 1
        fake_cores(monkeypatch, 4)
        for _ in range(2):  # a later call in the process gives the same bytes
            pooled = self.explain(fn, n_rows)
            assert 1 < pooled.workers <= 4
            self.same_bytes(pooled, serial)

    def test_without_openblas_one_worker_same_bytes(self, monkeypatch):
        fn = random_mlp_fn(12, seed=9)
        monkeypatch.setattr(_blas, "_functions", lambda: None)
        assert _blas.get_num_threads() is None
        with _blas.single_threaded() as cores:
            assert cores == 1
        serial = self.explain(fn, 7)
        assert serial.workers == 1
        monkeypatch.undo()
        fake_cores(monkeypatch, 4)
        self.same_bytes(self.explain(fn, 7), serial)

    @staticmethod
    def fails_on_third_call():
        inner = random_mlp_fn(12, seed=9)
        calls = itertools.count(1)

        def fn(z):
            if next(calls) == 3:  # the first masked chunk, inside the pool
                raise ThirdCallFails("model failed on call 3")
            return inner(z)

        return fn

    def test_model_error_reaches_caller(self, monkeypatch):
        fake_cores(monkeypatch, 4)
        with pytest.raises(ThirdCallFails, match="model failed on call 3"):
            self.explain(self.fails_on_third_call(), 7)

    def test_blas_thread_count_restored(self):
        inner = random_mlp_fn(12, seed=9)
        seen = []

        def fn(z):
            seen.append(_blas.get_num_threads())
            return inner(z)

        with blas_threads(2):
            assert self.explain(fn, 7).workers == 2
            assert seen[:2] == [2, 2] and set(seen[2:]) == {1}  # pool at 1
            assert _blas.get_num_threads() == 2
            with pytest.raises(ThirdCallFails):
                self.explain(self.fails_on_third_call(), 7)
            assert _blas.get_num_threads() == 2


class TestExactShapley:
    def test_single_feature(self):
        fn = lambda z: (z * 3.0)[:, :1]
        x = np.array([2.0])
        bg = np.array([[0.5], [1.5]])
        phi = shap.exact_shapley(fn, x, bg)
        base = fn(bg).mean(axis=0)
        assert np.allclose(phi[0, 0], fn(x[None, :])[0, 0] - base[0], atol=1e-12)

    def test_symmetric_features(self):
        fn = lambda z: z.sum(axis=1, keepdims=True) ** 2
        x = np.array([1.0, 1.0, 0.0])
        bg = np.zeros((3, 3))
        phi = shap.exact_shapley(fn, x, bg)
        assert phi[0, 0] == pytest.approx(phi[0, 1], abs=1e-12)

    def test_efficiency(self):
        rng = np.random.default_rng(13)
        fn = random_mlp_fn(6, seed=7)
        x = rng.normal(size=6)
        bg = rng.normal(size=(5, 6))
        phi = shap.exact_shapley(fn, x, bg)
        fx = fn(x[None, :])[0]
        base = fn(bg).mean(axis=0)
        assert np.abs(phi.sum(axis=1) + base - fx).max() <= 1e-10

    def test_feature_cap(self):
        fn = lambda z: z[:, :1]
        with pytest.raises(TooManyFeaturesError):
            shap.exact_shapley(fn, np.ones(16), np.ones((2, 16)))


class TestTopFeatures:
    def make_explanation(self):
        phi = np.zeros((2, 3, 4))
        phi[0] = [[1.0, -3.0, 0.5, 0.0]] * 3
        phi[1] = [[2.0, 2.0, 0.1, 4.0]] * 3
        return shap.Explanation(
            phi=phi,
            base_values=np.zeros(2),
            feature_names=["a", "b", "c", "d"],
            class_names=["x", "y"],
        )

    def test_ranked_descending(self):
        top = shap.top_features(self.make_explanation(), 2)
        assert [name for name, _ in top[0]] == ["b", "a"]
        assert [name for name, _ in top[1]] == ["d", "a"]  # tie a/b -> lower index

    def test_clamps_to_feature_count(self):
        top = shap.top_features(self.make_explanation(), 99)
        assert len(top[0]) == 4

    def test_csv_exports(self):
        expl = self.make_explanation()
        lines = shap.top_features_csv(expl, 2).decode().splitlines()
        assert lines[0] == "class,rank,feature,mean_abs_shap"
        assert len(lines) == 5
        class_csv = shap.explanation_csv(expl, 0).decode().splitlines()
        assert class_csv[0].startswith("base_value,")
        assert class_csv[1] == "a,b,c,d"
        assert len(class_csv) == 2 + 3
