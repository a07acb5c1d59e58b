"""Kernel weighting, coalition sampling, masked evaluation and the WLS
solve, checked against the full broadcast and the exact Shapley oracle in
conftest, which share no code with zids.shap."""

import contextlib
import hashlib
import time
from collections import Counter

import numpy as np
import pytest

from zids import _blas, _rows, mlp, shap
from zids.errors import (
    BadBudgetError,
    OutOfRangeError,
    ShapeMismatchError,
    SingularSystemError,
)

from conftest import exact_shapley, masked_reference


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


def sparse_background(d, b, changed, seed):
    """x plus b background rows that each differ from x in `changed` columns."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=d)
    bg = np.tile(x, (b, 1))
    for row in bg:
        cols = rng.choice(d, size=changed, replace=False)
        row[cols] = rng.normal(size=changed)
    return x, bg


def masked_means(fn, rows, bg, masks):
    """_masked_means as kernel_shap calls it: OpenBLAS at 1 thread, and
    the pool filling the cores it had."""
    with _blas.single_threaded() as cores:
        return shap._masked_means(fn, rows, bg, masks, cores)


class CountingFn:
    """Row-wise model that records the size and dtype of every call."""

    def __init__(self, m, seed=0):
        self.fn = random_mlp_fn(m, seed=seed)
        self.calls = []
        self.dtypes = []

    def __call__(self, z):
        self.calls.append(z.shape[0])
        self.dtypes.append(z.dtype)
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
        masked = masked_means(fn, x[None, :], bg, masks)
        assert masked.means.shape == (1, 200, 3)
        np.testing.assert_allclose(masked.means[0], masked_reference(fn, x, bg, masks),
                                   rtol=0, atol=1e-12)
        assert masked.model_rows < masks.shape[0] * bg.shape[0]

    def test_model_sees_each_distinct_row_once(self):
        d = 10
        x, bg = sparse_background(d, 6, changed=2, seed=15)
        masks = np.random.default_rng(16).random((100, d)) < 0.5
        fn = CountingFn(d)
        evaluated = masked_means(fn, x[None, :], bg, masks).model_rows
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
            runs.append(masked_means(fn, x[None, :], bg, masks))
            assert len(fn.calls) > 1
            assert max(fn.calls) <= shap._CHUNK_ROWS
        a, b = runs
        assert a.model_rows > shap._CHUNK_ROWS
        assert a.means.tobytes() == b.means.tobytes()
        np.testing.assert_allclose(a.means[0], masked_reference(fn, x, bg, masks),
                                   rtol=0, atol=1e-12)

    def test_signed_zero_is_a_difference(self):
        # -0.0 == 0.0, but the masked row must still carry x's sign bit
        fn = lambda z: np.signbit(z).astype(np.float64)
        x = np.array([-0.0, 1.0])
        bg = np.array([[0.0, 1.0]])
        masks = np.array([[True, False], [False, True]])
        v = masked_means(fn, x[None, :], bg, masks).means[0]
        assert v.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_all_on_is_model_output(self):
        fn = random_mlp_fn(5, seed=2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=5)
        bg = rng.normal(size=(8, 5))
        v = masked_means(fn, x[None, :], bg, np.ones((1, 5), dtype=bool)).means[0, 0]
        assert np.allclose(v, fn(x[None, :])[0], atol=1e-12)

    def test_all_off_is_base_value(self):
        fn = random_mlp_fn(5, seed=2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=5)
        bg = rng.normal(size=(8, 5))
        v = masked_means(fn, x[None, :], bg, np.zeros((1, 5), dtype=bool)).means[0, 0]
        assert np.allclose(v, fn(bg).mean(axis=0), atol=1e-12)

    def test_single_background_row(self):
        fn = random_mlp_fn(4, seed=3)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        bg = np.array([[0.0, 0.0, 0.0, 0.0]])
        mask = np.array([[True, False, True, False]])
        expected = fn(np.array([[1.0, 0.0, 3.0, 0.0]]))[0]
        v = masked_means(fn, x[None, :], bg, mask).means[0, 0]
        assert np.allclose(v, expected, atol=1e-12)

    @pytest.mark.parametrize("bg", [np.ones(4), np.ones((0, 4))], ids=["1d", "empty"])
    def test_background_must_be_nonempty_2d(self, bg):
        fn = random_mlp_fn(4)
        with pytest.raises(ShapeMismatchError):
            shap.kernel_shap(fn, np.ones((1, 4)), bg)


SHARING = ["all-background", "some-background", "duplicate-rows",
           "two-key-words", "odd-budget", "random-masks"]


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
    elif case == "random-masks":  # most masks lack their complement
        masks = np.random.default_rng(44).random((200, d)) < 0.5
        assert len({m.tobytes() for m in masks} & {m.tobytes() for m in ~masks}) < 100
        return np.concatenate([bg[[1, 4, 6]], x[None, :]]), bg, masks
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
        masked = masked_means(fn, rows, bg, masks)
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
        masked = masked_means(fn, rows, bg, masks)
        for i in range(rows.shape[0]):
            means = masked.means[masked.row_pattern[i]].tobytes()
            alone = masked_means(fn, rows[i : i + 1], bg, masks)
            assert alone.means[0].tobytes() == means
            with _blas.single_threaded():
                assert masked_reference(fn, rows[i], bg, masks).tobytes() == means

    @pytest.mark.parametrize("case", SHARING)
    def test_model_sees_each_pair_row_once(self, case):
        rows, bg, masks = sharing_case(case)
        fn = CountingFn(bg.shape[1])
        masked = masked_means(fn, rows, bg, masks)
        assert sum(fn.calls) == masked.model_rows == brute_force_rows(rows, bg, masks)
        if case != "duplicate-rows":  # no background row repeats: once per call
            assert masked.model_rows == brute_force_rows(rows, bg, masks, by_step=False)
        assert masked.model_rows < rows.shape[0] * bg.shape[0] * masks.shape[0]

    @pytest.mark.parametrize("case", SHARING)
    def test_shared_pairs_counted(self, case):
        rows, bg, masks = sharing_case(case)
        masked = masked_means(CountingFn(bg.shape[1]), rows, bg, masks)
        both = {r.tobytes() for r in rows} & {g.tobytes() for g in bg}
        assert masked.shared_pairs == len(both) * (len(both) - 1) // 2
        if case in ("all-background", "two-key-words"):
            assert masked.shared_pairs == 28  # 8 distinct rows

    def test_rows_that_are_their_background_halve_the_model_rows(self):
        rows, bg, masks = sharing_case("all-background")
        masked = masked_means(CountingFn(10), rows, bg, masks)
        one_sided = sum(
            masked_means(CountingFn(10), rows[i : i + 1], bg, masks).model_rows
            for i in range(rows.shape[0])
        )
        # the 8 self pairs give one row each and are not shared
        assert masked.model_rows == (one_sided - 8) // 2 + 8

    def test_one_masked_row_is_one_call(self):
        fn = CountingFn(3)
        x = np.array([1.0, 2.0, 3.0])
        v = masked_means(fn, x[None, :], x[None, :],
                         np.array([[True, False, True]])).means[0, 0]
        assert fn.calls == [1]
        assert np.array_equal(v, fn.fn(np.stack([x, x]))[0])


def lexsort_groups(differs, key_words):
    """The groups of each pair's keys & differs by a stable lexsort: the
    first key of each run of equal keys stands for its group."""
    p, n = differs.shape[1], key_words.shape[1]
    keys = differs[:, :, None] & key_words[:, None, :]
    order = np.lexsort(keys[::-1], axis=-1)
    ordered = np.take_along_axis(keys, order[None], axis=-1)
    first = np.ones((p, n), dtype=bool)
    first[:, 1:] = (ordered[:, :, 1:] != ordered[:, :, :-1]).any(axis=0)
    inverse = np.empty((p, n), dtype=np.intp)
    np.put_along_axis(inverse, order, (np.cumsum(first) - 1).reshape(p, n), axis=1)
    heads = np.flatnonzero(first)
    return inverse, heads // n, order.reshape(-1)[heads]


class TestDistinctRows:
    @pytest.mark.parametrize("words", [1, 2])
    def test_same_groups_as_a_stable_sort(self, words):
        """Keys with many repeats, as a default explain step has: the same
        inverse and pairs as lexsort, and each group's chosen key equal to
        lexsort's on the pair's differing columns."""
        rng = np.random.default_rng(words)
        key_words = rng.integers(0, 2**63, size=(words, 4340), dtype=np.uint64)
        differs = np.zeros((words, 50), dtype=np.uint64)
        for p in range(50):  # a few differing columns per pair
            for w in range(words):
                for bit in rng.choice(64, size=rng.integers(0, 6), replace=False):
                    differs[w, p] |= np.uint64(1) << np.uint64(bit)
        inverse, rows_pair, rows_key = _rows.distinct_rows(
            differs[:, :, None] & key_words[:, None, :])
        ref_inverse, ref_pair, ref_key = lexsort_groups(differs, key_words)
        assert np.array_equal(inverse, ref_inverse)
        assert np.array_equal(rows_pair, ref_pair)
        assert np.array_equal(key_words[:, rows_key] & differs[:, rows_pair],
                              key_words[:, ref_key] & differs[:, ref_pair])
        assert rows_pair.size < differs.shape[1] * key_words.shape[1] // 10

    @pytest.mark.parametrize("words", [1, 2, 5])
    def test_one_batch_as_np_unique(self, words):
        """One batch of rows, as prepare's span words and explain's row
        patterns are grouped: np.unique's groups in np.unique's order, and
        from two words on, the earliest row of each group stands for it."""
        rng = np.random.default_rng(40 + words)
        rows = rng.integers(0, 3, size=(7, words), dtype=np.uint64)[
            rng.integers(0, 7, size=500)]
        rows[:, -1] <<= np.uint64(62)  # high bits count as much as low ones
        inverse, batch, heads = _rows.distinct_rows(rows.T[:, None])
        distinct, first, ref_inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(inverse[0], ref_inverse.reshape(-1))
        assert np.array_equal(rows[heads], distinct)
        assert not batch.any()
        if words > 1:
            assert np.array_equal(heads, first)

    @pytest.mark.parametrize("case", SHARING)
    def test_patterns_and_keys_as_np_unique(self, case):
        """_masked_means' row patterns and mask keys are np.unique's."""
        rows, bg, masks = sharing_case(case)
        words = shap._words(np.concatenate([rows, bg]))
        distinct, ids = np.unique(words, axis=0, return_inverse=True)
        pats, row_pattern, _ = shap._steps(rows, bg)
        assert np.array_equal(pats, distinct)
        _, ref_pattern = np.unique(ids.reshape(-1)[: rows.shape[0]], return_inverse=True)
        assert np.array_equal(row_pattern, ref_pattern.reshape(-1))

        both = np.concatenate([masks, ~masks])
        keys, key_words, key_of = shap._mask_keys(masks)
        distinct = np.unique(both, axis=0)
        assert keys.shape == distinct.shape  # no key twice
        assert np.array_equal(np.unique(keys, axis=0), distinct)
        assert np.array_equal(keys[key_of.reshape(-1)], both)
        assert np.array_equal(key_words, shap._packed_words(keys))


class TestRowDtype:
    """float32 rows stay float32 on their way to model_fn; others become
    float64."""

    def rows(self, dtype):
        x, bg = sparse_background(12, 10, changed=4, seed=51)
        return (np.concatenate([bg[:3], x[None, :]]).astype(dtype),
                bg.astype(dtype))

    @pytest.mark.parametrize("x_dtype, bg_dtype, seen", [
        (np.float32, np.float32, np.float32),
        (np.float64, np.float64, np.float64),
        (np.int64, np.int64, np.float64),
        (np.float32, np.float64, np.float64),
        (np.int32, np.float32, np.float64),
    ], ids=["f32", "f64", "int", "f32-over-f64", "int-over-f32"])
    def test_dtype_reaching_the_model(self, x_dtype, bg_dtype, seen):
        x, _ = self.rows(x_dtype)
        _, bg = self.rows(bg_dtype)
        fn = CountingFn(12, seed=52)
        shap.kernel_shap(fn, x, bg, budget=300)
        assert len(fn.dtypes) > 3
        assert set(fn.dtypes) == {np.dtype(seen)}

    def test_float32_rows_give_the_float64_bits(self):
        """A float32 model gives the same attributions from float32 rows as
        from the same values in float64, and sees as many rows."""
        model = mlp.init([12, 6, 3], seed=53, dtype=np.float32)
        fn = lambda z: mlp.forward(model, z)
        narrow = shap.kernel_shap(fn, *self.rows(np.float32), budget=300)
        x, bg = self.rows(np.float32)
        wide = shap.kernel_shap(fn, x.astype(np.float64), bg.astype(np.float64),
                                budget=300)
        for field in ("phi", "base_values", "fx"):
            assert getattr(narrow, field).tobytes() == getattr(wide, field).tobytes()
        assert narrow.model_rows == wide.model_rows
        assert narrow.constant_features == wide.constant_features


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
            exact = exact_shapley(fn, x, bg)
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

    def test_needs_an_explained_row(self):
        fn = CountingFn(4)
        with pytest.raises(ShapeMismatchError, match="explained rows"):
            shap.kernel_shap(fn, np.ones((0, 4)), np.ones((2, 4)))
        assert fn.calls == []


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
    def explain(fn, n_rows, n_background=8):
        rng = np.random.default_rng(31)
        m = 12
        bg = rng.normal(size=(n_background, m))
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
    def fails_on_third_call(calls=None, pause=0.0):
        """A model whose third call raises; each later call first sleeps
        `pause` seconds, which lets the caller's thread run."""
        inner = random_mlp_fn(12, seed=9)
        calls = calls if calls is not None else []

        def fn(z):
            calls.append(len(z))
            if len(calls) == 3:  # the first masked chunk, inside the pool
                raise ThirdCallFails("model failed on call 3")
            time.sleep(pause if len(calls) > 3 else 0.0)
            return inner(z)

        return fn

    def test_model_error_reaches_caller(self, monkeypatch):
        """The error reaches the caller, and after the failing call only
        the steps already running call the model: 64 background rows make
        64 steps for 4 workers, and the failed explain calls the model far
        fewer times than a whole one."""
        fake_cores(monkeypatch, 4)
        whole = []
        inner = random_mlp_fn(12, seed=9)
        assert self.explain(lambda z: whole.append(len(z)) or inner(z), 7, 64).workers == 4
        failed = []
        with pytest.raises(ThirdCallFails, match="model failed on call 3"):
            self.explain(self.fails_on_third_call(failed, pause=0.005), 7, 64)
        assert len(whole) > 120
        assert len(failed) < len(whole) // 3

    def test_blas_thread_count_restored(self):
        inner = random_mlp_fn(12, seed=9)
        seen = []

        def fn(z):
            seen.append(_blas.get_num_threads())
            return inner(z)

        with blas_threads(2):
            assert self.explain(fn, 7).workers == 2
            assert set(seen) == {1}  # every model call at 1
            assert _blas.get_num_threads() == 2
            with pytest.raises(ThirdCallFails):
                self.explain(self.fails_on_third_call(), 7)
            assert _blas.get_num_threads() == 2


class TestExactShapley:
    def test_single_feature(self):
        fn = lambda z: (z * 3.0)[:, :1]
        x = np.array([2.0])
        bg = np.array([[0.5], [1.5]])
        phi = exact_shapley(fn, x, bg)
        base = fn(bg).mean(axis=0)
        assert np.allclose(phi[0, 0], fn(x[None, :])[0, 0] - base[0], atol=1e-12)

    def test_symmetric_features(self):
        fn = lambda z: z.sum(axis=1, keepdims=True) ** 2
        x = np.array([1.0, 1.0, 0.0])
        bg = np.zeros((3, 3))
        phi = exact_shapley(fn, x, bg)
        assert phi[0, 0] == pytest.approx(phi[0, 1], abs=1e-12)

    def test_efficiency(self):
        rng = np.random.default_rng(13)
        fn = random_mlp_fn(6, seed=7)
        x = rng.normal(size=6)
        bg = rng.normal(size=(5, 6))
        phi = exact_shapley(fn, x, bg)
        fx = fn(x[None, :])[0]
        base = fn(bg).mean(axis=0)
        assert np.abs(phi.sum(axis=1) + base - fx).max() <= 1e-10

    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(14)
        c = np.array([0.5, -1.0, 2.0, 3.5])
        fn = lambda z: (z @ c)[:, None]
        x = rng.normal(size=4)
        bg = rng.normal(size=(6, 4))
        phi = exact_shapley(fn, x, bg)
        np.testing.assert_allclose(phi[0], c * (x - bg.mean(axis=0)), rtol=0, atol=1e-12)

    def test_product_game_splits_evenly(self):
        # v(S) is x0 * x1 for the full set and 0 otherwise
        fn = lambda z: (z[:, 0] * z[:, 1])[:, None]
        x = np.array([3.0, -2.5])
        phi = exact_shapley(fn, x, np.zeros((3, 2)))
        assert phi.tolist() == [[-3.75, -3.75]]


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
        assert shap.top_features_csv(expl, 2) == (
            b"class,rank,feature,mean_abs_shap\r\n"
            b"x,1,b,3.0\r\n"
            b"x,2,a,1.0\r\n"
            b"y,1,d,4.0\r\n"
            b"y,2,a,2.0\r\n"
        )
        assert shap.explanation_csv(expl, 0) == (
            b"base_value,0.0\r\n"
            b"a,b,c,d\r\n"
            + b"1.0,-3.0,0.5,0.0\r\n" * 3
        )
        # every digit of a float: repr, not a rounded format
        expl.phi[1, 0, 0] = 0.1 + 0.2
        expl.base_values[1] = 1 / 3
        assert shap.explanation_csv(expl, 1).startswith(
            b"base_value,0.3333333333333333\r\n"
            b"a,b,c,d\r\n"
            b"0.30000000000000004,2.0,0.1,4.0\r\n"
        )
