"""Model-agnostic KernelSHAP: Shapley-kernel coalition weighting, seeded
coalition sampling, and the efficiency-constrained weighted least squares
solve.

model_fn is any callable mapping a (rows, M) matrix to (rows, K) outputs;
trained classifiers are explained through their probability outputs, one
attribution matrix per class.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from . import _blas
from ._atomic import csv_bytes
from ._rows import distinct_rows
from .errors import (
    BadBudgetError,
    OutOfRangeError,
    ShapeMismatchError,
    SingularSystemError,
)

DEFAULT_RIDGE = 1e-10
_CHUNK_ROWS = 1024  # masked rows per model_fn call


@dataclass
class Explanation:
    """Per-class attribution matrices with their base values.

    phi has shape (n_classes, n_rows, n_features); base_values[c] is the
    background mean of output c. budget is the coalition budget the call
    resolved, masked_rows the masked rows it averaged over (rows times
    coalitions times background rows), model_rows the rows sent to
    model_fn; ridge_used tells whether the solve needed the ridge fallback.
    gram_condition is the 2-norm condition number of the (m-1)^2 Gram
    matrix of the solve, and workers the number of threads the masked rows
    ran on. constant_features is the (min, max) over the explained rows of
    the number of columns where the row equals every background row bit
    for bit, so that no coalition can vary them. shared_pairs counts, step
    by step, the pattern pairs read from both sides, whose masked rows
    served explained rows on either side of the pair (see _masked_means),
    and fx holds the model outputs of the explained rows.
    """

    phi: np.ndarray
    base_values: np.ndarray
    feature_names: list[str]
    class_names: list[str]
    budget: int = 0
    masked_rows: int = 0
    model_rows: int = 0
    ridge_used: bool = False
    gram_condition: float = 0.0
    workers: int = 1
    constant_features: tuple[int, int] = (0, 0)
    shared_pairs: int = 0
    fx: Optional[np.ndarray] = None

    @property
    def n_classes(self) -> int:
        return self.phi.shape[0]

    @property
    def n_rows(self) -> int:
        return self.phi.shape[1]

    @property
    def n_features(self) -> int:
        return self.phi.shape[2]


def kernel_weight(m: int, s: int) -> float:
    """Shapley kernel weight (m-1) / (C(m,s) * s * (m-s)).

    Defined for proper non-empty coalitions only; s = 0 and s = m are
    infinite-weight constraint cases.
    """
    if m < 2:
        raise OutOfRangeError(f"kernel needs at least 2 features: {m}")
    if not 1 <= s <= m - 1:
        raise OutOfRangeError(f"coalition size {s} not in 1..{m - 1}")
    return (m - 1) / (math.comb(m, s) * s * (m - s))


def default_budget(m: int) -> int:
    """Coalition budget used when none is given: 2m + 2048."""
    return 2 * m + 2048


def _subsets(m: int, s: int) -> np.ndarray:
    """All size-s subsets of range(m) as bool rows, in combinations order."""
    members = np.array(list(combinations(range(m), s)), dtype=np.intp)
    masks = np.zeros((members.shape[0], m), dtype=bool)
    np.put_along_axis(masks, members, True, axis=1)
    return masks


def enumerate_or_sample_coalitions(
    m: int, budget: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """All proper coalitions when they fit the budget, else a seeded sample.

    Returns (masks, weights): an (n, m) bool array and an (n,) float64
    array of Shapley-kernel weights, with n = min(budget, 2^m - 2). The
    empty and full sets never appear; they enter the solve as constraints.

    Under full enumeration each mask gets its exact kernel weight. The
    sampled path spends the budget groupwise: coalition-size groups
    {s, m-s} are fully enumerated in order of kernel mass per subset while
    affordable, each mask followed by its complement, and share the
    group's mass evenly. The remainder is drawn from the leftover size
    distribution, each draw immediately followed by its complement, and
    shares the leftover mass evenly.

    Raises BadBudgetError when budget < 2, or when n masks are more than
    numpy can address; both arrays are allocated before any mask is built.
    """
    if budget < 2:
        raise BadBudgetError(f"budget must be >= 2: {budget}")
    if m < 2:
        raise OutOfRangeError(f"need at least 2 features: {m}")

    n = min(budget, 2**m - 2)
    try:
        masks, weights = np.empty((n, m), dtype=bool), np.empty(n)
    except ValueError:  # a size numpy cannot address
        raise BadBudgetError(f"budget too large for {m} features: {budget}") from None
    if n == 2**m - 2:
        filled = 0
        for s in range(1, m):
            group = slice(filled, filled + math.comb(m, s))
            masks[group], weights[group] = _subsets(m, s), kernel_weight(m, s)
            filled = group.stop
        return masks, weights

    rng = np.random.default_rng(seed)
    sizes = np.arange(1, m // 2 + 1)  # groups {s, m-s}
    mass = (m - 1) / (sizes * (m - sizes)) * np.where(2 * sizes == m, 1.0, 2.0)
    mass /= mass.sum()

    filled = 0
    remaining = mass.copy()
    num_full = 0
    for g, s in enumerate(sizes):
        group_count = math.comb(m, s) * (1 if 2 * s == m else 2)
        budget_left = budget - filled
        if not (
            group_count <= budget_left
            and budget_left * remaining[g] / group_count >= 1.0 - 1e-8
        ):
            break
        sm = _subsets(m, s)
        group = slice(filled, filled + group_count)
        masks[group] = sm if 2 * s == m else np.stack([sm, ~sm], 1).reshape(-1, m)
        weights[group] = mass[g] / group_count
        filled += group_count
        num_full += 1
        if remaining[g] < 1.0:
            remaining[g + 1 :] /= 1.0 - remaining[g]

    if filled < budget:
        tail_sizes = sizes[num_full:]
        probs = mass[num_full:] / mass[num_full:].sum()
        for i in range(filled, budget, 2):
            s = int(rng.choice(tail_sizes, p=probs))
            masks[i] = False
            masks[i, rng.permutation(m)[:s]] = True
            if i + 1 < budget:
                masks[i + 1] = ~masks[i]
        weights[filled:] = float(mass[num_full:].sum()) / (budget - filled)
    return masks, weights


def _as_rows(
    x_rows: np.ndarray, background: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The explained rows (at least 2D) and the background in one C-ordered
    dtype: float32 when both come as float32, float64 otherwise. Rows are
    compared and combined as words of that size (uint32 or uint64, see
    _words), so float32 rows stay float32 all the way to model_fn."""
    x_rows, background = np.atleast_2d(x_rows), np.asarray(background)
    f4 = x_rows.dtype == background.dtype == np.float32
    bg = np.ascontiguousarray(background, dtype=np.float32 if f4 else np.float64)
    if bg.ndim != 2 or bg.shape[0] < 1:
        raise ShapeMismatchError("background must be a non-empty 2D matrix")
    if x_rows.ndim != 2 or x_rows.shape[0] < 1:
        raise ShapeMismatchError("explained rows must be a non-empty 2D matrix")
    return np.ascontiguousarray(x_rows, dtype=bg.dtype), bg


def _words(rows: np.ndarray) -> np.ndarray:
    """C-ordered float rows as unsigned words of their item size, bit for bit."""
    return rows.view(f"u{rows.itemsize}")


def _model_output(model_fn: Callable, z: np.ndarray) -> np.ndarray:
    out = np.asarray(model_fn(z), dtype=np.float64)
    if out.ndim == 1:
        out = out[:, None]
    if out.shape[0] != z.shape[0]:
        raise ShapeMismatchError(
            f"model_fn returned {out.shape[0]} rows for {z.shape[0]} inputs"
        )
    return out


def _packed_words(bits: np.ndarray) -> np.ndarray:
    """(rows, d) bool -> (ceil(d / 64), rows) uint64 words; equal rows give
    equal words."""
    packed = np.packbits(bits, axis=1)
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    return packed.view(np.uint64).T


def _mask_keys(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of the masks and their complements (the keys), as
    bool rows and as packed words (see _packed_words), and key_of: key_of[0][j]
    is mask j's key, key_of[1][j] its complement's."""
    both = np.concatenate([masks, ~masks])
    words = _packed_words(both)
    key_of, _, heads = distinct_rows(words[:, None])
    return both[heads], words[:, heads], key_of.reshape(2, -1)


@dataclass
class _Step:
    """One step of _masked_means: the (explained pattern, background
    position) uses it serves and the distinct pattern pairs they need.

    Use u adds its masked outputs to row use_row[u] of the sums, in the
    order of the uses. It reads pair use_pair[u], from the pair's hi side
    when use_flip[u]. Pair c joins patterns lo[c] <= hi[c]; shared counts
    the pairs read from both sides.
    """

    use_row: np.ndarray
    use_pair: np.ndarray
    use_flip: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    shared: int


def _steps(
    x_rows: np.ndarray, background: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[_Step]]:
    """The distinct row patterns as words of the rows' item size (see
    _words), in ascending order, the first column the most significant;
    each explained row's index into the sums (one sum per distinct
    explained row); and the steps of _masked_means, one per background
    position that has a use."""
    n_rows = x_rows.shape[0]
    words = _words(np.concatenate([x_rows, background]))
    ids, _, heads = distinct_rows(words.T[:, None])
    pats, ids = words[heads], ids[0]
    explained, row_pattern = np.unique(ids[:n_rows], return_inverse=True)
    bg_ids = ids[n_rows:]
    first = np.full(pats.shape[0], -1)
    seen, at = np.unique(bg_ids, return_index=True)
    first[seen] = at
    start = first[explained]  # each pattern's step; -1 if not a background row

    steps = []
    for s in range(bg_ids.size):
        active = np.flatnonzero(start < s)
        own = np.flatnonzero(start == s)  # at most one pattern
        use_row = np.concatenate([active, np.repeat(own, s + 1)])
        if not use_row.size:
            continue
        p = explained[use_row]  # the explained side of each use
        q = np.concatenate([np.full(active.size, bg_ids[s]),
                            bg_ids[: s + 1 if own.size else 0]])
        lo, hi = np.minimum(p, q), np.maximum(p, q)
        pairs, use_pair = np.unique(lo * pats.shape[0] + hi, return_inverse=True)
        use_pair = use_pair.reshape(-1)
        use_flip = p > q
        shared = np.intersect1d(use_pair[use_flip], use_pair[~use_flip]).size
        steps.append(_Step(use_row, use_pair, use_flip,
                           *np.divmod(pairs, pats.shape[0]), shared))
    return pats, row_pattern.reshape(-1), steps


def _read_rows(
    pats: np.ndarray, step: _Step, key_words: np.ndarray, key_of: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair and key of each distinct row that a step's uses read, and
    each use's (masks,) index into those rows: from the lo side the keys
    of the masks (key_of[0]), from the hi side their complements'. Each
    pair's keys are grouped on key & differs, which is all a masked row
    depends on, so any key of a group builds its row. A function of its
    own, so that the (W, pairs, keys) arrays of the grouping are freed
    before the step's rows are evaluated."""
    differs = _packed_words(pats[step.lo] != pats[step.hi])
    inverse, rows_pair, rows_key = distinct_rows(
        differs[:, :, None] & key_words[:, None, :])
    reads = inverse[step.use_pair[:, None], key_of[step.use_flip.astype(np.intp)]]
    read = np.zeros(rows_pair.size, dtype=bool)
    read[reads] = True
    return rows_pair[read], rows_key[read], (np.cumsum(read) - 1)[reads]


@dataclass
class _Masked:
    """_masked_means' result: means[row_pattern[i], j] is explained row i's
    mean output over the background under mask j."""

    means: np.ndarray  # (distinct explained rows, masks, K)
    row_pattern: np.ndarray
    model_rows: int
    shared_pairs: int
    workers: int


def _masked_means(model_fn: Callable, x_rows: np.ndarray, background: np.ndarray,
                  masks: np.ndarray, cores: int) -> _Masked:
    """Mean model output over the background for every explained row and
    mask: x_rows[i] where the mask is on, background[b] elsewhere.

    model_fn must be row-wise: each output row depends only on its own
    input row. x_rows and background are C-ordered and share one dtype,
    float32 or float64, which the masked rows sent to model_fn keep. Rows
    are compared as patterns, bit for bit, and built as words of that
    size (see _words), so a float32 row moves half the bytes. The masked row
    of patterns (p over q, mask S) is q with p's bits where S is on and
    the two differ, so it depends only on the pair and on S & differs;
    and it is the row of (q over p, ~S). So every pattern pair is keyed
    once, over the union of the masks and their complements (_mask_keys),
    as its lo side sees it: a use from the lo side reads the key of mask
    j, one from the hi side the key of its complement. Each step evaluates
    only the distinct (unordered pattern pair, key) rows its uses read,
    once, and each serves every explained row and orientation that reads
    it: with the same rows explained and in the background, as in the
    default explain, that halves the rows sent to model_fn. Duplicate
    explained rows share one sum. Patterns, keys and each step's rows are
    grouped by distinct_rows.

    The work streams by background position. Step s serves every (explained
    pattern, position) use whose later member is s, where a pattern that
    is also a background row is a member at its first position: such a
    pattern takes positions 0..s at its own step, and the others one
    position per step. So every explained row adds its outputs in
    background order, as numpy's mean over a (masks, background, K) array
    does for K >= 2, and the means are the same bits as that mean of the
    same outputs. With K = 1 numpy sums pairwise, and the last bits may
    differ. No pair outlives its step; a background row that repeats an
    earlier one is evaluated again at each step that needs it.

    Each step is one task of ThreadPoolExecutor.map on a pool of threads,
    one per core, capped at the number of steps; the caller holds OpenBLAS
    at 1 thread and passes the cores the pool may fill. A step is
    evaluated in pieces of at most _CHUNK_ROWS rows, its last piece
    shorter, down to one row; mlp.forward gives a row the same bits at any
    call size. map yields the steps' outputs in step order and they are
    added up in that order, so the result does not depend on the pool
    size. The first model_fn error reaches the caller, and map cancels the
    steps not yet started.
    """
    n_masks = masks.shape[0]
    pats, row_pattern, steps = _steps(x_rows, background)
    keys, key_words, key_of = _mask_keys(masks)
    on = -keys.astype(pats.dtype)  # all ones where the key is on

    def evaluate(step: _Step) -> tuple[np.ndarray, np.ndarray]:
        """The outputs of the distinct rows a step's uses read, and each
        use's (masks,) index into them."""
        pair, key, reads = _read_rows(pats, step, key_words, key_of)
        outs = []
        for a in range(0, key.size, _CHUNK_ROWS):
            piece = slice(a, a + _CHUNK_ROWS)
            rows = pair[piece]
            # hi's bits, with lo's in the keyed columns
            z = pats.take(step.hi[rows], axis=0)
            z ^= (z ^ pats.take(step.lo[rows], axis=0)) & on.take(key[piece], axis=0)
            outs.append(_model_output(model_fn, z.view(x_rows.dtype)))
        return np.concatenate(outs), reads

    sums = None
    model_rows = 0
    workers = max(1, min(cores, len(steps)))
    with ThreadPoolExecutor(workers) as pool:
        for step, (out, reads) in zip(steps, pool.map(evaluate, steps)):
            if sums is None:
                sums = np.zeros((row_pattern.max() + 1, n_masks, out.shape[1]))
            model_rows += out.shape[0]
            for row, index in zip(step.use_row, reads):
                sums[row] += out.take(index, axis=0)
    sums /= background.shape[0]
    return _Masked(sums, row_pattern, model_rows,
                   sum(step.shared for step in steps), workers)


def kernel_shap(
    model_fn: Callable,
    x_rows: np.ndarray,
    background: np.ndarray,
    budget: Optional[int] = None,
    seed: int = 0,
    feature_names: Optional[Sequence[str]] = None,
    class_names: Optional[Sequence[str]] = None,
    ridge: float = DEFAULT_RIDGE,
) -> Explanation:
    """Shapley attributions for each row and class via weighted least squares.

    One coalition set is drawn per call and reused for every explained row,
    so attributions are deterministic given (model, rows, background,
    budget, seed). The efficiency constraint (attributions sum to
    f(x) - base) is eliminated by substituting the last feature, which
    makes it hold exactly. Under full coalition enumeration the solution
    equals the exact Shapley values.

    x_rows and background keep float32 when both are float32; anything
    else is cast to float64. model_fn sees the rows in that dtype, and its
    outputs enter the means and the solve as float64 either way, so a
    float32 model gives the same bits from float32 rows as from the same
    values in float64.

    OpenBLAS is set to 1 thread process-wide from the first model call to
    the condition number, and restored afterwards, also on error; so the
    result has the same bits at any OpenBLAS thread count. The masked
    means come from _masked_means, which evaluates each distinct masked
    row once per call on a pool of threads, one per thread that OpenBLAS
    had. So model_fn may be called from several threads at once; it must
    not share mutable state between calls. The result does not depend on
    the pool size.

    Raises ShapeMismatchError when there is no explained row or no
    background row, when feature_names, if given, does not name every
    column of x_rows or class_names every model output, and
    SingularSystemError when the coalition design is rank-deficient even
    after the documented ridge fallback; the design is shared across
    classes, so the failure is reported for the first class.
    """
    x_rows, bg = _as_rows(x_rows, background)
    n_rows, m = x_rows.shape
    if m < 2:
        raise OutOfRangeError(f"need at least 2 features to explain: {m}")
    if bg.shape[1] != m:
        raise ShapeMismatchError(
            f"background width {bg.shape[1]} vs explained width {m}"
        )
    if feature_names is not None and len(feature_names) != m:
        raise ShapeMismatchError(f"{len(feature_names)} feature names for {m} features")
    if budget is None:
        budget = default_budget(m)
    bg_bits = _words(bg)
    constant = [int((bg_bits == row).all(axis=0).sum()) for row in _words(x_rows)]

    masks, w = enumerate_or_sample_coalitions(m, budget, seed)
    z = masks.astype(np.float64)
    # Constraint elimination: solve for the first m-1 attributions, close
    # the last one with sum(phi) = f(x) - f0.
    x_design = z[:, :-1] - z[:, -1:]
    xw = x_design * w[:, None]

    with _blas.single_threaded() as cores:  # the pool fills the cores
        fx = _model_output(model_fn, x_rows)  # (n_rows, K)
        f0 = _model_output(model_fn, bg).mean(axis=0)  # (K,)
        k = fx.shape[1]
        if class_names is not None and len(class_names) != k:
            raise ShapeMismatchError(
                f"{len(class_names)} class names for {k} model outputs")
        gram = x_design.T @ xw
        rhs = np.empty((m - 1, n_rows * k))
        deltas = fx - f0[None, :]  # (n_rows, K)
        masked = _masked_means(model_fn, x_rows, bg, masks, cores)
        for i, e in enumerate(masked.row_pattern):
            y2 = (masked.means[e] - f0[None, :]) - z[:, -1:] * deltas[i][None, :]
            rhs[:, i * k : (i + 1) * k] = xw.T @ y2
        ridge_used = False
        try:
            solved = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            ridge_used = True
            try:
                solved = np.linalg.solve(gram + ridge * np.eye(m - 1), rhs)
            except np.linalg.LinAlgError:
                raise SingularSystemError(0) from None
        gram_condition = float(np.linalg.cond(gram))

    head = solved.reshape(m - 1, n_rows, k)
    phi = np.empty((k, n_rows, m))
    phi[:, :, :-1] = head.transpose(2, 1, 0)
    phi[:, :, -1] = (deltas - head.sum(axis=0)).T

    if feature_names is None:
        feature_names = [f"f{j}" for j in range(m)]
    if class_names is None:
        class_names = [f"class_{c}" for c in range(k)]
    return Explanation(
        phi=phi,
        base_values=f0,
        feature_names=list(feature_names),
        class_names=list(class_names),
        budget=budget,
        masked_rows=n_rows * masks.shape[0] * bg.shape[0],
        model_rows=n_rows + bg.shape[0] + masked.model_rows,
        ridge_used=ridge_used,
        gram_condition=gram_condition,
        workers=masked.workers,
        constant_features=(min(constant, default=0), max(constant, default=0)),
        shared_pairs=masked.shared_pairs,
        fx=fx,
    )


def top_features(expl: Explanation, k: int) -> list[list[tuple[str, float]]]:
    """Per class, the k features with highest mean |attribution|.

    Ranked descending; ties resolve to the lower feature index. k larger
    than the feature count clamps to all features.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1: {k}")
    out = []
    m = expl.n_features
    take = min(k, m)
    for c in range(expl.n_classes):
        mean_abs = np.abs(expl.phi[c]).mean(axis=0)
        order = np.lexsort((np.arange(m), -mean_abs))[:take]
        out.append([(expl.feature_names[j], float(mean_abs[j])) for j in order])
    return out


def efficiency_residuals(expl: Explanation, fx: np.ndarray) -> np.ndarray:
    """|sum(phi) + base - f(x)| per class and row; (K, n_rows)."""
    fx = np.asarray(fx, dtype=np.float64)
    totals = expl.phi.sum(axis=2) + expl.base_values[:, None]
    return np.abs(totals - fx.T)


def explanation_csv(expl: Explanation, class_index: int) -> bytes:
    """One class's attributions: base_value line, feature header, one row
    per explained instance."""
    return csv_bytes([
        ["base_value", repr(float(expl.base_values[class_index]))],
        expl.feature_names,
        *([repr(v) for v in row] for row in expl.phi[class_index].tolist()),
    ])


def top_features_csv(expl: Explanation, k: int) -> bytes:
    """Ranked summary across classes: class,rank,feature,mean_abs_shap."""
    return csv_bytes([
        ["class", "rank", "feature", "mean_abs_shap"],
        *([expl.class_names[c], rank, feature, repr(value)]
          for c, ranking in enumerate(top_features(expl, k))
          for rank, (feature, value) in enumerate(ranking, start=1)),
    ])
