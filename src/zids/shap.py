"""Model-agnostic KernelSHAP: Shapley-kernel coalition weighting, seeded
coalition sampling, and the efficiency-constrained weighted least squares
solve, plus an exact enumeration oracle for small feature counts.

model_fn is any callable mapping a (rows, M) matrix to (rows, K) outputs;
trained classifiers are explained through their probability outputs, one
attribution matrix per class.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from . import _blas
from .errors import (
    BadBudgetError,
    OutOfRangeError,
    ShapeMismatchError,
    SingularSystemError,
    TooManyFeaturesError,
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
    for bit, so that no coalition can vary them. shared_pairs counts the
    pattern pairs whose masked rows served both orientations (see
    _masked_means), and fx holds the model outputs of the explained rows.
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
    """
    if budget < 2:
        raise BadBudgetError(f"budget must be >= 2: {budget}")
    if m < 2:
        raise OutOfRangeError(f"need at least 2 features: {m}")

    if 2**m - 2 <= budget:
        sizes = range(1, m)
        masks = np.concatenate([_subsets(m, s) for s in sizes])
        weights = np.repeat(
            [kernel_weight(m, s) for s in sizes], [math.comb(m, s) for s in sizes]
        )
        return masks, weights

    rng = np.random.default_rng(seed)
    sizes = np.arange(1, m // 2 + 1)  # groups {s, m-s}
    mass = (m - 1) / (sizes * (m - sizes)) * np.where(2 * sizes == m, 1.0, 2.0)
    mass /= mass.sum()

    masks = np.empty((budget, m), dtype=bool)
    weights = np.empty(budget)
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


def _as_background(background: np.ndarray) -> np.ndarray:
    # C order: _masked_means reinterprets rows as uint64 words
    bg = np.ascontiguousarray(background, dtype=np.float64)
    if bg.ndim != 2 or bg.shape[0] < 1:
        raise ShapeMismatchError("background must be a non-empty 2D matrix")
    return bg


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


def _distinct_rows(
    differs: np.ndarray, key_words: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the keys of each pair by key & differs[p].

    differs is (W, pairs) and key_words (W, n). Returns inverse, the
    (pairs, n) index of each (pair, key)'s distinct row, and rows_pair and
    rows_key, the pair and key that stand for each distinct row. The
    (W, pairs, n) keys and the sort live only in here, so one step's
    peak memory stays small while other steps run beside it.
    """
    p, n = differs.shape[1], key_words.shape[1]
    keys = differs[:, :, None] & key_words[:, None, :]  # (W, pairs, n)

    # A stable sort of each pair's keys puts equal keys side by side; the
    # first of each run stands for its group.
    order = np.lexsort(keys[::-1], axis=-1)  # (pairs, n)
    ordered = np.take_along_axis(keys, order[None], axis=-1)
    first = np.ones((p, n), dtype=bool)
    first[:, 1:] = (ordered[:, :, 1:] != ordered[:, :, :-1]).any(axis=0)
    group = (np.cumsum(first) - 1).reshape(p, n)
    inverse = np.empty((p, n), dtype=np.intp)  # (pair, key) -> distinct row
    np.put_along_axis(inverse, order, group, axis=1)
    heads = np.flatnonzero(first)
    return inverse, heads // n, order.reshape(-1)[heads]


def _pieces(n: int) -> list[slice]:
    """range(n) in slices of _CHUNK_ROWS, the last one shorter if need be."""
    return [slice(a, min(a + _CHUNK_ROWS, n)) for a in range(0, n, _CHUNK_ROWS)]


@dataclass
class _Step:
    """One step of _masked_means: the (explained pattern, background
    position) uses it serves and the distinct pattern pairs they need.

    Use u adds its masked outputs to row use_row[u] of the sums, in the
    order of the uses. It reads pair use_pair[u], from the pair's hi side
    when use_flip[u]. A pair's masked row is base with other's bits in the
    keyed columns; a shared pair serves both of its orientations. col
    numbers the pairs within the shared ones and within the others.
    """

    use_row: np.ndarray
    use_pair: np.ndarray
    use_flip: np.ndarray
    base: np.ndarray
    other: np.ndarray
    shared: np.ndarray
    col: np.ndarray


def _steps(
    x_rows: np.ndarray, background: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[_Step]]:
    """The distinct row patterns as uint64 words, each explained row's
    index into the sums (one sum per distinct explained row), and the
    steps of _masked_means, one per background position."""
    n_rows = x_rows.shape[0]
    words = np.concatenate([x_rows, background]).view(np.uint64)
    pats, ids = np.unique(words, axis=0, return_inverse=True)
    ids = ids.reshape(-1)
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
        p = explained[use_row]  # the explained side of each use
        q = np.concatenate([np.full(active.size, bg_ids[s]),
                            bg_ids[: s + 1 if own.size else 0]])
        lo, hi = np.minimum(p, q), np.maximum(p, q)
        pairs, use_pair = np.unique(lo * pats.shape[0] + hi, return_inverse=True)
        use_pair = use_pair.reshape(-1)
        use_flip = p > q
        flipped = np.zeros(pairs.size, dtype=bool)
        flipped[use_pair[use_flip]] = True
        straight = np.zeros(pairs.size, dtype=bool)
        straight[use_pair[~use_flip]] = True
        shared = flipped & straight
        # a pair used one way is keyed as that use sees it, with its
        # background side as base; a shared pair as its lo side sees it
        swap = flipped & ~shared
        pair_lo, pair_hi = np.divmod(pairs, pats.shape[0])
        col = np.where(shared, np.cumsum(shared), np.cumsum(~shared)) - 1
        steps.append(_Step(use_row, use_pair, use_flip, np.where(swap, pair_lo, pair_hi),
                           np.where(swap, pair_hi, pair_lo), shared, col))
    return pats, row_pattern.reshape(-1), steps


def _units(steps: list[_Step], n_masks: int) -> list[list[_Step]]:
    """Consecutive steps grouped until a group has at least two pairs, so
    at least two masked rows, and keys for at least _CHUNK_ROWS rows; a
    last group of fewer than two pairs joins the one before."""
    units, unit, bound, n_pairs = [], [], 0, 0
    for step in steps:
        unit.append(step)
        bound += int(np.where(step.base == step.other, 1, n_masks).sum())
        n_pairs += step.base.size
        if bound >= _CHUNK_ROWS and n_pairs >= 2:
            units.append(unit)
            unit, bound, n_pairs = [], 0, 0
    if unit and n_pairs < 2 and units:
        units[-1].extend(unit)
    elif unit:
        units.append(unit)
    return units


@dataclass
class _Masked:
    """_masked_means' result: means[row_pattern[i], j] is explained row i's
    mean output over the background under mask j."""

    means: np.ndarray  # (distinct explained rows, masks, K)
    row_pattern: np.ndarray
    model_rows: int
    shared_pairs: int
    workers: int


def _masked_means(
    model_fn: Callable, x_rows: np.ndarray, background: np.ndarray, masks: np.ndarray
) -> _Masked:
    """Mean model output over the background for every explained row and
    mask: x_rows[i] where the mask is on, background[b] elsewhere.

    model_fn must be row-wise: each output row depends only on its own
    input row. Rows are compared as patterns, bit for bit. The masked row
    of patterns (p over q, mask S) is q with p's bits where S is on and
    the two differ, so it depends only on the pair and on S & differs;
    and it is the row of (q over p, ~S). Each distinct (unordered pattern
    pair, key) row of a step is built and evaluated once, and serves every
    explained row and orientation that needs it: with the same rows
    explained and in the background, as in the default explain, that
    halves the rows sent to model_fn. A pair used both ways is keyed over
    the union of the masks and their complements, the others over the
    masks alone. Duplicate explained rows share one sum.

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

    Steps are grouped into units (see _units), evaluated in pieces of at
    most _CHUNK_ROWS rows (see _pieces), a unit's last piece shorter, down
    to one row; mlp.forward gives a row the same bits at any call size.
    The units run on a pool of threads, one per thread that OpenBLAS had,
    with OpenBLAS at 1 thread process-wide meanwhile; they are added up
    in order, so the result does not depend on the pool size. The first model_fn error
    cancels the units not yet started and reaches the caller.
    """
    n_masks = masks.shape[0]
    pats, row_pattern, steps = _steps(x_rows, background)
    units = _units(steps, n_masks)

    # Per key set: its (W, keys) words, the key of (mask j, complement of
    # mask j) for each j, and which mask, or complement (>= n_masks), each
    # key stands for. A complement key swaps the pair's roles.
    identity = np.arange(n_masks)
    key_sets = {False: (_packed_words(masks), np.stack([identity, identity]), identity)}
    if any(step.shared.any() for step in steps):
        union, key_of = np.unique(np.concatenate([masks, ~masks]), axis=0,
                                  return_inverse=True)
        key_of = key_of.reshape(2, n_masks)
        rep = np.unique(key_of.reshape(-1), return_index=True)[1]
        key_sets[True] = (_packed_words(union), key_of, rep)
    on = -masks.astype(np.uint64)  # all ones where the mask is on

    def evaluate(unit: list) -> tuple[np.ndarray, list]:
        """The outputs of a unit's distinct rows and, per step, where each
        key set's pairs find their rows: {shared: (slice of the outputs,
        (pairs, keys) inverse)}."""
        parts, index, offset = [], [], 0
        for step in unit:
            segments = {}
            for shared, (words, _, rep) in key_sets.items():
                cols = np.flatnonzero(step.shared == shared)
                if not cols.size:
                    continue
                base, other = step.base[cols], step.other[cols]
                inverse, rows_pair, rows_key = _distinct_rows(
                    _packed_words(pats[base] != pats[other]), words)
                base, other, mask = base[rows_pair], other[rows_pair], rep[rows_key]
                swap = mask >= n_masks
                parts.append((np.where(swap, other, base), np.where(swap, base, other),
                              mask % n_masks))
                segments[shared] = (slice(offset, offset + rows_pair.size), inverse)
                offset += rows_pair.size
            index.append(segments)
        base, other, mask = (np.concatenate(c) for c in zip(*parts))
        outs = []
        for piece in _pieces(offset):
            # base's bits, with other's in the keyed columns
            z = pats.take(base[piece], axis=0)
            z ^= (z ^ pats.take(other[piece], axis=0)) & on.take(mask[piece], axis=0)
            outs.append(_model_output(model_fn, z.view(np.float64)))
        return np.concatenate(outs), index

    sums = None
    model_rows = 0
    with _blas.single_threaded() as cores:
        workers = max(1, min(cores, len(units)))
        with ThreadPoolExecutor(workers) as pool:
            done = _in_order(pool, evaluate, units, workers + 1)
            for unit, (out, index) in zip(units, done):
                if sums is None:
                    sums = np.zeros((row_pattern.max() + 1, n_masks, out.shape[1]))
                model_rows += out.shape[0]
                for step, segments in zip(unit, index):
                    for row, pair, flip in zip(step.use_row, step.use_pair, step.use_flip):
                        shared = bool(step.shared[pair])
                        rows, inverse = segments[shared]
                        keys = inverse[step.col[pair]][key_sets[shared][1][int(flip)]]
                        sums[row] += out[rows].take(keys, axis=0)
    sums /= background.shape[0]
    return _Masked(sums, row_pattern, model_rows,
                   sum(int(step.shared.sum()) for step in steps), workers)


def _in_order(pool: ThreadPoolExecutor, fn: Callable, items: list, ahead: int):
    """fn(item) for each item, run on pool with at most `ahead` submitted
    and not yet taken; yields the results in item order. When one raises,
    the items not yet started are cancelled and the error reaches the
    caller."""
    pending: deque = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= ahead:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def masked_eval(
    model_fn: Callable,
    x: np.ndarray,
    background: np.ndarray,
    mask: Sequence[bool],
) -> np.ndarray:
    """Background-averaged model output for one coalition mask."""
    bg = _as_background(background)
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != bg.shape[1]:
        raise ShapeMismatchError(
            f"row width {x.shape[1]} vs background width {bg.shape[1]}"
        )
    masks = np.asarray(mask, dtype=bool).reshape(1, -1)
    if masks.shape[1] != x.shape[1]:
        raise ShapeMismatchError(f"mask width {masks.shape[1]} vs row width {x.shape[1]}")
    return _masked_means(model_fn, x, bg, masks).means[0, 0]


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

    The masked means come from _masked_means, which evaluates each distinct
    masked row once per call on a pool of threads, one per thread that
    OpenBLAS had, with OpenBLAS set to 1 thread process-wide for the pool's
    lifetime and restored afterwards, also on error. So model_fn may be
    called from several threads at once; it must not share mutable state
    between calls. The result does not depend on the pool size, but at a
    different OpenBLAS thread count the Gram product and solve may differ
    in the last bits.

    Raises ShapeMismatchError when feature_names, if given, does not name
    every column of x_rows or class_names every model output, and
    SingularSystemError when the coalition design is rank-deficient even
    after the documented ridge fallback; the design is shared across
    classes, so the failure is reported for the first class.
    """
    bg = _as_background(background)
    x_rows = np.ascontiguousarray(np.atleast_2d(x_rows), dtype=np.float64)
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
    bg_bits = bg.view(np.uint64)
    constant = [
        int((bg_bits == row).all(axis=0).sum()) for row in x_rows.view(np.uint64)
    ]

    masks, w = enumerate_or_sample_coalitions(m, budget, seed)
    z = masks.astype(np.float64)

    fx = _model_output(model_fn, x_rows)  # (n_rows, K)
    f0 = _model_output(model_fn, bg).mean(axis=0)  # (K,)
    k = fx.shape[1]
    if class_names is not None and len(class_names) != k:
        raise ShapeMismatchError(f"{len(class_names)} class names for {k} model outputs")

    # Constraint elimination: solve for the first m-1 attributions, close
    # the last one with sum(phi) = f(x) - f0.
    x_design = z[:, :-1] - z[:, -1:]
    xw = x_design * w[:, None]
    gram = x_design.T @ xw

    rhs = np.empty((m - 1, n_rows * k))
    deltas = fx - f0[None, :]  # (n_rows, K)
    masked = _masked_means(model_fn, x_rows, bg, masks)
    # at 1 BLAS thread, so these products' bits do not depend on the
    # caller's thread count
    with _blas.single_threaded():
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
        gram_condition=float(np.linalg.cond(gram)),
        workers=masked.workers,
        constant_features=(min(constant, default=0), max(constant, default=0)),
        shared_pairs=masked.shared_pairs,
        fx=fx,
    )


def exact_shapley(
    model_fn: Callable,
    x: np.ndarray,
    background: np.ndarray,
) -> np.ndarray:
    """Exact Shapley values by full subset enumeration; (K, M) array.

    phi_j = sum over S not containing j of
    |S|! (M-|S|-1)! / M! * (v(S + j) - v(S)), with v the background-averaged
    masked evaluation. Costs 2^M evaluations, so M is capped at 15.
    """
    bg = _as_background(background)
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    m = x.size
    if m > 15:
        raise TooManyFeaturesError(f"exact enumeration capped at 15 features: {m}")
    if bg.shape[1] != m:
        raise ShapeMismatchError(
            f"background width {bg.shape[1]} vs row width {m}"
        )

    n_masks = 1 << m
    mask_ints = np.arange(n_masks, dtype=np.int64)
    masks = ((mask_ints[:, None] >> np.arange(m)) & 1).astype(bool)
    v = _masked_means(model_fn, x[None, :], bg, masks).means[0]  # (n_masks, K)
    popcount = masks.sum(axis=1)

    fact = [math.factorial(i) for i in range(m + 1)]
    weight_by_size = np.array(
        [fact[s] * fact[m - s - 1] / fact[m] for s in range(m)]
    )

    k = v.shape[1]
    phi = np.zeros((k, m))
    for j in range(m):
        without_j = mask_ints[(mask_ints >> j) & 1 == 0]
        with_j = without_j | (1 << j)
        w = weight_by_size[popcount[without_j]]
        phi[:, j] = ((v[with_j] - v[without_j]) * w[:, None]).sum(axis=0)
    return phi


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
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["base_value", repr(float(expl.base_values[class_index]))])
    writer.writerow(expl.feature_names)
    for row in expl.phi[class_index]:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode("utf-8")


def top_features_csv(expl: Explanation, k: int) -> bytes:
    """Ranked summary across classes: class,rank,feature,mean_abs_shap."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["class", "rank", "feature", "mean_abs_shap"])
    for c, ranking in enumerate(top_features(expl, k)):
        for rank, (feature, value) in enumerate(ranking, start=1):
            writer.writerow([expl.class_names[c], rank, feature, repr(value)])
    return buf.getvalue().encode("utf-8")
