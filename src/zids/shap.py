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
_CHUNK_ROWS = 1024  # distinct masked rows per model_fn call


@dataclass
class Explanation:
    """Per-class attribution matrices with their base values.

    phi has shape (n_classes, n_rows, n_features); base_values[c] is the
    background mean of output c. budget is the coalition budget the call
    resolved, masked_rows the masked rows it averaged over (rows times
    coalitions times background rows), model_rows the rows sent to
    model_fn; ridge_used tells whether the solve needed the ridge fallback.
    gram_condition is the 2-norm condition number of the (m-1)^2 Gram
    matrix of the solve, and workers the number of threads the explained
    rows ran on. constant_features is the (min, max) over the explained
    rows of the number of columns where the row equals every background
    row bit for bit, so that no coalition can vary them.
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
    # C order: _masked_values reinterprets rows as uint64 words
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


def _mask_arrays(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What _masked_values reads of an (n, d) bool mask set, built once per
    set: its packed words (W, n) and, per mask, a (d,) uint64 row that is
    all ones where the mask is on."""
    return _packed_words(masks), -masks.astype(np.uint64)


def _distinct_rows(
    differs: np.ndarray, mask_words: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the masks of each background row by key, mask & differs[b].

    Returns inverse, the (n, b) index of each (mask, b) pair's distinct row,
    and rows_b and rows_mask, the pair that stands for each distinct row.
    The (W, b, n) keys and the sort live only in here, so one row's peak
    memory stays small while other rows run beside it.
    """
    b, n = differs.shape[1], mask_words.shape[1]
    keys = differs[:, :, None] & mask_words[:, None, :]  # (W, b, n)

    # A stable sort of each background row's keys puts equal keys side by
    # side; the first of each run stands for its group.
    order = np.lexsort(keys[::-1], axis=-1)  # (b, n)
    ordered = np.take_along_axis(keys, order[None], axis=-1)
    first = np.ones((b, n), dtype=bool)
    first[:, 1:] = (ordered[:, :, 1:] != ordered[:, :, :-1]).any(axis=0)
    group = (np.cumsum(first) - 1).reshape(b, n)
    inverse = np.empty((n, b), dtype=np.intp)  # (mask, b) -> distinct row
    np.put_along_axis(inverse.T, order, group, axis=1)
    heads = np.flatnonzero(first)
    return inverse, heads // n, order.reshape(-1)[heads]


def _masked_values(
    model_fn: Callable,
    x: np.ndarray,
    background: np.ndarray,
    mask_words: np.ndarray,
    on: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Mean model output per mask: x where the mask is on, background
    elsewhere. The masks come as _mask_arrays gives them. Returns the
    (n_masks, K) means and the number of rows sent to model_fn.

    model_fn must be row-wise: each output row depends only on its own
    input row. The masked row for background row b is bg[b] with x in the
    masked columns, so it depends only on b and on the mask bits where x
    and bg[b] differ bit for bit. Each distinct (b, mask & differs[b]) row
    is built and evaluated once, in chunks of _CHUNK_ROWS rows, and its
    output is shared by every mask with that key.
    """
    bg_bits = background.view(np.uint64)
    flip = bg_bits ^ x.view(np.uint64)  # (b, d), nonzero where x and bg[b] differ
    inverse, rows_b, rows_mask = _distinct_rows(_packed_words(flip != 0), mask_words)

    parts = []
    for start in range(0, rows_b.size, _CHUNK_ROWS):
        rb = rows_b[start : start + _CHUNK_ROWS]
        rm = rows_mask[start : start + _CHUNK_ROWS]
        # where(mask, x, bg[b]) bit for bit: flip bg's bits in masked columns
        z = bg_bits.take(rb, axis=0)
        z ^= flip.take(rb, axis=0) & on.take(rm, axis=0)
        parts.append(_model_output(model_fn, z.view(np.float64)))
    out = np.concatenate(parts, axis=0)
    # gather and average _CHUNK_ROWS masks at a time: the (masks, b, K)
    # gather of all masks at once would be the largest array of the call
    means = [
        out.take(inverse[start : start + _CHUNK_ROWS], axis=0).mean(axis=1)
        for start in range(0, inverse.shape[0], _CHUNK_ROWS)
    ]
    return np.concatenate(means, axis=0), rows_b.size


def masked_eval(
    model_fn: Callable,
    x: np.ndarray,
    background: np.ndarray,
    mask: Sequence[bool],
) -> np.ndarray:
    """Background-averaged model output for one coalition mask."""
    bg = _as_background(background)
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    if x.size != bg.shape[1]:
        raise ShapeMismatchError(
            f"row width {x.size} vs background width {bg.shape[1]}"
        )
    masks = np.asarray(mask, dtype=bool).reshape(1, -1)
    if masks.shape[1] != x.size:
        raise ShapeMismatchError(f"mask width {masks.shape[1]} vs row width {x.size}")
    values, _ = _masked_values(model_fn, x, bg, *_mask_arrays(masks))
    return values[0]


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

    The explained rows are independent and run on a pool of threads, one
    per thread that OpenBLAS had, with OpenBLAS set to 1 thread process-wide
    for the pool's lifetime and restored afterwards, also on error. So
    model_fn may be called from several threads at once; it must not share
    mutable state between calls. The result does not depend on the pool
    size, but at a different OpenBLAS thread count the Gram product and
    solve may differ in the last bits.

    Raises SingularSystemError when the coalition design is rank-deficient
    even after the documented ridge fallback; the design is shared across
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

    # Constraint elimination: solve for the first m-1 attributions, close
    # the last one with sum(phi) = f(x) - f0.
    x_design = z[:, :-1] - z[:, -1:]
    xw = x_design * w[:, None]
    gram = x_design.T @ xw

    rhs = np.empty((m - 1, n_rows * k))
    deltas = fx - f0[None, :]  # (n_rows, K)
    mask_words, on = _mask_arrays(masks)

    def explain_row(i: int) -> int:
        # each row writes only its own columns of rhs
        v, evaluated = _masked_values(model_fn, x_rows[i], bg, mask_words, on)
        y2 = (v - f0[None, :]) - z[:, -1:] * deltas[i][None, :]
        rhs[:, i * k : (i + 1) * k] = xw.T @ y2
        return evaluated

    # One worker per core that BLAS had, with BLAS itself at 1 thread: idle
    # OpenBLAS threads spin and would slow the workers down. map cancels the
    # rows not yet started when one raises, and the error reaches the caller.
    with _blas.single_threaded() as cores:
        workers = max(1, min(cores, n_rows))
        with ThreadPoolExecutor(workers) as pool:
            evaluated = sum(pool.map(explain_row, range(n_rows)))
    model_rows = n_rows + bg.shape[0] + evaluated

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
        model_rows=model_rows,
        ridge_used=ridge_used,
        gram_condition=float(np.linalg.cond(gram)),
        workers=workers,
        constant_features=(min(constant, default=0), max(constant, default=0)),
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
    v, _ = _masked_values(model_fn, x, bg, *_mask_arrays(masks))  # (n_masks, K)
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
