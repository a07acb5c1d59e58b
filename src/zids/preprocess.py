"""Dense encoding, stratified splitting, class weights, and container I/O.

Encoded layout: the 38 continuous features (min-max scaled) in schema
order, then one one-hot block per categorical feature in schema order,
values within a block in vocabulary order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Optional, Sequence

import numpy as np

from . import dataset as ds
from .errors import (
    CorruptContainerError,
    DegenerateClassError,
    MissingClassError,
    OutOfRangeError,
    UnknownCategoryError,
)

CONTAINER_MAGIC = b"ZIDS"
CONTAINER_VERSION = 1


@dataclass
class EncodedDataset:
    """Dense numeric matrix with integer class labels.

    x is float32 (row-major), y holds indices into class_names, and
    scaling records the fitted (min, max) per continuous feature in
    schema order.
    """

    x: np.ndarray
    y: np.ndarray
    class_names: list[str]
    scaling: list[tuple[float, float]]

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def k(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class ClassWeights:
    """Per-class loss multipliers, strictly positive with mean 1."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("class weights must be a non-empty vector")
        if not np.all(w > 0):
            raise ValueError("class weights must be positive")
        if abs(float(w.mean()) - 1.0) > 1e-12:
            raise ValueError("class weights must have mean 1")
        object.__setattr__(self, "w", w)


def encoded_width(schema: ds.FeatureSchema) -> int:
    """Width of the encoded matrix: continuous count plus vocabulary sizes."""
    n_cont = len(ds.CONTINUOUS_POSITIONS)
    return n_cont + sum(len(v) for v in schema.vocabularies.values())


def encoded_feature_names(schema: ds.FeatureSchema) -> list[str]:
    """Column names of the encoded matrix, 'service=http' style for one-hots."""
    names = [ds.FEATURE_NAMES[pos] for pos in ds.CONTINUOUS_POSITIONS]
    for pos in ds.CATEGORICAL_POSITIONS:
        feature = ds.FEATURE_NAMES[pos]
        names.extend(f"{feature}={value}" for value in schema.vocabularies[feature])
    return names


def encode_block(block: ds.RecordBlock, schema: ds.FeatureSchema) -> np.ndarray:
    """Unscaled encoded rows of one block: raw continuous values plus one-hot blocks."""
    x = np.zeros((len(block), encoded_width(schema)), dtype=np.float32)
    base = len(ds.CONTINUOUS_POSITIONS)
    x[:, :base] = block.continuous
    rows = np.arange(len(block))
    for j, pos in enumerate(ds.CATEGORICAL_POSITIONS):
        feature = ds.FEATURE_NAMES[pos]
        vocab = schema.vocabularies[feature]
        index = {value: i for i, value in enumerate(vocab)}
        try:
            cols = [index[values[j]] for values in block.categorical]
        except KeyError as exc:
            raise UnknownCategoryError(feature, exc.args[0]) from None
        x[rows, base + np.asarray(cols, dtype=np.intp)] = 1.0
        base += len(vocab)
    return x


def fit_scaling(x: np.ndarray, n_continuous: int) -> list[tuple[float, float]]:
    """Per-column (min, max) over the first n_continuous columns."""
    mins = x[:, :n_continuous].min(axis=0)
    maxs = x[:, :n_continuous].max(axis=0)
    return [(float(lo), float(hi)) for lo, hi in zip(mins, maxs)]


def apply_scaling(x: np.ndarray, scaling: Sequence[tuple[float, float]]) -> None:
    """In-place min-max scaling of the continuous columns.

    Columns with min == max map to 0. Values outside the fitted range
    scale past [0, 1] without error.
    """
    n_continuous = len(scaling)
    mins = np.asarray([lo for lo, _ in scaling], dtype=np.float32)
    ranges = np.asarray([hi - lo for lo, hi in scaling], dtype=np.float32)
    inv = np.zeros_like(ranges)
    nonzero = ranges > 0
    inv[nonzero] = 1.0 / ranges[nonzero]
    x[:, :n_continuous] = (x[:, :n_continuous] - mins) * inv


def allocate_test_count(n_c: int, test_fraction: float) -> int:
    """Test-row allocation for one class: nearest count by remainder.

    Remainders of 0.5 and above round up. A singleton class always stays
    in the training split.
    """
    if n_c <= 1:
        return 0
    return int(math.floor(n_c * test_fraction + 0.5))


def split_indices(
    y: np.ndarray, k: int, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified (train, test) row indices, each sorted ascending.

    Per class the selection is a seeded uniform permutation; classes are
    visited in index order so the result is reproducible.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1): {test_fraction}")
    rng = np.random.default_rng(seed)
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for c in range(k):
        idx = np.flatnonzero(y == c)
        n_c = idx.size
        if n_c == 0:
            raise DegenerateClassError(c)
        n_test = allocate_test_count(n_c, test_fraction)
        perm = rng.permutation(n_c)
        test_parts.append(idx[perm[:n_test]])
        train_parts.append(idx[perm[n_test:]])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return train_idx, test_idx


def class_weights(y: np.ndarray, k: int) -> ClassWeights:
    """Balanced inverse-frequency weights N/(K*n_c), rescaled to mean 1."""
    counts = np.bincount(np.asarray(y, dtype=np.int64), minlength=k)
    for c in range(k):
        if counts[c] == 0:
            raise MissingClassError(c)
    n = counts.sum()
    w = n / (k * counts.astype(np.float64))
    w = w / w.mean()
    return ClassWeights(w=w)


def sample_indices(n_total: int, n: int, seed: int) -> np.ndarray:
    """n distinct row indices drawn uniformly without replacement."""
    if not 1 <= n <= n_total:
        raise OutOfRangeError(f"sample size {n} not in 1..{n_total}")
    return np.random.default_rng(seed).permutation(n_total)[:n]


# --- container format ------------------------------------------------------
#
# Little-endian throughout:
#   magic "ZIDS" | version u32 | N u64 | d u32 | K u32
#   primary class names (u32 count, then u32 length + UTF-8 each)
#   scaling table (u32 count, then f64 min, f64 max each)
#   matrix, row-major f32
#   primary labels, u16
#   primary column name (u32 length + UTF-8)
#   extra label columns (u32 count, then per column: name, u32 K,
#   class names, u16 labels)


@dataclass
class LabelColumn:
    name: str
    class_names: list[str]
    y: np.ndarray


def _write_str(fh: BinaryIO, text: str) -> None:
    raw = text.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def _write_names(fh: BinaryIO, names: Sequence[str]) -> None:
    fh.write(struct.pack("<I", len(names)))
    for name in names:
        _write_str(fh, name)


def _read_exact(fh: BinaryIO, count: int) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise CorruptContainerError("unexpected end of file")
    return raw


def _read_str(fh: BinaryIO) -> str:
    (length,) = struct.unpack("<I", _read_exact(fh, 4))
    return _read_exact(fh, length).decode("utf-8")


def _read_names(fh: BinaryIO) -> list[str]:
    (count,) = struct.unpack("<I", _read_exact(fh, 4))
    return [_read_str(fh) for _ in range(count)]


def write_container(
    path,
    x: np.ndarray,
    scaling: Sequence[tuple[float, float]],
    columns: Sequence[LabelColumn],
) -> None:
    """Persist a matrix with one or more label columns; bit-exact output."""
    if len(columns) == 0:
        raise ValueError("at least one label column is required")
    n, d = x.shape
    primary = columns[0]
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(
            struct.pack("<IQII", CONTAINER_VERSION, n, d, len(primary.class_names))
        )
        _write_names(fh, primary.class_names)
        fh.write(struct.pack("<I", len(scaling)))
        for lo, hi in scaling:
            fh.write(struct.pack("<dd", lo, hi))
        np.ascontiguousarray(x, dtype="<f4").tofile(fh)
        primary.y.astype("<u2").tofile(fh)
        _write_str(fh, primary.name)
        fh.write(struct.pack("<I", len(columns) - 1))
        for column in columns[1:]:
            _write_str(fh, column.name)
            fh.write(struct.pack("<I", len(column.class_names)))
            _write_names(fh, column.class_names)
            fh.write(column.y.astype("<u2").tobytes())


def read_container_columns(path):
    """Parse a container once: (matrix, scaling, label columns)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CONTAINER_MAGIC:
            raise CorruptContainerError(f"bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CONTAINER_VERSION:
            from .errors import VersionMismatchError

            raise VersionMismatchError(version, CONTAINER_VERSION)
        n, d, k = struct.unpack("<QII", _read_exact(fh, 16))
        primary_names = _read_names(fh)
        if len(primary_names) != k:
            raise CorruptContainerError("class name count disagrees with header")
        (n_scaling,) = struct.unpack("<I", _read_exact(fh, 4))
        scaling = [
            struct.unpack("<dd", _read_exact(fh, 16)) for _ in range(n_scaling)
        ]
        x = np.fromfile(fh, dtype="<f4", count=n * d)
        if x.size != n * d:
            raise CorruptContainerError("unexpected end of file")
        x = x.reshape(n, d)
        y = np.fromfile(fh, dtype="<u2", count=n)
        if y.size != n:
            raise CorruptContainerError("unexpected end of file")
        y = y.astype(np.int32)
        primary_name = _read_str(fh)
        (n_extra,) = struct.unpack("<I", _read_exact(fh, 4))
        columns = [LabelColumn(primary_name, primary_names, y)]
        for _ in range(n_extra):
            name = _read_str(fh)
            (k2,) = struct.unpack("<I", _read_exact(fh, 4))
            names2 = _read_names(fh)
            if len(names2) != k2:
                raise CorruptContainerError("extra column class count mismatch")
            y2 = np.fromfile(fh, dtype="<u2", count=n)
            if y2.size != n:
                raise CorruptContainerError("unexpected end of file")
            columns.append(LabelColumn(name, names2, y2.astype(np.int32)))
        if fh.read(1):
            raise CorruptContainerError("trailing bytes after last column")
    return x, [(lo, hi) for lo, hi in scaling], columns


def read_container(path, label_column: Optional[str] = None) -> EncodedDataset:
    """Load a container, selecting a label column (default: the primary)."""
    x, scaling, columns = read_container_columns(path)
    if label_column is None:
        chosen = columns[0]
    else:
        by_name = {c.name: c for c in columns}
        if label_column not in by_name:
            raise CorruptContainerError(
                f"no label column {label_column!r}; available: "
                f"{[c.name for c in columns]}"
            )
        chosen = by_name[label_column]
    return EncodedDataset(
        x=x,
        y=chosen.y,
        class_names=list(chosen.class_names),
        scaling=scaling,
    )
