"""Dense encoding, stratified splitting, class weights, and container I/O.

Encoded layout: the 38 continuous features (min-max scaled) in schema
order, then one one-hot block per categorical feature in schema order,
values within a block in vocabulary order.
"""

from __future__ import annotations

import array
import io
import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Sequence

import numpy as np

from . import dataset as ds
from ._atomic import write_atomic
from .errors import (
    CorruptContainerError,
    DegenerateClassError,
    MissingClassError,
    OutOfRangeError,
    VersionMismatchError,
)

CONTAINER_MAGIC = b"ZIDS"
CONTAINER_VERSION = 2


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


def set_one_hot(
    x: np.ndarray,
    codes: Sequence[np.ndarray],
    take: np.ndarray,
    schema: ds.FeatureSchema,
) -> None:
    """Set the one-hot columns of x from categorical codes, in place.

    codes holds one code vector per categorical feature in schema order,
    each code an index into that feature's vocabulary. Row i of x takes
    the codes at take[i]. Only the 1.0 entries are written, so the one-hot
    columns of x must be zero before.
    """
    base = len(ds.CONTINUOUS_POSITIONS)
    rows = np.arange(take.size)
    for pos, field_codes in zip(ds.CATEGORICAL_POSITIONS, codes):
        x[rows, base + field_codes[take]] = 1.0
        base += len(schema.vocabularies[ds.FEATURE_NAMES[pos]])


def intern(
    values: Sequence[str], value_codes: np.ndarray, index: dict[str, int], codes: array.array
) -> None:
    """Append to codes the index code of each row of a block whose row i
    holds values[value_codes[i]]. index grows by each value it lacks, in
    the order of values, under the next free code; so the codes follow no
    useful order until sort_codes renumbers them."""
    remap = np.asarray([index.setdefault(v, len(index)) for v in values], dtype=np.int32)
    codes.frombytes(remap[value_codes].tobytes())


def sort_codes(index: dict[str, int], codes: array.array) -> tuple[list[str], np.ndarray]:
    """The sorted vocabulary of index, and int32 codes renumbered to match it."""
    vocab = sorted(index)
    rank = {value: i for i, value in enumerate(vocab)}
    remap = np.asarray([rank[v] for v in index], dtype=np.int32)
    return vocab, remap[np.frombuffer(codes, dtype=np.int32)]


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
    continuous = x[:, :n_continuous]  # a view: no (n, 38) temporaries
    continuous -= mins
    continuous *= inv


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
#   magic "ZIDS" | version u32 | N u64 | d u32
#   scaling table (u32 count, then f64 min, f64 max each)
#   matrix, row-major f32
#   label columns (u32 count, then per column: name as u32 length +
#   UTF-8, class names as u32 count + names, N u16 labels)
#   CRC32 of every byte before it, u32


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
        raise EOFError("unexpected end of file")
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
    """Persist a matrix with its label columns; bit-exact output."""
    x = np.ascontiguousarray(x, dtype="<f4")
    n, d = x.shape
    head = CONTAINER_MAGIC + struct.pack("<IQII", CONTAINER_VERSION, n, d, len(scaling))
    head += b"".join(struct.pack("<dd", lo, hi) for lo, hi in scaling)
    labels = io.BytesIO()
    labels.write(struct.pack("<I", len(columns)))
    for column in columns:
        _write_str(labels, column.name)
        _write_names(labels, column.class_names)
        labels.write(column.y.astype("<u2"))
    crc = zlib.crc32(labels.getbuffer(), zlib.crc32(x, zlib.crc32(head)))
    write_atomic(path, [head, x, labels.getbuffer(), struct.pack("<I", crc)])


def read_container_columns(path):
    """Parse a container once: (matrix, scaling, label columns).

    Sizes from the header are checked against the file before anything
    is allocated, and the labels are parsed only once the checksum holds.
    """
    try:
        with open(path, "rb") as fh:
            head = _read_exact(fh, 24)
            if head[:4] != CONTAINER_MAGIC:
                raise CorruptContainerError(f"bad magic {head[:4]!r}")
            version, n, d, n_scaling = struct.unpack_from("<IQII", head, 4)
            if version != CONTAINER_VERSION:
                raise VersionMismatchError(version, CONTAINER_VERSION)
            left = os.fstat(fh.fileno()).st_size - len(head) - 4
            if 16 * n_scaling + 4 * n * d > left:
                raise CorruptContainerError("header sizes exceed the file")
            table = _read_exact(fh, 16 * n_scaling)
            x = np.empty((n, d), dtype="<f4")
            fh.readinto(x)  # a short read fails the checksum
            rest = fh.read()
        crc = zlib.crc32(table, zlib.crc32(head))
        crc = zlib.crc32(rest[:-4], zlib.crc32(x, crc))
        if rest[-4:] != struct.pack("<I", crc):
            raise CorruptContainerError("checksum mismatch")
        labels = io.BytesIO(rest[:-4])
        columns = []
        for _ in range(struct.unpack("<I", _read_exact(labels, 4))[0]):
            name = _read_str(labels)
            class_names = _read_names(labels)
            y = np.frombuffer(_read_exact(labels, 2 * n), dtype="<u2")
            columns.append(LabelColumn(name, class_names, y.astype(np.int32)))
        if labels.read(1):
            raise CorruptContainerError("trailing bytes after last column")
    except (EOFError, struct.error, ValueError) as exc:
        raise CorruptContainerError(str(exc)) from None
    return x, list(struct.iter_unpack("<dd", table)), columns


def read_container(path, label_column: str) -> EncodedDataset:
    """Load a container under one of its label columns, chosen by name."""
    x, scaling, columns = read_container_columns(path)
    by_name = {c.name: c for c in columns}
    if label_column not in by_name:
        raise CorruptContainerError(
            f"no label column {label_column!r}; available: {list(by_name)}"
        )
    chosen = by_name[label_column]
    return EncodedDataset(
        x=x,
        y=chosen.y,
        class_names=list(chosen.class_names),
        scaling=scaling,
    )
