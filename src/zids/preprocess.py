"""Encoding, stratified splitting, class weights, and container I/O.

Encoded layout: the 38 continuous features (min-max scaled) in schema
order, then one one-hot block per categorical feature in schema order,
values within a block in vocabulary order. Datasets and containers store
the continuous columns as float32 and each categorical field as one u16
code per row; Rows.dense() writes the one-hot layout, a few rows at a
time, for the model.
"""

from __future__ import annotations

import array
import io
import math
import os
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Optional, Sequence, Union

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
CONTAINER_VERSION = 3
MAX_VOCABULARY = 65535  # values per categorical field: containers store u16 codes


@dataclass
class Rows:
    """Encoded rows, not yet dense: rows `take` (an index array or a slice)
    of the float columns x, the codes and the one-hot block widths.

    x is (n, f); codes is (fields, n), one code per row of each coded
    field, with field j one-hot encoded into a block of widths[j] columns.
    A dense (n, d) matrix is the case with no coded fields.
    """

    x: np.ndarray
    codes: Optional[np.ndarray] = None
    widths: tuple = ()
    take: Union[slice, np.ndarray] = field(default_factory=lambda: slice(None))

    def __post_init__(self):
        if self.codes is None:
            self.codes = np.empty((0, self.x.shape[0]), dtype=np.uint16)
        self.widths = tuple(self.widths)

    def __len__(self) -> int:
        if isinstance(self.take, slice):
            return len(range(self.x.shape[0])[self.take])
        return len(self.take)

    @property
    def d(self) -> int:
        """Width of the dense rows: the float columns and every block."""
        return self.x.shape[1] + sum(self.widths)

    def __getitem__(self, part: slice) -> "Rows":
        """The rows at positions `part` of these rows."""
        if not isinstance(self.take, slice):
            return replace(self, take=self.take[part])
        r = range(self.x.shape[0])[self.take][part]
        if r.step < 0:
            return replace(self, take=np.arange(r.start, r.stop, r.step))
        return replace(self, take=slice(r.start, r.stop, r.step))

    def dense(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """These rows as a dense float64 (len(self), d) matrix: the float
        columns, then the one-hot blocks. Written into out when given."""
        if out is None:
            out = np.empty((len(self), self.d))
        f, take = self.x.shape[1], self.take
        # take() gathers rows several times faster than fancy indexing
        out[:, :f] = self.x[take] if isinstance(take, slice) else self.x.take(take, 0)
        out[:, f:] = 0.0
        set_one_hot(out, self.codes, take, self.widths)
        return out


@dataclass
class EncodedDataset:
    """Encoded rows with integer class labels.

    x holds the stored float columns (float32, row-major): the scaled
    continuous features. codes and widths are the coded fields, as in
    Rows; a dataset built from a dense matrix has none (codes None). y
    holds indices into class_names, and scaling records the fitted
    (min, max) per continuous feature in schema order.
    """

    x: np.ndarray
    y: np.ndarray
    class_names: list[str]
    scaling: list[tuple[float, float]]
    codes: Optional[np.ndarray] = None
    widths: tuple = ()

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        """Width of the dense encoded rows."""
        return self.x.shape[1] + sum(self.widths)

    @property
    def k(self) -> int:
        return len(self.class_names)

    def rows(self, take: Union[slice, np.ndarray] = slice(None)) -> Rows:
        """Rows `take` of the dataset, all by default; see Rows.dense()."""
        return Rows(self.x, self.codes, self.widths, take)


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


def one_hot_widths(schema: ds.FeatureSchema) -> list[int]:
    """Vocabulary size of each categorical feature, in schema order."""
    return [
        len(schema.vocabularies[ds.FEATURE_NAMES[pos]])
        for pos in ds.CATEGORICAL_POSITIONS
    ]


def encoded_width(schema: ds.FeatureSchema) -> int:
    """Width of the encoded matrix: continuous count plus vocabulary sizes."""
    return len(ds.CONTINUOUS_POSITIONS) + sum(one_hot_widths(schema))


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
    take: Union[slice, np.ndarray],
    widths: Sequence[int],
) -> None:
    """Set the one-hot columns of x from categorical codes, in place.

    The one-hot blocks are the last sum(widths) columns of x, one block of
    widths[j] columns per field. codes holds one code vector per field,
    each code an index into its block. Row i of x takes the codes at
    take[i]. Only the 1.0 entries are written, so the one-hot columns of x
    must be zero before.
    """
    base = x.shape[1] - sum(widths)
    rows = np.arange(x.shape[0])
    for field_codes, width in zip(codes, widths):
        x[rows, np.add(field_codes[take], base, dtype=np.intp)] = 1.0
        base += width


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
#   scaling table (u32 count F, then f64 min, f64 max each): one entry per
#     stored float column
#   one-hot blocks (u32 count B, then u32 width each), which add up to d - F
#   float columns, row-major f32, N x F
#   codes, u16, N per block in block order, each below its block's width
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
    rows: Rows,
    scaling: Sequence[tuple[float, float]],
    columns: Sequence[LabelColumn],
) -> None:
    """Persist encoded rows with their label columns; bit-exact output.

    scaling holds one (min, max) per float column of rows.
    """
    x = np.ascontiguousarray(rows.x[rows.take], dtype="<f4")
    codes = np.ascontiguousarray(rows.codes[:, rows.take], dtype="<u2")
    n, n_float = x.shape
    if n_float != len(scaling):
        raise ValueError(f"{len(scaling)} scaling entries for {n_float} float columns")
    head = CONTAINER_MAGIC + struct.pack("<IQII", CONTAINER_VERSION, n, rows.d, n_float)
    head += b"".join(struct.pack("<dd", lo, hi) for lo, hi in scaling)
    head += struct.pack(f"<I{len(rows.widths)}I", len(rows.widths), *rows.widths)
    labels = io.BytesIO()
    labels.write(struct.pack("<I", len(columns)))
    for column in columns:
        _write_str(labels, column.name)
        _write_names(labels, column.class_names)
        labels.write(np.ascontiguousarray(column.y, dtype="<u2"))
    crc = zlib.crc32(head)
    for part in (x, codes, labels.getbuffer()):
        crc = zlib.crc32(part, crc)
    write_atomic(path, [head, x, codes, labels.getbuffer(), struct.pack("<I", crc)])


def read_container_columns(path):
    """Parse a container once: (rows, scaling, label columns).

    rows covers every row of the file; each column's y is a read-only u16
    view of the bytes read. Sizes from the header are checked against the
    file before anything is allocated; the codes, block widths and labels
    are checked once the checksum holds.
    """
    try:
        with open(path, "rb") as fh:
            head = _read_exact(fh, 24)
            if head[:4] != CONTAINER_MAGIC:
                raise CorruptContainerError(f"bad magic {head[:4]!r}")
            version, n, d, n_float = struct.unpack_from("<IQII", head, 4)
            if version != CONTAINER_VERSION:
                raise VersionMismatchError(version, CONTAINER_VERSION)
            left = os.fstat(fh.fileno()).st_size - len(head) - 4
            if 16 * n_float + 4 * n * n_float > left:
                raise CorruptContainerError("header sizes exceed the file")
            table = _read_exact(fh, 16 * n_float)
            raw_count = _read_exact(fh, 4)
            (n_blocks,) = struct.unpack("<I", raw_count)
            left -= len(table) + 4
            if 4 * n_blocks + n * (4 * n_float + 2 * n_blocks) > left:
                raise CorruptContainerError("header sizes exceed the file")
            raw_widths = _read_exact(fh, 4 * n_blocks)
            x = np.empty((n, n_float), dtype="<f4")
            codes = np.empty((n_blocks, n), dtype="<u2")
            fh.readinto(x)  # a short read fails the checksum
            fh.readinto(codes)
            rest = fh.read()
        crc = zlib.crc32(head)
        body = memoryview(rest)[:-4]
        for part in (table, raw_count, raw_widths, x, codes, body):
            crc = zlib.crc32(part, crc)
        if rest[-4:] != struct.pack("<I", crc):
            raise CorruptContainerError("checksum mismatch")
        widths = struct.unpack(f"<{n_blocks}I", raw_widths)
        if sum(widths) != d - n_float:
            raise CorruptContainerError(
                f"one-hot block widths {list(widths)} do not add up to "
                f"{d} - {n_float} columns"
            )
        for j, (field_codes, width) in enumerate(zip(codes, widths)):
            if n and field_codes.max() >= width:
                raise CorruptContainerError(
                    f"code {field_codes.max()} of field {j} is not below "
                    f"its block width {width}"
                )
        labels = io.BytesIO(rest)
        columns = []
        for _ in range(struct.unpack("<I", _read_exact(labels, 4))[0]):
            name = _read_str(labels)
            class_names = _read_names(labels)
            at = labels.tell()
            if at + 2 * n > len(body):
                raise EOFError("unexpected end of label columns")
            y = np.frombuffer(rest, dtype="<u2", count=n, offset=at)
            labels.seek(at + 2 * n)
            columns.append(LabelColumn(name, class_names, y))
        if labels.tell() != len(body):
            raise CorruptContainerError("label columns do not end at the checksum")
    except (EOFError, struct.error, ValueError) as exc:
        raise CorruptContainerError(str(exc)) from None
    rows = Rows(x, codes, widths)
    return rows, list(struct.iter_unpack("<dd", table)), columns


def read_container(path, label_column: str) -> EncodedDataset:
    """Load a container under one of its label columns, chosen by name."""
    rows, scaling, columns = read_container_columns(path)
    by_name = {c.name: c for c in columns}
    if label_column not in by_name:
        raise CorruptContainerError(
            f"no label column {label_column!r}; available: {list(by_name)}"
        )
    chosen = by_name[label_column]
    return EncodedDataset(
        x=rows.x,
        y=chosen.y,
        class_names=list(chosen.class_names),
        scaling=scaling,
        codes=rows.codes,
        widths=rows.widths,
    )
