"""Encoding, stratified splitting, class weights, and container I/O.

Encoded layout: the 38 continuous features (min-max scaled) in wire
order, then one one-hot block per categorical feature in wire order, one
column per value in the order the field names its values (prepare sorts
them). Datasets and containers store the continuous columns as float32
and each categorical field as one u16 code per row, and name every
column they store; containers store the continuous columns unscaled,
with their scaling, which read_container applies. Rows.dense() writes
the one-hot layout, a few rows at a time, for the model.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from ._atomic import checked_file, pack_names, pack_str, read_checked
from .errors import (
    CorruptContainerError,
    MissingClassError,
    OutOfRangeError,
)

CONTAINER_MAGIC = b"ZIDS"
CONTAINER_VERSION = 5
CONTAINER_HEAD = "<QII"  # rows N, float columns F, coded fields B
MAX_VOCABULARY = 65535  # values per categorical field: containers store u16 codes


@dataclass
class Rows:
    """Encoded rows, not yet dense: rows `take` (an index array or a slice)
    of the float columns x and the codes, with the names of their columns.

    x is (n, f), its columns named by float_names; codes is (fields, n),
    one code per row of each coded field. fields[j] is (feature name,
    value names) of field j, which is one-hot encoded into a block of one
    column per value. A dense (n, d) matrix is the case with no coded
    fields; its columns may go unnamed.
    """

    x: np.ndarray
    codes: Optional[np.ndarray] = None
    fields: tuple = ()
    float_names: tuple = ()
    take: Union[slice, np.ndarray] = field(default_factory=lambda: slice(None))

    def __post_init__(self):
        if self.codes is None:
            self.codes = np.empty((0, self.x.shape[0]), dtype=np.uint16)

    def __len__(self) -> int:
        if isinstance(self.take, slice):
            return len(range(self.x.shape[0])[self.take])
        return len(self.take)

    @property
    def widths(self) -> tuple:
        """The width of each one-hot block: its field's value count."""
        return tuple(len(values) for _, values in self.fields)

    @property
    def d(self) -> int:
        """Width of the dense rows: the float columns and every block."""
        return self.x.shape[1] + sum(self.widths)

    @property
    def names(self) -> list[str]:
        """The name of each dense column: the float columns', then
        'service=http' style for each value of each field."""
        blocks = [f"{name}={value}" for name, values in self.fields for value in values]
        return [*self.float_names, *blocks]

    def __getitem__(self, part: slice) -> "Rows":
        """The rows at positions `part` of these rows."""
        if not isinstance(self.take, slice):
            return replace(self, take=self.take[part])
        r = range(self.x.shape[0])[self.take][part]
        if r.step < 0:
            return replace(self, take=np.arange(r.start, r.stop, r.step))
        return replace(self, take=slice(r.start, r.stop, r.step))

    def dense(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """These rows as a dense (len(self), d) matrix: the float columns,
        then the one-hot blocks. Written into out, in its dtype, when
        given; a new float64 matrix otherwise."""
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

    x holds the float columns (float32, row-major): the continuous
    features, scaled. codes, fields and float_names are as in Rows; a
    dataset built from a dense matrix has no coded fields (codes None).
    y holds indices into class_names, and scaling records the fitted
    (min, max) of each float column.
    """

    x: np.ndarray
    y: np.ndarray
    class_names: list[str]
    scaling: list[tuple[float, float]]
    codes: Optional[np.ndarray] = None
    fields: tuple = ()
    float_names: tuple = ()

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        """Width of the dense encoded rows."""
        return self.rows().d

    @property
    def feature_names(self) -> list[str]:
        """The name of each dense encoded column; see Rows.names."""
        return self.rows().names

    @property
    def k(self) -> int:
        return len(self.class_names)

    def rows(self, take: Union[slice, np.ndarray] = slice(None)) -> Rows:
        """Rows `take` of the dataset, all by default; see Rows.dense()."""
        return Rows(self.x, self.codes, self.fields, self.float_names, take)


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


def fit_scaling(x: np.ndarray) -> list[tuple[float, float]]:
    """Per-column (min, max) of the continuous columns x."""
    return [(float(lo), float(hi)) for lo, hi in zip(x.min(axis=0), x.max(axis=0))]


def apply_scaling(x: np.ndarray, scaling: Sequence[tuple[float, float]]) -> None:
    """In-place min-max scaling of the continuous columns x, one scaling
    entry per column.

    Columns with min == max map to 0. Values outside the fitted range
    scale past [0, 1] without error.
    """
    mins = np.asarray([lo for lo, _ in scaling], dtype=np.float32)
    ranges = np.asarray([hi - lo for lo, hi in scaling], dtype=np.float32)
    inv = np.zeros_like(ranges)
    nonzero = ranges > 0
    inv[nonzero] = 1.0 / ranges[nonzero]
    x -= mins  # in place: no (n, 38) temporaries
    x *= inv


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
    """Stratified (train, test) row indices, int32, each sorted ascending.

    Per class the selection is a seeded uniform permutation; classes are
    visited in index order so the result is reproducible.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1): {test_fraction}")
    if y.size > np.iinfo(np.int32).max:
        raise ValueError(f"{y.size} rows are more than int32 indices number")
    rng = np.random.default_rng(seed)
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for c in range(k):
        idx = np.flatnonzero(y == c).astype(np.int32)
        n_c = idx.size
        if n_c == 0:
            raise MissingClassError(c)
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
# The body of a "ZIDS" envelope of version 5 (see _atomic: magic, version,
# body, CRC32 of every byte before it; strings and name lists as there):
#   N u64 | float columns F u32 | coded fields B u32
#   float columns, row-major f32, N x F, unscaled
#   codes, u16, N per coded field in field order, each below its field's
#     value count
#   scaling table: per float column its name, f64 min and f64 max, which
#     read_container applies to the float columns
#   coded fields: per field its feature name and its value names, one
#     one-hot column per value
#   label columns (u32 count, then per column: name, class names, N u16
#     labels)


@dataclass
class LabelColumn:
    name: str
    class_names: list[str]
    y: np.ndarray


class ContainerStream:
    """A container of n rows written as its float rows arrive: add()
    appends each block of rows after the header, and finish() appends the
    rest of the body. Only a block is held."""

    def __init__(self, envelope, n: int, float_names: Sequence[str], fields: tuple):
        self.envelope, self.n, self.added = envelope, n, 0
        self.float_names, self.fields = tuple(float_names), fields
        self.finished = False
        # the min and max of each float column over the added rows
        self.lo = np.full(len(self.float_names), np.inf, dtype=np.float32)
        self.hi = np.full(len(self.float_names), -np.inf, dtype=np.float32)
        envelope.append(struct.pack(CONTAINER_HEAD, n, len(self.float_names), len(fields)))

    def add(self, x: np.ndarray) -> None:
        """Append rows (rows, F) of unscaled float columns, stored as f32."""
        x = np.ascontiguousarray(x, dtype="<f4")
        if x.shape[1:] != self.lo.shape:
            raise ValueError(f"rows of {x.shape[1:]} columns for "
                             f"{len(self.float_names)} float columns")
        if len(x):
            np.minimum(self.lo, x.min(axis=0), out=self.lo)
            np.maximum(self.hi, x.max(axis=0), out=self.hi)
        self.added += len(x)
        self.envelope.append(x)

    def fit_scaling(self) -> list[tuple[float, float]]:
        """fit_scaling of every row added so far: min and max are exact,
        so taking them block by block gives the same values."""
        return [(float(lo), float(hi)) for lo, hi in zip(self.lo, self.hi)]

    def finish(self, scaling, codes: np.ndarray, columns: Sequence[LabelColumn]) -> None:
        """Append codes (fields, n), the scaling table (one (min, max)
        per float column), the coded fields and the label columns."""
        if self.added != self.n or len(scaling) != len(self.float_names):
            raise ValueError(f"{self.added} of {self.n} rows and "
                             f"{len(scaling)} scaling entries for "
                             f"{len(self.float_names)} float columns")
        append = self.envelope.append
        append(np.ascontiguousarray(codes, dtype="<u2"))
        for name, (lo, hi) in zip(self.float_names, scaling):
            append(pack_str(name) + struct.pack("<dd", lo, hi))
        for name, values in self.fields:
            append(pack_str(name) + pack_names(values))
        append(struct.pack("<I", len(columns)))
        for column in columns:
            append(pack_str(column.name) + pack_names(column.class_names))
            append(np.ascontiguousarray(column.y, dtype="<u2"))
        self.finished = True


@contextlib.contextmanager
def stream_container(path, n: int, float_names: Sequence[str], fields: tuple):
    """A ContainerStream whose container takes path's name when the block
    ends, finished; a temporary file until then, removed if the block
    raises (see _atomic.atomic_file)."""
    with checked_file(path, CONTAINER_MAGIC, CONTAINER_VERSION) as envelope:
        stream = ContainerStream(envelope, n, float_names, fields)
        yield stream
        if not stream.finished:
            raise ValueError(f"{path}: container left unfinished")


def write_container(
    path,
    rows: Rows,
    scaling: Sequence[tuple[float, float]],
    columns: Sequence[LabelColumn],
) -> None:
    """Persist rows as given, unscaled, with the names of their columns,
    their scaling (one (min, max) per float column) and their label
    columns; bit-exact output."""
    with stream_container(path, len(rows), rows.float_names, rows.fields) as stream:
        stream.add(rows.x[rows.take])
        stream.finish(scaling, rows.codes[:, rows.take], columns)


def read_container_columns(path):
    """Parse a container once: (rows, scaling, label columns), the rows
    as stored, unscaled, so write_container(path, *these) writes its
    bytes again.

    The file is read once; rows.x and rows.codes, which cover every row
    and name their columns, and each column's y are views of a buffer
    that only they hold. Sizes from the header are checked against the
    bytes left before any array is made; the names, codes and labels are
    checked once the checksum holds. Every error names the file.
    """
    return read_checked(path, CONTAINER_MAGIC, CONTAINER_VERSION,
                        CorruptContainerError, _parse_container)


def _parse_container(body):
    n, n_float, n_fields = body.unpack(CONTAINER_HEAD)
    if n * (4 * n_float + 2 * n_fields) > body.left:
        raise ValueError("header sizes exceed the file")
    x = body.array("<f4", (n, n_float))
    codes = body.array("<u2", (n_fields, n))
    float_names, scaling = [], []
    for _ in range(n_float):
        float_names.append(body.string())
        scaling.append(body.unpack("<dd"))
    fields = tuple((body.string(), tuple(body.names())) for _ in range(n_fields))
    for j, (field_codes, (_, values)) in enumerate(zip(codes, fields)):
        if n and field_codes.max() >= len(values):
            raise ValueError(
                f"code {field_codes.max()} of field {j} is not below "
                f"its block width {len(values)}"
            )
    columns = [
        LabelColumn(body.string(), body.names(), body.array("<u2", (n,)))
        for _ in range(body.unpack("<I")[0])
    ]
    for column in columns:
        if n and column.y.max() >= len(column.class_names):
            raise ValueError(
                f"label {column.y.max()} of column {column.name!r} "
                f"is not below its {len(column.class_names)} classes"
            )
    return Rows(x, codes, fields, tuple(float_names)), scaling, columns


def read_container(path, label_column: str) -> EncodedDataset:
    """Load a container under one of its label columns, chosen by name,
    its float columns scaled by its scaling table. The arrays are
    read-only."""
    rows, scaling, columns = read_container_columns(path)
    by_name = {c.name: c for c in columns}
    if label_column not in by_name:
        raise CorruptContainerError(
            f"{path}: no label column {label_column!r}; available: {list(by_name)}"
        )
    chosen = by_name[label_column]
    apply_scaling(rows.x, scaling)  # in place, in the buffer read
    for array in (rows.x, rows.codes, chosen.y):
        array.flags.writeable = False
    return EncodedDataset(
        x=rows.x,
        y=chosen.y,
        class_names=list(chosen.class_names),
        scaling=scaling,
        codes=rows.codes,
        fields=rows.fields,
        float_names=rows.float_names,
    )
