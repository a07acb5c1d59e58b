"""KDD99 wire format, feature schema, and the four-category label taxonomy.

The KDD Cup 1999 connection records are comma-separated lines with 41
feature fields followed by a label field that usually carries a trailing
dot ("smurf."). Three features (protocol_type, service, flag) are symbolic;
the remaining 38 are non-negative numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .errors import (
    FieldTypeError,
    MalformedLineError,
    MalformedSchemaError,
    UnknownLabelError,
    ZidsError,
)

# The 41 per-connection features, in wire order.
FEATURE_NAMES = (
    "duration",
    "protocol_type",
    "service",
    "flag",
    "src_bytes",
    "dst_bytes",
    "land",
    "wrong_fragment",
    "urgent",
    "hot",
    "num_failed_logins",
    "logged_in",
    "num_compromised",
    "root_shell",
    "su_attempted",
    "num_root",
    "num_file_creations",
    "num_shells",
    "num_access_files",
    "num_outbound_cmds",
    "is_host_login",
    "is_guest_login",
    "count",
    "srv_count",
    "serror_rate",
    "srv_serror_rate",
    "rerror_rate",
    "srv_rerror_rate",
    "same_srv_rate",
    "diff_srv_rate",
    "srv_diff_host_rate",
    "dst_host_count",
    "dst_host_srv_count",
    "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate",
    "dst_host_srv_serror_rate",
    "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)

CATEGORICAL_POSITIONS = (1, 2, 3)
CONTINUOUS_POSITIONS = tuple(
    i for i in range(len(FEATURE_NAMES)) if i not in CATEGORICAL_POSITIONS
)
NUM_FEATURES = len(FEATURE_NAMES)
NUM_FIELDS = NUM_FEATURES + 1  # features plus the label

NORMAL = "Normal"
DOS = "DoS"
PROBE = "Probe"
UNAUTHORIZED = "UnauthorizedAccess"
# Canonical category order; coarse class indices follow it.
CATEGORIES = (NORMAL, DOS, PROBE, UNAUTHORIZED)

# Flooding and service-disruption attacks.
_DOS_LABELS = (
    "back",
    "land",
    "neptune",
    "pod",
    "smurf",
    "teardrop",
    "apache2",
    "udpstorm",
    "processtable",
    "worm",
)

# Scanning and reconnaissance.
_PROBE_LABELS = (
    "satan",
    "ipsweep",
    "nmap",
    "portsweep",
    "mscan",
    "saint",
)

# Remote-to-local and user-to-root intrusions.
_UNAUTHORIZED_LABELS = (
    "guess_passwd",
    "ftp_write",
    "imap",
    "phf",
    "multihop",
    "warezmaster",
    "warezclient",
    "spy",
    "xlock",
    "xsnoop",
    "snmpguess",
    "snmpgetattack",
    "httptunnel",
    "sendmail",
    "named",
    "mailbomb",
    "buffer_overflow",
    "loadmodule",
    "rootkit",
    "perl",
    "sqlattack",
    "xterm",
    "ps",
)


# Used only by perfbench/spans.py, which rebinds iter_kdd by name.
@dataclass(frozen=True)
class RawRecord:
    """One connection: 41 feature strings in wire order plus the fine label.

    The label is normalized (lowercase, trailing dot removed).
    """

    values: tuple[str, ...]
    label: str


@dataclass(frozen=True)
class FeatureDescriptor:
    name: str
    kind: str  # "continuous" or "categorical"


@dataclass(frozen=True)
class FeatureSchema:
    """The 41 feature descriptors plus observed categorical vocabularies.

    Vocabularies are sorted and deduplicated, so the schema is independent
    of record order.
    """

    features: tuple[FeatureDescriptor, ...]
    vocabularies: dict[str, tuple[str, ...]]

    def vocabulary_sizes(self) -> dict[str, int]:
        return {name: len(v) for name, v in self.vocabularies.items()}

    def to_json(self) -> str:
        doc = {
            "features": [
                {"name": f.name, "kind": f.kind} for f in self.features
            ],
            "vocabularies": {k: list(v) for k, v in self.vocabularies.items()},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FeatureSchema":
        """The schema of a document to_json wrote, formatting aside; any
        other document raises MalformedSchemaError."""
        try:
            doc = json.loads(text)
            schema = schema_from_vocabularies(doc["vocabularies"])
        except (ValueError, LookupError, TypeError) as exc:
            raise MalformedSchemaError(f"malformed feature schema: {exc!r}") from None
        if schema.to_json() != json.dumps(doc, indent=2, sort_keys=True):
            raise MalformedSchemaError(
                "malformed feature schema: not the 41 features with sorted vocabularies"
            )
        return schema


# Fine label -> category: the 23 labels of the training file plus the
# test-only labels (apache2, mscan, saint, ...), so either file maps
# without gaps.
CATEGORY_OF = {
    "normal": NORMAL,
    **dict.fromkeys(_DOS_LABELS, DOS),
    **dict.fromkeys(_PROBE_LABELS, PROBE),
    **dict.fromkeys(_UNAUTHORIZED_LABELS, UNAUTHORIZED),
}


BLOCK_ROWS = 1024  # rows per block of either reader; larger blocks raise prepare's peak RSS


class StringFields:
    """The four string fields of a KDD99 stream, without its numbers.

    Iterating reads the stream (a file opened in text mode, or any
    iterable of lines) once and yields (protocol_type, service, flag,
    label) lists for blocks of up to BLOCK_ROWS rows. Blank lines are
    skipped; labels come out lowercased with the trailing dot removed,
    so each is a key of CATEGORY_OF. No continuous value is converted.

    Each line must have 42 fields and a known label. At the first line
    that does not, iteration stops and .error holds its
    MalformedLineError or UnknownLabelError, unraised: a bad cell on an
    earlier line, which only iter_continuous finds, must win over it.
    """

    def __init__(self, stream: Iterable[str]):
        self._stream = stream
        self.error: Optional[ZidsError] = None

    def __iter__(self) -> Iterator[tuple[list[str], list[str], list[str], list[str]]]:
        protocols, services, flags, labels = [], [], [], []
        for line_no, raw in enumerate(self._stream, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = line.count(",") + 1
            label = line[line.rfind(",") + 1:].lower().removesuffix(".")
            if fields != NUM_FIELDS or label not in CATEGORY_OF:
                self.error = (
                    UnknownLabelError(line_no, label)
                    if fields == NUM_FIELDS and label
                    else MalformedLineError(line_no, fields)
                )
                break
            _, protocol, service, flag, _ = line.split(",", 4)
            protocols.append(protocol)
            services.append(service)
            flags.append(flag)
            labels.append(label)
            if len(labels) == BLOCK_ROWS:
                yield protocols, services, flags, labels
                protocols, services, flags, labels = [], [], [], []
        if labels:
            yield protocols, services, flags, labels


def _checked_floats(lines: list[str], line_numbers: list[int]) -> np.ndarray:
    """Continuous values cell by cell with float(); raises FieldTypeError
    at the first cell that is not a finite non-negative number, and
    MalformedLineError at a line without 42 fields."""
    x = np.empty((len(lines), len(CONTINUOUS_POSITIONS)))
    for row, (line_no, line) in enumerate(zip(line_numbers, lines)):
        parts = line.split(",")
        if len(parts) != NUM_FIELDS:
            raise MalformedLineError(line_no, len(parts))
        for ci, col in enumerate(CONTINUOUS_POSITIONS):
            try:
                v = float(parts[col])
            except ValueError:
                raise FieldTypeError(line_no, col, parts[col]) from None
            if not math.isfinite(v) or v < 0.0:
                raise FieldTypeError(line_no, col, parts[col])
            x[row, ci] = v
    return x


def _continuous(lines: list[str], line_numbers: list[int]) -> np.ndarray:
    """The (rows, 38) float64 continuous block of well-formed lines.

    np.loadtxt parses a subset of what float() accepts (no "1_000", no
    non-ASCII digits) to the same values, so any block it rejects, or
    whose values are not all finite and non-negative, is converted again
    cell by cell; that either accepts the block or locates the bad cell.
    """
    try:
        x = np.loadtxt(
            lines,
            delimiter=",",
            usecols=CONTINUOUS_POSITIONS,
            dtype=np.float64,
            comments=None,
            ndmin=2,
        )
    except ValueError:
        return _checked_floats(lines, line_numbers)
    if np.isfinite(x).all() and (x >= 0.0).all():
        return x
    return _checked_floats(lines, line_numbers)


def iter_continuous(stream: Iterable[str], stop: Optional[int] = None) -> Iterator[np.ndarray]:
    """The continuous features of a KDD99 stream: one (rows, 38) float64
    block, in CONTINUOUS_POSITIONS order, per BLOCK_ROWS non-blank lines.

    Reading ends before line `stop` (1-based, blank lines counted), or at
    the end of the stream. The lines are taken to have the structure
    StringFields checks; only the cell-by-cell fallback notices one that
    does not. Raises FieldTypeError at the first cell that is not a
    finite non-negative number.
    """
    lines: list[str] = []
    line_numbers: list[int] = []
    for line_no, raw in enumerate(stream, start=1):
        if line_no == stop:
            break
        line = raw.strip()
        if line:
            lines.append(line)
            line_numbers.append(line_no)
            if len(lines) == BLOCK_ROWS:
                yield _continuous(lines, line_numbers)
                lines, line_numbers = [], []
    if lines:
        yield _continuous(lines, line_numbers)


# Used only by perfbench/spans.py, which rebinds iter_kdd by name.
def iter_kdd(stream: Iterable[str]) -> Iterator[RawRecord]:
    """RawRecords of a KDD99 stream, with prepare's errors: of several,
    the one on the earliest line. Feature values are kept as the strings
    on the line. Holds the whole stream in memory.
    """
    lines = list(stream)
    scan = StringFields(lines)
    labels = [label for block in scan for label in block[3]]
    stop = scan.error.line_no if scan.error is not None else None
    for _ in iter_continuous(lines, stop):
        pass  # a bad cell before the structural error wins
    if scan.error is not None:
        raise scan.error
    records = filter(None, (line.strip() for line in lines))
    for line, label in zip(records, labels):
        yield RawRecord(values=tuple(line.split(",")[:-1]), label=label)


def schema_from_vocabularies(vocabularies: Mapping[str, Iterable[str]]) -> FeatureSchema:
    """Assemble a schema from explicit categorical vocabularies."""
    features = tuple(
        FeatureDescriptor(
            name,
            "categorical" if i in CATEGORICAL_POSITIONS else "continuous",
        )
        for i, name in enumerate(FEATURE_NAMES)
    )
    vocab = {
        FEATURE_NAMES[pos]: tuple(sorted(set(vocabularies[FEATURE_NAMES[pos]])))
        for pos in CATEGORICAL_POSITIONS
    }
    return FeatureSchema(features=features, vocabularies=vocab)


def counts_csv(counts: Mapping[str, int]) -> bytes:
    """Two-column CSV rendering of category counts."""
    lines = ["category,count"]
    for category in CATEGORIES:
        lines.append(f"{category},{counts.get(category, 0)}")
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")
