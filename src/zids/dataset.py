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
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    FieldTypeError,
    MalformedLineError,
    UnknownLabelError,
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
        doc = json.loads(text)
        features = tuple(
            FeatureDescriptor(f["name"], f["kind"]) for f in doc["features"]
        )
        vocabularies = {k: tuple(v) for k, v in doc["vocabularies"].items()}
        return FeatureSchema(features=features, vocabularies=vocabularies)


@dataclass(frozen=True)
class LabelTaxonomy:
    """Total mapping from fine attack labels to the four parent categories."""

    mapping: Mapping[str, str]

    def category_of(self, label: str) -> str:
        try:
            return self.mapping[label]
        except KeyError:
            raise UnknownLabelError(label) from None


def default_taxonomy() -> LabelTaxonomy:
    """The four-way grouping of the KDD99 fine labels.

    Covers the 23 labels of the training file plus the extended test-only
    labels (apache2, mscan, saint, ...), so corpora from either file map
    without gaps.
    """
    mapping: dict[str, str] = {"normal": NORMAL}
    for label in _DOS_LABELS:
        mapping[label] = DOS
    for label in _PROBE_LABELS:
        mapping[label] = PROBE
    for label in _UNAUTHORIZED_LABELS:
        mapping[label] = UNAUTHORIZED
    return LabelTaxonomy(mapping=mapping)


BLOCK_ROWS = 1024  # records per RecordBlock; larger blocks raise prepare's peak RSS


@dataclass(frozen=True)
class RecordBlock:
    """Up to BLOCK_ROWS consecutive records, validated and half-parsed.

    Row i came from stream line line_numbers[i] (1-based, blank lines
    counted); lines[i] is that line stripped. categorical[i] holds the
    (protocol_type, service, flag) values, labels[i] the normalized label,
    and continuous[i] the 38 continuous features in CONTINUOUS_POSITIONS
    order as float64.
    """

    line_numbers: list[int]
    lines: list[str]
    categorical: list[tuple[str, str, str]]
    labels: list[str]
    continuous: np.ndarray

    def __len__(self) -> int:
        return len(self.lines)


def _checked_floats(lines: list[str], line_numbers: list[int]) -> np.ndarray:
    """Continuous values cell by cell with float(); raises FieldTypeError
    at the first cell that is not a finite non-negative number."""
    x = np.empty((len(lines), len(CONTINUOUS_POSITIONS)))
    for row, (line_no, line) in enumerate(zip(line_numbers, lines)):
        parts = line.split(",")
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


def iter_blocks(stream: Iterable[str]) -> Iterator[RecordBlock]:
    """Stream RecordBlocks of up to BLOCK_ROWS records off a KDD99 file
    opened in text mode (or any iterable of lines).

    Memory is bounded by one block; safe for the full 700MB file. Empty
    lines are skipped. Labels come out lowercased with the trailing dot
    removed.

    Raises MalformedLineError when a line does not have 42 fields or has
    an empty label, and FieldTypeError when a continuous field is not a
    finite non-negative number. When a block holds both, the error on the
    earlier line is raised.
    """
    line_numbers: list[int] = []
    lines: list[str] = []
    categorical: list[tuple[str, str, str]] = []
    labels: list[str] = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        label = parts[-1].lower()
        if label.endswith("."):
            label = label[:-1]
        if len(parts) != NUM_FIELDS or not label:
            if lines:
                _continuous(lines, line_numbers)  # an earlier bad cell wins
            raise MalformedLineError(line_no, len(parts))
        line_numbers.append(line_no)
        lines.append(line)
        categorical.append((parts[1], parts[2], parts[3]))
        labels.append(label)
        if len(lines) == BLOCK_ROWS:
            yield RecordBlock(line_numbers, lines, categorical, labels,
                              _continuous(lines, line_numbers))
            line_numbers, lines, categorical, labels = [], [], [], []
    if lines:
        yield RecordBlock(line_numbers, lines, categorical, labels,
                          _continuous(lines, line_numbers))


# Used only by perfbench/spans.py, which rebinds iter_kdd by name.
def iter_kdd(stream: Iterable[str]) -> Iterator[RawRecord]:
    """Stream RawRecords off a KDD99 file (see iter_blocks).

    Feature values are kept as the strings on the line.
    """
    for block in iter_blocks(stream):
        for line, label in zip(block.lines, block.labels):
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
