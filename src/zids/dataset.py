"""KDD99 wire format, the names and kinds of its features, and the
four-category label taxonomy.

The KDD Cup 1999 connection records are comma-separated lines with 41
feature fields followed by a label field that usually carries a trailing
dot ("smurf."). Three features (protocol_type, service, flag) are symbolic;
the remaining 38 are non-negative numbers. The containers `prepare` writes
name their own columns.

`prepare` reads a text twice, in the same chunks of whole lines (_chunks):
iter_strings takes the four string fields, splitting a plain chunk with
numpy and any other line by line, and iter_continuous converts the 38
numbers of each distinct stripped, non-blank line of a chunk once.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._atomic import csv_bytes
from ._rows import distinct_rows
from .errors import (
    FieldTypeError,
    MalformedLineError,
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


# Fine label -> category: the 23 labels of the training file plus the
# test-only labels (apache2, mscan, saint, ...), so either file maps
# without gaps.
CATEGORY_OF = {
    "normal": NORMAL,
    **dict.fromkeys(_DOS_LABELS, DOS),
    **dict.fromkeys(_PROBE_LABELS, PROBE),
    **dict.fromkeys(_UNAUTHORIZED_LABELS, UNAUTHORIZED),
}


CHUNK_CHARS = 1 << 18  # characters per read; larger reads were no faster and left more heap resident
_MAX_SPAN_CHARS = 64  # a chunk with a wider string field takes the per-line path

_NEWLINE, _COMMA, _SPACE = 0x0A, 0x2C, 0x20
# _LOW_BYTES[k] keeps the first k bytes of a little-endian 8-byte word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


@dataclass
class ChunkStats:
    """The chunks one reader read, and how many of them were not plain:
    in iter_strings those that took the per-line path, in iter_continuous
    those with a blank line or a line that strip() changes."""

    chunks: int = 0
    per_line: int = 0


def _chunks(stream: TextIO, stats: ChunkStats) -> Iterator[str]:
    """Runs of whole lines of a text stream, in order: CHUNK_CHARS
    characters at a time, then to the end of the line that read stopped
    in. Each chunk ends in "\n" (a last line without one gets one) and is
    counted in stats.chunks. The readers number the lines themselves,
    from the lines they split or the rows they find.
    """
    while text := stream.read(CHUNK_CHARS):
        if not text.endswith("\n"):
            text += stream.readline()
        stats.chunks += 1
        yield text if text.endswith("\n") else text + "\n"


def _lines(chunk: str) -> list[str]:
    return chunk.split("\n")[:-1]


def _plain(chunk: str) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(bytes, newline offsets) of a chunk for pass 1's numpy path
    (_fast_patterns): one whose lines need no strip() and none of which
    is blank. That is ASCII, and no byte below 0x21 but "\n", which
    neither starts it nor follows another. None for any other chunk."""
    if not chunk.isascii():
        return None
    raw = np.frombuffer(chunk.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(raw <= _SPACE)
    if (raw[ends] != _NEWLINE).any() or ends[0] == 0 or (np.diff(ends) == 1).any():
        return None
    return raw, ends


def _span_words(padded: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The bytes padded[starts[i]:stops[i]] of each row, NUL-filled to
    whole 8-byte words: an (n, words) uint64 array. padded must run at
    least _MAX_SPAN_CHARS bytes past the last stop."""
    widths = stops - starts
    k = max(1, (int(widths.max()) + 7) // 8)
    words = sliding_window_view(padded, 8 * k)[starts].view("<u8")
    words &= _LOW_BYTES[np.clip(widths[:, None] - 8 * np.arange(k), 0, 8)]
    return words


def _span_text(words: np.ndarray) -> list[str]:
    return [v.decode("ascii") for v in words.view(f"S{8 * words.shape[1]}").ravel().tolist()]


def _fast_patterns(chunk: str) -> Optional[tuple[list[str], np.ndarray]]:
    """The chunk's row patterns and the int32 code of each row (see
    iter_strings), taken with numpy from the comma offsets; None
    when the chunk needs the per-line path: not plain (_plain), a line
    without exactly 41 commas, a string field wider than _MAX_SPAN_CHARS,
    or an unknown label. The rows' span words are grouped as one batch
    by distinct_rows; each pattern is read from its earliest row."""
    plain = _plain(chunk)
    if plain is None:
        return None
    raw, ends = plain
    commas = np.flatnonzero(raw == _COMMA)
    if commas.size != (NUM_FIELDS - 1) * ends.size:
        return None
    commas = commas.reshape(ends.size, NUM_FIELDS - 1)
    if (commas[:, -1] > ends).any() or (commas[1:, 0] < ends[:-1]).any():
        return None
    # One "tcp,http,SF" span per row, and its label span.
    spans = ((commas[:, 0] + 1, commas[:, 3]), (commas[:, -1] + 1, ends))
    if max(int((stop - start).max()) for start, stop in spans) > _MAX_SPAN_CHARS:
        return None
    padded = np.concatenate([raw, np.zeros(_MAX_SPAN_CHARS, dtype=np.uint8)])
    middle, label = (_span_words(padded, start, stop) for start, stop in spans)
    inverse, _, first = distinct_rows(np.concatenate([middle.T, label.T])[:, None])
    labels = [v.lower().removesuffix(".") for v in _span_text(label[first])]
    if not all(v in CATEGORY_OF for v in labels):
        return None
    return ([f"{m},{v}" for m, v in zip(_span_text(middle[first]), labels)],
            inverse[0].astype(np.int32))


def _per_line(line_no: int, lines: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct row patterns of the lines, numbered from line_no, and
    the int32 code of each row. Raises MalformedLineError at the first
    line without 42 fields, and UnknownLabelError at the first with an
    unknown label."""
    index: dict[str, int] = {}
    codes = []
    for line_no, raw in enumerate(lines, start=line_no):
        line = raw.strip()
        if not line:
            continue
        fields = line.count(",") + 1
        if fields != NUM_FIELDS:
            raise MalformedLineError(line_no, fields)
        label = line[line.rfind(",") + 1:].lower().removesuffix(".")
        if label not in CATEGORY_OF:
            raise UnknownLabelError(line_no, label)
        _, protocol, service, flag, _ = line.split(",", 4)
        codes.append(index.setdefault(f"{protocol},{service},{flag},{label}", len(index)))
    return list(index), np.array(codes, dtype=np.int32)


def iter_strings(
    open_stream: Callable[[], TextIO],
    stats: Optional[ChunkStats] = None,
) -> Iterator[tuple[list[str], np.ndarray]]:
    """The four string fields of a KDD99 text, as one pattern per row.

    Reads the stream that open_stream() opens in chunks of whole lines
    (see _chunks) and yields (patterns, codes) per chunk: patterns are the
    chunk's "protocol_type,service,flag,label" rows, in no particular
    order, the label lowercased without its trailing dot (a key of
    CATEGORY_OF), and row i of the chunk has patterns[codes[i]] (codes
    are int32). A pattern may be listed more than once (labels that
    differ only in case or dot), and each listed pattern has a row.
    Blank lines are skipped, so a chunk may hold no row. No continuous
    value is converted. string_fields turns the blocks into the four
    fields' vocabularies and codes.

    A plain chunk (see _plain) of lines with 42 fields and known labels is
    split at its comma offsets with numpy; any other chunk runs the
    per-line code, which finds every error. `stats`, if given, counts
    both.

    At the first line without 42 fields or with an unknown label, the
    chunk that holds it is not yielded, and a second stream from
    open_stream() is read with iter_continuous up to that line: a bad
    cell on an earlier line raises its FieldTypeError, and otherwise the
    line's MalformedLineError or UnknownLabelError is raised.
    """
    stats = stats if stats is not None else ChunkStats()
    error: Optional[ZidsError] = None
    with open_stream() as stream:
        line_no = 1
        for chunk in _chunks(stream, stats):
            block = _fast_patterns(chunk)
            if block is None:
                stats.per_line += 1
                lines = _lines(chunk)
                try:
                    block = _per_line(line_no, lines)
                except (MalformedLineError, UnknownLabelError) as exc:
                    error = exc
                    break
                line_no += len(lines)
            else:
                line_no += len(block[1])  # a plain chunk has no blank line
            yield block
    if error is not None:
        with open_stream() as stream:
            for _ in iter_continuous(stream, stop=error.line_no):
                pass  # a bad cell on an earlier line wins
        raise error


def string_fields(
    blocks: Iterable[tuple[list[str], np.ndarray]],
) -> tuple[list[list[str]], list[np.ndarray]]:
    """The four string fields of the (patterns, codes) blocks of
    iter_strings: the sorted vocabulary of each field, and for each field
    the int32 code of each row into its vocabulary; ([], []) when no
    block holds a row.

    Each block's patterns are interned into one index, under the next
    free code, and its rows' codes are appended to one array('i'), 4 B a
    row; the fields are split out of the index and each renumbered to its
    sorted vocabulary only after the last block.
    """
    index: dict[str, int] = {}
    interned = array.array("i")
    for patterns, codes in blocks:
        remap = np.asarray([index.setdefault(p, len(index)) for p in patterns], dtype=np.int32)
        interned.frombytes(remap[codes].tobytes())
    rows = np.frombuffer(interned, dtype=np.int32)
    vocabs, field_codes = [], []
    for column in zip(*(pattern.split(",") for pattern in index)):
        vocab = sorted(set(column))
        rank = {value: i for i, value in enumerate(vocab)}
        vocabs.append(vocab)
        field_codes.append(np.asarray([rank[v] for v in column], dtype=np.int32)[rows])
    return vocabs, field_codes


def _checked_floats(lines: list[str], line_numbers: Sequence[int]) -> np.ndarray:
    """Continuous values cell by cell with float(), stored as float32;
    raises FieldTypeError at the first cell that is not a non-negative
    number finite in float32, and MalformedLineError at a line without
    42 fields."""
    x = np.empty((len(lines), len(CONTINUOUS_POSITIONS)), np.float32)
    with np.errstate(over="ignore"):  # a value past float32's range is stored as inf
        for row, (line_no, line) in enumerate(zip(line_numbers, lines)):
            parts = line.split(",")
            if len(parts) != NUM_FIELDS:
                raise MalformedLineError(line_no, len(parts))
            for ci, col in enumerate(CONTINUOUS_POSITIONS):
                try:
                    v = float(parts[col])
                except ValueError:
                    raise FieldTypeError(line_no, col, parts[col]) from None
                x[row, ci] = v
                if not math.isfinite(x[row, ci]) or v < 0.0:
                    raise FieldTypeError(line_no, col, parts[col])
    return x


def _continuous(lines: list[str], line_numbers: Sequence[int]) -> np.ndarray:
    """The (rows, 38) float32 continuous block of well-formed lines.

    np.loadtxt parses a subset of what float() accepts (no "1_000", no
    non-ASCII digits) to the same float64 values, so any block it
    rejects, or whose values are not all non-negative and finite once
    cast to float32, is converted again cell by cell; that either
    accepts the block or locates the bad cell.
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
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        x = x.astype(np.float32)
    if np.isfinite(x).all() and (x >= 0.0).all():
        return x
    return _checked_floats(lines, line_numbers)


def iter_continuous(
    stream: TextIO,
    stop: Optional[int] = None,
    stats: Optional[ChunkStats] = None,
) -> Iterator[np.ndarray]:
    """The continuous features of a KDD99 text stream: one (rows, 38)
    float32 block, in CONTINUOUS_POSITIONS order, for each chunk that
    holds rows.

    Reading ends before line `stop` (1-based, blank lines counted), or at
    the end of the stream. The lines are taken to have the structure
    iter_strings checks; only the cell-by-cell fallback notices one that
    does not. Raises FieldTypeError at the first cell that is not a
    non-negative number finite in float32 (at most 3.4028235e38).

    The stream is read in the chunks iter_strings reads, and every line
    is stripped; blank lines are dropped. Each distinct line of a chunk
    is converted once, and the block is gathered back to row order: a
    line's values depend on its text alone, and KDD99 repeats its lines.
    `stats`, if given, counts the chunks, and as per_line those with a
    blank line or a line that strip() changes.
    """
    stats = stats if stats is not None else ChunkStats()
    line_no = 1
    for chunk in _chunks(stream, stats):
        lines = _lines(chunk)
        if stop is not None:
            del lines[stop - line_no:]
        kept = list(filter(None, map(str.strip, lines)))
        numbers: Sequence[int] = range(line_no, line_no + len(lines))
        if kept != lines:
            stats.per_line += 1
            numbers = [number for number, line in zip(numbers, lines) if line.strip()]
        # Each distinct line once, in first-seen order, with the number of
        # its first copy: that copy is where a bad cell in it is reported.
        ids: dict[str, int] = {}
        first: list[int] = []
        rows = []
        for number, line in zip(numbers, kept):
            row = ids.setdefault(line, len(ids))
            if row == len(first):
                first.append(number)
            rows.append(row)
        if ids:
            yield _continuous(list(ids), first).take(rows, axis=0)
        line_no += len(lines)
        if line_no == stop:
            break


# A name only: perfbench/spans.py rebinds zids.dataset.iter_kdd and fails
# when it is missing.
iter_kdd = iter_continuous


def counts_csv(counts: Mapping[str, int]) -> bytes:
    """Two-column CSV rendering of category counts."""
    return csv_bytes([["category", "count"],
                      *([c, counts.get(c, 0)] for c in CATEGORIES)])
