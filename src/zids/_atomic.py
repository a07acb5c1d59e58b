"""Artifacts written whole or not at all, the checked envelope that
every binary artifact shares, and the encoding of every CSV table.

The envelope is the 4-byte magic, a u32 version, the body, and a CRC32
of every byte before it, little-endian throughout. In a body, a string
is a u32 length and UTF-8 bytes, and a name list a u32 count and that
many strings. checked_file writes an envelope part by part and
read_checked reads one back.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import VersionMismatchError


@contextlib.contextmanager
def atomic_file(path):
    """A new file, open for writing, that takes path's name when the block
    ends.

    It is a temporary file in path's directory, which then takes path's
    name with os.replace: a reader sees the old file or the whole new
    one, never a part of it. If the block or the replace raises, the
    temporary file is removed and path is left as it was. Nothing is
    fsynced, so this guards against failures and concurrent readers, not
    against power loss.
    """
    path = Path(path)
    # no other live writer has this process and thread
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_atomic(path, buffers: Iterable) -> None:
    """Write the buffers (bytes-like), in order, as the file at path; see
    atomic_file."""
    with atomic_file(path) as fh:
        for buffer in buffers:
            fh.write(buffer)


def csv_bytes(rows: Iterable[Sequence]) -> bytes:
    """The rows as a CSV table: csv's excel dialect (fields quoted only
    where needed, CRLF line ends), UTF-8."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


def pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def pack_names(names: Sequence[str]) -> bytes:
    return struct.pack("<I", len(names)) + b"".join(map(pack_str, names))


class Envelope:
    """The envelope of one open file, written part by part: append()
    writes a part and takes it into the checksum, close() appends the
    checksum."""

    def __init__(self, fh, magic: bytes, version: int):
        self.fh, self.crc = fh, 0
        self.append(magic + struct.pack("<I", version))

    def append(self, part) -> None:
        self.crc = zlib.crc32(part, self.crc)
        self.fh.write(part)

    def close(self) -> None:
        """Append the checksum."""
        self.fh.write(struct.pack("<I", self.crc))


@contextlib.contextmanager
def checked_file(path, magic: bytes, version: int):
    """An Envelope of magic and version over a new file that, its
    checksum appended, takes path's name when the block ends; see
    atomic_file."""
    with atomic_file(path) as fh:
        envelope = Envelope(fh, magic, version)
        yield envelope
        envelope.close()


class Cursor:
    """Reads a body in order; EOFError for any read past its end."""

    def __init__(self, blob: np.ndarray, at: int, end: int):
        self.blob, self.at, self.end = blob, at, end

    @property
    def left(self) -> int:
        """The bytes not yet read."""
        return self.end - self.at

    def _skip(self, count: int) -> int:
        if count > self.left:
            raise EOFError("unexpected end of file")
        self.at += count
        return self.at - count

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._skip(struct.calcsize(fmt)))

    def string(self) -> str:
        (length,) = self.unpack("<I")
        at = self._skip(length)
        return self.blob[at:at + length].tobytes().decode("utf-8")

    def names(self) -> list[str]:
        (count,) = self.unpack("<I")
        return [self.string() for _ in range(count)]

    def array(self, dtype: str, shape) -> np.ndarray:
        """A view of the next bytes as an array of shape; writable when
        the blob is, as read_checked's is."""
        count = math.prod(shape)
        at = self._skip(count * np.dtype(dtype).itemsize)
        return np.frombuffer(self.blob, dtype, count, at).reshape(shape)


def read_checked(path, magic: bytes, version: int, corrupt, parse):
    """Read the file at path once and check its magic, its version, then
    its checksum; then parse(cursor over its body), which must read the
    whole body. Returns what parse returns.

    The file is read into one uint8 array that no one else holds, not
    zero-filled first and with no second copy, so the arrays parse makes
    of it (Cursor.array) are writable views. corrupt(reason) is the
    exception a damaged file raises, its reason led by the path; an
    EOFError or ValueError from parse becomes one. A file of another
    version raises VersionMismatchError, also led by the path.
    """
    with open(path, "rb") as fh:
        blob = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
        blob = blob[:fh.readinto(blob)]
    if blob[:4].tobytes() != magic:
        raise corrupt(f"{path}: bad magic {blob[:4].tobytes()!r}")
    if len(blob) < 12:
        raise corrupt(f"{path}: unexpected end of file")
    (found,) = struct.unpack_from("<I", blob, 4)
    if found != version:
        raise VersionMismatchError(path, found, version)
    if blob[-4:].tobytes() != struct.pack("<I", zlib.crc32(blob[:-4])):
        raise corrupt(f"{path}: checksum mismatch")
    body = Cursor(blob, 8, len(blob) - 4)
    try:
        parsed = parse(body)
        if body.left:
            raise ValueError(f"{body.left} bytes left before the checksum")
    except (EOFError, ValueError) as exc:
        raise corrupt(f"{path}: {exc}") from None
    return parsed
