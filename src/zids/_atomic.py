"""Artifacts written whole or not at all, and the checked envelope that
every binary artifact shares.

The envelope is the 4-byte magic, a u32 version, the body, and a CRC32
of every byte before it, little-endian throughout. In a body, a string
is a u32 length and UTF-8 bytes, and a name list a u32 count and that
many strings.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import VersionMismatchError


def write_atomic(path, buffers: Iterable) -> None:
    """Write the buffers (bytes-like), in order, as the file at path.

    They go to a new temporary file in path's directory, which then
    takes path's name with os.replace: a reader sees the old file or the
    whole new one, never a part of it. If anything fails, the temporary
    file is removed and path is left as it was. Nothing is fsynced, so
    this guards against failures and concurrent readers, not against
    power loss.
    """
    path = Path(path)
    # no other live writer has this process and thread
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for buffer in buffers:
                fh.write(buffer)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def pack_names(names: Sequence[str]) -> bytes:
    return struct.pack("<I", len(names)) + b"".join(map(pack_str, names))


def write_checked(path, magic: bytes, version: int, parts: Iterable) -> None:
    """Write the envelope of the body parts (bytes-like), atomically."""
    parts = [magic + struct.pack("<I", version), *parts]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    write_atomic(path, [*parts, struct.pack("<I", crc)])


class Cursor:
    """Reads a body in order; EOFError for any read past its end."""

    def __init__(self, blob: bytes, at: int, end: int):
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
        return self.blob[at:at + length].decode("utf-8")

    def names(self) -> list[str]:
        (count,) = self.unpack("<I")
        return [self.string() for _ in range(count)]

    def array(self, dtype: str, shape) -> np.ndarray:
        """A read-only view of the next bytes as an array of shape."""
        count = math.prod(shape)
        at = self._skip(count * np.dtype(dtype).itemsize)
        return np.frombuffer(self.blob, dtype, count, at).reshape(shape)


def read_checked(path, magic: bytes, version: int, corrupt, parse):
    """Read the file at path once and check its magic, its version, then
    its checksum; then parse(cursor over its body), which must read the
    whole body. Returns what parse returns.

    corrupt(reason) is the exception a damaged file raises, its reason
    led by the path; an EOFError or ValueError from parse becomes one.
    A file of another version raises VersionMismatchError.
    """
    blob = Path(path).read_bytes()
    if blob[:4] != magic:
        raise corrupt(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise corrupt(f"{path}: unexpected end of file")
    (found,) = struct.unpack_from("<I", blob, 4)
    if found != version:
        raise VersionMismatchError(found, version)
    if blob[-4:] != struct.pack("<I", zlib.crc32(memoryview(blob)[:-4])):
        raise corrupt(f"{path}: checksum mismatch")
    body = Cursor(blob, 8, len(blob) - 4)
    try:
        parsed = parse(body)
        if body.left:
            raise ValueError(f"{body.left} bytes left before the checksum")
    except (EOFError, ValueError) as exc:
        raise corrupt(f"{path}: {exc}") from None
    return parsed
