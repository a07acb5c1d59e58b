"""Artifacts written whole or not at all."""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path
from typing import Iterable


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
