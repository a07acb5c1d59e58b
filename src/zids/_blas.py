"""The thread count of numpy's bundled OpenBLAS, read and set through ctypes.

numpy offers no public call for it. The library is looked up lazily, on the
first call, among the shared objects numpy ships in its ``numpy.libs``
directory; a numpy built against another BLAS has none, and then the count
is unknown (None) and cannot be set.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

# (getter, setter) symbol pairs: the 64-bit-integer scipy-openblas build that
# numpy wheels bundle, then a plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _functions() -> Optional[tuple]:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(handle, get_name) and hasattr(handle, set_name):
                getter, setter = getattr(handle, get_name), getattr(handle, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def get_num_threads() -> Optional[int]:
    """OpenBLAS's process-wide thread count; None when no OpenBLAS is found."""
    functions = _functions()
    return None if functions is None else functions[0]()


@contextlib.contextmanager
def single_threaded() -> Iterator[int]:
    """Run the block with OpenBLAS at 1 thread, process-wide, and restore the
    earlier count on the way out, also when the block raises.

    Yields the earlier count: the number of cores BLAS was allowed to use,
    which callers may fill with threads of their own. Yields 1, and changes
    nothing, when no OpenBLAS is found.
    """
    functions = _functions()
    if functions is None:
        yield 1
        return
    getter, setter = functions
    before = getter()
    setter(1)
    try:
        yield before
    finally:
        setter(before)
