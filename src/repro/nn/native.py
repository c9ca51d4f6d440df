"""Process settings of the native libraries numpy runs on.

Two calls through ``ctypes`` (which numpy has already imported):

* :func:`keep_freed_memory` sets glibc's ``mallopt`` so that the multi-MB
  temporaries of a gradient query are served from the heap and reused.  By
  default glibc maps each of them on its own and hands it back to the OS
  when freed, so the next query faults the same pages in again.
  ``repro.nn`` calls it once at import.
* :func:`use_one_blas_thread` sets the bundled OpenBLAS to one thread.
  Each forked worker (:class:`repro.runtime.parallel.ForkedWorker`) calls
  it, so that N workers run N BLAS threads on the box, not N times the
  parent's count.

Both do nothing where the library or the symbol is missing; the BLAS call
then logs one line in each process that makes it.
"""

from __future__ import annotations

import ctypes
import logging
import os
import numpy as np

logger = logging.getLogger(__name__)

# glibc <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_memory() -> None:
    """Serve blocks below 32 MiB from the heap; trim it only past 64 MiB."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _openblas_symbol(name: str):
    """``name`` from numpy's bundled ``scipy-openblas``, or ``None``."""
    import glob  # not at module level: importing repro.nn stays cheap

    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                           "numpy.libs", "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            return getattr(ctypes.CDLL(path), name)
        except (OSError, AttributeError):
            continue
    return None


def use_one_blas_thread() -> None:
    """Run the bundled OpenBLAS on one thread in this process."""
    set_threads = _openblas_symbol("scipy_openblas_set_num_threads64_")
    if set_threads is None:
        logger.warning("bundled OpenBLAS not found; BLAS threads left "
                       "as they are")
        return
    set_threads.argtypes = (ctypes.c_int,)
    set_threads.restype = None
    set_threads(1)
