"""One BLAS thread while a model trains.

numpy and scipy wheels each bundle their own OpenBLAS, and each copy
starts a pool of one thread per core.  The interior-point Newton step
alternates between numpy products and scipy factorizations, so the idle
workers of the two pools contend for the same cores.  On a 2-vCPU
machine one 3-piece train at l = 150 takes about 300 ms with the default
pools and about 30 ms with one thread in each copy; one thread also wins
at l = 400 and l = 800 for both kernels.  Parallelism belongs to the grid
cells instead.  An RBF search trains its cells on ``jobs`` threads,
whose l x l factorizations release the interpreter lock; linear trains
are bound by the lock, so linear cells run on the calling thread until
they get a process pool (ROADMAP Open item 6).

The cap goes through ``openblas_set_num_threads_local``, the thread-count
entry point every OpenBLAS copy exports without a build prefix.  It
returns the previous count.  In pthreads builds (OpenBLAS 0.3.31 at
least) it sets the count of the whole process, not of the calling thread,
so overlapping caps from several threads (an RBF search's pool, or a
library caller that trains on its own threads) are reference-counted: the
first one in sets one thread and the last one out restores the saved
counts.  Where no loaded OpenBLAS exports the entry point (MKL,
Accelerate, an older OpenBLAS, a platform without ``/proc/self/maps``)
the cap does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

__all__ = ["single_thread", "thread_counts"]

_lock = threading.Lock()
_holders = 0
_saved: list = []


@functools.cache
def _setters() -> tuple:
    """The thread-count setter of each loaded OpenBLAS copy, once per copy."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "blas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return ()
    found = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            fn = lib.openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        fn.argtypes = [ctypes.c_int]
        fn.restype = ctypes.c_int
        # a module linked against a copy resolves the symbol to that copy
        found.setdefault(ctypes.cast(fn, ctypes.c_void_p).value, fn)
    return tuple(found.values())


@contextmanager
def single_thread():
    """Run the body with one thread in every loaded OpenBLAS copy.

    The counts in force when the first overlapping caller entered are
    restored when the last one leaves, on every exit path.
    """
    global _holders, _saved
    with _lock:
        if _holders == 0:
            _saved = [(fn, fn(1)) for fn in _setters()]
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for fn, n in _saved:
                    fn(n)


def thread_counts() -> list[int]:
    """Thread count of each loaded OpenBLAS copy (empty without one)."""
    with _lock:
        counts = [fn(1) for fn in _setters()]
        for fn, n in zip(_setters(), counts):
            fn(n)
    return counts
