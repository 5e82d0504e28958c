"""A scoped one-thread cap on the OpenBLAS builds that numpy and scipy bundle.

The numpy and scipy wheels each ship their own OpenBLAS, and each keeps a
thread pool whose workers spin for a while after a call returns. A loop that
alternates numpy and scipy calls on small matrices gains little from those
threads, and it keeps both pools' workers spinning, so they contend for the
cores with each other and with the calling thread: the loop runs slower, and
its time varies widely from one run to the next. :func:`single_threaded_blas`
runs such a loop with both bundled builds capped at one thread, which also
makes its results independent of the machine's core count. Where neither
package bundles an OpenBLAS (builds against another BLAS) it does nothing.

Callers:

* ``multisite.transport_all``, around its per-site loop;
* ``balance.lambda_sweep``, around its per-site loop;
* ``sim.run_simulation``, around its replications;
* ``cli`` ``weights``, around each shown site's solve;
* ``qp.solve_qp``, around every solve of a program with an explicit P;
* ``balance._site_program``, around the kernel-mode Grams and bandwidths.
"""

from __future__ import annotations

import ctypes
import importlib.util
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path

# The thread counts are process-wide, so the bookkeeping of open blocks is too.
_lock = threading.Lock()
_depth = 0
_saved: list[int] = []


@cache
def _thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of each OpenBLAS bundled beside the
    numpy and scipy packages (``numpy.libs/``, ``numpy/.dylibs/``, and the
    same for scipy). It sets the process-wide thread count and returns the
    previous one."""
    setters = []
    for package in ("numpy", "scipy"):
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        package_dir = Path(spec.origin).parent
        for lib_dir in (package_dir.parent / f"{package}.libs", package_dir / ".dylibs"):
            for path in sorted(lib_dir.glob("*openblas*")):
                try:
                    setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
                except (OSError, AttributeError):
                    continue
                setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
                setters.append(setter)
    return tuple(setters)


@contextmanager
def single_threaded_blas():
    """Cap every bundled OpenBLAS at one thread inside the block.

    Overlapping blocks (nested, or in other Python threads) share one cap:
    the first to enter sets it and the last to leave restores the counts
    found on entry.
    """
    global _depth
    with _lock:
        if _depth == 0:
            _saved[:] = [setter(1) for setter in _thread_setters()]
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for setter, count in zip(_thread_setters(), _saved):
                    setter(count)
