"""Seed derivation, random generator construction and the library's
threads.

Replica k of a batch draws from its own counter-based stream keyed by
``base_seed XOR (k * GOLDEN)`` so that batches are reproducible and the
result of a run does not depend on how replicas are scheduled.

The replica pool (``parallel_map``, capped by GFFFORGE_THREADS) runs the
blocks of site noise and of many-column banded solves; with the box DSTs'
workers (greens) it is the library's only parallelism: importing this
module sets numpy's and scipy's OpenBLAS to one thread each, and nothing
sets them back.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg import _flapack

from .errors import ConfigError

GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derived_seed(base_seed: int, k: int) -> int:
    """64-bit seed for replica ``k`` of a batch keyed by ``base_seed``, which
    must lie in [0, 2^64): a seed outside that range would be masked into
    it and run silently as another seed, and so would a float truncated to
    an integer."""
    if not isinstance(base_seed, (int, np.integer)):
        raise ConfigError(f"seed must be an integer, got {base_seed!r}")
    if not 0 <= base_seed <= _MASK64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {base_seed}")
    if k < 0:
        raise ValueError("replica index must be nonnegative")
    return (int(base_seed) ^ ((k * GOLDEN) & _MASK64)) & _MASK64


def replica_rng(
    base_seed: int, k: int = 0, reuse: np.random.Generator | None = None
) -> np.random.Generator:
    """Counter-based generator for replica ``k``.

    Given ``reuse``, a generator an earlier call returned, re-keys it in
    place to the start of replica ``k``'s stream and returns it: the same
    draws as a new one, without ``Philox(key=...)``, which first builds and
    discards an OS-entropy SeedSequence (7 us against 25 us a call)."""
    key = derived_seed(base_seed, k)
    if reuse is None:
        return np.random.Generator(np.random.Philox(key=key))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([key, 0], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


def thread_count() -> int:
    """Worker cap for the replica pool and the box DSTs, from
    GFFFORGE_THREADS."""
    raw = os.environ.get("GFFFORGE_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"GFFFORGE_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError("GFFFORGE_THREADS must be >= 1")
    return n


def parallel_map(fn, items):
    """Map ``fn`` over ``items`` with at most ``thread_count()`` workers.

    Results come back in input order, so output is identical to a serial
    map as long as ``fn`` is deterministic in its argument.
    """
    items = list(items)
    workers = min(thread_count(), max(len(items), 1))
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _openblas_threads_api(module):
    """(get, set) of the thread count of the OpenBLAS that a compiled
    extension module calls, or None when it calls another BLAS (MKL,
    Accelerate, reference LAPACK).  The handle of the extension also
    searches the libraries it links, so each lookup finds that module's own
    copy: numpy's and scipy's wheels each bundle one under prefixed names
    (numpy's with an ILP64 suffix), a system build has the plain ones."""
    lib = ctypes.CDLL(module.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("", "64_"):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, ()
                put.restype, put.argtypes = None, (ctypes.c_int,)
                return get, put
    return None


_OPENBLAS = {
    "numpy": _openblas_threads_api(_umath_linalg),
    "scipy": _openblas_threads_api(_flapack),
}

# One OpenBLAS thread per pool, set once here and never restored: on 2 cores
# a second thread buys nothing at the sizes the library calls, and costs CPU.
# A @ A.T at n = 800 took 8-24 ms wall on two threads against 12 ms on one,
# and leggauss(256) (LAPACK dsyevd) 52 ms wall against 10 ms in a fresh
# process; after a threaded call the idle OpenBLAS worker also spins for a
# while, so Python code that follows reads twice its wall time in CPU.  The
# package's __init__ imports this module, so the pin holds whichever gffforge
# module a program imports first.
for _api in _OPENBLAS.values():
    if _api is not None:
        _api[1](1)


def openblas_threads() -> dict:
    """{"numpy": n, "scipy": n}: the thread count of the OpenBLAS behind
    each library, None where it calls another BLAS."""
    return {name: None if api is None else api[0]() for name, api in _OPENBLAS.items()}
