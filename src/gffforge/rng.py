"""Seed derivation and random generator construction.

Replica k of a batch draws from its own counter-based stream keyed by
``base_seed XOR (k * GOLDEN)`` so that batches are reproducible and the
result of a run does not depend on how replicas are scheduled.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError

GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derived_seed(base_seed: int, k: int) -> int:
    """64-bit seed for replica ``k`` of a batch keyed by ``base_seed``, which
    must lie in [0, 2^64): a seed outside that range would be masked into
    it and run silently as another seed."""
    if not 0 <= base_seed <= _MASK64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {base_seed}")
    if k < 0:
        raise ValueError("replica index must be nonnegative")
    return (int(base_seed) ^ ((k * GOLDEN) & _MASK64)) & _MASK64


def replica_rng(base_seed: int, k: int = 0) -> np.random.Generator:
    """Counter-based generator for replica ``k``."""
    return np.random.Generator(np.random.Philox(key=derived_seed(base_seed, k)))


def thread_count() -> int:
    """Worker cap for replica-parallel loops, from GFFFORGE_THREADS."""
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
