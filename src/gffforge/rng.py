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
