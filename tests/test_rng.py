"""Tests for seed derivation and the replica-parallel map."""

import time

import numpy as np
import pytest

from gffforge.errors import ConfigError, DomainError
from gffforge.fields import dgff_matrix
from gffforge.greens import disk_lattice
from gffforge.rng import GOLDEN, derived_seed, parallel_map, replica_rng, thread_count


def test_derived_seed_is_deterministic_and_distinct():
    assert derived_seed(123, 0) == 123
    assert derived_seed(123, 1) == 123 ^ GOLDEN
    seeds = {derived_seed(7, k) for k in range(1000)}
    assert len(seeds) == 1000
    with pytest.raises(DomainError, match="replica index must be nonnegative"):
        derived_seed(7, -1)


def test_derived_seed_rejects_seeds_outside_64_bits():
    top = 2**64 - 1
    assert derived_seed(top, 0) == top
    assert derived_seed(0, 1) == GOLDEN
    for bad in (-1, 2**64, 2**64 + 7):
        with pytest.raises(ConfigError, match=r"\[0, 2\^64\)"):
            derived_seed(bad, 0)
        with pytest.raises(ConfigError):
            replica_rng(bad, 3)


def test_derived_seed_rejects_a_non_integral_seed():
    # truncated, seed 1.9 would run as seed 1
    for bad in (1.9, 1.0, np.float64(3.0), "3"):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            derived_seed(bad, 0)
    with pytest.raises(ConfigError, match="seed must be an integer"):
        dgff_matrix(disk_lattice(16), 3, 1.9)
    assert derived_seed(np.uint64(5), 2) == derived_seed(np.int32(5), 2) == derived_seed(5, 2)


def test_replica_rng_streams():
    a = replica_rng(42, 3).standard_normal(8)
    b = replica_rng(42, 3).standard_normal(8)
    c = replica_rng(42, 4).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # a re-keyed generator restarts the stream, whatever it drew before:
    # float32 draws leave a cached half word that must not leak
    g = replica_rng(42, 4)
    g.random(3, dtype=np.float32)
    assert replica_rng(42, 3, g) is g
    assert np.array_equal(g.standard_normal(8), a)
    g.integers(0, 9, 5)
    assert np.array_equal(replica_rng(42, 4, g).standard_normal(8), c)


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("GFFFORGE_THREADS", raising=False)
    assert thread_count() >= 1
    monkeypatch.setenv("GFFFORGE_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("GFFFORGE_THREADS", "0")
    with pytest.raises(ValueError):
        thread_count()
    monkeypatch.setenv("GFFFORGE_THREADS", "many")
    with pytest.raises(ValueError):
        thread_count()


def test_parallel_map_preserves_input_order(monkeypatch):
    def slow_identity(k):
        # later items finish first so pool scheduling would reorder them
        time.sleep(0.002 * (5 - k))
        return k

    monkeypatch.setenv("GFFFORGE_THREADS", "4")
    assert parallel_map(slow_identity, range(5)) == list(range(5))
    monkeypatch.setenv("GFFFORGE_THREADS", "1")
    assert parallel_map(lambda k: k * k, range(5)) == [0, 1, 4, 9, 16]
    assert parallel_map(lambda k: k, []) == []
