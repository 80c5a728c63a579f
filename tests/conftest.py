"""Fixtures shared by several test modules."""

import pytest

from gffforge import rng


@pytest.fixture
def openblas_on_two_threads():
    """The OpenBLAS pools (numpy's, scipy's) that can run two threads, as
    name -> (get, set), each set to two threads for the test and restored
    after it; empty where neither library calls a threaded OpenBLAS."""
    found = {name: api for name, api in rng._OPENBLAS.items() if api is not None}
    before = {name: get() for name, (get, _) in found.items()}
    try:
        for _, put in found.values():
            put(2)
        yield {name: api for name, api in found.items() if api[0]() == 2}
    finally:
        for name, (_, put) in found.items():
            put(before[name])
