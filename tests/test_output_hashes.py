"""Canonical outputs against their checked-in SHA-256 (output_hashes.json)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent / "output_hashes.py"
_spec = importlib.util.spec_from_file_location("output_hashes", _SCRIPT)
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)


def test_canonical_outputs_match_checked_in_hashes():
    # all 19 outputs come from one child at GFFFORGE_THREADS=2 with numpy's
    # AVX-512 kernels off, so an AVX-512 CPU and an AVX2-only one hash
    # alike.  OpenBLAS picks its kernels by CPU on its own: on the AVX-512
    # CPU the file was written on, OPENBLAS_CORETYPE=Haswell moved the last
    # bits (up to 5e-13 relative) of 15 of the 19 outputs.  So the test runs
    # only where the versions and the OpenBLAS core match the file's
    want = json.loads(output_hashes.HASH_FILE.read_text())
    have = output_hashes.versions()
    if have != want["versions"]:
        pytest.skip(f"hashes were written with {want['versions']}, this is {have}")
    got = output_hashes.regenerate()
    assert got["exit_codes"] == want["exit_codes"]
    moved = sorted(k for k in want["sha256"].keys() | got["sha256"].keys()
                   if want["sha256"].get(k) != got["sha256"].get(k))
    assert not moved, f"outputs whose bytes moved: {moved}"
