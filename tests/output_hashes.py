"""SHA-256 of every canonical gffforge output, kept in output_hashes.json.

The 19 outputs are report.json and every data file of the six
demos/configs experiments, lattice ``paths`` (circle on disk-64 and
disk-128, sine on the grid 1,2,4; laws gff and stable) and ``sample
--size 48`` (gff and stable).  manifest.json is left out: it holds wall
times and dates.  The outputs are regenerated in one child process at
GFFFORGE_THREADS=2 with numpy's AVX-512 kernels switched off, so the
hashes are those of an AVX2-only CPU too (README, "CPU boundary").
OpenBLAS picks its own kernels by CPU, and they move the last bits of
every lattice output, so the file records the OpenBLAS core name next to
the Python, numpy and scipy versions.

    PYTHONPATH=src python tests/output_hashes.py           # print fresh hashes
    PYTHONPATH=src python tests/output_hashes.py --write   # rewrite the file

A change that moves a canonical output on purpose rewrites the file and
names the moved outputs in CHANGES.md; tests/test_output_hashes.py only
reads it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_FILE = HERE / "output_hashes.json"
CONFIGS = ROOT / "demos" / "configs"
EXPERIMENTS = (
    "char-bm-gff-circle",
    "char-bm-gff-sine",
    "char-bm-stable",
    "conformal-rotation",
    "excursion-mass",
    "wick-fourth",
)
# numpy's AVX-512 dispatch targets, as test_hit_decisions_ignore_simd_dispatch
AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


def commands(out: Path) -> dict:
    """name -> gffforge argv; each verify run writes into out/<name>/."""
    runs = {
        name: ["verify", "--experiment", name, "--config", str(CONFIGS / f"{name}.cfg"),
               "--output-dir", str(out / name)]
        for name in EXPERIMENTS
    }
    for law in ("gff", "stable"):
        for size in (64, 128):
            runs[f"paths-circle-{size}-{law}"] = [
                "paths", "--kind", "circle", "--backend", "lattice", "--size", str(size),
                "--grid", "0.25,0.5,1", "--n", "200", "--law", law,
                "--out", str(out / f"paths-circle-{size}-{law}.csv"),
            ]
        runs[f"paths-sine-{law}"] = [
            "paths", "--kind", "sine", "--backend", "lattice", "--grid", "1,2,4", "--n", "64",
            "--law", law, "--out", str(out / f"paths-sine-{law}.csv"),
        ]
        runs[f"sample-48-{law}"] = [
            "sample", "--size", "48", "--law", law, "--out", str(out / f"sample-48-{law}.npz"),
        ]
    return runs


def generate(out: Path) -> dict:
    """Run every command in this process; exit codes and output hashes."""
    from gffforge import cli

    codes = {}
    for name, argv in commands(out).items():
        with contextlib.redirect_stdout(io.StringIO()):
            codes[name] = cli.main(argv)
    hashes = {
        f.relative_to(out).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.rglob("*"))
        if f.is_file() and f.name != "manifest.json"
    }
    return {"versions": versions(), "exit_codes": codes, "sha256": hashes}


def versions() -> dict:
    """Python, numpy and scipy versions, and the CPU kernel set (core name)
    of the OpenBLAS behind numpy and scipy, which OpenBLAS picks by CPU."""
    import numpy
    import scipy
    from numpy.linalg import _umath_linalg
    from scipy.linalg import _flapack

    cores = {}
    for name, module in (("numpy", _umath_linalg), ("scipy", _flapack)):
        lib = ctypes.CDLL(module.__file__)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                cores[name] = get().decode()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_core": cores}


def child_env() -> dict:
    """Environment of the generating child: two gffforge threads, numpy's
    AVX-512 kernels off (only those this CPU has; numpy rejects others)."""
    from numpy._core._multiarray_umath import __cpu_features__

    off = [f for f in AVX512 if __cpu_features__.get(f)]
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), "GFFFORGE_THREADS": "2",
            "NPY_DISABLE_CPU_FEATURES": " ".join(off)}


def regenerate() -> dict:
    """Versions, exit codes and hashes from one fresh child process."""
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, __file__, "--child", tmp], env=child_env(),
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(done.stderr)
        return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(generate(Path(argv[1]))))
        return 0
    text = json.dumps(regenerate(), indent=2, sort_keys=True) + "\n"
    if argv == ["--write"]:
        HASH_FILE.write_text(text)
    elif argv:
        print(__doc__, file=sys.stderr)
        return 2
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
