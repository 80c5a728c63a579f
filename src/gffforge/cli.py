"""Command-line experiment harness.

Experiments are named pipelines over the library: they build sample
batches, run the statistical battery, and emit deterministic report.json
plus data CSVs into an output directory.  Each experiment reads a fixed
set of config keys, listed with their defaults in ``EXPERIMENTS``; setting
any other key is a configuration error.  A run computes first and writes
last: the output directory is made only after every check has run, so a
run that exits 2 or 3 leaves none, and an output directory that cannot be
made is found after the compute.  A manifest.json records the values of
those keys, library version, wall time and the machine (core count,
GFFFORGE_THREADS in effect, Python/numpy/scipy versions, the OpenBLAS
thread counts behind numpy and scipy in force during the run).  Exit codes: 0
all tests passed, 1 a test failed, 2 invalid configuration or a file that
cannot be read or written, 3 a resolution or numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .averaging import (
    DEFAULT_T_GRID,
    DEFAULT_U_GRID,
    _write_csv_rows,
    circle_average_path,
    sine_average_path,
    sine_lattice_for,
)
from .errors import ConfigError, DomainError, NumericalError, ResolutionError
from .excursions import ks_distance, sample_excursion_hits, total_mass
from .fields import CALIBRATION, FieldSample, dgff_matrix, sample_functionals, stable_matrix
from .geometry import Mobius, disk_bump
from .greens import disk_lattice
from .rng import derived_seed, openblas_threads, thread_count
from .verify import TestReport, characterize_bm, test_conformal_invariance, test_wick_fourth

__all__ = [
    "ExperimentConfig",
    "parse_config_file",
    "load_config",
    "run",
    "main",
    "EXPERIMENTS",
]


def _parse(key: str, value, default):
    """``value`` parsed, if a string, as the type of ``default`` (a tuple
    from comma-separated floats), then checked."""
    if isinstance(value, str):
        try:
            if isinstance(default, tuple):
                value = tuple(float(v) for v in value.split(",") if v.strip())
            else:
                value = type(default)(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    # NaN passes every comparison below, and inf every positivity check
    if not isinstance(value, str) and any(
        isinstance(v, (float, np.floating)) and not np.isfinite(v) for v in np.ravel(value)
    ):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if key == "seed":
        derived_seed(value, 0)  # raises ConfigError for a seed outside [0, 2^64)
    elif key in ("lattice_size", "r", "eps", "n_samples") and not value > 0:
        raise ConfigError(f"{key} must be positive")
    elif key.startswith("tol.") and value < 0:
        raise ConfigError(f"{key} must not be negative")
    elif key == "alpha" and not 1.0 < value <= 2.0:
        raise ConfigError("alpha must lie in (1, 2], the stable field's range")
    elif key.endswith("_grid"):
        g = np.asarray(value, dtype=float)
        if g.ndim != 1 or len(g) == 0 or not g[0] > 0 or np.any(np.diff(g) <= 0):
            raise ConfigError(f"{key} must be a nonempty positive increasing list")
    return value


class ExperimentConfig:
    """The resolved keys of one experiment as attributes (``cfg.seed``,
    ``cfg.u_grid``, ...), its ``tol.*`` gates in ``cfg.tol`` by their short
    names.  Keys not given take their defaults; a key the experiment does
    not read raises ConfigError."""

    def __init__(self, experiment: str, **values):
        if experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {experiment!r}; known: {', '.join(sorted(EXPERIMENTS))}"
            )
        _, keys = EXPERIMENTS[experiment]
        unread = sorted(set(values) - set(keys))
        if unread:
            raise ConfigError(
                f"experiment {experiment!r} does not read {', '.join(unread)}; "
                f"it reads {', '.join(keys)}"
            )
        self.experiment = experiment
        self.tol: dict = {}
        for key, default in keys.items():
            value = _parse(key, values.get(key, default), default)
            if key.startswith("tol."):
                self.tol[key[4:]] = value
            else:
                setattr(self, key, value)

    def resolved(self) -> dict:
        """The keys the experiment reads, its gates under ``tol``."""
        _, keys = EXPERIMENTS[self.experiment]
        out = {k: getattr(self, k) for k in keys if not k.startswith("tol.")}
        return {**out, "tol": self.tol} if self.tol else out


def parse_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def load_config(experiment: str, path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve experiment defaults, then a config file, then overrides; the
    file may name its experiment, which must be the one asked for."""
    values = {**(parse_config_file(path) if path else {}), **(overrides or {})}
    named = values.pop("experiment", experiment)
    if named != experiment:
        raise ConfigError(
            f"config file names experiment {named!r}, command line says {experiment!r}"
        )
    return ExperimentConfig(experiment, **values)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


# A runner computes an experiment's reports (dicts for report.json) and
# returns them with its data files, each a file name and a writer taking
# the file's path; ``run`` writes them once the runner has returned.


def _run_excursion_mass(cfg: ExperimentConfig) -> tuple:
    sample = sample_excursion_hits(cfg.r, cfg.eps, cfg.n_samples, cfg.seed)
    target = total_mass(cfg.r)
    mass = TestReport(
        "excursion_mass",
        abs(sample.mass_estimate / target - 1.0),
        None,
        cfg.tol["mass"],
        cfg.n_samples,
        notes=f"target 4/(pi r) = {target:.6f}",
    )
    ks = TestReport(
        "hit_angle_ks",
        ks_distance(sample.angles),
        None,
        cfg.tol["ks"],
        len(sample.angles),
        notes="weighted one-sample KS against the sine hitting law",
    )
    reports = [
        {**asdict(mass), "mass_estimate": sample.mass_estimate,
         "mass_stderr": sample.mass_stderr()},
        asdict(ks),
    ]
    return reports, {"hits.csv": sample.to_csv}


def _run_char_bm_gff_sine(cfg: ExperimentConfig) -> tuple:
    Y = sine_average_path(cfg.n_samples, cfg.u_grid, cfg.seed)
    return [asdict(characterize_bm(Y, seed=cfg.seed))], {"sine_path.csv": Y.to_csv}


def _run_char_bm_gff_circle(cfg: ExperimentConfig) -> tuple:
    Y = circle_average_path(cfg.n_samples, cfg.t_grid, cfg.seed)
    return [asdict(characterize_bm(Y, seed=cfg.seed))], {"circle_path.csv": Y.to_csv}


def _run_char_bm_stable(cfg: ExperimentConfig) -> tuple:
    lat = disk_lattice(cfg.lattice_size)
    Y = circle_average_path(
        cfg.n_samples, cfg.t_grid, cfg.seed, lattice=lat, law="stable", alpha=cfg.alpha
    )
    return [asdict(characterize_bm(Y, seed=cfg.seed))], {"stable_circle_path.csv": Y.to_csv}


def _run_wick_fourth(cfg: ExperimentConfig) -> tuple:
    lat = disk_lattice(cfg.lattice_size)
    phi = disk_bump(0.0, 0.5)
    w = np.asarray(phi(lat.z)) * lat.spacing**2
    samples = sample_functionals(lat, w[:, None], cfg.n_samples, cfg.seed)[:, 0]

    def write_pairings(path):
        with open(path, "w") as fh:
            _write_csv_rows(fh, samples[:, None], "%.17g\n")

    return [asdict(test_wick_fourth(samples))], {"pairings.csv": write_pairings}


def _run_conformal_rotation(cfg: ExperimentConfig) -> tuple:
    rep = test_conformal_invariance(
        "gff",
        Mobius(np.exp(1j * np.pi / 3.0), 0, 0, 1),  # rotation by pi/3
        disk_bump(0.25 + 0.1j, 0.35),
        cfg.n_samples,
        cfg.seed,
        lattice_src=disk_lattice(cfg.lattice_size),
    )
    return [asdict(rep)], {}


# Each experiment's runner and the keys it reads, with their defaults: any
# other key is rejected.  A value is parsed as the type of its key's
# default; the tol.* keys are the experiment's pass/fail gates.
_COMMON = {"seed": 7, "output_dir": "."}
EXPERIMENTS = {
    "excursion-mass": (_run_excursion_mass, {**_COMMON, "n_samples": 200_000, "r": 1.0,
                                             "eps": 1e-3, "tol.mass": 0.03, "tol.ks": 0.02}),
    "char-bm-gff-sine": (_run_char_bm_gff_sine,
                         {**_COMMON, "n_samples": 10_000, "u_grid": DEFAULT_U_GRID}),
    "char-bm-gff-circle": (_run_char_bm_gff_circle,
                           {**_COMMON, "n_samples": 10_000, "t_grid": DEFAULT_U_GRID}),
    "char-bm-stable": (_run_char_bm_stable, {**_COMMON, "n_samples": 4_000, "lattice_size": 64,
                                             "alpha": 1.5, "t_grid": DEFAULT_T_GRID}),
    "wick-fourth": (_run_wick_fourth, {**_COMMON, "n_samples": 10_000, "lattice_size": 64}),
    "conformal-rotation": (_run_conformal_rotation,
                           {**_COMMON, "n_samples": 400, "lattice_size": 96}),
}


def _all_passed(reports: list) -> bool:
    ok = True
    for rep in reports:
        if "overall" in rep:
            ok &= rep["overall"] == "consistent-with-BM"
        else:
            ok &= bool(rep["passed"])
    return ok


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment, then make the output directory and write its
    data files, report.json and manifest.json."""
    machine = {
        "cpu_count": os.cpu_count(),
        "threads": thread_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
    }
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    runner, _ = EXPERIMENTS[cfg.experiment]
    reports, files = runner(cfg)
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    for name, write in files.items():
        write(out / name)
    wall = time.monotonic() - t0
    (out / "report.json").write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    manifest = {
        "experiment": cfg.experiment,
        "config": cfg.resolved(),
        "version": __version__,
        "started_at": started,
        "wall_seconds": wall,
        "machine": machine,
        "reports": reports,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0 if _all_passed(reports) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gffforge",
        description="Simulation and verification lab for planar free-field averages.",
        epilog="GFFFORGE_THREADS caps worker threads for replica-parallel loops.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="draw one lattice field and save it as .npz")
    s.add_argument("--law", choices=("gff", "stable"), default="gff")
    s.add_argument("--alpha", type=float, default=None, help="stable index (default 1.5)")
    s.add_argument("--size", type=int, default=64)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="run a named experiment")
    v.add_argument("--experiment", required=True)
    v.add_argument("--config", default=None)
    v.add_argument("--output-dir", default=None)
    v.add_argument("--seed", type=int, default=None)

    w = sub.add_parser("paths", help="generate average-process paths as CSV")
    w.add_argument("--kind", choices=("circle", "sine"), required=True)
    w.add_argument("--backend", choices=("exact", "lattice"), default="exact")
    w.add_argument("--grid", required=True, help="comma-separated scale grid")
    w.add_argument("--n", type=int, default=1000)
    w.add_argument("--seed", type=int, default=7)
    w.add_argument("--law", choices=("gff", "stable"), default="gff")
    w.add_argument("--alpha", type=float, default=None, help="stable index (default 1.5)")
    w.add_argument("--size", type=int, default=None, help="circle lattice size (default 128)")
    w.add_argument("--out", default=None)
    return p


def _law_kwargs(args) -> dict:
    """law/alpha keywords of ``sample`` and ``paths``: ``--alpha`` applies
    only to ``--law stable``, where it defaults to 1.5."""
    if args.law != "stable":
        if args.alpha is not None:
            raise ConfigError("--alpha only applies to --law stable")
        return {"law": args.law}
    return {"law": args.law, "alpha": 1.5 if args.alpha is None else args.alpha}


def _cmd_sample(args) -> int:
    """One field, written by np.savez: its dense grid (``FieldSample.grid``)
    under ``values``, with spacing, i0, j0, law, alpha, seed and
    calibration; read it back with np.load."""
    kwargs = _law_kwargs(args)
    lat = disk_lattice(args.size)
    if args.law == "gff":
        values = dgff_matrix(lat, 1, args.seed)[:, 0]
    else:
        values = stable_matrix(lat, kwargs["alpha"], 1, args.seed)[:, 0]
    grid, i0, j0 = FieldSample(lat, values).grid()
    # a file object, since np.savez appends .npz to a path that lacks it
    with open(args.out, "wb") as fh:
        np.savez(
            fh, values=grid, spacing=lat.spacing, i0=i0, j0=j0, law=args.law,
            alpha=kwargs.get("alpha", 2.0), seed=np.uint64(args.seed), calibration=CALIBRATION,
        )
    print(json.dumps({"law": args.law, "sites": lat.n_sites, "out": str(args.out)}))
    return 0


def _cmd_verify(args) -> int:
    overrides: dict = {}
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.experiment, args.config, overrides)
    return run(cfg)


def _cmd_paths(args) -> int:
    grid = _parse("--grid", args.grid, ())
    if not grid:
        raise ConfigError("empty --grid")
    circle_lattice = args.kind == "circle" and args.backend == "lattice"
    if args.size is not None and not circle_lattice:
        raise ConfigError("--size only applies to --kind circle --backend lattice")
    # the exact route rejects law "stable" itself
    kwargs = _law_kwargs(args)
    if circle_lattice:
        kwargs["lattice"] = disk_lattice(128 if args.size is None else args.size)
    elif args.backend == "lattice":
        kwargs["lattice"] = sine_lattice_for(grid)  # checks the grid before building
    average_path = circle_average_path if args.kind == "circle" else sine_average_path
    path = average_path(args.n, grid, args.seed, **kwargs)
    out = args.out or f"{args.kind}_path.csv"
    path.to_csv(out)
    print(json.dumps({"kind": args.kind, "backend": args.backend, "n": args.n, "out": str(out)}))
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "paths": _cmd_paths,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        thread_count()  # reject a bad GFFFORGE_THREADS even where no pool runs
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, OSError) as exc:
        # OSError: a file that cannot be read or written, such as --out in a
        # directory that does not exist
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResolutionError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
