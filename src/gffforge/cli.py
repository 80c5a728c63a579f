"""Command-line experiment harness.

Experiments are named pipelines over the library: they build sample
batches, run the statistical battery, and emit deterministic report.json
plus data CSVs into an output directory.  A manifest.json records the
resolved configuration, library version, and wall time.  Exit codes:
0 all tests passed, 1 a test failed, 2 invalid configuration, 3 a
resolution or numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .averaging import (
    DEFAULT_T_GRID,
    DEFAULT_U_GRID,
    circle_average_path,
    sine_average_path,
)
from .errors import ConfigError, DomainError, NumericalError, ResolutionError
from .excursions import (
    sample_excursion_hits,
    total_mass,
    weighted_ks_distance,
)
from .fields import (
    CALIBRATION,
    sample_dgff,
    sample_functionals,
    sample_stable_field,
    save_field,
)
from .geometry import Rotation, disk_bump
from .greens import disk_lattice, green_variance_ratio
from .verify import (
    TestReport,
    characterize_bm,
    test_conformal_invariance,
    test_wick_fourth,
)

__all__ = ["ExperimentConfig", "load_config", "run", "main", "EXPERIMENTS"]


@dataclass
class ExperimentConfig:
    experiment: str
    lattice_size: int = 64
    n_samples: int = 2000
    seed: int = 7
    alpha: float = 1.5
    r: float = 1.0
    eps: float = 1e-3
    u_grid: tuple = DEFAULT_U_GRID
    t_grid: tuple = DEFAULT_T_GRID
    output_dir: str = "."
    tol: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; known: {', '.join(sorted(EXPERIMENTS))}"
            )
        for key in ("lattice_size", "n_samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative 64-bit integer")
        if not 0.0 < self.alpha <= 2.0:
            raise ConfigError("alpha must lie in (0, 2]")
        if self.r <= 0 or self.eps <= 0:
            raise ConfigError("r and eps must be positive")
        for name in ("u_grid", "t_grid"):
            g = np.asarray(getattr(self, name), dtype=float)
            if g.ndim != 1 or len(g) == 0 or np.any(np.diff(g) <= 0):
                raise ConfigError(f"{name} must be a nonempty increasing list")


_INT_KEYS = {"lattice_size", "n_samples", "seed"}
_FLOAT_KEYS = {"alpha", "r", "eps"}
_LIST_KEYS = {"u_grid", "t_grid"}
_STR_KEYS = {"experiment", "output_dir"}


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


def _coerce(key: str, value: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS or key.startswith("tol."):
            return float(value)
        if key in _LIST_KEYS:
            return tuple(float(v) for v in value.split(",") if v.strip())
        if key in _STR_KEYS:
            return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc
    raise ConfigError(f"unknown config key {key!r}")


# per-experiment defaults layered under file/flag overrides
_DEFAULTS = {
    "excursion-mass": {"n_samples": 200_000, "r": 1.0, "eps": 1e-3},
    "char-bm-gff-sine": {"n_samples": 10_000},
    "char-bm-gff-circle": {"n_samples": 10_000, "t_grid": DEFAULT_U_GRID},
    "char-bm-stable": {"n_samples": 4_000, "lattice_size": 64, "alpha": 1.5},
    "wick-fourth": {"n_samples": 10_000, "lattice_size": 64},
    "conformal-rotation": {"n_samples": 400, "lattice_size": 96},
}


def load_config(experiment: str, path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve experiment defaults, then a config file, then overrides."""
    raw: dict = dict(_DEFAULTS.get(experiment, {}))
    raw["experiment"] = experiment
    file_items = parse_config_file(path) if path else {}
    merged: dict = {}
    tol: dict = {}
    for source in (file_items, overrides or {}):
        for key, value in source.items():
            coerced = _coerce(key, value) if isinstance(value, str) else value
            if key.startswith("tol."):
                tol[key[4:]] = coerced
            else:
                merged[key] = coerced
    raw.update(merged)
    if "experiment" in merged and merged["experiment"] != experiment:
        raise ConfigError(
            f"config file names experiment {merged['experiment']!r}, command line says {experiment!r}"
        )
    known = {f.name for f in fields(ExperimentConfig)} - {"tol"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return ExperimentConfig(**raw, tol=tol)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _run_excursion_mass(cfg: ExperimentConfig, out: Path) -> list:
    sample = sample_excursion_hits(cfg.r, cfg.eps, cfg.n_samples, cfg.seed)
    sample.to_csv(out / "hits.csv")
    target = total_mass(cfg.r)
    rel = abs(sample.mass_estimate / target - 1.0)
    ks = weighted_ks_distance(sample.angles, sample.weights)
    mass_rep = TestReport(
        "excursion_mass",
        rel,
        None,
        cfg.tol.get("mass", 0.03),
        rel <= cfg.tol.get("mass", 0.03),
        cfg.n_samples,
        notes=f"target 4/(pi r) = {target:.6f}",
    )
    ks_rep = TestReport(
        "hit_angle_ks",
        ks,
        None,
        cfg.tol.get("ks", 0.02),
        ks <= cfg.tol.get("ks", 0.02),
        len(sample.angles),
        notes="weighted one-sample KS against the sine hitting law",
    )
    return [
        {**asdict(mass_rep), "mass_estimate": sample.mass_estimate,
         "mass_stderr": sample.mass_stderr()},
        asdict(ks_rep),
    ]


def _run_char_bm_gff_sine(cfg: ExperimentConfig, out: Path) -> list:
    Y = sine_average_path(cfg.n_samples, cfg.u_grid, cfg.seed, backend="exact")
    Y.to_csv(out / "sine_path.csv")
    return [json.loads(characterize_bm(Y, seed=cfg.seed).to_json())]


def _run_char_bm_gff_circle(cfg: ExperimentConfig, out: Path) -> list:
    Y = circle_average_path(cfg.n_samples, cfg.t_grid, cfg.seed, backend="exact")
    Y.to_csv(out / "circle_path.csv")
    return [json.loads(characterize_bm(Y, seed=cfg.seed).to_json())]


def _run_char_bm_stable(cfg: ExperimentConfig, out: Path) -> list:
    lat = disk_lattice(cfg.lattice_size)
    Y = circle_average_path(
        cfg.n_samples, cfg.t_grid, cfg.seed, backend="lattice",
        lattice=lat, law="stable", alpha=cfg.alpha,
    )
    Y.to_csv(out / "stable_circle_path.csv")
    return [json.loads(characterize_bm(Y, seed=cfg.seed).to_json())]


def _run_wick_fourth(cfg: ExperimentConfig, out: Path) -> list:
    lat = disk_lattice(cfg.lattice_size)
    phi = disk_bump(0.0, 0.5)
    w = np.asarray(phi(lat.z)) * lat.spacing**2
    samples = sample_functionals(lat, w[:, None], cfg.n_samples, cfg.seed)[:, 0]
    np.savetxt(out / "pairings.csv", samples, fmt="%.17g")
    return [asdict(test_wick_fourth(samples))]


def _run_conformal_rotation(cfg: ExperimentConfig, out: Path) -> list:
    rep = test_conformal_invariance(
        "gff",
        Rotation(np.pi / 3.0),
        disk_bump(0.25 + 0.1j, 0.35),
        cfg.n_samples,
        cfg.seed,
        lattice_src=disk_lattice(cfg.lattice_size),
    )
    return [asdict(rep)]


EXPERIMENTS = {
    "excursion-mass": _run_excursion_mass,
    "char-bm-gff-sine": _run_char_bm_gff_sine,
    "char-bm-gff-circle": _run_char_bm_gff_circle,
    "char-bm-stable": _run_char_bm_stable,
    "wick-fourth": _run_wick_fourth,
    "conformal-rotation": _run_conformal_rotation,
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
    """Execute one experiment; write report.json + manifest.json."""
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    reports = EXPERIMENTS[cfg.experiment](cfg, out)
    wall = time.monotonic() - t0
    (out / "report.json").write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    manifest = {
        "experiment": cfg.experiment,
        "config": {**asdict(cfg), "u_grid": list(cfg.u_grid), "t_grid": list(cfg.t_grid)},
        "version": __version__,
        "started_at": started,
        "wall_seconds": wall,
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

    s = sub.add_parser("sample", help="draw one lattice field and save it")
    s.add_argument("--law", choices=("gff", "stable"), default="gff")
    s.add_argument("--alpha", type=float, default=1.5)
    s.add_argument("--size", type=int, default=64)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="run a named experiment")
    v.add_argument("--experiment", required=True)
    v.add_argument("--config", default=None)
    v.add_argument("--output-dir", default=None)
    v.add_argument("--seed", type=int, default=None)

    e = sub.add_parser("excursions", help="sample excursion hits")
    e.add_argument("--r", type=float, default=1.0)
    e.add_argument("--eps", type=float, default=1e-3)
    e.add_argument("--n", type=int, default=200_000)
    e.add_argument("--seed", type=int, default=7)
    e.add_argument("--out", default=None, help="optional hit-record CSV")

    c = sub.add_parser("calibrate", help="re-derive the lattice-to-continuum constant")
    c.add_argument("--size", type=int, default=128)

    w = sub.add_parser("paths", help="generate average-process paths as CSV")
    w.add_argument("--kind", choices=("circle", "sine"), required=True)
    w.add_argument("--backend", choices=("exact", "lattice"), default="exact")
    w.add_argument("--grid", required=True, help="comma-separated scale grid")
    w.add_argument("--n", type=int, default=1000)
    w.add_argument("--seed", type=int, default=7)
    w.add_argument("--law", choices=("gff", "stable"), default="gff")
    w.add_argument("--alpha", type=float, default=1.5)
    w.add_argument("--size", type=int, default=128)
    w.add_argument("--out", default=None)
    return p


def _cmd_sample(args) -> int:
    lat = disk_lattice(args.size)
    if args.law == "gff":
        sample = sample_dgff(lat, 1, args.seed)[0]
    else:
        sample = sample_stable_field(lat, args.alpha, 1, args.seed)[0]
    save_field(sample, args.out)
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


def _cmd_excursions(args) -> int:
    sample = sample_excursion_hits(args.r, args.eps, args.n, args.seed)
    if args.out:
        sample.to_csv(args.out)
    print(
        json.dumps(
            {
                "mass_estimate": sample.mass_estimate,
                "mass_stderr": sample.mass_stderr(),
                "target": total_mass(args.r),
                "n_hits": int(len(sample.angles)),
                "hit_angle_ks": weighted_ks_distance(sample.angles, sample.weights),
            }
        )
    )
    return 0


def _cmd_calibrate(args) -> int:
    ratio = green_variance_ratio(disk_lattice(args.size))
    estimate = 1.0 / np.sqrt(ratio)
    print(
        json.dumps(
            {
                "size": args.size,
                "green_ratio": ratio,
                "two_pi_ratio": float(2.0 * np.pi * ratio),
                "calibration_estimate": float(estimate),
                "builtin_calibration": float(CALIBRATION),
            }
        )
    )
    return 0


def _cmd_paths(args) -> int:
    grid = tuple(float(v) for v in args.grid.split(",") if v.strip())
    if not grid:
        raise ConfigError("empty --grid")
    kwargs = {}
    if args.backend == "lattice":
        kwargs["lattice"] = disk_lattice(args.size) if args.kind == "circle" else None
        kwargs["law"] = args.law
        kwargs["alpha"] = args.alpha
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
    if args.kind == "circle":
        path = circle_average_path(args.n, grid, args.seed, backend=args.backend, **kwargs)
    else:
        path = sine_average_path(args.n, grid, args.seed, backend=args.backend, **kwargs)
    out = args.out or f"{args.kind}_path.csv"
    path.to_csv(out)
    print(json.dumps({"kind": args.kind, "backend": args.backend, "n": args.n, "out": str(out)}))
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "excursions": _cmd_excursions,
    "calibrate": _cmd_calibrate,
    "paths": _cmd_paths,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResolutionError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
