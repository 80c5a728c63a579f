"""The four benchmark workloads.

A workload is built once from the seed (``build``), which writes its
config files; ``ops()`` then gives the operations of one round.  Each
operation is a timed call into gffforge (``gffforge.cli.main`` the way the
command line runs it, or a public library function) and an untimed check
of its output against ``oracles``.  Every round repeats the same calls on
the same inputs, so a run's rounds attempt the same operations.

``ROUND_SECONDS`` is a workload's nominal round time on the 2-core
reference box; run.py uses it to fix how many rounds a run attempts.  The
README gives the sizes, the reasons for them and the measured times.
"""

from __future__ import annotations

import contextlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from gffforge import averaging, cli, excursions, fields, greens, verify


@dataclass
class Op:
    """One timed call and the check of what it returned or wrote.

    ``check`` returns a short detail string and raises ``CheckFailed`` when
    the output is wrong.  ``outputs`` are the files and directories the call
    writes, counted for ``cli.output_bytes``.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str]
    outputs: tuple = ()


class CheckFailed(Exception):
    """The operation returned, but its output is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def run_cli(argv) -> int:
    """gffforge's command line in-process; its stdout goes to our stderr so
    that the benchmark's own stdout stays machine-readable."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(list(argv))


def write_config(path: Path, items: dict) -> Path:
    lines = []
    for key, value in items.items():
        if isinstance(value, (tuple, list)):
            value = ", ".join(repr(float(v)) for v in value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")
    return path


def read_path_csv(path) -> tuple:
    """(grid, replicas) from a ProcessPath CSV: grid row, then one row per
    replica."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    return data[0], data[1:]


def read_report(out_dir: Path) -> list:
    return json.loads((out_dir / "report.json").read_text())


def check_gaussian_path(reps, target: np.ndarray, label: str) -> str:
    """Every sample-covariance entry within Z_GATE standard errors of the
    target, and the least-squares scale of the whole matrix within Z_GATE
    of its own standard error of 1."""
    n = reps.shape[0]
    cov = np.cov(reps.T)
    worst = float(np.max(oracles.covariance_z(cov, target, n)))
    require(worst <= oracles.Z_GATE, f"{label}: covariance entry {worst:.2f} s.e. off target")
    k, se = oracles.pooled_scale(cov, target, n)
    require(
        abs(k - 1.0) <= oracles.Z_GATE * se,
        f"{label}: covariance scale {k:.4f} vs 1 (s.e. {se:.4f})",
    )
    return f"worst entry {worst:.2f} s.e., scale {k:.4f} +- {se:.4f}"


# ---------------------------------------------------------------------------
# excursion-hits
# ---------------------------------------------------------------------------


class ExcursionHits:
    """`gffforge verify --experiment excursion-mass` at r=1, eps=1e-2, then
    the Markov continuation of its hits to radius 2."""

    R, R2, EPS, N = 1.0, 2.0, 1e-2, 10_000
    ROUND_SECONDS = 7.5
    # 5 standard errors at N = 10,000: the mass has relative s.e. 0.026;
    # the hit-angle KS is gated for 1,800 effective paths (the paths with
    # at least one hit), 900 after continuation
    MASS_TOL, KS_TOL = 0.13, 0.06
    CONT_MASS_TOL, CONT_KS_TOL = 0.15, 0.08

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "excursion-mass"
        # the program's own gates are sized for n = 200,000; at this n they
        # are set to the benchmark's, so exit code 0 is the expected one
        self.config = write_config(
            workdir / "excursion-mass.cfg",
            {
                "experiment": "excursion-mass",
                "r": self.R,
                "eps": self.EPS,
                "n_samples": self.N,
                "seed": seed,
                "output_dir": self.out,
                "tol.mass": self.MASS_TOL,
                "tol.ks": self.KS_TOL,
            },
        )
        self.hits = None

    def ops(self) -> list:
        self.hits = None
        return [
            Op(
                "verify excursion-mass",
                lambda: run_cli(["verify", "--experiment", "excursion-mass", "--config", str(self.config)]),
                self.check_sample,
                (self.out,),
            ),
            Op(
                "continue_paths to r=2",
                lambda: excursions.continue_paths(self.R * np.exp(1j * self.hits[0]), self.R2, self.seed + 1),
                self.check_continuation,
            ),
        ]

    def check_sample(self, code) -> str:
        require(code == 0, f"exit code {code}, expected 0")
        rec = np.loadtxt(self.out / "hits.csv", delimiter=",", skiprows=1, ndmin=2)
        hit, angle, eps, weight = rec.T
        require(np.all(hit == 1) and np.all(eps == self.EPS), "hits.csv holds non-hit rows or a wrong eps")
        require(np.all((angle > 0) & (angle < np.pi)), "hit angle outside (0, pi)")
        require(np.all((weight > 0) & (weight <= 1)), "hit weight outside (0, 1]")
        self.hits = (angle, weight)
        mass = weight.sum() / (self.N * self.EPS)
        rel = mass / oracles.excursion_mass(self.R, self.EPS) - 1.0
        ks = oracles.weighted_ks(angle, weight)
        require(abs(rel) <= self.MASS_TOL, f"mass {mass:.5f} off the oracle by {rel:+.4f}")
        require(ks <= self.KS_TOL, f"hit-angle KS {ks:.4f} > {self.KS_TOL}")
        rep = {r["name"]: r for r in read_report(self.out)}
        require(
            abs(rep["excursion_mass"]["mass_estimate"] / mass - 1.0) < 1e-9
            and abs(rep["hit_angle_ks"]["statistic"] - ks) < 1e-9,
            "report.json disagrees with hits.csv",
        )
        return f"mass {mass:.5f} (rel {rel:+.4f}), KS {ks:.4f}, {len(angle)} hits"

    def check_continuation(self, result) -> str:
        mask, angles = result
        _, weight = self.hits
        require(mask.shape == weight.shape, "continuation result misaligned with its inputs")
        require(np.all(np.isnan(angles[~mask])), "absorbed path carries an angle")
        a = angles[mask]
        require(np.all((a > 0) & (a < np.pi)), "continued angle outside (0, pi)")
        mass = weight[mask].sum() / (self.N * self.EPS)
        rel = mass / oracles.excursion_mass(self.R2, self.EPS) - 1.0
        ks = oracles.weighted_ks(a, weight[mask])
        require(abs(rel) <= self.CONT_MASS_TOL, f"continued mass {mass:.5f} off 2/pi by {rel:+.4f}")
        require(ks <= self.CONT_KS_TOL, f"continued KS {ks:.4f} > {self.CONT_KS_TOL}")
        return f"continued mass {mass:.5f} (rel {rel:+.4f}), KS {ks:.4f}"


# ---------------------------------------------------------------------------
# sine-battery
# ---------------------------------------------------------------------------


class SineBattery:
    """`gffforge verify --experiment char-bm-gff-sine` at criterion 4's size,
    and the battery on a Levy path it must reject."""

    N = 2_500
    ROUND_SECONDS = 14.0
    U_GRID = (0.5, 1.0, 1.025, 1.05, 1.1, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "char-bm-gff-sine"
        self.config = write_config(
            workdir / "char-bm-gff-sine.cfg",
            {"experiment": "char-bm-gff-sine", "n_samples": self.N, "seed": seed, "u_grid": self.U_GRID,
             "output_dir": self.out},
        )
        self.verdict = None

    def ops(self) -> list:
        self.verdict = None
        return [
            Op(
                "verify char-bm-gff-sine",
                lambda: run_cli(["verify", "--experiment", "char-bm-gff-sine", "--config", str(self.config)]),
                self.check_null,
                (self.out,),
            ),
            Op(
                "characterize_bm levy_path",
                lambda: verify.characterize_bm(verify.levy_path(self.U_GRID, self.N, self.seed), seed=self.seed),
                self.check_levy,
            ),
        ]

    def check_null(self, code) -> str:
        (rep,) = read_report(self.out)
        consistent = rep["overall"] == "consistent-with-BM"
        require(code == (0 if consistent else 1), f"exit code {code} does not match verdict {rep['overall']}")
        grid, reps = read_path_csv(self.out / "sine_path.csv")
        require(np.allclose(grid, self.U_GRID, rtol=0, atol=1e-12), "sine_path.csv grid is not the u grid")
        require(reps.shape == (self.N, len(self.U_GRID)), f"sine_path.csv has shape {reps.shape}")
        detail = check_gaussian_path(reps, oracles.sine_covariance(grid), "sine path")
        # sigma_hat^2 averages Var(increment)/du over 10 independent
        # increments, each with Gaussian s.e. sigma^2 sqrt(2/(N-1))
        du = np.diff(grid)
        sig2 = float(np.mean(np.diff(reps, axis=1).var(axis=0, ddof=1) / du))
        target = np.pi**2 / 2.0
        se = target * np.sqrt(2.0 / ((self.N - 1) * len(du)))
        require(abs(np.sqrt(sig2) / rep["sigma_hat"] - 1.0) < 1e-9, "report sigma_hat disagrees with sine_path.csv")
        require(abs(sig2 - target) <= oracles.Z_GATE * se, f"sigma_hat {np.sqrt(sig2):.4f} vs pi/sqrt(2)")
        self.verdict = rep["overall"]
        return f"{detail}, sigma_hat {np.sqrt(sig2):.4f}, verdict {rep['overall']}"

    def verdict_line(self) -> str:
        # the battery's size is 1% per condition, so about one null seed in
        # ten is rejected; a rejection is reported here, not counted as failed
        rejected = int(self.verdict is not None and self.verdict != "consistent-with-BM")
        return f"verdicts: {rejected} of 1 null verdicts rejected (char-bm-gff-sine seed {self.seed}: {self.verdict})"

    def check_levy(self, verdict) -> str:
        require(not verdict.consistent, "the battery accepted a Levy path")
        return verdict.overall


# ---------------------------------------------------------------------------
# lattice-paths
# ---------------------------------------------------------------------------


class LatticePaths:
    """Lattice path synthesis: `gffforge paths` for sine and circle
    averages, the canonical `char-bm-stable` and `wick-fourth`."""

    ROUND_SECONDS = 20.0
    SINE_N, SINE_GRID = 64, (1.0, 2.0, 4.0)
    CIRCLE_N, CIRCLE_SIZE = 1_000, 128
    CIRCLE_GRID = (0.25, 0.5, 0.75, 1.0, 1.25)
    # lattice discretization bias allowed on Var(increment)/dt on top of
    # 5 standard errors
    CIRCLE_BIAS = 0.05
    STABLE_T_GRID = (0.25, 0.25625, 0.2625, 0.275, 0.5, 0.75, 1.0, 1.25)
    WICK_SIZE, WICK_N, BUMP_RADIUS = 64, 10_000, 0.5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.sine_csv = workdir / "sine_path.csv"
        self.circle_csv = workdir / "circle_path.csv"
        self.stable_out = workdir / "char-bm-stable"
        self.wick_out = workdir / "wick-fourth"
        self.stable_cfg = write_config(
            workdir / "char-bm-stable.cfg",
            {"experiment": "char-bm-stable", "alpha": 1.5, "lattice_size": 64, "n_samples": 4000,
             "seed": seed, "t_grid": self.STABLE_T_GRID, "output_dir": self.stable_out},
        )
        self.wick_cfg = write_config(
            workdir / "wick-fourth.cfg",
            {"experiment": "wick-fourth", "lattice_size": self.WICK_SIZE, "n_samples": self.WICK_N,
             "seed": seed, "output_dir": self.wick_out},
        )
        self._wick_variance = None

    def ops(self) -> list:
        def grid_arg(g):
            return ",".join(f"{v:g}" for v in g)

        return [
            Op(
                "paths sine lattice",
                lambda: run_cli(["paths", "--kind", "sine", "--backend", "lattice", "--grid", grid_arg(self.SINE_GRID),
                                 "--n", str(self.SINE_N), "--seed", str(self.seed), "--out", str(self.sine_csv)]),
                self.check_sine,
                (self.sine_csv,),
            ),
            Op(
                "paths circle lattice",
                lambda: run_cli(["paths", "--kind", "circle", "--backend", "lattice", "--grid", grid_arg(self.CIRCLE_GRID),
                                 "--size", str(self.CIRCLE_SIZE), "--n", str(self.CIRCLE_N), "--seed", str(self.seed + 1),
                                 "--out", str(self.circle_csv)]),
                self.check_circle,
                (self.circle_csv,),
            ),
            Op(
                "verify char-bm-stable",
                lambda: run_cli(["verify", "--experiment", "char-bm-stable", "--config", str(self.stable_cfg)]),
                self.check_stable,
                (self.stable_out,),
            ),
            Op(
                "verify wick-fourth",
                lambda: run_cli(["verify", "--experiment", "wick-fourth", "--config", str(self.wick_cfg)]),
                self.check_wick,
                (self.wick_out,),
            ),
        ]

    def check_sine(self, code) -> str:
        require(code == 0, f"exit code {code}, expected 0")
        grid, reps = read_path_csv(self.sine_csv)
        require(np.allclose(grid, self.SINE_GRID) and reps.shape == (self.SINE_N, 3), "unexpected sine_path.csv layout")
        return check_gaussian_path(reps, oracles.sine_covariance(grid), "sine lattice path")

    def check_circle(self, code) -> str:
        require(code == 0, f"exit code {code}, expected 0")
        grid, reps = read_path_csv(self.circle_csv)
        n = reps.shape[0]
        require(np.allclose(grid, self.CIRCLE_GRID) and n == self.CIRCLE_N, "unexpected circle_path.csv layout")
        # X(t_0) and the increments, whose variances follow from min(t, s)
        diff = np.eye(len(grid)) - np.eye(len(grid), k=-1)
        target = np.diag(diff @ oracles.circle_covariance(grid) @ diff.T)
        ratios = (reps @ diff.T).var(axis=0, ddof=1) / target
        se = np.sqrt(2.0 / (n - 1))
        worst = float(np.max(np.abs(ratios - 1.0)))
        require(worst <= self.CIRCLE_BIAS + oracles.Z_GATE * se, f"Var(increment)/dt off by {worst:.4f}")
        pooled = float(ratios.mean())
        require(
            abs(pooled - 1.0) <= self.CIRCLE_BIAS + oracles.Z_GATE * se / np.sqrt(len(ratios)),
            f"pooled Var(increment)/dt {pooled:.4f}",
        )
        return f"Var(increment)/dt worst {worst:.4f}, pooled {pooled:.4f}"

    def check_stable(self, code) -> str:
        require(code == 1, f"exit code {code}, expected 1")
        (rep,) = read_report(self.stable_out)
        require(rep["overall"].startswith("rejected("), f"verdict {rep['overall']}")
        grid, reps = read_path_csv(self.stable_out / "stable_circle_path.csv")
        x = (np.diff(reps, axis=1) / np.sqrt(np.diff(grid))).T.ravel()
        rejected, p = oracles.normality_rejected(x)
        require(rejected, f"stable increments pass normality (p = {p:.3g})")
        return f"{rep['overall']}, normality p {p:.3g}"

    def wick_variance(self) -> float:
        if self._wick_variance is None:
            ij, a = oracles.disk_sites(self.WICK_SIZE)
            w = oracles.disk_bump((ij[:, 0] + 1j * ij[:, 1]) * a, self.BUMP_RADIUS) * a * a
            self._wick_variance = oracles.pairing_variance(ij, w)
        return self._wick_variance

    def check_wick(self, code) -> str:
        require(code == 0, f"exit code {code}, expected 0")
        x = np.loadtxt(self.wick_out / "pairings.csv")
        require(x.shape == (self.WICK_N,), f"pairings.csv has shape {x.shape}")
        target = self.wick_variance()
        z = oracles.variance_z(x, target)
        c = x - x.mean()
        ratio = float(np.mean(c**4) / (3.0 * np.mean(c * c) ** 2))
        require(abs(z) <= oracles.Z_GATE, f"pairing variance {x.var(ddof=1):.5f} vs {target:.5f} ({z:+.2f} s.e.)")
        require(0.85 <= ratio <= 1.15, f"m4/(3 m2^2) = {ratio:.4f}")
        (rep,) = read_report(self.wick_out)
        require(abs(rep["statistic"] + 1.0 - ratio) < 1e-9, "report.json disagrees with pairings.csv")
        return f"variance {x.var(ddof=1):.5f} vs {target:.5f} ({z:+.2f} s.e.), m4/(3 m2^2) {ratio:.4f}"


# ---------------------------------------------------------------------------
# lattice-cells
# ---------------------------------------------------------------------------


class LatticeCells:
    """Many Dirichlet cells and pairing weights applied to few fields:
    rotational averaging on disk-96 and criterion 10's Markov
    decomposition on disk-32."""

    ROUND_SECONDS = 9.5
    ROT_SIZE, ROT_FIELDS, ROT_FRAMES, ROT_U = 96, 400, 64, (2.0, 4.0)
    MARKOV_SIZE, MARKOV_FIELDS, CELL_RADIUS = 32, 5_000, 0.5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._green = {}

    def ops(self) -> list:
        ops = [
            Op(f"rotational_average_check u={u:g}", lambda u=u: self.rotational(u), self.check_rotational)
            for u in self.ROT_U
        ]
        ops.append(Op("markov_decompose disk-32", self.markov, self.check_markov))
        return ops

    def rotational(self, u: float):
        lat = greens.disk_lattice(self.ROT_SIZE)
        pairs = [
            averaging.rotational_average_check(f, u, n_angles=self.ROT_FRAMES)
            for f in fields.sample_dgff(lat, self.ROT_FIELDS, self.seed)
        ]
        return np.asarray(pairs)

    def check_rotational(self, pairs) -> str:
        lhs, rhs = pairs.T
        gap = float(np.mean(np.abs(lhs - rhs)))
        bound = 0.05 * float(rhs.std(ddof=1))
        require(gap < bound, f"mean|lhs - rhs| {gap:.5f} >= 0.05 sd(rhs) {bound:.5f}")
        return f"mean|lhs - rhs| {gap:.5f} vs {bound:.5f}"

    def markov(self):
        lat = greens.disk_lattice(self.MARKOV_SIZE)
        mask = np.abs(lat.z) < self.CELL_RADIUS
        samples = fields.sample_dgff(lat, self.MARKOV_FIELDS, self.seed + 1)
        return lat, mask, [fields.markov_decompose(f, mask) for f in samples]

    def check_markov(self, result) -> str:
        lat, mask, parts = result
        f = np.array([d.sample.values for d in parts])
        h = np.array([d.harmonic.values for d in parts])
        r = np.array([d.residual.values for d in parts])
        nest = float(np.max(np.abs(h + r - f)))
        require(nest <= 1e-10, f"harmonic + residual misses the field by {nest:.2e}")
        require(np.all(r[:, ~mask] == 0.0), "residual is nonzero outside the cell")
        cell_ij = lat.interior_ij[mask]
        center = int(np.flatnonzero((cell_ij[:, 0] == 0) & (cell_ij[:, 1] == 0))[0])
        key = cell_ij.tobytes()
        if key not in self._green:
            self._green[key] = oracles.green_diagonal(cell_ij, center)
        target = self._green[key]
        z = oracles.variance_z(r[:, np.flatnonzero(mask)[center]], target)
        require(abs(z) <= oracles.Z_GATE, f"residual variance at the center {z:+.2f} s.e. off the Green oracle")
        return f"nesting {nest:.1e}, center residual variance {z:+.2f} s.e. from {target:.4f}"


WORKLOADS = {
    "excursion-hits": ExcursionHits,
    "sine-battery": SineBattery,
    "lattice-paths": LatticePaths,
    "lattice-cells": LatticeCells,
}
