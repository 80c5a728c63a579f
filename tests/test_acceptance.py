"""Acceptance suite: ten headline checks, each with an analytic oracle,
a stated tolerance, and a wall-time budget.

Every test prints one [PASS]/[FAIL] summary line with its key numbers
(visible with pytest -s or -rA; the verbose test line carries the same
verdict)."""

import time

import numpy as np
import pytest

from gffforge.averaging import (
    SineMeasure,
    circle_average_path,
    rotational_average_check,
    sine_average_path,
    sine_pair,
)
from gffforge.excursions import ks_distance, sample_excursion_hits, total_mass
from gffforge.fields import CALIBRATION, markov_decompose, sample_dgff, sample_functionals
from gffforge.geometry import UpperHalfPlane, disk_bump, radial_annulus_bump
from gffforge.greens import (
    LatticeDomain,
    covariance_of_observables,
    discrete_green,
    disk_lattice,
)
from gffforge.rng import replica_rng
from gffforge import verify as vfy

REFINED_U_GRID = (0.5, 1.0, 1.025, 1.05, 1.1, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")


def test_criterion_01_excursion_mass():
    t0 = time.time()
    sample = sample_excursion_hits(1.0, 1e-3, 200_000, seed=424242)
    rel = abs(sample.mass_estimate / total_mass(1.0) - 1.0)
    ks = ks_distance(sample.angles)
    dt = time.time() - t0
    ok = rel <= 0.03 and ks < 0.02 and dt < 120.0
    detail = (
        f"mass={sample.mass_estimate:.5f} (4/pi={total_mass(1.0):.5f}, rel {rel:.4f} "
        f"vs 0.03), hit-angle KS={ks:.4f} vs 0.02, {dt:.1f}s vs 120s"
    )
    _line(1, "excursion mass", ok, detail)
    assert ok, detail


def test_criterion_02_harmonic_sine_laws():
    t0 = time.time()
    u_values = (1.0, 2.0, 4.0, 8.0)
    const = [sine_pair(lambda z: z.imag, u) for u in u_values]
    const_err = max(abs(v - np.pi / 2.0) for v in const)
    linear = [sine_pair(lambda z: z.imag / np.abs(z) ** 2, u) for u in u_values]
    slope, intercept = np.polyfit(u_values, linear, 1)
    slope_err = abs(slope - np.pi / 2.0)
    line_resid = max(abs(v - (slope * u + intercept)) for u, v in zip(u_values, linear))
    dt = time.time() - t0
    ok = const_err < 1e-10 and slope_err < 1e-10 and line_resid < 1e-10 and dt < 10.0
    detail = (
        f"(Im z, p_u) dev {const_err:.2e} vs 1e-10; slope dev {slope_err:.2e} vs 1e-10 "
        f"(resid {line_resid:.2e}), {dt:.2f}s"
    )
    _line(2, "harmonic sine laws", ok, detail)
    assert ok, detail


def test_criterion_03_sine_covariance():
    t0 = time.time()
    u_values = (1.0, 2.0, 4.0)
    n = 10_000
    Y = sine_average_path(n, u_values, 4203, backend="exact")
    C = np.cov(Y.replicas.T)
    m = np.minimum.outer(u_values, u_values)
    khat = float(np.sum(C * m) / np.sum(m * m))
    worst = 0.0
    for i in range(3):
        for j in range(3):
            se = np.sqrt((C[i, i] * C[j, j] + C[i, j] ** 2) / n)
            worst = max(worst, abs(C[i, j] - khat * m[i, j]) / (3.0 * se))
    Q = covariance_of_observables(
        [SineMeasure(u) for u in u_values], UpperHalfPlane()
    )
    k_quad = float(Q[0, 0])
    rel = abs(khat / k_quad - 1.0)
    dt = time.time() - t0
    ok = worst <= 1.0 and rel <= 0.02 and dt < 60.0
    detail = (
        f"worst entry at {worst:.3f} of its 3 s.e. budget; constant {khat:.5f} vs "
        f"quadrature {k_quad:.5f} (rel {rel:.4f} vs 0.02), {dt:.1f}s vs 60s"
    )
    _line(3, "sine covariance", ok, detail)
    assert ok, detail


def test_criterion_04_battery_null_calibration():
    t0 = time.time()
    cond_pass: dict = {}
    consistent = 0
    for s in range(50):
        Y = sine_average_path(2500, REFINED_U_GRID, 62_000 + s, backend="exact")
        verdict = vfy.characterize_bm(Y, seed=62_000 + s)
        consistent += verdict.consistent
        for key, rep in verdict.reports.items():
            cond_pass[key] = cond_pass.get(key, 0) + rep.passed
    dt = time.time() - t0
    worst_key = min(cond_pass, key=cond_pass.get)
    # nine conditions at 1% size make the all-pass rate about 0.9 per seed,
    # so the aggregate verdict is gated at 40/50 while each condition must
    # clear the stated 47/50
    ok = cond_pass[worst_key] >= 47 and consistent >= 40 and dt < 300.0
    detail = (
        f"weakest condition {worst_key} {cond_pass[worst_key]}/50 vs 47; "
        f"consistent-with-BM {consistent}/50 vs 40; {dt:.0f}s vs 300s"
    )
    _line(4, "battery null calibration", ok, detail)
    assert ok, detail


def test_criterion_05_circle_average_bm():
    t0 = time.time()
    t_grid = (0.25, 0.5, 0.75, 1.0, 1.25)
    Y = circle_average_path(20_000, t_grid, 4205, backend="exact")
    inc = np.diff(Y.replicas, axis=1) / np.sqrt(np.diff(Y.grid))
    pooled = float(inc.var(ddof=1))
    norm = vfy.test_normality(inc.T.ravel()[:10_000])
    indep = vfy.test_independent_increments(Y, seed=4205)
    lat = disk_lattice(128)
    Yl = circle_average_path(5000, t_grid, 4206, backend="lattice", lattice=lat)
    ratios = np.concatenate(
        [
            [Yl.replicas[:, 0].var(ddof=1) / Yl.grid[0]],
            np.diff(Yl.replicas, axis=1).var(axis=0, ddof=1) / np.diff(Yl.grid),
        ]
    )
    lat_dev = float(np.max(np.abs(ratios - 1.0)))
    dt = time.time() - t0
    ok = (
        abs(pooled - 1.0) <= 0.03
        and norm.passed
        and indep.passed
        and lat_dev <= 0.10
        and dt < 300.0
    )
    detail = (
        f"exact Var(inc)/dt={pooled:.4f} vs 1±0.03, normality={norm.passed}, "
        f"independence={indep.passed}; lattice 128^2 worst dev {lat_dev:.4f} vs 0.10; "
        f"{dt:.0f}s vs 300s"
    )
    _line(5, "circle-average BM", ok, detail)
    assert ok, detail


def test_criterion_06_rotational_identity():
    t0 = time.time()
    lat = disk_lattice(96)
    fields = sample_dgff(lat, 200, 4206)
    gaps = np.empty(200)
    rhs_vals = np.empty(200)
    for k, f in enumerate(fields):
        lhs, rhs = rotational_average_check(f, 4.0, n_angles=64)
        gaps[k] = lhs - rhs
        rhs_vals[k] = rhs
    bound = 0.05 * rhs_vals.std(ddof=1)
    mean_gap = float(np.mean(np.abs(gaps)))
    dt = time.time() - t0
    ok = mean_gap < bound and dt < 300.0
    detail = (
        f"mean|lhs-rhs|={mean_gap:.5f} vs 0.05*sd(rhs)={bound:.5f} "
        f"(ratio {mean_gap / bound:.3f}); {dt:.0f}s vs 300s"
    )
    _line(6, "rotational identity", ok, detail)
    assert ok, detail


def test_criterion_07_stable_counterexample():
    t0 = time.time()
    lat = disk_lattice(48)
    t_grid = (0.25, 0.5, 0.75, 1.0)
    rejections = 0
    for b in range(50):
        Yb = circle_average_path(
            300, t_grid, 5000 + b, backend="lattice", lattice=lat, law="stable", alpha=1.5
        )
        x = (np.diff(Yb.replicas, axis=1) / np.sqrt(np.diff(Yb.grid))).T.ravel()
        rejections += not vfy.test_normality(x).passed
    levy = vfy.levy_path((0.5, 1.0, 2.0, 4.0), 10_000, 4207, alpha=1.5)
    scaling = vfy.test_brownian_scaling(levy, 4.0)
    dt = time.time() - t0
    ok = rejections >= 48 and not scaling.passed and dt < 300.0
    detail = (
        f"normality rejected {rejections}/50 stable batches vs 48; "
        f"levy scaling rejected={not scaling.passed}; {dt:.0f}s vs 300s"
    )
    _line(7, "stable counterexample", ok, detail)
    assert ok, detail


def test_criterion_08_wick_fourth_moment():
    t0 = time.time()
    lat = disk_lattice(64)
    phi = disk_bump(0.0, 0.5)
    w = np.asarray(phi(lat.z)) * lat.spacing**2
    pairings = sample_functionals(lat, w[:, None], 10_000, 4208)[:, 0]
    rep = vfy.test_wick_fourth(pairings)
    ratio = rep.statistic + 1.0
    dt = time.time() - t0
    ok = 0.85 <= ratio <= 1.15 and dt < 120.0
    detail = f"m4/(3 m2^2)={ratio:.4f} vs [0.85, 1.15]; {dt:.0f}s vs 120s"
    _line(8, "Wick fourth moment", ok, detail)
    assert ok, detail


def test_criterion_09_zero_boundary_decay():
    t0 = time.time()
    lat = disk_lattice(128)
    W = np.stack(
        [np.asarray(radial_annulus_bump(2.0 ** (-k))(lat.z)) for k in range(1, 6)], axis=1
    )
    means = np.mean(np.abs(sample_functionals(lat, W * lat.spacing**2, 1200, 4209)), axis=0)
    monotone = bool(np.all(np.diff(means) < 0))
    final_rel = float(means[-1] / means[0])
    dt = time.time() - t0
    ok = monotone and final_rel < 0.10 and dt < 120.0
    detail = (
        f"E|(h,phi_n)|={np.array2string(means, precision=4)} monotone={monotone}, "
        f"final/first={final_rel:.4f} vs 0.10; {dt:.0f}s vs 120s"
    )
    _line(9, "zero-boundary decay", ok, detail)
    assert ok, detail


def test_criterion_10_domain_markov():
    t0 = time.time()
    lat = disk_lattice(32)
    n = 5000
    fields = sample_dgff(lat, n, 4210)
    cell_mask = np.abs(lat.z) < 0.5
    first = markov_decompose(fields[0], cell_mask)
    nest_err = float(
        np.max(np.abs(first.harmonic.values + first.residual.values - fields[0].values))
    )
    n_cell = int(cell_mask.sum())
    H = np.empty((n, n_cell))
    R = np.empty((n, n_cell))
    for i, f in enumerate(fields):
        d = markov_decompose(f, cell_mask)
        H[i] = d.harmonic.values[cell_mask]
        R[i] = d.residual.values[cell_mask]
    pick = replica_rng(4210, 1).choice(n_cell, size=10, replace=False)
    worst_corr = max(abs(np.corrcoef(R[:, j], H[:, j])[0, 1]) for j in pick)
    sub = LatticeDomain(lat.spacing, lat.interior_ij[first.cell.member_idx])
    center = int(np.argmin(np.abs(sub.z)))
    target = CALIBRATION**2 * discrete_green(sub, sub.z[center], sub.z[center])
    j_center = int(np.argmin(np.abs(lat.z[cell_mask])))
    var = float(R[:, j_center].var(ddof=1))
    se = target * np.sqrt(2.0 / n)
    dt = time.time() - t0
    ok = (
        nest_err <= 1e-10
        and worst_corr < 4.0 / np.sqrt(n)
        and abs(var - target) <= 3.0 * se
        and dt < 180.0
    )
    detail = (
        f"nesting residual {nest_err:.2e} vs 1e-10; worst corr {worst_corr:.4f} vs "
        f"{4.0 / np.sqrt(n):.4f}; Var(residual)={var:.4f} vs Green {target:.4f} "
        f"(3 s.e. {3.0 * se:.4f}); {dt:.0f}s vs 180s"
    )
    _line(10, "domain Markov", ok, detail)
    assert ok, detail
