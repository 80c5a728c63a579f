"""Tests of the benchmark's oracles and output checks.

    python3 -m pytest -q perfbench

Each oracle is checked once against a computation made another way, and
each output check is shown to reject a wrong output of the kind it guards
against.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_excursion_mass_is_the_harmonic_measure_of_the_arc():
    r = 1.5

    def p(z):  # harmonic: the argument of an analytic function, over pi
        return np.angle(((r + z) / (r - z)) ** 2) / np.pi

    z = 0.3 + 0.4j
    h = 1e-3
    lap = p(z + h) + p(z - h) + p(z + 1j * h) + p(z - 1j * h) - 4 * p(z)
    assert abs(lap) / h**2 < 1e-5
    theta = np.linspace(0.05, np.pi - 0.05, 7)
    assert np.allclose(p(0.999999 * r * np.exp(1j * theta)), 1.0, atol=1e-4)
    assert np.allclose(p(np.linspace(-0.9, 0.9, 7) * r + 1e-9j), 0.0, atol=1e-6)
    for eps in (1e-3, 1e-2, 0.1):
        assert oracles.excursion_mass(r, eps) * eps == pytest.approx(p(1j * eps), rel=1e-12)
    assert oracles.excursion_mass(r, 1e-7) == pytest.approx(4.0 / (np.pi * r), rel=1e-9)


def test_hit_angle_cdf_integrates_the_sine_density():
    t = np.linspace(0.0, np.pi, 20_001)
    dens = np.sin(t) / 2.0
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(t))])
    assert np.allclose(oracles.hit_angle_cdf(t), cum, atol=1e-8)


def test_weighted_ks_matches_scipy_for_unit_weights():
    x = np.random.default_rng(1).uniform(0.0, np.pi, 500)
    want = stats.kstest(x, oracles.hit_angle_cdf).statistic
    assert oracles.weighted_ks(x, np.ones_like(x)) == pytest.approx(want, abs=1e-12)
    # weight 2 on a value counts like the value listed twice
    dup = np.concatenate([x, x[:100]])
    w = np.concatenate([2.0 * np.ones(100), np.ones(400)])
    assert oracles.weighted_ks(x, w) == pytest.approx(stats.kstest(dup, oracles.hit_angle_cdf).statistic, abs=1e-12)


def _sine_measure(u, n, offset):
    h = np.pi / n
    t = (np.arange(n) + offset) * h
    return np.exp(1j * t) / np.sqrt(u), np.sqrt(u) * np.sin(t) * h


def test_sine_covariance_matches_green_quadrature():
    # half-plane Green function log|x - conj(y)| - log|x - y| paired with
    # two sine measures on distinct semicircles (no diagonal singularity)
    for u, s in ((1.0, 2.0), (1.0, 4.0), (2.0, 8.0)):
        x, wx = _sine_measure(u, 1500, 0.25)
        y, wy = _sine_measure(s, 1500, 0.75)
        g = np.log(np.abs(x[:, None] - np.conj(y)[None, :])) - np.log(np.abs(x[:, None] - y[None, :]))
        assert wx @ g @ wy == pytest.approx(oracles.sine_covariance([u, s])[0, 1], rel=1e-3)


def test_circle_covariance_matches_disk_green_quadrature():
    # circle averages about 0 of the unit-disk Green function at radii
    # e^-t and e^-s pair to min(t, s)
    n = 800
    for t, s in ((0.25, 1.0), (0.5, 0.75)):
        a = np.exp(-t) * np.exp(2j * np.pi * (np.arange(n) + 0.25) / n)
        b = np.exp(-s) * np.exp(2j * np.pi * (np.arange(n) + 0.75) / n)
        g = np.log(np.abs(1.0 - a[:, None] * np.conj(b)[None, :])) - np.log(np.abs(a[:, None] - b[None, :]))
        assert g.mean() == pytest.approx(oracles.circle_covariance([t, s])[0, 1], rel=1e-6)


def _dense_laplacian(ij):
    index = {tuple(p): k for k, p in enumerate(ij.tolist())}
    lap = 4.0 * np.eye(len(ij))
    for (i, j), k in index.items():
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in index:
                lap[k, index[nb]] = -1.0
    return lap


def test_sparse_green_matches_dense_inverse():
    ij, a = oracles.disk_sites(12)
    inv = np.linalg.inv(_dense_laplacian(ij))
    assert np.allclose(oracles.dirichlet_laplacian(ij).toarray(), _dense_laplacian(ij))
    w = oracles.disk_bump((ij[:, 0] + 1j * ij[:, 1]) * a, 0.5) * a * a
    assert oracles.pairing_variance(ij, w) == pytest.approx(2 * np.pi * w @ inv @ w, rel=1e-12)
    k = len(ij) // 2
    assert oracles.green_diagonal(ij, k) == pytest.approx(2 * np.pi * inv[k, k], rel=1e-12)


def test_oracle_sites_are_the_program_lattice():
    from gffforge.geometry import disk_bump
    from gffforge.greens import disk_lattice

    lat = disk_lattice(64)
    ij, a = oracles.disk_sites(64)
    assert np.array_equal(ij, lat.interior_ij) and a == lat.spacing
    z = (ij[:, 0] + 1j * ij[:, 1]) * a
    assert np.allclose(oracles.disk_bump(z, 0.5), disk_bump(0.0, 0.5)(z), rtol=1e-13, atol=0)


def test_normality_rejects_stable_and_keeps_gaussian():
    rng = np.random.default_rng(3)
    assert not oracles.normality_rejected(rng.standard_normal(20_000))[0]
    assert oracles.normality_rejected(stats.levy_stable.rvs(1.5, 0.0, size=20_000, random_state=rng))[0]


# ---------------------------------------------------------------------------
# output checks reject wrong outputs
# ---------------------------------------------------------------------------


def _gaussian_path(cov, n, seed):
    return np.random.default_rng(seed).standard_normal((n, len(cov))) @ np.linalg.cholesky(cov).T


def test_covariance_check_rejects_a_scaled_covariance():
    grid = np.array(workloads.SineBattery.U_GRID)
    target = oracles.sine_covariance(grid)
    workloads.check_gaussian_path(_gaussian_path(target, 20_000, 5), target, "null")
    with pytest.raises(CheckFailed):
        workloads.check_gaussian_path(_gaussian_path(1.1 * target, 20_000, 5), target, "scaled")


def _write_hits(out: Path, angles, weights, ks):
    out.mkdir(parents=True, exist_ok=True)
    rows = "".join(f"1,{a:.17g},0.01,{w:.17g}\n" for a, w in zip(angles, weights))
    (out / "hits.csv").write_text("hit,angle,eps,weight\n" + rows)
    mass = float(np.sum(weights) / (workloads.ExcursionHits.N * 0.01))
    report = [
        {"name": "excursion_mass", "mass_estimate": mass},
        {"name": "hit_angle_ks", "statistic": ks},
    ]
    (out / "report.json").write_text(json.dumps(report))


@pytest.mark.parametrize("fault", [None, "mass", "angles"])
def test_excursion_check_rejects_wrong_mass_and_angle_law(tmp_path, fault):
    wl = workloads.ExcursionHits(1, tmp_path)
    n_hits = 4000
    u = (np.arange(n_hits) + 0.5) / n_hits
    angles = np.arccos(1.0 - 2.0 * u) if fault != "angles" else np.pi * u
    mass = oracles.excursion_mass(1.0, 0.01) * (1.2 if fault == "mass" else 1.0)
    weights = np.full(n_hits, mass * wl.N * 0.01 / n_hits)
    _write_hits(wl.out, angles, weights, oracles.weighted_ks(angles, weights))
    if fault is None:
        wl.check_sample(0)
    else:
        with pytest.raises(CheckFailed):
            wl.check_sample(0)


def _write_path(path: Path, grid, reps):
    np.savetxt(path, np.vstack([grid, reps]), delimiter=",")


def test_stable_check_rejects_gaussian_increments(tmp_path):
    wl = workloads.LatticePaths(1, tmp_path)
    wl.stable_out.mkdir()
    grid = np.array(wl.STABLE_T_GRID)
    (wl.stable_out / "report.json").write_text(json.dumps([{"overall": "rejected(normality)"}]))
    rng = np.random.default_rng(7)
    stable = np.cumsum(stats.levy_stable.rvs(1.5, 0.0, size=(4000, len(grid)), random_state=rng), axis=1)
    _write_path(wl.stable_out / "stable_circle_path.csv", grid, stable)
    wl.check_stable(1)
    _write_path(wl.stable_out / "stable_circle_path.csv", grid, _gaussian_path(np.minimum.outer(grid, grid), 4000, 7))
    with pytest.raises(CheckFailed):
        wl.check_stable(1)


def test_circle_check_rejects_inflated_increments(tmp_path):
    wl = workloads.LatticePaths(1, tmp_path)
    cov = oracles.circle_covariance(wl.CIRCLE_GRID)
    _write_path(wl.circle_csv, wl.CIRCLE_GRID, _gaussian_path(cov, wl.CIRCLE_N, 2))
    wl.check_circle(0)
    _write_path(wl.circle_csv, wl.CIRCLE_GRID, _gaussian_path(1.3 * cov, wl.CIRCLE_N, 2))
    with pytest.raises(CheckFailed):
        wl.check_circle(0)


@pytest.mark.parametrize("scale", [1.0, 1.1])
def test_wick_check_rejects_a_scaled_variance(tmp_path, scale):
    wl = workloads.LatticePaths(1, tmp_path)
    wl.wick_out.mkdir()
    x = np.sqrt(scale * wl.wick_variance()) * np.random.default_rng(4).standard_normal(wl.WICK_N)
    np.savetxt(wl.wick_out / "pairings.csv", x)
    c = x - x.mean()
    ratio = np.mean(c**4) / (3.0 * np.mean(c * c) ** 2)
    (wl.wick_out / "report.json").write_text(json.dumps([{"statistic": ratio - 1.0}]))
    if scale == 1.0:
        wl.check_wick(0)
    else:
        with pytest.raises(CheckFailed):
            wl.check_wick(0)


@pytest.mark.parametrize("fault", [None, "variance", "nesting"])
def test_markov_check_rejects_wrong_residuals(tmp_path, fault):
    from gffforge.greens import disk_lattice

    wl = workloads.LatticeCells(1, tmp_path)
    lat = disk_lattice(wl.MARKOV_SIZE)
    mask = np.abs(lat.z) < wl.CELL_RADIUS
    cell_ij = lat.interior_ij[mask]
    center = int(np.flatnonzero((cell_ij[:, 0] == 0) & (cell_ij[:, 1] == 0))[0])
    target = oracles.green_diagonal(cell_ij, center)
    rng = np.random.default_rng(8)
    n = wl.MARKOV_FIELDS
    f = rng.standard_normal((n, lat.n_sites))
    r = np.zeros_like(f)
    r[:, mask] = np.sqrt(target * (1.2 if fault == "variance" else 1.0)) * rng.standard_normal((n, int(mask.sum())))
    h = f - r + (1e-8 if fault == "nesting" else 0.0)
    parts = [
        SimpleNamespace(sample=SimpleNamespace(values=f[k]), harmonic=SimpleNamespace(values=h[k]),
                        residual=SimpleNamespace(values=r[k]))
        for k in range(n)
    ]
    if fault is None:
        wl.check_markov((lat, mask, parts))
    else:
        with pytest.raises(CheckFailed):
            wl.check_markov((lat, mask, parts))


def test_rotational_and_levy_checks_reject():
    wl = workloads.LatticeCells(1, Path("."))
    rhs = np.random.default_rng(9).standard_normal(400)
    wl.check_rotational(np.column_stack([rhs + 0.01, rhs]))
    with pytest.raises(CheckFailed):
        wl.check_rotational(np.column_stack([rhs + 0.1, rhs]))
    with pytest.raises(CheckFailed):
        workloads.SineBattery.check_levy(None, SimpleNamespace(consistent=True, overall="consistent-with-BM"))


def test_tracer_counts_spans_and_restores_the_program():
    import spans
    from gffforge import fields, greens, rng

    lat = greens.disk_lattice(16)
    orig = rng.replica_rng
    tracer = spans.Tracer()
    with tracer.installed():
        assert fields.replica_rng is not orig
        fields.dgff_matrix(lat, 3, 1)
    assert fields.replica_rng is orig and rng.replica_rng is orig
    m = tracer.metrics()
    assert m["rng.replica_rng.calls"] == 3 and m["greens.white_to_field.columns"] == 3
    total = {name: dur for name, _, dur, _, _ in tracer.spans}
    assert 0 < m["fields.dgff_matrix.s"] < total["fields.dgff_matrix"]
    assert spans.upper_bandwidth(lat.interior_ij) == lat._banded()[1]
