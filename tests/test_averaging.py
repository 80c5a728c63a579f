"""Circle averages, sine averages, path laws, and the rotational identity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gffforge.averaging import (
    FattenedSineMeasure,
    ProcessPath,
    SineMeasure,
    circle_average,
    circle_average_path,
    fattened_sine_pair,
    rotational_average_check,
    sine_average_path,
    sine_lattice_for,
    sine_pair,
)
from gffforge.errors import DomainError, ResolutionError
from gffforge.fields import FieldSample, dgff_matrix, markov_decompose, sample_dgff
from gffforge.geometry import UnitDisk
from gffforge.greens import disk_lattice, halfplane_lattice
from gffforge.verify import anderson_darling_p

HALF_PI = np.pi / 2.0


def harmonic_lattice_field(lat, bfun):
    """Exactly discretely harmonic interior values with boundary data bfun."""
    a = lat.spacing
    bz = (lat.boundary_ij[:, 0] + 1j * lat.boundary_ij[:, 1]) * a
    bmap = {(i, j): v for (i, j), v in zip(map(tuple, lat.boundary_ij), bfun(bz))}
    rhs = np.zeros(lat.n_sites)
    for k, (i, j) in enumerate(map(tuple, lat.interior_ij)):
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if (i + di, j + dj) in bmap:
                rhs[k] += bmap[(i + di, j + dj)]
    return lat.solve(rhs)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def test_sine_measure_mass():
    for u in (0.5, 1.0, 4.0):
        m = SineMeasure(u)
        assert abs(m.total_mass - 2.0 * np.sqrt(u)) < 1e-12
        _, w = m.discretize()
        assert abs(w.sum() - m.total_mass) < 1e-6
    with pytest.raises(DomainError):
        SineMeasure(0.0)


def test_sine_measure_radius():
    assert abs(SineMeasure(4.0).radius - 0.5) < 1e-15


def test_fattened_mass_converges():
    # the chi cutoff and radial smearing cost O(delta) mass; halving delta
    # must shrink the deficit, on both sides
    for side in ("in", "out"):
        errs = []
        for delta in (0.1, 0.05, 0.025):
            m = FattenedSineMeasure(1.0, delta, side=side)
            _, w = m.discretize()
            errs.append(abs(w.sum() - 2.0))
        assert errs[0] > errs[1] > errs[2]


def test_fattened_measure_validation():
    with pytest.raises(DomainError):
        FattenedSineMeasure(1.0, 0.05, side="both")
    with pytest.raises(DomainError):
        FattenedSineMeasure(-1.0, 0.05)
    with pytest.raises(DomainError):
        FattenedSineMeasure(1.0, 1.5, side="out")


# ---------------------------------------------------------------------------
# sine_pair quadrature oracles
# ---------------------------------------------------------------------------


def test_sine_pair_constant_mass():
    one = lambda z: np.ones_like(z, dtype=float)
    assert abs(sine_pair(one, 4.0) - 4.0) < 1e-12
    for u in (0.5, 1.0, 2.0, 9.0):
        assert abs(sine_pair(one, u) - 2.0 * np.sqrt(u)) < 1e-12


def test_sine_pair_imaginary_part_is_constant():
    # Im z integrates to pi/2 at every scale
    for u in (1.0, 2.0, 4.0, 8.0):
        assert abs(sine_pair(lambda z: z.imag, u) - HALF_PI) < 1e-10


def test_sine_pair_inverted_imaginary_is_linear():
    # Im(z)/|z|^2 restricted to the radius-1/sqrt(u) semicircle is
    # sqrt(u) sin(theta), so the pairing grows linearly with slope pi/2
    us = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
    vals = np.array([sine_pair(lambda z: z.imag / np.abs(z) ** 2, u) for u in us])
    assert_allclose(vals, HALF_PI * us, atol=1e-10)
    slope = np.polyfit(us, vals, 1)[0]
    assert abs(slope - HALF_PI) < 1e-10


def test_sine_pair_rejects_bad_scale():
    with pytest.raises(DomainError):
        sine_pair(lambda z: z.imag, 0.0)


# ---------------------------------------------------------------------------
# fattened pairings
# ---------------------------------------------------------------------------


def test_fattened_pair_zero_function():
    m = FattenedSineMeasure(1.0, 0.05)
    assert fattened_sine_pair(lambda z: np.zeros_like(z, dtype=float), m) == 0.0


def test_fattened_pair_mollification_bias():
    m = FattenedSineMeasure(1.0, 0.05, side="in")
    assert abs(fattened_sine_pair(lambda z: z.imag, m) - HALF_PI) < 0.02


def test_fattened_sides_converge_together():
    f = lambda z: z.imag
    diffs = []
    for delta in (0.1, 0.025):
        p_in = fattened_sine_pair(f, FattenedSineMeasure(1.0, delta, side="in"))
        p_out = fattened_sine_pair(f, FattenedSineMeasure(1.0, delta, side="out"))
        diffs.append(abs(p_in - p_out))
    assert diffs[1] < diffs[0]


def test_mollifier_profile_independence():
    # the fattening limit cannot depend on the bump choice: both profiles
    # land within the same bias envelope and tighten together
    f = lambda z: z.imag / np.abs(z) ** 2
    target = HALF_PI  # linear-in-u pairing at u = 1
    for side in ("in", "out"):
        errs = {}
        for profile in ("default", "sharp"):
            errs[profile] = [
                abs(fattened_sine_pair(f, FattenedSineMeasure(1.0, d, side=side, profile=profile)) - target)
                for d in (0.1, 0.025)
            ]
            assert errs[profile][1] < errs[profile][0]
        envelope = max(errs["default"][0], errs["sharp"][0])
        assert abs(errs["default"][0] - errs["sharp"][0]) < envelope


# ---------------------------------------------------------------------------
# circle averages
# ---------------------------------------------------------------------------


def test_circle_average_of_harmonic_field():
    lat = disk_lattice(64)
    v = harmonic_lattice_field(lat, lambda z: np.real(z ** 2) + 0.5)
    s = FieldSample(lat, v, "deterministic", 0.0, 0)
    k = lat.nearest_site(0.0j)
    for eps in (0.2, np.exp(-1.0), 0.6):
        assert abs(circle_average(s, 0.0, eps) - v[k]) < 1e-10


def test_circle_average_resolution_error():
    lat = disk_lattice(16)
    (s,) = sample_dgff(lat, 1, seed=1)
    with pytest.raises(ResolutionError):
        circle_average(s, 0.0, 0.05)


@pytest.fixture(scope="module")
def circle_path_128():
    return circle_average_path(
        5000, (0.5, 1.0), seed=211, backend="lattice", lattice=disk_lattice(128)
    )


def test_circle_average_variance_is_log_one_over_eps(circle_path_128):
    # at eps = e^-1 the calibrated variance is log(1/eps) = 1
    var = circle_path_128.column(1.0).var()
    assert abs(var - 1.0) < 0.1


def test_circle_average_increments_uncorrelated(circle_path_128):
    x_half = circle_path_128.column(0.5)
    x_one = circle_path_128.column(1.0)
    inc = x_one - x_half
    n = len(inc)
    rho = np.corrcoef(inc, x_half)[0, 1]
    assert abs(rho) < 4.0 / np.sqrt(n)


def test_circle_path_exact_increment_variance():
    n = 5000
    path = circle_average_path(n, (0.0, 0.3, 1.0), seed=223, backend="exact")
    # t = 0: the harmonic part from the full boundary carries variance 0
    assert np.max(np.abs(path.column(0.0))) < 1e-5
    inc = path.column(1.0) - path.column(0.3)
    se = 0.7 * np.sqrt(2.0 / n)
    assert abs(inc.var() - 0.7) < 3.0 * se
    total = path.column(1.0)
    assert abs(total.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_circle_path_stable_increments_fail_normality():
    path = circle_average_path(
        2000,
        (0.25, 1.0),
        seed=227,
        backend="lattice",
        lattice=disk_lattice(64),
        law="stable",
        alpha=1.5,
    )
    inc = path.column(1.0) - path.column(0.25)
    _, p = anderson_darling_p(inc)
    assert p < 0.01


def test_circle_path_validation():
    with pytest.raises(DomainError):
        circle_average_path(2, (-0.5, 1.0), seed=0)
    with pytest.raises(DomainError):
        circle_average_path(2, (0.5, 1.0), seed=0, backend="spectral")
    with pytest.raises(DomainError):
        circle_average_path(2, (0.5, 1.0), seed=0, backend="exact", law="stable")


# ---------------------------------------------------------------------------
# sine-average paths
# ---------------------------------------------------------------------------


def test_sine_path_exact_covariance_structure():
    n = 10000
    us = (1.0, 2.0, 4.0)
    path = sine_average_path(n, us, seed=233, backend="exact")
    emp = np.cov(path.replicas.T)
    sigma2 = np.pi ** 2 / 2.0
    target = sigma2 * np.minimum.outer(np.array(us), np.array(us))
    for i in range(3):
        for j in range(3):
            se = np.sqrt((target[i, i] * target[j, j] + target[i, j] ** 2) / n)
            assert abs(emp[i, j] - target[i, j]) < 3.0 * se


def test_sine_path_single_replica():
    path = sine_average_path(1, (1.0, 2.0), seed=239, backend="exact")
    assert path.replicas.shape == (1, 2)


def test_sine_path_lattice_matches_exact_marginal():
    from scipy import stats

    lat = sine_lattice_for((2.0,), points_per_radius=8, width_factor=6.0)
    path = sine_average_path(2000, (2.0,), seed=241, backend="lattice", lattice=lat)
    sigma = np.sqrt(np.pi ** 2 / 2.0 * 2.0)
    d, _ = stats.kstest(path.column(2.0), "norm", args=(0.0, sigma))
    assert d < 0.05


def test_sine_path_r_factor_invariance():
    # the pairing scale r > u is arbitrary; all choices read the same
    # harmonic part
    lat = sine_lattice_for((1.0,), points_per_radius=12, width_factor=4.0)
    cols = []
    for rf in (1.5, 2.0, 4.0):
        path = sine_average_path(
            50, (1.0,), seed=251, backend="lattice", lattice=lat, r_factor=rf
        )
        cols.append(path.column(1.0))
    # identical in the continuum; the lattice readings differ by the
    # node-interpolation error, far below the path scale sd ~ 2.2
    assert_allclose(cols[0], cols[1], atol=0.02)
    assert_allclose(cols[0], cols[2], atol=0.02)


def test_sine_path_prefix_invariance():
    lat = sine_lattice_for((1.0,), points_per_radius=6, width_factor=3.0)
    a = sine_average_path(4, (1.0, 2.0), seed=257, backend="lattice", lattice=lat)
    b = sine_average_path(11, (1.0, 2.0), seed=257, backend="lattice", lattice=lat)
    # replica r depends on its own stream only, not on the batch size
    assert np.array_equal(a.replicas, b.replicas[:4])


def test_sine_path_validation():
    with pytest.raises(DomainError):
        sine_average_path(2, (2.0, 1.0), seed=0)
    with pytest.raises(DomainError):
        sine_average_path(2, (1.0, 2.0), seed=0, backend="exact", law="stable")
    with pytest.raises(DomainError):
        sine_average_path(2, (1.0, 2.0), seed=0, domain=UnitDisk())
    with pytest.raises(ResolutionError):
        sine_average_path(
            2, (50.0,), seed=0, backend="lattice", lattice=halfplane_lattice(2.0, 0.25)
        )


def test_brownian_scaling_of_sine_path():
    # Y(cu)/sqrt(c) must match Y(u) in law
    from scipy import stats

    n = 10000
    a = sine_average_path(n, (1.0, 2.0, 4.0), seed=263, backend="exact")
    b = sine_average_path(n, (1.0, 2.0, 4.0), seed=269, backend="exact")
    for c in (2.0, 4.0):
        d, _ = stats.ks_2samp(a.column(c) / np.sqrt(c), b.column(1.0))
        assert d < 0.02


# ---------------------------------------------------------------------------
# annulus harmonic parts and the harness identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def halfplane_batch():
    lat = sine_lattice_for((1.0, 4.0), points_per_radius=8, width_factor=6.0)
    vals = dgff_matrix(lat, 200, seed=271)
    return lat, vals


def test_annulus_harmonic_pairings_fit_a_line_lattice():
    lat = sine_lattice_for((2.0, 8.0), points_per_radius=12, width_factor=3.0)
    raw = dgff_matrix(lat, 1, seed=271)[:, 0]
    # a fixed sup-norm-1 field makes the absolute residual gate scale-free
    s = FieldSample(lat, raw / np.max(np.abs(raw)), "deterministic", 0.0, 271)
    # harmonic in the semi-annulus between the u=8 and u=2 semicircles
    d = markov_decompose(
        s, lambda z: (np.abs(z) > 1.0 / np.sqrt(8.0)) & (np.abs(z) < 1.0 / np.sqrt(2.0))
    )
    us = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
    pairs = np.array([sine_pair(d.harmonic, u) for u in us])
    coeffs = np.polyfit(us, pairs, 1)
    resid = np.max(np.abs(np.polyval(coeffs, us) - pairs))
    assert resid < 1e-3


def test_annulus_harmonic_pairings_fit_a_line_analytic():
    f = lambda z: 0.7 * z.imag - 1.3 * z.imag / np.abs(z) ** 2
    us = np.array([1.5, 2.0, 2.5, 3.0, 3.5])
    pairs = np.array([sine_pair(f, u) for u in us])
    coeffs = np.polyfit(us, pairs, 1)
    resid = np.max(np.abs(np.polyval(coeffs, us) - pairs))
    assert resid < 1e-8


def test_interpolation_property(halfplane_batch):
    # the annulus harmonic part's pairing at u interpolates Y(s), Y(r)
    from gffforge.averaging import _pairing_weights, _sine_weights

    lat, vals = halfplane_batch
    s_scale, r_scale, u_scale = 1.0, 4.0, 2.0
    ys = _sine_weights(lat, s_scale, 2.0)
    yr = _sine_weights(lat, r_scale, 2.0)
    y_s = ys[1] @ vals[ys[0], :]
    y_r = yr[1] @ vals[yr[0], :]

    member_idx = lat.indices_of(lambda z: (np.abs(z) > 0.5) & (np.abs(z) < 1.0))
    m = SineMeasure(u_scale, n_nodes=512)
    nodes, weights = m.discretize()
    cell, w = _pairing_weights(lat, member_idx, nodes, weights)
    lhs = w @ vals[cell.ring_idx, :]

    lam = (u_scale - s_scale) / (r_scale - s_scale)
    rhs = lam * y_r + (1.0 - lam) * y_s
    # the per-sample gap carries an O(sqrt(a)) rough-boundary noise floor,
    # so the identity is checked as zero systematic offset plus matching
    # second moments; a wrong interpolation weight breaks all three
    assert abs(np.mean(lhs - rhs)) < 0.05 * rhs.std()
    assert np.corrcoef(lhs, rhs)[0, 1] > 0.96
    assert abs(lhs.std() / rhs.std() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# rotational averaging identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def disk96():
    return disk_lattice(96)


def test_rotational_check_odd_field(disk96):
    v = harmonic_lattice_field(disk96, lambda z: np.real(z))
    s = FieldSample(disk96, v, "deterministic", 0.0, 0)
    lhs, rhs = rotational_average_check(s, 4.0, n_angles=16)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12


def test_rotational_check_harmonic_exact(disk96):
    # low-frequency boundary data is angle-quadrature exact
    v = harmonic_lattice_field(disk96, lambda z: 1.0 + np.real(z ** 3) - 0.4 * np.imag(z ** 2))
    s = FieldSample(disk96, v, "deterministic", 0.0, 0)
    k = disk96.nearest_site(0.0j)
    for n_angles in (16, 64):
        lhs, rhs = rotational_average_check(s, 4.0, n_angles=n_angles)
        assert abs(rhs - 2.0 * v[k]) < 1e-12
        assert abs(lhs - rhs) < 1e-10


def test_rotational_check_angle_refinement(disk96):
    # frequency-16 boundary data aliases a 16-angle average but not a
    # 64-angle one
    v = harmonic_lattice_field(disk96, lambda z: 1.0 + np.real(z ** 16))
    s = FieldSample(disk96, v, "deterministic", 0.0, 0)
    errs = {}
    for n_angles in (16, 64):
        lhs, rhs = rotational_average_check(s, 1.1, n_angles=n_angles)
        errs[n_angles] = abs(lhs - rhs)
    assert errs[64] < errs[16]
    assert errs[64] < 1e-3


def test_rotational_check_dgff_gate(disk96):
    n = 50
    vals = dgff_matrix(disk96, n, seed=277)
    gaps = np.empty(n)
    rhss = np.empty(n)
    for r in range(n):
        s = FieldSample(disk96, np.ascontiguousarray(vals[:, r]), "gff", 2.0, 277)
        lhs, rhs = rotational_average_check(s, 4.0, n_angles=64)
        gaps[r] = abs(lhs - rhs)
        rhss[r] = rhs
    assert gaps.mean() < 0.05 * rhss.std()


def test_rotational_check_validation(disk96):
    (s,) = sample_dgff(disk_lattice(16), 1, seed=281)
    with pytest.raises(ResolutionError):
        rotational_average_check(s, 400.0)
    (s96,) = sample_dgff(disk96, 1, seed=283)
    with pytest.raises(DomainError):
        rotational_average_check(s96, 0.5)


# ---------------------------------------------------------------------------
# ProcessPath plumbing
# ---------------------------------------------------------------------------


def test_process_path_validation():
    with pytest.raises(DomainError):
        ProcessPath(np.array([1.0, 1.0]), np.zeros((2, 2)), "sine", "exact", 0)
    with pytest.raises(DomainError):
        ProcessPath(np.array([1.0, 2.0]), np.zeros((2, 3)), "sine", "exact", 0)


def test_process_path_column_interpolation():
    path = ProcessPath(np.array([0.0, 2.0]), np.array([[0.0, 4.0], [1.0, 3.0]]), "t", "exact", 0)
    assert_allclose(path.column(1.0), [2.0, 2.0])
    with pytest.raises(DomainError):
        path.column(3.0)


def test_process_path_csv_round_trip(tmp_path):
    path = sine_average_path(5, (0.5, 1.0, 2.0), seed=307, backend="exact")
    f = tmp_path / "path.csv"
    path.to_csv(f)
    back = ProcessPath.from_csv(f, kind="sine", backend="exact", seed=307)
    assert_allclose(back.grid, path.grid, rtol=0, atol=0)
    assert_allclose(back.replicas, path.replicas, rtol=0, atol=0)
