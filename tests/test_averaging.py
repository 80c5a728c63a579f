"""Circle averages, sine averages, path laws, and the rotational identity."""

import ast
import gc
import inspect
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gffforge.averaging import (
    DEFAULT_U_GRID,
    CircleMeasure,
    ProcessPath,
    SineMeasure,
    _cell_weights,
    _circle_weights,
    _sine_rule,
    _sine_weights,
    circle_average_path,
    rotational_average_check,
    sine_average_path,
    sine_lattice_for,
    sine_pair,
)
from gffforge.errors import DomainError, ResolutionError
from gffforge.fields import (
    CALIBRATION,
    FieldSample,
    dgff_matrix,
    markov_decompose,
    sample_dgff,
    sample_functionals,
)
from gffforge.geometry import gauss_legendre
from gffforge.greens import DirichletCell, LatticeDomain, disk_lattice, halfplane_lattice
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
        _, w = m.discretize()
        assert abs(w.sum() - 2.0 * np.sqrt(u)) < 1e-6
    # u = inf put every node at 0
    for u in (0.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            SineMeasure(u)
    # 0 nodes divided by zero in discretize, -3 and 2.5 failed in numpy
    for n_nodes in (0, -3, 2.5):
        with pytest.raises(DomainError, match="SineMeasure needs a positive integer n_nodes"):
            SineMeasure(1.0, n_nodes)


# the ids of the (center, radius) cases do not name the default n_nodes
@pytest.mark.parametrize(
    "center, radius, n_nodes",
    [pytest.param(c, r, 512, id=f"{c}-{r}")
     for c, r in [(0.0, 0.0), (0.0, -1.0), (0.0, np.inf), (0.0, np.nan),
                  (complex(np.inf, 0.0), 0.5), (complex(0.0, np.nan), 0.5)]]
    + [pytest.param(0.0, 0.5, n, id=f"n_nodes={n}") for n in (0, -3, 2.5)],
)
def test_circle_measure_validation(center, radius, n_nodes):
    with pytest.raises(DomainError, match="CircleMeasure"):
        CircleMeasure(center, radius, n_nodes)


def test_sine_measure_radius():
    assert abs(SineMeasure(4.0).radius - 0.5) < 1e-15


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


@pytest.mark.parametrize("u", [np.inf])
def test_sine_pair_rejects_infinite_scale(u):
    # u = inf put every node at 0 with infinite weight: the pairing was NaN
    with pytest.raises(DomainError, match="inf"):
        sine_pair(lambda z: z.imag, u)


# ---------------------------------------------------------------------------
# circle averages
# ---------------------------------------------------------------------------


def test_circle_average_of_harmonic_field():
    lat = disk_lattice(64)
    v = harmonic_lattice_field(lat, lambda z: np.real(z ** 2) + 0.5)
    k = lat.nearest_site(0.0j)
    for eps in (0.2, np.exp(-1.0), 0.6):
        ring_idx, w = _circle_weights(lat, eps)
        assert abs(w @ v[ring_idx] - v[k]) < 1e-10


def test_circle_average_resolution_error():
    with pytest.raises(ResolutionError):
        _circle_weights(disk_lattice(16), 0.05)


@pytest.mark.parametrize("size", [16, 32, 64, 128])
def test_circle_weights_match_center_unit_vector(size):
    # reference: the harmonic extension read at the center site, as the
    # adjoint of a unit vector on the ball's members
    lat = disk_lattice(size)
    for eps in (0.2, np.exp(-1.0), 0.6, 0.9):
        cell = DirichletCell(lat, lat.indices_of(lambda z: np.abs(z) < eps))
        e = (cell.member_idx == lat.nearest_site(0j)).astype(float)
        ring_idx, w = _circle_weights(lat, eps)
        assert np.array_equal(ring_idx, cell.ring_idx)
        assert np.array_equal(w, cell.ring_weights(e))


def test_circle_weights_need_the_center_site():
    # without site (0, 0) the one pairing node lands on the outer boundary,
    # which would read as a zero functional
    lat = disk_lattice(32)
    holed = LatticeDomain(lat.spacing, lat.interior_ij[np.any(lat.interior_ij != 0, axis=1)])
    with pytest.raises(ResolutionError, match="center"):
        _circle_weights(holed, 0.5)
    with pytest.raises(ResolutionError, match="center"):
        _circle_weights(halfplane_lattice(2.0, 0.1), 0.5)


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


def test_circle_path_exact_zero_at_t_zero():
    # min(t, t') has a zero row at t = 0; that column is exactly 0, with no
    # jitter leaking into it
    n = 2000
    path = circle_average_path(n, (0.0, 0.5, 1.0), seed=1, backend="exact")
    assert np.all(path.column(0.0) == 0.0)
    for t in (0.5, 1.0):
        assert abs(path.column(t).var() - t) < 3.0 * t * np.sqrt(2.0 / n)


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


@pytest.mark.parametrize("grid", [(1.0, np.nan), (1.0, np.inf), (np.nan, 2.0)])
def test_sine_path_rejects_non_finite_grid(monkeypatch, grid):
    # a NaN or infinite u slipped past the positivity check and failed as a
    # ResolutionError from the lattice; no lattice or cell may be built now
    def no_lattice(*args, **kwargs):
        raise AssertionError("a lattice was built for a non-finite u grid")

    lat = halfplane_lattice(1.0, 0.1)
    monkeypatch.setattr("gffforge.averaging.sine_lattice_for", no_lattice)
    monkeypatch.setattr("gffforge.averaging._sine_weights", no_lattice)
    for lattice in (None, lat):
        with pytest.raises(DomainError, match="u grid must be finite"):
            sine_average_path(10, grid, 1, "lattice", lattice)


@pytest.mark.parametrize("grid", [(1.0, np.nan), (1.0, np.inf), (), (0.0, 1.0)])
def test_sine_lattice_for_rejects_bad_grid(grid):
    # a NaN or infinite u passed the positivity check and failed as a
    # ResolutionError from the lattice, and an empty grid as a ValueError
    with pytest.raises(DomainError, match="u grid must be non-empty, finite and positive"):
        sine_lattice_for(grid)


def test_sine_path_lattice_matches_exact_marginal():
    from scipy import stats

    lat = sine_lattice_for((2.0,), points_per_radius=8, width_factor=6.0)
    path = sine_average_path(2000, (2.0,), seed=241, backend="lattice", lattice=lat)
    sigma = np.sqrt(np.pi ** 2 / 2.0 * 2.0)
    d, _ = stats.kstest(path.column(2.0), "norm", args=(0.0, sigma))
    assert d < 0.05


def test_sine_path_r_factor_invariance():
    # the pairing scale r > u is arbitrary; all choices read the same
    # harmonic part.  Identical in the continuum; the lattice readings
    # differ by the node-interpolation error, far below the path scale
    # sd ~ 2.1.  The path itself reads r = 2u
    lat = sine_lattice_for((1.0,), points_per_radius=12, width_factor=4.0)
    rfs = (1.5, 2.0, 4.0)
    W = np.zeros((lat.n_sites, len(rfs)))
    for col, rf in enumerate(rfs):
        ring_idx, w = _cell_weights(lat, lambda z: np.abs(z) < 1.0, 16, "semi-disk", *_sine_rule(rf))
        W[ring_idx, col] = w
    ring_idx, w = _sine_weights(lat, 1.0)
    assert_allclose(W[ring_idx, 1], w, rtol=0, atol=0)
    # Gaussian law: the exact sd of the difference of two readings of one
    # field, c sqrt(d . L^-1 d), puts 3 sd inside the pathwise tolerance
    for d in (W[:, 0] - W[:, 1], W[:, 0] - W[:, 2]):
        assert CALIBRATION * np.sqrt(d @ lat.solve(d)) < 0.02 / 3.0
    # pathwise on law stable, whose functionals pair the field's own site
    # noise, so the readings at one seed share it
    cols = sample_functionals(lat, W, 50, 251, "stable").T
    assert_allclose(cols[0], cols[1], atol=0.02)
    assert_allclose(cols[0], cols[2], atol=0.02)


@pytest.mark.parametrize("law, alpha", [("gff", 2.0), ("stable", 1.5)])
@pytest.mark.parametrize("kind", ["circle", "sine"])
def test_lattice_path_is_sample_functionals_of_its_cached_weights(kind, law, alpha):
    # one route: column j of a lattice path is the grid point's cached ring
    # functional, and the replicas are sample_functionals of those columns
    if kind == "circle":
        lat, grid = disk_lattice(32), (0.25, 0.5, 1.0)
        path = circle_average_path(40, grid, 311, "lattice", lat, law, alpha)
        weights = [_circle_weights(lat, float(r)) for r in np.exp(-np.array(grid))]
    else:
        lat = sine_lattice_for((1.0, 4.0), points_per_radius=6, width_factor=3.0)
        grid = (1.0, 2.0, 4.0)
        path = sine_average_path(40, grid, 311, "lattice", lat, law, alpha)
        weights = [_sine_weights(lat, u) for u in grid]
    W = np.zeros((lat.n_sites, len(grid)))
    for col, (ring_idx, w) in enumerate(weights):
        W[ring_idx, col] = w
    assert np.array_equal(path.replicas, sample_functionals(lat, W, 40, 311, law, alpha))


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
    with pytest.raises(ResolutionError):
        sine_average_path(
            2, (50.0,), seed=0, backend="lattice", lattice=halfplane_lattice(2.0, 0.25)
        )
    # a disk lattice has sites at j <= 0: at u = 1 the ball would exhaust it
    # and read an all-zero column
    with pytest.raises(DomainError, match="half-plane lattice"):
        sine_average_path(2, (1.0, 2.0, 4.0), seed=3, backend="lattice", lattice=disk_lattice(16))


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
    s = FieldSample(lat, raw / np.max(np.abs(raw)))
    # harmonic in the semi-annulus between the u=8 and u=2 semicircles
    d = markov_decompose(
        s, lambda z: (np.abs(z) > 1.0 / np.sqrt(8.0)) & (np.abs(z) < 1.0 / np.sqrt(2.0))
    )
    us = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
    pairs = []
    for u in us:
        site_idx, c = lat.site_weights(*_sine_rule(u))
        pairs.append(c @ d.harmonic.values[site_idx])
    coeffs = np.polyfit(us, pairs, 1)
    resid = np.max(np.abs(np.polyval(coeffs, us) - pairs))
    assert resid < 1e-3


def test_field_pairing_is_bilinear_up_to_the_dirichlet_boundary():
    # between the last interior row j = 1 and the boundary row j = 0 a
    # constant field reads linearly in the distance to the boundary, as the
    # lattice pairings of sample_functionals do; a node off the lattice
    # raises instead of reading 0
    lat = halfplane_lattice(2.0, 0.1)
    a = lat.spacing
    one = FieldSample(lat, np.ones(lat.n_sites))
    for s in (0.25, 0.7, 1.0):
        site_idx, c = lat.site_weights(np.array([0.33 + 1j * s * a]), np.ones(1))
        assert abs(c @ one.values[site_idx] - s) < 1e-12
    u = 4.0
    t, w = gauss_legendre(256, 0.0, np.pi)
    nodes, weights = np.exp(1j * t) / np.sqrt(u), np.sqrt(u) * w * np.sin(t)
    want = np.sum(weights * np.minimum(nodes.imag / a, 1.0))
    site_idx, c = lat.site_weights(nodes, weights)
    assert abs(c @ one.values[site_idx] - want) < 1e-12
    assert want < 2.0 * np.sqrt(u) - 1e-3
    with pytest.raises(ResolutionError, match="falls off the lattice"):
        lat.site_weights(nodes * np.sqrt(u / 0.2), weights)


def test_annulus_harmonic_pairings_fit_a_line_analytic():
    f = lambda z: 0.7 * z.imag - 1.3 * z.imag / np.abs(z) ** 2
    us = np.array([1.5, 2.0, 2.5, 3.0, 3.5])
    pairs = np.array([sine_pair(f, u) for u in us])
    coeffs = np.polyfit(us, pairs, 1)
    resid = np.max(np.abs(np.polyval(coeffs, us) - pairs))
    assert resid < 1e-8


def test_interpolation_property(halfplane_batch):
    # the annulus harmonic part's pairing at u interpolates Y(s), Y(r)
    lat, vals = halfplane_batch
    s_scale, r_scale, u_scale = 1.0, 4.0, 2.0
    ys = _sine_weights(lat, s_scale)
    yr = _sine_weights(lat, r_scale)
    y_s = ys[1] @ vals[ys[0], :]
    y_r = yr[1] @ vals[yr[0], :]

    member_idx = lat.indices_of(lambda z: (np.abs(z) > 0.5) & (np.abs(z) < 1.0))
    m = SineMeasure(u_scale, n_nodes=512)
    nodes, weights = m.discretize()
    ring_idx, w = DirichletCell(lat, member_idx).pairing_weights(nodes, weights)
    lhs = w @ vals[ring_idx, :]

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
    s = FieldSample(disk96, v)
    lhs, rhs = rotational_average_check(s, 4.0, n_angles=16)
    assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12


def test_rotational_check_harmonic_exact(disk96):
    # low-frequency boundary data is angle-quadrature exact
    v = harmonic_lattice_field(disk96, lambda z: 1.0 + np.real(z ** 3) - 0.4 * np.imag(z ** 2))
    s = FieldSample(disk96, v)
    k = disk96.nearest_site(0.0j)
    for n_angles in (16, 64):
        lhs, rhs = rotational_average_check(s, 4.0, n_angles=n_angles)
        assert abs(rhs - 2.0 * v[k]) < 1e-12
        assert abs(lhs - rhs) < 1e-10


def test_rotational_check_angle_refinement(disk96):
    # frequency-16 boundary data aliases a 16-angle average but not a
    # 64-angle one
    v = harmonic_lattice_field(disk96, lambda z: 1.0 + np.real(z ** 16))
    s = FieldSample(disk96, v)
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
        s = FieldSample(disk96, np.ascontiguousarray(vals[:, r]))
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
    with pytest.raises(DomainError):
        rotational_average_check(s96, 4.0, n_angles=0)


def test_rotational_lhs_matches_per_frame_mean(disk96):
    # reference: the mean over frames of each frame's own pairing; the
    # cached frame sum differs from it only by rounding
    from gffforge.averaging import _rotated_semidisk_weights

    vals = dgff_matrix(disk96, 40, seed=291)
    for u in (1.1, 2.0, 4.0):
        for n_angles in (16, 64):
            frames = [
                _rotated_semidisk_weights(disk96, u, 2.0 * np.pi * k / n_angles)
                for k in range(n_angles)
            ]
            ref = np.mean([w @ vals[ring_idx] for ring_idx, w in frames], axis=0)
            samples = [FieldSample(disk96, v) for v in vals.T]
            lhs = np.array([rotational_average_check(s, u, n_angles)[0] for s in samples])
            assert np.max(np.abs(lhs - ref)) <= 1e-14 * np.sqrt(np.mean(ref**2))


def test_rotational_frame_cells_are_not_cached(monkeypatch):
    # the frame cells and the circle's cell are each read once, into a
    # cached functional, so none may outlive the call; gc stays off, so a
    # cell kept by any reference would still be alive
    from gffforge import averaging

    built = []

    def spy(parent, idx):
        cell = DirichletCell(parent, idx)
        built.append(weakref.ref(cell))
        return cell

    monkeypatch.setattr(averaging, "DirichletCell", spy)
    lat = disk_lattice(48)
    (s,) = sample_dgff(lat, 1, seed=297)
    n_angles = 16
    gc.disable()
    try:
        first = rotational_average_check(s, 2.0, n_angles)
        assert len(built) == 3 + 1  # one cell per frame orbit, and the circle's
        assert [r() for r in built] == [None] * len(built)
    finally:
        gc.enable()
    assert rotational_average_check(s, 2.0, n_angles) == first
    assert len(built) == 3 + 1


def _holed_disk(size, ij):
    """disk_lattice(size) without the site ij: no square symmetry left."""
    lat = disk_lattice(size)
    keep = np.any(lat.interior_ij != np.asarray(ij), axis=1)
    return LatticeDomain(lat.spacing, lat.interior_ij[keep])


@pytest.mark.parametrize(
    "holed, n_angles, cells",
    [(False, 64, 9), (False, 16, 3), (False, 8, 2), (False, 6, 6), (True, 16, 16)],
)
def test_rotational_frame_cells_follow_the_square_symmetry(monkeypatch, holed, n_angles, cells):
    # a D4-invariant disk builds one frame cell per orbit; n_angles not a
    # multiple of 4, or a site set without the symmetry, builds one per
    # frame.  Either way the frame sum is the per-frame mean up to rounding
    from gffforge import averaging
    from gffforge.averaging import _rotated_semidisk_weights

    lat = _holed_disk(48, (7, 3)) if holed else disk_lattice(48)
    assert (lat.square_symmetries() is None) == holed
    vals = dgff_matrix(lat, 10, seed=299)
    frames = [
        _rotated_semidisk_weights(lat, 2.0, 2.0 * np.pi * k / n_angles) for k in range(n_angles)
    ]
    ref = np.mean([w @ vals[ring_idx] for ring_idx, w in frames], axis=0)
    built = []

    def spy(parent, idx):
        built.append(len(idx))
        return DirichletCell(parent, idx)

    monkeypatch.setattr(averaging, "DirichletCell", spy)
    samples = [FieldSample(lat, v) for v in vals.T]
    lhs = np.array([rotational_average_check(s, 2.0, n_angles)[0] for s in samples])
    assert len(built) == cells + 1  # and the circle's cell
    assert np.max(np.abs(lhs - ref)) <= 1e-14 * np.sqrt(np.mean(ref**2))


def test_only_markov_cells_stay_in_the_lattice_cache(monkeypatch):
    # markov_decompose builds one cell per site set and keeps it; circle,
    # sine and frame cells leave only their cached functionals behind
    built = []
    real_init = DirichletCell.__init__

    def spy(cell, *args):
        real_init(cell, *args)
        built.append(weakref.ref(cell))

    monkeypatch.setattr(DirichletCell, "__init__", spy)
    lat, box = disk_lattice(32), halfplane_lattice(2.0, 1.0 / 24.0)
    (s,) = sample_dgff(lat, 1, seed=298)
    mask = np.abs(lat.z) < 0.5
    first, again = markov_decompose(s, mask), markov_decompose(s, mask)
    assert len(built) == 1 and first.cell is again.cell is built[0]()
    gc.disable()
    try:
        del first, again
        _circle_weights(lat, 0.5)
        _sine_weights(box, 1.0)
        rotational_average_check(s, 2.0, 8)
        # markov, circle, sine, the two frame orbits of 8 frames and their circle
        assert len(built) == 1 + 1 + 1 + (2 + 1)
        assert built[0]() is not None
        assert [r() for r in built[1:]] == [None] * (len(built) - 1)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# pairing weights
# ---------------------------------------------------------------------------


def _dict_pairing_weights(cell, nodes, weights):
    """Reference for DirichletCell.pairing_weights: one dict entry per
    bilinear corner, accumulated node by node, resolved one site at a time."""
    lat = cell._parent()
    x = nodes.real / lat.spacing
    y = nodes.imag / lat.spacing
    ix = np.floor(x).astype(np.int64)
    iy = np.floor(y).astype(np.int64)
    fx = x - ix
    fy = y - iy
    coeffs = {}
    for di, dj, frac in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        for k in range(len(nodes)):
            c = frac[k] * weights[k]
            if c != 0.0:
                key = (int(ix[k] + di), int(iy[k] + dj))
                coeffs[key] = coeffs.get(key, 0.0) + c
    site_of = {ij: k for k, ij in enumerate(map(tuple, lat.interior_ij.tolist()))}
    member_pos = {int(k): p for p, k in enumerate(cell.member_idx)}
    ring_pos = {int(k): p for p, k in enumerate(cell.ring_idx)}
    bnd = set(map(tuple, lat.boundary_ij.tolist()))
    q = np.zeros(len(cell.member_idx))
    direct = np.zeros(len(cell.ring_idx))
    for ij, c in coeffs.items():
        if ij in bnd:
            continue
        site = site_of[ij]
        if site in member_pos:
            q[member_pos[site]] += c
        else:
            direct[ring_pos[site]] += c
    return cell.ring_idx, cell.ring_weights(q) + direct


def _assert_same_weights(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def _record_pairing_calls(monkeypatch):
    """Arguments (cell, nodes, weights) of every pairing_weights call, in order."""
    calls = []
    real = DirichletCell.pairing_weights

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(DirichletCell, "pairing_weights", spy)
    return calls


@pytest.mark.parametrize("u", [1.0, 2.0, 4.0])
def test_rotated_pairing_weights_match_dict_reference(monkeypatch, u):
    from gffforge.averaging import _rotated_semidisk_weights

    lat = disk_lattice(96)
    calls = _record_pairing_calls(monkeypatch)
    for alpha in (0.0, 0.7, 2.0 * np.pi * 5 / 13):
        got = _rotated_semidisk_weights(lat, u, alpha)
        _assert_same_weights(got, _dict_pairing_weights(*calls[-1]))
    assert len(calls) == 3


def test_sine_pairing_weights_match_dict_reference(monkeypatch):
    lat = halfplane_lattice(4.0, 1.0 / 24.0)
    calls = _record_pairing_calls(monkeypatch)
    for u in (1.0, 2.0, 4.0):
        got = _sine_weights(lat, u)
        _assert_same_weights(got, _dict_pairing_weights(*calls[-1]))
    assert len(calls) == 3


def test_pairing_corner_off_the_lattice_raises():
    lat = disk_lattice(16)
    cell = DirichletCell(lat, lat.indices_of(lambda z: np.abs(z) < 0.5))
    # corners around 2+2i are neither interior nor on the outer boundary
    with pytest.raises(ResolutionError, match="falls off the lattice"):
        cell.pairing_weights(np.array([0.1 + 0.1j, 2.03 + 2.05j]), np.ones(2))


def test_pairing_corner_outside_the_cell_raises():
    lat = disk_lattice(16)
    cell = DirichletCell(lat, lat.indices_of(lambda z: np.abs(z) < 0.3))
    # 0.7 is interior to the disk but several sites beyond the cell's ring
    with pytest.raises(ResolutionError, match="leaves the subdomain"):
        cell.pairing_weights(np.array([0.1 + 0.1j, 0.71 + 0.03j]), np.ones(2))


def test_weight_cache_hit_builds_no_quadrature_and_no_cell(monkeypatch):
    from gffforge import averaging

    lat = disk_lattice(48)
    (s,) = sample_dgff(lat, 1, seed=293)
    first = rotational_average_check(s, 2.0, n_angles=16)
    path = circle_average_path(3, (0.5, 1.0), seed=295, backend="lattice", lattice=lat)
    built = []
    monkeypatch.setattr(averaging, "gauss_legendre", lambda *a: built.append("nodes"))
    monkeypatch.setattr(averaging, "DirichletCell", lambda *a: built.append("cell"))
    monkeypatch.setattr(LatticeDomain, "indices_of", lambda *a: built.append("members"))
    assert rotational_average_check(s, 2.0, n_angles=16) == first
    again = circle_average_path(3, (0.5, 1.0), seed=295, backend="lattice", lattice=lat)
    assert np.array_equal(again.replicas, path.replicas)
    assert built == []


def test_weight_cache_has_one_reader_and_averaging_no_site_codes():
    # the per-lattice weight cache is touched only where LatticeDomain
    # creates it and where it is looked up, and averaging reaches the
    # lattice's site codes only through public greens names
    from gffforge import averaging, cli, excursions, fields, geometry, greens, rng, verify

    touching = set()
    for mod in (averaging, cli, excursions, fields, geometry, greens, rng, verify):
        tree = ast.parse(inspect.getsource(mod))
        for cls in [n for n in tree.body if isinstance(n, ast.ClassDef)] + [tree]:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(n, ast.Attribute) and n.attr == "_cache" for n in ast.walk(fn)
                ):
                    touching.add(f"{getattr(cls, 'name', mod.__name__)}.{fn.name}")
    assert touching == {"LatticeDomain.__init__", "LatticeDomain.cached"}
    tree = ast.parse(inspect.getsource(averaging))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "greens":
            assert not [a.name for a in node.names if a.name.startswith("_")]
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("_codes", "_cache")


# ---------------------------------------------------------------------------
# ProcessPath plumbing
# ---------------------------------------------------------------------------


def test_process_path_validation():
    with pytest.raises(DomainError):
        ProcessPath(np.array([1.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        ProcessPath(np.array([1.0, 2.0]), np.zeros((2, 3)))
    # the grid must be one-dimensional: a scalar and a column are refused
    with pytest.raises(DomainError, match="one-dimensional"):
        ProcessPath(5.0, np.zeros((1, 1)))
    with pytest.raises(DomainError, match="one-dimensional"):
        ProcessPath(np.arange(1.0, 5.0)[:, None], np.zeros((2, 4)))
    # NaN passes the increasing check, which compares
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="grid must be finite"):
            ProcessPath(np.array([1.0, bad]), np.zeros((2, 2)))
        # one bad replica would reach the battery as a zero-variance error
        with pytest.raises(DomainError, match="replicas must be finite"):
            ProcessPath(np.array([1.0, 2.0]), np.array([[0.0, 1.0], [bad, 2.0]]))


def test_process_path_column_reads_grid_points_only():
    path = ProcessPath(np.array([0.0, 2.0]), np.array([[0.0, 4.0], [1.0, 3.0]]))
    assert_allclose(path.column(0.0), [0.0, 1.0])
    assert_allclose(path.column(2.0), [4.0, 3.0])
    for off_grid in (1.0, 3.0):
        with pytest.raises(DomainError):
            path.column(off_grid)
    # one relative rule, so a grid in small units keeps its points apart
    g = np.asarray(DEFAULT_U_GRID) * 1e-13
    tiny = ProcessPath(g, np.arange(len(g), dtype=float)[None, :])
    for j, v in enumerate(g):
        assert tiny.index(v) == j
        assert tiny.column(v)[0] == j
    assert tiny.index(5.5e-13) is None
    with pytest.raises(DomainError):
        tiny.column(5.5e-13)
    # |g - inf| <= 1e-9 inf held at every grid point, so inf read column 0
    for bad in (np.inf, -np.inf, np.nan):
        assert path.index(bad) is None
        with pytest.raises(DomainError, match="not on the path grid"):
            path.column(bad)


def test_process_path_csv_round_trip(tmp_path):
    path = sine_average_path(5, (0.5, 1.0, 2.0), seed=307, backend="exact")
    f = tmp_path / "path.csv"
    path.to_csv(f)
    back = np.loadtxt(f, delimiter=",", ndmin=2)
    assert_allclose(back[0], path.grid, rtol=0, atol=0)
    assert_allclose(back[1:], path.replicas, rtol=0, atol=0)


def test_process_path_csv_bytes_match_reference_rendering(tmp_path):
    # reference: the per-value rendering, %.17g joined by commas, grid row
    # first; -0.0 and subnormals included, and more than two 4,096-row
    # blocks of the writer
    rng = np.random.default_rng(311)
    reps = rng.standard_normal((9000, 8)) * 10.0 ** rng.integers(-300, 300, (9000, 8))
    reps[0, :4] = (-0.0, 0.0, 5e-324, 2.2250738585072014e-309)
    for grid, replicas in (((0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0), reps), ((1.0, 2.0), np.zeros((0, 2)))):
        path = ProcessPath(np.array(grid), replicas)
        f = tmp_path / "path.csv"
        path.to_csv(f)
        rows = [path.grid, *path.replicas]
        assert f.read_text() == "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
