"""Field samplers, the domain Markov decomposition, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from gffforge.errors import DomainError, ResolutionError
from gffforge.fields import (
    CALIBRATION,
    FieldSample,
    dgff_matrix,
    evaluate,
    load_field,
    markov_decompose,
    sample_dgff,
    sample_functionals,
    sample_gff_observables,
    sample_sas,
    sample_stable_field,
    save_field,
    stable_matrix,
)
from gffforge.averaging import CircleMeasure
from gffforge.geometry import disk_bump, radial_annulus_bump
from gffforge.greens import (
    LatticeDomain,
    covariance_of_observables,
    discrete_green,
    disk_lattice,
    h_minus1_inner,
)
from gffforge.verify import anderson_darling_p


def point_lattice():
    return LatticeDomain(1.0, np.array([[0, 0]]), label="point")


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


@pytest.fixture(scope="module")
def lat64():
    return disk_lattice(64)

@pytest.fixture(scope="module")
def dgff64(lat64):
    # shared batch for the variance checks below
    return dgff_matrix(lat64, 5000, seed=314)


# ---------------------------------------------------------------------------
# exact Gaussian observables
# ---------------------------------------------------------------------------


def test_gff_observables_standard_normal():
    n = 10000
    x = sample_gff_observables(np.array([[1.0]]), n, seed=1)
    assert x.shape == (n, 1)
    assert abs(x.mean()) < 4.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_gff_observables_increment_structure():
    # cov [[2,1],[1,1]]: X1 - X2 has variance 1 and decorrelates from X2
    n = 10000
    x = sample_gff_observables(np.array([[2.0, 1.0], [1.0, 1.0]]), n, seed=2)
    inc = x[:, 0] - x[:, 1]
    assert abs(inc.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)
    rho = np.corrcoef(inc, x[:, 1])[0, 1]
    assert abs(rho) < 4.0 / np.sqrt(n)


def test_gff_observables_empty_batch():
    x = sample_gff_observables(np.array([[1.0, 0.0], [0.0, 1.0]]), 0, seed=3)
    assert x.shape == (0, 2)


def test_gff_observables_accepts_covariance_matrix():
    cov = covariance_of_observables([CircleMeasure(0.0, 0.5)])
    x = sample_gff_observables(cov, 200, seed=4)
    assert x.shape == (200, 1)
    assert np.isfinite(x).all()


def test_gff_observables_rejects_nonsquare():
    with pytest.raises(DomainError):
        sample_gff_observables(np.ones((2, 3)), 10, seed=0)


def test_gff_observables_batch_split_invariance():
    cov = np.array([[2.0, 1.0], [1.0, 1.0]])
    whole = sample_gff_observables(cov, 100, seed=9)
    head = sample_gff_observables(cov, 40, seed=9)
    assert_allclose(whole[:40], head, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# lattice Gaussian field
# ---------------------------------------------------------------------------


def test_dgff_single_site_variance():
    # one interior site: G = 1/4, so the value is N(0, calibration^2 / 4)
    lat = point_lattice()
    n = 4000
    vals = dgff_matrix(lat, n, seed=11)[0]
    target = CALIBRATION ** 2 / 4.0
    assert abs(vals.var() - target) < 3.0 * target * np.sqrt(2.0 / n)


def test_dgff_center_variance_matches_green(lat64, dgff64):
    k = lat64.nearest_site(0.0 + 0.0j)
    emp = dgff64[k].var()
    target = CALIBRATION ** 2 * discrete_green(lat64, 0.0j, 0.0j)
    assert abs(emp - target) < 3.0 * target * np.sqrt(2.0 / dgff64.shape[1])


def test_dgff_seed_determinism():
    lat = disk_lattice(16)
    a = sample_dgff(lat, 2, seed=7)
    b = sample_dgff(lat, 2, seed=7)
    c = sample_dgff(lat, 2, seed=8)
    assert_allclose(a[0].values, b[0].values, rtol=0, atol=0)
    assert_allclose(a[1].values, b[1].values, rtol=0, atol=0)
    assert np.max(np.abs(a[0].values - c[0].values)) > 1e-3


def test_dgff_chunked_generation_matches_one_batch():
    lat = disk_lattice(12)
    whole = dgff_matrix(lat, 6, seed=21)
    tail = dgff_matrix(lat, 3, seed=21, replica_offset=3)
    assert_allclose(whole[:, 3:], tail, rtol=0, atol=0)


@pytest.mark.parametrize("law", ["gff", "stable"])
def test_sample_functionals_matches_field_pairings(law):
    lat = disk_lattice(24)
    z = lat.z
    W = np.stack([np.asarray(disk_bump(0.1j, 0.5)(z)), z.real, np.zeros(lat.n_sites)], axis=1)
    got = sample_functionals(lat, W, 7, seed=43, law=law, alpha=1.6)
    if law == "gff":
        ref = W.T @ dgff_matrix(lat, 7, seed=43)
    else:
        ref = W.T @ stable_matrix(lat, 1.6, 7, seed=43)
    assert got.shape == (7, 3)
    assert np.max(np.abs(got - ref.T)) <= 1e-12 * np.max(np.abs(ref))
    assert np.all(got[:, 2] == 0.0)


def test_sample_functionals_validation():
    lat = disk_lattice(12)
    with pytest.raises(DomainError):
        sample_functionals(lat, np.ones((lat.n_sites + 1, 1)), 2, seed=0)
    with pytest.raises(DomainError):
        sample_functionals(lat, np.ones((lat.n_sites, 1)), 2, seed=0, law="cauchy")
    with pytest.raises(DomainError):
        sample_functionals(lat, np.ones((lat.n_sites, 1)), 2, seed=0, law="stable", alpha=0.9)


def test_dgff_sample_metadata():
    lat = disk_lattice(12)
    (s,) = sample_dgff(lat, 1, seed=5)
    assert s.law == "gff" and s.alpha == 2.0 and s.seed == 5
    assert s.values.shape == (lat.n_sites,)
    assert np.isfinite(s.values).all()


def test_grid_view_pads_non_interior_with_zeros():
    lat = disk_lattice(12)
    (s,) = sample_dgff(lat, 1, seed=6)
    arr, i0, j0 = s.grid()
    ij = lat.interior_ij
    mask = np.zeros(arr.shape, dtype=bool)
    mask[ij[:, 0] - i0, ij[:, 1] - j0] = True
    assert np.all(arr[~mask] == 0.0)
    assert_allclose(arr[mask], s.values[np.lexsort((ij[:, 1], ij[:, 0]))])


# ---------------------------------------------------------------------------
# stable field
# ---------------------------------------------------------------------------


def test_stable_near_two_matches_gaussian_ks():
    # alpha -> 2 limit: single-site marginal vs the matched normal
    lat = point_lattice()
    vals = stable_matrix(lat, 1.99, 10000, seed=31)[0]
    d, _ = stats.kstest(vals, "norm", args=(0.0, CALIBRATION / 2.0))
    assert d < 0.03


def test_stable_heavy_tail_kurtosis():
    lat = point_lattice()
    excesses = []
    for b in range(3):
        vals = stable_matrix(lat, 1.5, 10000, seed=37, replica_offset=10000 * b)[0]
        excesses.append(stats.kurtosis(vals, fisher=False))
    assert np.median(excesses) > 6.0


def test_stable_linearity_in_calibration():
    lat = disk_lattice(12)
    base = stable_matrix(lat, 1.5, 4, seed=41, calibration=1.0)
    doubled = stable_matrix(lat, 1.5, 4, seed=41, calibration=2.0)
    assert_allclose(doubled, 2.0 * base, rtol=1e-12, atol=0)


def test_stable_alpha_range():
    lat = point_lattice()
    for alpha in (0.9, 1.0, 2.1, -1.0):
        with pytest.raises(DomainError):
            stable_matrix(lat, alpha, 1, seed=0)
    with pytest.raises(DomainError):
        sample_sas(2.5, 10, np.random.default_rng(0))


def test_stable_sample_metadata():
    lat = disk_lattice(12)
    (s,) = sample_stable_field(lat, 1.7, 1, seed=43)
    assert s.law == "stable" and s.alpha == 1.7


def test_sas_alpha_two_is_gaussian():
    rng = np.random.default_rng(5)
    x = sample_sas(2.0, 20000, rng, scale=2.0 ** -0.5)
    assert abs(x.var() - 1.0) < 3.0 * np.sqrt(2.0 / 20000)
    _, p = anderson_darling_p(x[:2000])
    assert p > 0.01


# ---------------------------------------------------------------------------
# Markov decomposition
# ---------------------------------------------------------------------------


def test_markov_full_interior_is_all_residual():
    lat = disk_lattice(16)
    (s,) = sample_dgff(lat, 1, seed=51)
    d = markov_decompose(s, np.arange(lat.n_sites))
    assert_allclose(d.harmonic.values, 0.0, atol=0)
    assert_allclose(d.residual.values, s.values, rtol=0, atol=0)


def test_markov_harmonic_field_is_fixed_point():
    lat = disk_lattice(24)
    v = harmonic_lattice_field(lat, lambda z: np.real(z ** 2))
    s = FieldSample(lat, v, "deterministic", 0.0, 0)
    d = markov_decompose(s, lambda z: np.abs(z) < 0.6)
    assert_allclose(d.harmonic.values, v, atol=1e-10)
    assert_allclose(d.residual.values, 0.0, atol=1e-10)


def test_markov_parts_sum_and_residual_support():
    lat = disk_lattice(24)
    (s,) = sample_dgff(lat, 1, seed=53)
    d = markov_decompose(s, lambda z: np.abs(z) < 0.5)
    assert_allclose(d.harmonic.values + d.residual.values, s.values, atol=1e-14)
    outside = np.setdiff1d(np.arange(lat.n_sites), d.cell.member_idx)
    assert np.all(d.residual.values[outside] == 0.0)
    assert_allclose(d.harmonic.values[outside], s.values[outside], rtol=0, atol=0)


def test_markov_harmonic_part_satisfies_mean_identity():
    lat = disk_lattice(24)
    (s,) = sample_dgff(lat, 1, seed=54)
    d = markov_decompose(s, lambda z: np.abs(z) < 0.5)
    arr, i0, j0 = d.harmonic.grid()
    # pad so every 4-neighbour lookup lands inside; absent cells carry the
    # true zero boundary values
    pad = np.pad(arr, 1)
    for k in d.cell.member_idx:
        i, j = lat.interior_ij[k]
        ii, jj = i - i0 + 1, j - j0 + 1
        around = pad[ii + 1, jj] + pad[ii - 1, jj] + pad[ii, jj + 1] + pad[ii, jj - 1]
        assert abs(4.0 * pad[ii, jj] - around) < 1e-10


def test_markov_nesting_is_exact():
    lat = disk_lattice(24)
    (s,) = sample_dgff(lat, 1, seed=55)
    inner = lambda z: np.abs(z) < 0.4
    d_outer = markov_decompose(s, lambda z: np.abs(z) < 0.8)
    d_two_step = markov_decompose(d_outer.residual, inner)
    d_direct = markov_decompose(s, inner)
    assert_allclose(d_two_step.residual.values, d_direct.residual.values, atol=1e-12)
    # s = H1 + H2 + R2, so the harmonic parts of the two routes add up
    assert_allclose(
        d_outer.harmonic.values + d_two_step.harmonic.values,
        d_direct.harmonic.values,
        atol=1e-12,
    )


def test_markov_rejects_empty_and_foreign_subdomains():
    lat = disk_lattice(16)
    (s,) = sample_dgff(lat, 1, seed=57)
    with pytest.raises(ResolutionError):
        markov_decompose(s, lambda z: np.abs(z) > 5.0)
    other = disk_lattice(12)
    cell = other.cell(np.arange(4))
    with pytest.raises(DomainError):
        markov_decompose(s, cell)


def test_markov_accepts_boolean_mask():
    lat = disk_lattice(16)
    (s,) = sample_dgff(lat, 1, seed=58)
    mask = np.abs(lat.z) < 0.5
    d1 = markov_decompose(s, mask)
    d2 = markov_decompose(s, lambda z: np.abs(z) < 0.5)
    assert_allclose(d1.residual.values, d2.residual.values, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# pairing with test functions
# ---------------------------------------------------------------------------


def test_evaluate_zero_function():
    lat = disk_lattice(16)
    (s,) = sample_dgff(lat, 1, seed=61)
    assert evaluate(s, lambda z: np.zeros_like(z, dtype=float)) == 0.0


def test_evaluate_linearity():
    lat = disk_lattice(16)
    (s,) = sample_dgff(lat, 1, seed=62)
    phi = disk_bump(0.0, 0.6)
    psi = disk_bump(0.2 + 0.1j, 0.3)
    lhs = evaluate(s, lambda z: 2.5 * phi(z) + psi(z))
    rhs = 2.5 * evaluate(s, phi) + evaluate(s, psi)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_evaluate_variance_matches_h_minus1(lat64, dgff64):
    phi = disk_bump(0.0, 0.5)
    a = lat64.spacing
    pair = a ** 2 * (phi(lat64.z) @ dgff64)
    target = h_minus1_inner(phi, phi)
    n = dgff64.shape[1]
    # 3 s.e. statistical band plus a 2% allowance for lattice bias
    tol = 3.0 * target * np.sqrt(2.0 / n) + 0.02 * target
    assert abs(pair.var() - target) < tol


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def markov_batch():
    lat = disk_lattice(32)
    vals = dgff_matrix(lat, 5000, seed=71)
    cell = lat.cell(lat.indices_of(lambda z: np.abs(z) < 0.5))
    harm_members = cell.harmonic_extension(vals)
    residual_members = vals[cell.member_idx] - harm_members
    return lat, vals, cell, harm_members, residual_members


def test_residual_independent_of_harmonic_part(markov_batch):
    lat, vals, cell, harm_members, residual_members = markov_batch
    n = vals.shape[1]
    rng = np.random.default_rng(0)
    harmonic_full = vals.copy()
    harmonic_full[cell.member_idx] = harm_members
    for _ in range(10):
        r_site = rng.integers(len(cell.member_idx))
        h_site = rng.integers(lat.n_sites)
        rho = np.corrcoef(residual_members[r_site], harmonic_full[h_site])[0, 1]
        assert abs(rho) < 4.0 / np.sqrt(n)


def test_residual_independence_stable_rank_correlation():
    # heavy tails break Pearson moments, so the stable check uses ranks
    lat = disk_lattice(24)
    vals = stable_matrix(lat, 1.5, 5000, seed=73)
    cell = lat.cell(lat.indices_of(lambda z: np.abs(z) < 0.5))
    harm = cell.harmonic_extension(vals)
    res = vals[cell.member_idx] - harm
    harmonic_full = vals.copy()
    harmonic_full[cell.member_idx] = harm
    rng = np.random.default_rng(1)
    for _ in range(4):
        r_site = rng.integers(len(cell.member_idx))
        h_site = rng.integers(lat.n_sites)
        rho, _ = stats.spearmanr(res[r_site], harmonic_full[h_site])
        assert abs(rho) < 4.0 / np.sqrt(vals.shape[1])


def test_residual_law_is_subdomain_field(markov_batch):
    lat, vals, cell, harm_members, residual_members = markov_batch
    sublat = LatticeDomain(lat.spacing, lat.interior_ij[cell.member_idx], label="sub")
    k_parent = np.argmin(np.abs(lat.z[cell.member_idx]))
    z0 = lat.z[cell.member_idx][k_parent]
    target = CALIBRATION ** 2 * discrete_green(sublat, z0, z0)
    emp = residual_members[k_parent].var()
    assert abs(emp - target) < 3.0 * target * np.sqrt(2.0 / vals.shape[1])


def test_zero_boundary_kills_boundary_bumps():
    # bumps hugging the unit circle at dyadic distances: mean |(h, phi_n)|
    # must fall monotonically and end far below where it started
    lat = disk_lattice(128)
    vals = dgff_matrix(lat, 1200, seed=79)
    a = lat.spacing
    means = []
    for n in range(1, 6):
        phi = radial_annulus_bump(2.0 ** -n)
        pair = a ** 2 * (phi(lat.z) @ vals)
        means.append(np.abs(pair).mean())
    assert all(m1 > m2 for m1, m2 in zip(means, means[1:]))
    assert means[-1] < 0.1 * means[0]


def test_anderson_darling_separates_laws():
    lat = disk_lattice(12)
    k = lat.nearest_site(0.0 + 0.0j)
    batch = 2000
    rejects_stable = 0
    rejects_gauss = 0
    for b in range(50):
        sv = stable_matrix(lat, 1.5, batch, seed=83, replica_offset=b * batch)[k]
        _, p = anderson_darling_p(sv)
        rejects_stable += p < 0.01
        gv = dgff_matrix(lat, batch, seed=89, replica_offset=b * batch)[k]
        _, p = anderson_darling_p(gv)
        rejects_gauss += p < 0.01
    assert rejects_stable >= 48
    assert rejects_gauss <= 4


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_field_round_trip(tmp_path):
    lat = disk_lattice(24)
    (s,) = sample_dgff(lat, 1, seed=91)
    path = tmp_path / "field.gffs"
    save_field(s, path)
    grid = load_field(path)
    assert grid.law == "gff" and grid.alpha == 2.0 and grid.seed == 91
    assert grid.spacing == lat.spacing
    assert grid.calibration == s.calibration
    back = grid.attach(lat)
    assert_allclose(back.values, s.values, rtol=0, atol=0)


@settings(max_examples=20, deadline=None)
@given(
    law=st.sampled_from(["gff", "stable", "deterministic"]),
    alpha=st.floats(min_value=1.1, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2 ** 40),
)
def test_field_round_trip_metadata(tmp_path_factory, law, alpha, seed):
    lat = LatticeDomain(0.25, np.array([[0, 0], [1, 0], [0, 1]]), label="tri")
    s = FieldSample(lat, np.array([1.5, -2.25, 0.125]), law, alpha, seed)
    path = tmp_path_factory.mktemp("fieldmeta") / "f.gffs"
    save_field(s, path)
    grid = load_field(path)
    assert (grid.law, grid.seed) == (law, seed)
    assert grid.alpha == alpha
    assert_allclose(grid.attach(lat).values, s.values, rtol=0, atol=0)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.gffs"
    path.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(ValueError):
        load_field(path)


def test_load_rejects_truncation(tmp_path):
    lat = disk_lattice(12)
    (s,) = sample_dgff(lat, 1, seed=93)
    path = tmp_path / "field.gffs"
    save_field(s, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError):
        load_field(path)


def test_attach_rejects_mismatched_lattice(tmp_path):
    lat = disk_lattice(12)
    (s,) = sample_dgff(lat, 1, seed=94)
    path = tmp_path / "field.gffs"
    save_field(s, path)
    grid = load_field(path)
    with pytest.raises(DomainError):
        grid.attach(disk_lattice(16))


def test_field_sample_validation():
    lat = disk_lattice(12)
    with pytest.raises(DomainError):
        FieldSample(lat, np.zeros(lat.n_sites), "poisson", 2.0, 0)
    with pytest.raises(DomainError):
        FieldSample(lat, np.zeros(3), "gff", 2.0, 0)
