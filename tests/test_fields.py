"""Field samplers and the domain Markov decomposition."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.linalg.lapack import dtbtrs

from gffforge import fields, greens
from gffforge.errors import DomainError, NumericalError, ResolutionError
from gffforge.fields import (
    CALIBRATION,
    FieldSample,
    dgff_matrix,
    markov_decompose,
    sample_dgff,
    sample_functionals,
    sample_gff_observables,
    sample_sas,
    stable_matrix,
)
from gffforge.averaging import CircleMeasure
from gffforge.rng import replica_rng
from gffforge.geometry import disk_bump, radial_annulus_bump
from gffforge.greens import (
    DirichletCell,
    LatticeDomain,
    covariance_of_observables,
    discrete_green,
    disk_lattice,
    h_minus1_inner,
    halfplane_lattice,
)
from gffforge.verify import anderson_darling_p


def point_lattice():
    return LatticeDomain(1.0, np.array([[0, 0]]))


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


def test_gff_observables_are_cholesky_rows_of_the_replica_streams():
    # a positive-definite covariance is factored as it is, with no jitter
    cov = np.array([[2.0, 1.0, 0.5], [1.0, 1.0, 0.3], [0.5, 0.3, 0.8]])
    L = np.linalg.cholesky(cov)
    ref = np.stack([replica_rng(11, r).standard_normal(3) @ L.T for r in range(50)])
    assert np.array_equal(sample_gff_observables(cov, 50, seed=11), ref)


def test_gff_observables_zero_variance_is_exact_zero():
    cov = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 2.0]])
    x = sample_gff_observables(cov, 2000, seed=12)
    assert np.all(x[:, 1] == 0.0) and not np.signbit(x[:, 1]).any()
    inc = x[:, 2] - x[:, 0]
    assert abs(inc.var() - 1.0) < 3.0 * np.sqrt(2.0 / 2000)


@pytest.mark.parametrize(
    "cov",
    [[[0.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],
    ids=["zero-variance-nonzero-row", "indefinite", "rank-deficient"],
)
def test_gff_observables_reject_covariances_without_a_root(cov):
    # a rank-deficient block with nonzero variances is not jittered into a
    # nearby positive-definite one
    with pytest.raises(NumericalError):
        sample_gff_observables(np.array(cov), 10, seed=0)


def test_gff_observables_rejects_nonsquare():
    with pytest.raises(DomainError):
        sample_gff_observables(np.ones((2, 3)), 10, seed=0)


@pytest.mark.parametrize("bad", [(0, 1, np.nan), (1, 1, np.inf)], ids=["nan-covariance", "inf-variance"])
def test_gff_observables_reject_nonfinite_covariance(bad):
    # a NaN covariance gave a NaN column, an infinite variance +-inf draws
    i, j, value = bad
    cov = np.array([[2.0, 1.0], [1.0, 1.0]])
    cov[i, j] = cov[j, i] = value
    with pytest.raises(DomainError, match="finite"):
        sample_gff_observables(cov, 10, seed=0)


@pytest.mark.parametrize("cov", [[[1.0, 5.0], [0.0, 1.0]], [[1.0, 0.5], [0.9, 1.0]]],
                         ids=["upper-without-root", "unequal-triangles"])
def test_gff_observables_reject_non_symmetric_covariance(cov):
    # Cholesky read the lower triangle only: the first gave uncorrelated
    # draws, the second covariance 0.9
    with pytest.raises(DomainError, match="symmetric"):
        sample_gff_observables(np.array(cov), 10, seed=0)


def test_gff_observables_accept_rounding_asymmetry():
    cov = np.array([[2.0, 1.0 + 1e-13], [1.0, 1.0]])
    assert np.array_equal(sample_gff_observables(cov, 50, seed=11),
                          sample_gff_observables(np.array([[2.0, 1.0], [1.0, 1.0]]), 50, seed=11))


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
    # column r is replica r: a smaller batch is a prefix of a larger one
    whole = dgff_matrix(lat, 6, seed=21)
    head = dgff_matrix(lat, 3, seed=21)
    assert_allclose(whole[:, :3], head, rtol=0, atol=0)


def _gram_root(lat, W):
    """The triangular root R, R^T R = V^T V, that Gaussian functionals
    draw through: k normals per replica instead of one per site."""
    return np.linalg.qr(CALIBRATION * lat._root(W, "T"), mode="r")


@pytest.mark.parametrize("law", ["gff", "stable"])
def test_sample_functionals_matches_field_pairings(law):
    # a disk (Cholesky root) and a box (symmetric DST root).  Stable
    # functionals draw the fields' own site noise, so they equal the
    # fields' pairings replica by replica; Gaussian ones draw k normals
    # through a root of the exact Gram matrix c^2 W^T L^-1 W, so they
    # match the pairings in law
    for lat in (disk_lattice(24), halfplane_lattice(1.2, 0.1)):
        z = lat.z
        W = np.stack([np.asarray(disk_bump(0.1j, 0.5)(z)), z.real, np.zeros(lat.n_sites)], axis=1)
        got = sample_functionals(lat, W, 7, seed=43, law=law, alpha=1.6)
        assert got.shape == (7, 3)
        assert np.all(got[:, 2] == 0.0)
        if law == "gff":
            R = _gram_root(lat, W)
            gram = CALIBRATION**2 * W.T @ lat.solve(W)
            assert np.max(np.abs(R.T @ R - gram)) <= 1e-12 * np.max(np.abs(gram))
            rows = _serial_noise("gff", 2.0, R.shape[0], 7, 43)
            assert np.array_equal(got, np.stack([row @ R for row in rows]))
        else:
            ref = W.T @ stable_matrix(lat, 1.6, 7, seed=43)
            assert np.max(np.abs(got - ref.T)) <= 1e-12 * np.max(np.abs(ref))


def test_gff_functionals_covariance_matches_exact_gram():
    # 4,000 replicas of three correlated functionals on a disk and a box;
    # each entry of X^T X / n has standard error sqrt((G_ii G_jj + G_ij^2) / n)
    # about the exact Gram G, and every entry must lie within 5 of them
    n = 4000
    for lat in (disk_lattice(24), halfplane_lattice(1.2, 0.1)):
        z = lat.z
        W = np.stack(
            [np.asarray(disk_bump(0.1j, 0.5)(z)), np.asarray(disk_bump(0.3 + 0.3j, 0.5)(z)), z.real],
            axis=1,
        ) * lat.spacing**2
        gram = CALIBRATION**2 * W.T @ lat.solve(W)
        X = sample_functionals(lat, W, n, seed=47)
        se = np.sqrt((np.outer(np.diag(gram), np.diag(gram)) + gram**2) / n)
        assert np.all(np.abs(X.T @ X / n - gram) <= 5.0 * se)


def _serial_noise(law, alpha, size, n, seed):
    """Reference: row r is replica r's noise, drawn one replica at a time
    from its own stream."""
    rows = np.empty((n, size))
    for r in range(n):
        rng = replica_rng(seed, r)
        rows[r] = rng.standard_normal(size) if law == "gff" else sample_sas(alpha, size, rng, 2.0**-0.5)
    return rows


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_replica_blocks_match_serial_reference(monkeypatch, threads):
    # 16 replicas in blocks of 3: five full blocks and a short one, spread
    # over the pool even on these small lattices; every output must equal
    # the one-replica-at-a-time loop, and fields solved block by block (band
    # solves on the disk, DSTs on the box) the solve of the whole batch
    monkeypatch.setattr(fields, "_REPLICA_BLOCK", 3)
    monkeypatch.setattr(fields, "_PARALLEL_SITES", 0)
    monkeypatch.setenv("GFFFORGE_THREADS", threads)
    n, seed = 16, 29
    for lat in (disk_lattice(16), halfplane_lattice(1.2, 0.1)):
        W = np.stack([np.asarray(disk_bump(0.1j, 0.5)(lat.z)), lat.z.real], axis=1)
        # Gaussian functionals draw k normals through the Gram root R,
        # stable ones the site noise through V = c R_lat^T W
        for law, V in (("gff", _gram_root(lat, W)), ("stable", CALIBRATION * lat._root(W, "T"))):
            rows = _serial_noise(law, 1.6, V.shape[0], n, seed)
            ref = np.stack([rows[r] @ V for r in range(n)])
            assert np.array_equal(sample_functionals(lat, W, n, seed, law, 1.6), ref)
    for lat in (disk_lattice(16), halfplane_lattice(1.2, 0.1)):
        for law, got in (
            ("gff", dgff_matrix(lat, n, seed)),
            ("stable", stable_matrix(lat, 1.6, n, seed)),
        ):
            rows = _serial_noise(law, 1.6, lat.n_sites, n, seed)
            assert np.array_equal(got, CALIBRATION * lat.white_to_field(rows.T))


def test_pooled_fields_factor_the_band_once(monkeypatch):
    # the band is factored when the lattice is built; with replica blocks
    # solving on more threads than cores it must still be built once, and
    # every block must get the serial fields
    calls = []

    def slow_factor(codes):
        calls.append(len(codes))
        time.sleep(0.05)
        return factor(codes)

    factor = greens._factored_laplacian
    monkeypatch.setattr(greens, "_factored_laplacian", slow_factor)
    monkeypatch.setattr(fields, "_REPLICA_BLOCK", 3)
    monkeypatch.setattr(fields, "_PARALLEL_SITES", 0)
    monkeypatch.setenv("GFFFORGE_THREADS", "4")
    lat = disk_lattice(16)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = dgff_matrix(lat, 12, 31)
    finally:
        sys.setswitchinterval(switch)
    assert calls == [lat.n_sites]
    assert np.array_equal(got, CALIBRATION * lat.white_to_field(_serial_noise("gff", 2.0, lat.n_sites, 12, 31).T))


def test_box_functional_gram_matches_cholesky():
    # the Gaussian law of the functionals depends on V only through V^T V
    lat = halfplane_lattice(1.2, 0.1)
    z = lat.z
    W = np.stack([np.asarray(disk_bump(0.3 + 0.4j, 0.5)(z)), z.imag, np.ones(lat.n_sites)], axis=1)
    V = lat._root(W, "T")
    V_chol = dtbtrs(greens._factored_laplacian(lat._codes), W, uplo="U", trans="T")[0]
    ref = V_chol.T @ V_chol
    assert np.max(np.abs(V.T @ V - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_box_stable_functionals_keep_mirror_symmetry():
    # i -> -i maps the box onto itself; the symmetric root commutes with it,
    # so a bump and its mirror image get the same stable scale ||v||_alpha
    # (a Cholesky root, tied to the site order, misses by about 2%)
    lat = halfplane_lattice(2.0, 0.05)
    a = lat.spacing
    W = np.stack([disk_bump(0.7 + 0.5j, 0.4)(lat.z), disk_bump(-0.7 + 0.5j, 0.4)(lat.z)], axis=1)
    V = lat._root(W * a * a, "T")
    norms = np.sum(np.abs(V) ** 1.5, axis=0) ** (1.0 / 1.5)
    assert abs(norms[1] / norms[0] - 1.0) <= 1e-12


def test_zero_replicas_on_a_banded_lattice_exit_cleanly():
    # LAPACK dtbtrs corrupts the heap on a right-hand side with no columns,
    # and the interpreter then crashes after the call has returned: run the
    # calls in a child and require a clean exit
    code = (
        "from gffforge.averaging import circle_average_path\n"
        "from gffforge.fields import dgff_matrix\n"
        "from gffforge.greens import disk_lattice\n"
        "print(dgff_matrix(disk_lattice(16), 0, 1).shape)\n"
        "print(circle_average_path(5, [], 1, backend='lattice', lattice=disk_lattice(16)).replicas.shape)\n"
    )
    src = str(Path(fields.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["(193, 0)", "(5, 0)", ""]


def test_sample_functionals_validation():
    lat = disk_lattice(12)
    with pytest.raises(DomainError):
        sample_functionals(lat, np.ones((lat.n_sites + 1, 1)), 2, seed=0)
    with pytest.raises(DomainError):
        sample_functionals(lat, np.ones((lat.n_sites, 1)), 2, seed=0, law="cauchy")
    with pytest.raises(DomainError):
        sample_functionals(lat, np.ones((lat.n_sites, 1)), 2, seed=0, law="stable", alpha=0.9)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("law", ["gff", "stable"])
def test_sample_functionals_reject_non_finite_weights(law, bad):
    # each law returned NaN replicas
    lat = disk_lattice(12)
    W = np.ones((lat.n_sites, 2))
    W[3, 1] = bad
    with pytest.raises(DomainError, match="weights must be finite"):
        sample_functionals(lat, W, 4, seed=0, law=law, alpha=1.5)


def test_dgff_sample_metadata():
    lat = disk_lattice(12)
    (s,) = sample_dgff(lat, 1, seed=5)
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
    vals = stable_matrix(lat, 1.5, 30000, seed=37)[0]
    excesses = [stats.kurtosis(vals[b : b + 10000], fisher=False) for b in range(0, 30000, 10000)]
    assert np.median(excesses) > 6.0


def test_stable_alpha_range():
    lat = point_lattice()
    for alpha in (0.9, 1.0, 2.1, -1.0):
        with pytest.raises(DomainError):
            stable_matrix(lat, alpha, 1, seed=0)
    with pytest.raises(DomainError):
        sample_sas(2.5, 10, np.random.default_rng(0))


def test_sas_alpha_one_is_the_cauchy_ratio():
    # the formula reduces to sin U / cos U: a standard Cauchy variate
    x = sample_sas(1.0, 1000, replica_rng(3, 0))
    u = replica_rng(3, 0).uniform(-np.pi / 2.0, np.pi / 2.0, 1000)
    assert np.array_equal(x, np.sin(u) / np.cos(u))
    assert stats.kstest(sample_sas(1.0, 4000, replica_rng(4, 0)), "cauchy").pvalue > 0.01


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
    s = FieldSample(lat, v)
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
    cell = DirichletCell(other, np.arange(4))
    with pytest.raises(DomainError):
        markov_decompose(s, cell)


def test_markov_rejects_a_non_finite_ring_value():
    # the cell's solve raised a bare ValueError
    lat = disk_lattice(16)
    values = np.zeros(lat.n_sites)
    cell = markov_decompose(FieldSample(lat, values), lambda z: np.abs(z) < 0.5).cell
    values[cell.ring_idx[0]] = np.nan
    with pytest.raises(DomainError, match="must be finite"):
        markov_decompose(FieldSample(lat, values), lambda z: np.abs(z) < 0.5)


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
    cell = DirichletCell(lat, lat.indices_of(lambda z: np.abs(z) < 0.5))
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
    cell = DirichletCell(lat, lat.indices_of(lambda z: np.abs(z) < 0.5))
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
    sublat = LatticeDomain(lat.spacing, lat.interior_ij[cell.member_idx])
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
    # 50 batches of 2,000 replicas, sliced from one draw per law
    batch = 2000
    sv = stable_matrix(lat, 1.5, 50 * batch, seed=83)[k].reshape(50, batch)
    gv = dgff_matrix(lat, 50 * batch, seed=89)[k].reshape(50, batch)
    rejects_stable = sum(anderson_darling_p(v)[1] < 0.01 for v in sv)
    rejects_gauss = sum(anderson_darling_p(v)[1] < 0.01 for v in gv)
    assert rejects_stable >= 48
    assert rejects_gauss <= 4


# ---------------------------------------------------------------------------
# FieldSample
# ---------------------------------------------------------------------------


def test_field_sample_validation():
    lat = disk_lattice(12)
    with pytest.raises(DomainError):
        FieldSample(lat, np.zeros(3))
