"""Tests for the statistical battery: report plumbing, the shared
primitives, each single-criterion test against its null and a designated
adversary, and the aggregated path-law characterization."""

import numpy as np
import pytest

from gffforge.averaging import DEFAULT_U_GRID, ProcessPath
from gffforge.errors import DomainError
from gffforge.fields import sample_sas
from gffforge.geometry import Mobius, disk_bump
from gffforge.greens import disk_lattice
from gffforge.rng import replica_rng
# the battery functions are reached through the module: their test_ names
# would otherwise be collected as test items here
from gffforge import verify as vfy
from gffforge.verify import (
    CharBMVerdict,
    anderson_darling_p,
    ar1_increment_path,
    characterize_bm,
    compound_poisson_path,
    distance_correlation,
    levy_path,
    sigma_hat,
)

SHORT_GRID = (0.5, 1.0, 2.0, 4.0)
# contains the refinement points 1.025/1.05/1.1 and three dyadic triples
LONG_GRID = (0.5, 1.0, 1.025, 1.05, 1.1, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


def bm_path(grid, n, seed, sigma=1.0):
    """Exact Brownian replicas on the grid, the null model for every
    path-law test."""
    g = np.asarray(grid, dtype=float)
    du = np.concatenate([[g[0]], np.diff(g)])
    rng = replica_rng(seed, 0)
    reps = np.cumsum(rng.standard_normal((n, len(g))) * sigma * np.sqrt(du), axis=1)
    return ProcessPath(g, reps)


# ---------------------------------------------------------------------------
# TestReport plumbing
# ---------------------------------------------------------------------------


def test_report_derives_pass_from_the_p_value():
    # with a p-value, the statistic and threshold do not decide
    assert vfy.TestReport("x", 5.0, 0.2, 0.01, 100).passed is True
    assert vfy.TestReport("x", 5.0, vfy.SIGNIFICANCE, 0.01, 100).passed is True
    assert vfy.TestReport("x", 0.0, 0.001, 0.01, 100).passed is False
    rep = vfy.TestReport("x", np.float64(5.0), np.float64(0.2), 1, np.int64(100))
    assert [type(v) for v in (rep.statistic, rep.p_value, rep.threshold, rep.n_samples)] == [
        float, float, float, int]


def test_report_derives_pass_from_the_tolerance():
    assert vfy.TestReport("x", 0.5, None, 1.0, 100).passed is True
    assert vfy.TestReport("x", -0.5, None, 1.0, 100).passed is True
    assert vfy.TestReport("x", 1.0, None, 1.0, 100).passed is True
    assert vfy.TestReport("x", 1.5, None, 1.0, 100).passed is False
    assert vfy.TestReport("x", -1.5, None, 1.0, 100).passed is False
    # the verdict is derived, never given
    with pytest.raises(TypeError):
        vfy.TestReport("x", 0.5, None, 1.0, 100, passed=True)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_anderson_darling_input_validation():
    with pytest.raises(DomainError):
        anderson_darling_p(np.arange(10.0))
    with pytest.raises(DomainError):
        anderson_darling_p(np.ones(50))


def test_anderson_darling_affine_invariance():
    x = replica_rng(1, 0).standard_normal(400)
    a0, p0 = anderson_darling_p(x)
    a1, p1 = anderson_darling_p(3.0 * x + 7.0)
    assert a1 == pytest.approx(a0, abs=1e-10)
    assert p1 == pytest.approx(p0, abs=1e-10)


def test_anderson_darling_rejects_uniform():
    u = replica_rng(2, 0).uniform(size=2000)
    a, p = anderson_darling_p(u)
    assert p < 0.01


def test_anderson_darling_clamps_huge_statistics():
    # far past the fitted range of the p approximation the quadratic turns
    # back up; the clamp must keep such samples firmly rejected
    x = sample_sas(1.1, 4000, replica_rng(5, 0))
    a, p = anderson_darling_p(x)
    assert a > 13.0
    assert np.isfinite(a)
    assert p == 0.0


def test_distance_correlation_independent_pair():
    rng = replica_rng(7, 0)
    x = rng.standard_normal(500)
    y = rng.standard_normal(500)
    t, p = distance_correlation(x, y, seed=1)
    assert t < 0.15
    assert p >= 0.01


def test_distance_correlation_detects_nonlinear_dependence():
    # y = x^2 has zero Pearson correlation with x but is fully dependent
    x = replica_rng(7, 0).standard_normal(500)
    t, p = distance_correlation(x, x**2, seed=1)
    assert t > 0.3
    assert p < 0.01


def test_distance_correlation_degenerate_input():
    y = replica_rng(8, 0).standard_normal(300)
    assert distance_correlation(np.ones(300), y, seed=1) == (0.0, 1.0)


def test_distance_correlation_caps_large_samples():
    rng = replica_rng(9, 0)
    x = rng.standard_normal(3000)
    t, p = distance_correlation(x, x**2, seed=2, cap=400)
    assert p < 0.01


def test_distance_correlation_is_free_of_units():
    # the permutation tie margin scales with the data: at 1e-8 units an
    # absolute margin would count every permutation as a hit
    rng = replica_rng(12, 0)
    x = rng.standard_normal(400)
    y = rng.standard_normal(400)
    t, p = distance_correlation(x, y, seed=3)
    assert 0.02 < p < 0.98
    t_small, p_small = distance_correlation(1e-8 * x, 1e-8 * y, seed=3)
    assert p_small == p
    assert t_small == pytest.approx(t, rel=1e-12)


def _ix_distance_correlation(x, y, seed=0, cap=800):
    """distance_correlation with each permuted cross term taken over the whole
    matrix ``A * B[np.ix_(p, p)]``: the reference whose ``(t, p)`` the
    blocked upper-triangle loop must reproduce exactly."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(x)
    rng = replica_rng(seed, 0)
    if n > cap:
        idx = rng.choice(n, size=cap, replace=False)
        x, y = x[idx], y[idx]
        n = cap
    A = vfy._center(vfy._dist_matrix(x))
    B = vfy._center(vfy._dist_matrix(y))
    denom = np.sqrt(np.mean(A * A) * np.mean(B * B))
    if denom < 1e-300:
        return 0.0, 1.0
    cross0 = max(np.mean(A * B), 0.0)
    hits = 0
    for _ in range(vfy._N_PERM):
        perm = rng.permutation(n)
        cross = max(np.mean(A * B[np.ix_(perm, perm)]), 0.0)
        hits += cross >= cross0 - 1e-15 * denom
    return float(np.sqrt(cross0 / denom)), (1.0 + hits) / (vfy._N_PERM + 1.0)


def test_distance_correlation_matches_ix_reference():
    rng = replica_rng(11, 0)
    x = rng.standard_normal(400)
    y2 = np.column_stack([rng.standard_normal(400), 0.1 * x + rng.standard_normal(400)])
    big = rng.standard_normal(1200)
    cases = [
        (x, rng.standard_normal(400)),  # 1-D y
        (x, y2),  # 2-D y
        (big, np.abs(big) + 8.0 * rng.standard_normal(1200)),  # n above cap
        (rng.integers(0, 3, 400), rng.integers(0, 3, 400)),  # tied distances
    ]
    for k, (a, b) in enumerate(cases):
        want = _ix_distance_correlation(a, b, seed=k)
        # an interior p-value is one that a wrong permuted matrix would move
        assert 0.02 < want[1] < 0.98
        assert distance_correlation(a, b, seed=k) == want


def _dcor_case(kind):
    rng = replica_rng(13, 0)
    if kind == "n40-1d":  # fewer rows than one block
        x = rng.standard_normal(40)
        return x, rng.standard_normal(40), 800
    if kind == "n150-2d":  # last block partial
        x = rng.standard_normal(150)
        return x, np.column_stack([rng.standard_normal(150), 0.1 * x]), 800
    if kind == "n1000-cap300":
        x = rng.standard_normal(1000)
        return x, np.column_stack([rng.standard_normal(1000), rng.standard_normal(1000)]), 300
    # compound Poisson increments: about 90% exact zeros, so most distances tie
    inc = np.diff(compound_poisson_path((0.1, 0.2, 0.3, 0.4), 500, 17).replicas, axis=1)
    return inc[:, 0], inc[:, 1:], 800


@pytest.mark.parametrize(
    "kind", ["n40-1d", "n150-2d", "n1000-cap300", "compound-poisson-ties"]
)
def test_distance_correlation_blocks_match_whole_matrix_loop(kind):
    x, y, cap = _dcor_case(kind)
    for seed in range(3):
        want = _ix_distance_correlation(x, y, seed=seed, cap=cap)
        # an interior p-value is one that a wrong permuted cross term would move
        assert 0.02 < want[1] < 0.98
        assert distance_correlation(x, y, seed=seed, cap=cap) == want


def test_sigma_hat_recovers_diffusivity():
    Y = bm_path(LONG_GRID, 4000, 21, sigma=2.0)
    assert sigma_hat(Y) == pytest.approx(2.0, rel=0.03)


# ---------------------------------------------------------------------------
# normality and the fourth moment
# ---------------------------------------------------------------------------


def test_normality_gaussian_passes():
    r = vfy.test_normality(replica_rng(30, 0).standard_normal(10_000))
    assert r.passed
    assert r.name == "normality"
    assert r.n_samples == 10_000


def test_normality_rejects_stable():
    x = sample_sas(1.5, 10_000, replica_rng(31, 0))
    assert not vfy.test_normality(x).passed


def test_normality_null_calibration():
    rejections = sum(
        not vfy.test_normality(replica_rng(900 + s, 0).standard_normal(500)).passed
        for s in range(50)
    )
    assert rejections <= 3


def test_wick_fourth_gaussian():
    r = vfy.test_wick_fourth(replica_rng(40, 0).standard_normal(10_000))
    assert r.passed
    assert abs(r.statistic) <= 0.15
    assert "fourth-moment ratio" in r.notes


def test_wick_fourth_validation():
    with pytest.raises(DomainError):
        vfy.test_wick_fourth(np.arange(100.0))
    with pytest.raises(DomainError):
        vfy.test_wick_fourth(np.zeros(2000))


def test_wick_fourth_null_calibration():
    rejections = sum(
        not vfy.test_wick_fourth(replica_rng(950 + s, 0).standard_normal(2000)).passed
        for s in range(50)
    )
    assert rejections <= 3


def test_wick_fourth_rejects_stable_batches():
    rejections = sum(
        not vfy.test_wick_fourth(sample_sas(1.5, 10_000, replica_rng(850 + s, 0))).passed
        for s in range(50)
    )
    assert rejections >= 48


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def test_scaling_brownian_null():
    Y = bm_path(SHORT_GRID, 2000, 81)
    for c in (2.0, 4.0):
        r = vfy.test_brownian_scaling(Y, c)
        assert r.passed
        assert r.p_value >= 0.01
        assert "Bonferroni" in r.notes


def test_scaling_identity_factor_trivially_passes():
    Y = bm_path(SHORT_GRID, 200, 82)
    r = vfy.test_brownian_scaling(Y, 1.0)
    assert r.passed
    assert r.p_value == 1.0


def test_scaling_validation():
    Y = bm_path(SHORT_GRID, 2000, 81)
    with pytest.raises(DomainError):
        vfy.test_brownian_scaling(Y, -2.0)
    with pytest.raises(DomainError):
        vfy.test_brownian_scaling(Y, 3.0)  # no (u, 3u) pair on the grid
    with pytest.raises(DomainError):
        vfy.test_brownian_scaling(bm_path(SHORT_GRID, 60, 81), 2.0)


def test_scaling_rejects_stable_levy():
    # increments scale like du^(1/alpha), off the diffusive root by
    # c^(1/alpha - 1/2) = 4^(1/6) in scale at alpha = 1.5
    for seed in (41, 42):
        L = levy_path(SHORT_GRID, 10_000, seed, alpha=1.5)
        assert not vfy.test_brownian_scaling(L, 4.0).passed


# ---------------------------------------------------------------------------
# increment independence
# ---------------------------------------------------------------------------


def test_independence_brownian_null():
    assert vfy.test_independent_increments(bm_path(LONG_GRID, 3000, 50), seed=3).passed


def test_independence_two_point_grid():
    # reduced case: a single increment tested against Y(u1) only
    r = vfy.test_independent_increments(bm_path((1.0, 2.0), 1000, 83), seed=5)
    assert r.passed


def test_independence_rejects_ar1_increments():
    for n in (1000, 10_000):
        A = ar1_increment_path(SHORT_GRID, n, 51, rho=0.3)
        r = vfy.test_independent_increments(A, seed=3)
        assert not r.passed
        assert "rho" in r.notes


def test_independence_validation():
    with pytest.raises(DomainError):
        vfy.test_independent_increments(bm_path((1.0,), 500, 52))
    with pytest.raises(DomainError):
        vfy.test_independent_increments(bm_path(SHORT_GRID, 60, 52))
    with pytest.raises(DomainError):
        ar1_increment_path(SHORT_GRID, 10, 1, rho=1.5)


# ---------------------------------------------------------------------------
# harness residual
# ---------------------------------------------------------------------------


def test_harness_brownian_null():
    Y = bm_path(SHORT_GRID, 5000, 60)
    r = vfy.test_harness(Y, 1.0, 2.0, 4.0, seed=3)
    assert r.passed
    # the bridge target (u-s)(r-u)/(r-s) = 2/3 lands in the notes
    assert "Var(R)" in r.notes
    R = Y.column(2.0) - (1.0 / 3.0) * Y.column(4.0) - (2.0 / 3.0) * Y.column(1.0)
    assert np.var(R) == pytest.approx(2.0 / 3.0, rel=0.1)


def test_harness_degenerate_interpolation():
    Y = bm_path(SHORT_GRID, 300, 61)
    r = vfy.test_harness(Y, 1.0, 1.0, 4.0)
    assert r.passed
    assert r.statistic == 0.0
    assert "degenerate" in r.notes


def test_harness_validation():
    Y = bm_path(SHORT_GRID, 300, 61)
    with pytest.raises(DomainError):
        vfy.test_harness(Y, 2.0, 1.0, 4.0)
    with pytest.raises(DomainError):
        vfy.test_harness(Y, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        vfy.test_harness(Y, 1.0, 2.0, 8.0)  # off the grid range
    with pytest.raises(DomainError):
        vfy.test_harness(Y, 1.0, 3.0, 4.0)  # inside the range, off the grid


def test_harness_rejects_compound_poisson():
    # jumps leave the residual dependent on the endpoints even though the
    # Pearson correlation and the bridge variance both match Brownian values
    for n in (1000, 10_000):
        C = compound_poisson_path(SHORT_GRID, n, 61, rate=1.0)
        assert not vfy.test_harness(C, 1.0, 2.0, 4.0, seed=3).passed


# ---------------------------------------------------------------------------
# moment bootstrap
# ---------------------------------------------------------------------------


def test_moment_bootstrap_brownian_null():
    Y = bm_path(SHORT_GRID, 4000, 71)
    r = vfy.test_moment_bootstrap(Y)
    assert r.passed
    Z = Y.column(1.0) - Y.column(2.0) / 2.0
    assert np.var(Z) == pytest.approx(0.5, rel=0.1)
    assert abs(np.corrcoef(Z, Y.column(2.0))[0, 1]) < 4.0 / np.sqrt(4000)


def test_moment_bootstrap_flags_heavy_tails():
    r = vfy.test_moment_bootstrap(levy_path(SHORT_GRID, 4000, 72, alpha=1.5))
    assert not r.passed
    assert "heavy tails" in r.notes


def test_moment_bootstrap_grid_coverage():
    with pytest.raises(DomainError):
        vfy.test_moment_bootstrap(bm_path((0.5, 1.0, 1.5), 500, 73))


def test_moment_bootstrap_reads_no_interpolated_column():
    # 2 u0 = 2 lies inside the grid's range but not on it
    with pytest.raises(DomainError, match="not on the path grid"):
        vfy.test_moment_bootstrap(bm_path((0.5, 1.0, 1.5, 3.0, 4.0), 500, 73))


# ---------------------------------------------------------------------------
# conformal invariance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lat48():
    return disk_lattice(48)


def test_conformal_rotation_gff(lat48):
    phi = disk_bump(0.3 + 0.0j, 0.25)
    r = vfy.test_conformal_invariance(
        "gff", Mobius(np.exp(1j * np.pi / 3), 0, 0, 1), phi, 800, 11, lattice_src=lat48
    )
    assert r.passed
    assert r.n_samples == 800


def test_conformal_scaling_gff(lat48):
    phi = disk_bump(0.3 + 0.0j, 0.25)
    r = vfy.test_conformal_invariance("gff", Mobius(2.0, 0, 0, 1), phi, 800, 12, lattice_src=lat48)
    assert r.passed
    assert "O(spacing) bias" in r.notes


def test_conformal_stable_notes_cholesky_order(lat48):
    # off a box the stable field U^-1 xi depends on the Cholesky site
    # order, so its law is not even rotation invariant; the report must
    # say so
    phi = disk_bump(0.3 + 0.0j, 0.25)
    r = vfy.test_conformal_invariance(
        "stable", Mobius(2.0, 0, 0, 1), phi, 800, 13, lattice_src=lat48, alpha=1.5
    )
    assert "depends on the Cholesky site order" in r.notes


def test_conformal_validation(lat48):
    phi = disk_bump(0.3 + 0.0j, 0.25)
    with pytest.raises(DomainError):
        vfy.test_conformal_invariance(
            "cauchy", Mobius(np.exp(0.1j), 0, 0, 1), phi, 100, 1, lattice_src=lat48
        )
    with pytest.raises(DomainError):
        # a translation has no derivable image lattice
        vfy.test_conformal_invariance("gff", Mobius(1, 0.2, 0, 1), phi, 100, 1, lattice_src=lat48)


def test_image_lattice_reads_the_coefficients(lat48):
    scaled = vfy._image_lattice(lat48, Mobius(2.0, 0, 0, 1))
    assert scaled.spacing == 2.0 * lat48.spacing
    assert np.array_equal(scaled.interior_ij, lat48.interior_ij)
    # a rotation by pi maps the unit circle onto itself: the source lattice
    # itself comes back, so its cached factor is reused
    assert vfy._image_lattice(lat48, Mobius(-1, 0, 0, 1)) is lat48
    with pytest.raises(DomainError):
        vfy._image_lattice(lat48, Mobius(1, 0.2, 0, 1))


# ---------------------------------------------------------------------------
# aggregated characterization
# ---------------------------------------------------------------------------


def test_characterize_brownian_consistent():
    for seed in (31, 32, 33):
        v = characterize_bm(bm_path(LONG_GRID, 3000, seed), seed=seed)
        assert v.consistent
        assert v.overall == "consistent-with-BM"
        assert v.sigma_hat == pytest.approx(1.0, rel=0.05)


def test_characterize_report_inventory():
    v = characterize_bm(bm_path(LONG_GRID, 2000, 34), seed=34)
    keys = set(v.reports)
    assert {"continuity", "scaling[c=2]", "scaling[c=4]",
            "independent_increments", "moment_bootstrap", "normality"} <= keys
    assert sum(k.startswith("harness[") for k in keys) == 3


def test_characterize_without_refinement_points():
    v = characterize_bm(bm_path(SHORT_GRID, 2000, 85), seed=85)
    assert v.consistent
    assert "not exercised" in v.reports["continuity"].notes


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-13])
def test_continuity_base_is_scale_free(scale):
    # the refinement points u(1 + d) are looked up by the path's one
    # relative grid rule, so a grid in small units picks the same base as
    # the unit grid
    g = np.asarray(DEFAULT_U_GRID) * scale
    r = vfy._continuity_report(bm_path(g, 500, 87))
    assert f"at u={scale:g}:" in r.notes


def test_battery_is_scale_free():
    # on 2 x DEFAULT_U_GRID the first triple starts at 1, so the
    # moment-bootstrap split u0 = 1 and its fallback, the first triple's
    # start, pick the same column on both grids
    g = 2.0 * np.asarray(DEFAULT_U_GRID)
    Y = bm_path(g, 2000, 5)
    small = ProcessPath(1e-13 * g, np.sqrt(1e-13) * Y.replicas)
    a, b = characterize_bm(Y, seed=5), characterize_bm(small, seed=5)
    assert a.overall == b.overall == "consistent-with-BM"
    assert len(a.reports) == len(b.reports) == 9
    for ra, rb in zip(a.reports.values(), b.reports.values()):
        assert ra.passed == rb.passed
        assert rb.statistic == pytest.approx(ra.statistic, rel=1e-6)
        # variances print in significant digits, not as 0.0000
        assert "0.0000" not in rb.notes


def test_characterize_rejects_levy_on_scaling():
    v = characterize_bm(levy_path(LONG_GRID, 3000, 91, alpha=1.5), seed=91)
    assert not v.consistent
    assert v.overall.startswith("rejected(")
    assert "scaling" in v.overall


def test_characterize_rejects_ar1_on_independence():
    v = characterize_bm(ar1_increment_path(LONG_GRID, 3000, 92, rho=0.3), seed=91)
    assert not v.consistent
    assert "independent_increments" in v.overall


def test_characterize_rejects_compound_poisson_on_normality():
    v = characterize_bm(compound_poisson_path(LONG_GRID, 3000, 93), seed=91)
    assert not v.consistent
    assert "normality" in v.overall


def test_characterize_zero_path_degenerate():
    Z = ProcessPath(np.asarray(SHORT_GRID), np.zeros((vfy.MIN_BATTERY_REPLICAS, 4)))
    v = characterize_bm(Z)
    assert v.consistent
    assert v.sigma_hat == 0.0
    assert "degenerate" in v.reports


def test_characterize_constant_path_degenerate():
    # np.var of a column of 0.1s is 7.7e-34, not 0; the rule is exact
    C = ProcessPath(np.asarray(SHORT_GRID), np.full((vfy.MIN_BATTERY_REPLICAS, len(SHORT_GRID)), 0.1))
    v = characterize_bm(C)
    assert v.consistent
    assert "degenerate" in v.reports


def test_characterize_degenerate_rule_is_scale_free():
    # a tiny path is not a zero path: Levy motion in units of 1e-30 (grid)
    # and 1e-16 (values) is rejected as it is at unit scale
    L = levy_path(DEFAULT_U_GRID, 2000, 5, alpha=1.5)
    small = ProcessPath(L.grid * 1e-30, L.replicas * 1e-16)
    for path in (L, small):
        v = characterize_bm(path, seed=5)
        assert not v.consistent
        assert "degenerate" not in v.reports


def test_characterize_grid_validation():
    with pytest.raises(DomainError):
        characterize_bm(bm_path((1.0, 2.0, 4.0), 500, 1))
    with pytest.raises(DomainError):
        characterize_bm(bm_path((1.0, 1.1, 1.2, 1.3), 500, 1))
    # a grid point at 0 would make (0, 0, 0) a dyadic triple
    with pytest.raises(DomainError, match="needs a positive grid"):
        characterize_bm(bm_path((0.0, 0.25, 0.5, 1.0, 2.0), 500, 1))
    # the replica count is checked with the grid, before any sub-test runs
    with pytest.raises(DomainError, match="needs at least 100 replicas"):
        characterize_bm(bm_path(SHORT_GRID, 99, 1))
    with pytest.raises(DomainError, match="needs at least 100 replicas"):
        characterize_bm(ProcessPath(np.asarray(SHORT_GRID), np.zeros((0, 4))))


def test_verdict_derives_overall_from_its_reports():
    v = characterize_bm(bm_path(SHORT_GRID, 500, 86), seed=86)
    assert v.consistent
    assert CharBMVerdict(v.reports, v.sigma_hat).overall == "consistent-with-BM"
    fail = {
        name: vfy.TestReport(name, 2.0, None, 1.0, 100)
        for name in ("normality", "continuity", "scaling[c=2]")
    }
    reports = {**v.reports, **fail, "extra": vfy.TestReport("extra", 0.0, None, 1.0, 100)}
    verdict = CharBMVerdict(reports, v.sigma_hat)
    assert not verdict.consistent
    # the failed names in the order of the reports, not of `fail`
    assert verdict.overall == "rejected(continuity,scaling[c=2],normality)"
    with pytest.raises(TypeError):
        CharBMVerdict(reports=v.reports, sigma_hat=v.sigma_hat, overall="consistent-with-BM")
