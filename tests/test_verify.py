"""Tests for the statistical battery: report plumbing, the shared
primitives, each single-criterion test against its null and a designated
adversary, and the aggregated path-law characterization."""

import itertools
import json
from dataclasses import asdict

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


def test_distance_correlation_rejects_unpaired_samples():
    # above the cap the subsample would pair y[idx] with x[idx] silently,
    # below it the centring would fail on a bare broadcast error
    rng = replica_rng(8, 1)
    for nx, ny in ((1000, 2000), (300, 200), (2000, 10)):
        with pytest.raises(DomainError, match="paired samples"):
            distance_correlation(rng.standard_normal(nx), rng.standard_normal(ny))
    # a sample is 1-D or one row per sample: a 0-d sample escaped as a
    # TypeError from len(), an (n, 0) one as an AxisError and a 3-D one as
    # a broadcasting ValueError
    good = rng.standard_normal(300)
    for bad in (np.float64(0.5), np.zeros((300, 0)), rng.standard_normal((300, 2, 2))):
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(DomainError, match="1-D samples or 2-D samples"):
                distance_correlation(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_distance_correlation_rejects_non_finite_samples(bad):
    # (nan, nan) came back, which a gate reads as a failure, not an error
    rng = replica_rng(8, 2)
    x, y = rng.standard_normal(300), rng.standard_normal(300)
    x[17] = bad
    for a, b in ((x, y), (y, x)):
        with pytest.raises(DomainError, match="finite"):
            distance_correlation(a, b)


def test_distance_correlation_of_a_regular_simplex_ties_every_permutation():
    # all distances among the rows of I are equal, so the cross term is the
    # same under every permutation: its moments are rounding noise, p is 1
    y = replica_rng(8, 0).standard_normal(7)
    assert distance_correlation(np.eye(7), y)[1] == 1.0
    assert distance_correlation(y, np.eye(7))[1] == 1.0


def test_distance_correlation_caps_large_samples():
    rng = replica_rng(9, 0)
    x = rng.standard_normal(3000)
    t, p = distance_correlation(x, x**2, seed=2)
    assert p < 0.01
    # a sample above 800 is read through the seed's subsample of 800
    idx = replica_rng(2, 0).choice(3000, size=800, replace=False)
    assert distance_correlation(x[idx], x[idx] ** 2) == (t, p)


def test_distance_correlation_is_free_of_units():
    # the statistic and every permutation moment scale with the data's
    # units, so t and p agree at 1e-8 units up to rounding
    rng = replica_rng(12, 0)
    x = rng.standard_normal(400)
    y = rng.standard_normal(400)
    t, p = distance_correlation(x, y, seed=3)
    assert 0.02 < p < 0.98
    t_small, p_small = distance_correlation(1e-8 * x, 1e-8 * y, seed=3)
    assert p_small == pytest.approx(p, rel=1e-12)
    assert t_small == pytest.approx(t, rel=1e-12)


def test_distance_correlation_needs_six_samples():
    # the third permutation moment divides by (n)_6
    rng = replica_rng(14, 0)
    with pytest.raises(DomainError):
        distance_correlation(rng.standard_normal(5), rng.standard_normal(5))
    t, p = distance_correlation(rng.standard_normal(6), rng.standard_normal(6))
    assert 0.0 <= p <= 1.0


def _dcor_case(kind, n):
    """(x, y) of n samples: 1-D and 2-D y, and compound Poisson increments,
    about 60% exact zeros, so that many distances tie."""
    rng = replica_rng(13, 0)
    x = rng.standard_normal(n)
    if kind == "1d":
        return x, rng.standard_normal(n)
    if kind == "2d":
        return x, np.column_stack([rng.standard_normal(n), 0.1 * x + rng.standard_normal(n)])
    inc = np.diff(compound_poisson_path((0.1, 0.2, 0.3, 0.4), n, 17, rate=5.0).replicas, axis=1)
    return inc[:, 0], inc[:, 1:]


# The whole-matrix formulas that distance_correlation evaluates in place,
# one fresh array per step: its (t, p) must equal this reference's bits.


def _dist_matrix(v):
    v = np.asarray(v, float)
    if v.ndim == 1:
        return np.abs(v[:, None] - v[None, :])
    sq = 0.0
    for c in v.T:
        diff = c[:, None] - c[None, :]
        sq = sq + diff * diff
    return np.sqrt(sq)


def _center(d):
    return d - d.mean(axis=0) - d.mean(axis=1)[:, None] + d.mean()


def _centred_pair(x, y):
    return _center(_dist_matrix(x)), _center(_dist_matrix(y))


def _trace_free(A):
    n = len(A)
    t = np.trace(A) / (n - 1)
    out = A + t / n
    out.flat[:: n + 1] -= t
    return out


def _graph_sums(A):
    d = A.diagonal()
    A2 = A * A
    return {
        (1, 2, 0): np.sum(d * d),
        (2, 0, 2): np.sum(A2),
        (1, 3, 0): np.sum(d * d * d),
        (2, 0, 3): np.sum(A2 * A),
        (2, 1, 2): np.sum(d * A2.sum(axis=1)),
        (2, 2, 1): np.einsum("i,ij,j->", d, A, d),
        (3, 0, 1): np.sum((A @ A.T) * A),
    }


def _reference_dcor(x, y, seed, cap=800):
    x, y = np.asarray(x, float), np.asarray(y, float)
    n = len(x)
    if n > cap:
        idx = replica_rng(seed, 0).choice(n, size=cap, replace=False)
        x, y, n = x[idx], y[idx], cap
    A, B = _centred_pair(x, y)
    denom = np.sqrt(np.mean(A * A) * np.mean(B * B))
    if denom < 1e-300:
        return 0.0, 1.0
    t0 = float(np.sqrt(max(np.mean(A * B), 0.0) / denom))
    A, B = _trace_free(A), _trace_free(B)
    var, mu3 = vfy._permutation_moments(_graph_sums(A), _graph_sums(B), n)
    if var <= (1e-12 * n * n * denom) ** 2:
        return t0, 1.0
    return t0, vfy._pearson3_sf(np.sum(A * B) / np.sqrt(var), mu3 / var**1.5)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_distance_correlation_matches_whole_matrix_reference_bits(monkeypatch, threads):
    # the in-place sides on the replica pool keep every element's arithmetic
    # and every reduction's operands, so t and p are equal, not close
    monkeypatch.setenv("GFFFORGE_THREADS", threads)
    cases = [_dcor_case(kind, n) for kind in ("1d", "2d", "compound-poisson-ties") for n in (7, 200, 800)]
    big = replica_rng(18, 0).standard_normal((2000, 2))
    cases.append((big, np.hypot(big[:, 0], big[:, 1]) + replica_rng(18, 1).standard_normal(2000)))
    for x, y in cases:
        assert distance_correlation(x, y, seed=5) == _reference_dcor(x, y, seed=5)


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("kind", ["1d", "2d", "compound-poisson-ties"])
def test_permutation_moments_match_enumeration(kind, n):
    A, B = _centred_pair(*_dcor_case(kind, n))
    perms = np.array(list(itertools.permutations(range(n))))
    S = np.einsum("ij,pij->p", A, B[perms[:, :, None], perms[:, None, :]])
    mean = S.mean()
    var = np.mean((S - mean) ** 2)
    mu3 = np.mean((S - mean) ** 3)
    assert abs(mu3) > 1e-6 * var**1.5  # a skewness the tail depends on
    A0, B0 = vfy._trace_free(A.copy()), vfy._trace_free(B.copy())
    # the trace-free pair's statistic is S - E[S] under every permutation
    S0 = np.einsum("ij,pij->p", A0, B0[perms[:, :, None], perms[:, None, :]])
    assert np.max(np.abs(S0 - (S - mean))) <= 1e-10 * np.sqrt(var)
    assert mean == pytest.approx(np.trace(A) * np.trace(B) / (n - 1), rel=1e-10)
    ga, gb = (vfy._graph_sums(M, np.empty_like(M)) for M in (A0, B0))
    got_var, got_mu3 = vfy._permutation_moments(ga, gb, n)
    assert got_var == pytest.approx(var, rel=1e-10)
    assert got_mu3 / got_var**1.5 == pytest.approx(mu3 / var**1.5, rel=1e-10)


@pytest.mark.parametrize("k", [2, 3])
def test_moment_weights_match_the_unmemoised_derivation(monkeypatch, k):
    # _graph_key is memoised on its partition: the weights keep their bits,
    # and k = 3 asks for 203 distinct graphs 2,471 times
    memo = vfy._moment_weights(k)
    vfy._graph_key.cache_clear()
    again = vfy._moment_weights.__wrapped__(k)
    calls = {2: (15, 60), 3: (203, 2471)}[k]
    info = vfy._graph_key.cache_info()
    assert (info.misses, info.hits + info.misses) == calls
    monkeypatch.setattr(vfy, "_graph_key", vfy._graph_key.__wrapped__)
    direct = vfy._moment_weights.__wrapped__(k)
    assert np.array_equal(memo, direct) and np.array_equal(again, direct)


def test_pearson3_tail_matches_scipy():
    from scipy import stats

    for skew in (-1.5, -0.4, 0.0, 0.3, 1.0, 2.5):
        for z in (-4.0, -1.0, 0.0, 0.5, 2.0, 5.0):
            want = stats.pearson3.sf(z, skew)
            assert vfy._pearson3_sf(z, skew) == pytest.approx(want, rel=1e-9, abs=1e-300)


def _permutation_p(x, y, n_perm, seed):
    """(1 + hits) / (1 + n_perm) over sampled permutations of the cross term."""
    A, B = _centred_pair(x, y)
    s0 = np.sum(A * B)
    rng = replica_rng(seed, 1)
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(len(A))
        hits += np.sum(A * B.take(perm, 0).take(perm, 1)) >= s0 - 1e-12 * abs(s0)
    return (1.0 + hits) / (1.0 + n_perm)


def test_distance_correlation_matches_permutation_reference():
    # agreement with 4,999 sampled permutations at n = 200: within 20% of
    # the reference p or 3 of its standard errors
    rng = replica_rng(15, 0)
    x = rng.standard_normal(200)
    tied = _dcor_case("compound-poisson-ties", 200)
    cases = [
        (x, rng.standard_normal(200)),
        (x, rng.standard_normal((200, 2))),
        (x, 0.08 * x + rng.standard_normal(200)),
        tied,
    ]
    for k, (a, b) in enumerate(cases):
        want = _permutation_p(a, b, 4999, seed=k)
        assert 0.005 < want < 0.98  # interior: a wrong tail would move it
        _, p = distance_correlation(a, b)
        assert abs(p - want) <= max(0.2 * want, 3.0 * np.sqrt(want * (1 - want) / 4999))


def test_independence_gates_stay_finite_for_a_vanishing_p():
    # a path whose every increment repeats its past: dCor of x against x has
    # a p far below 1e-100, and one that underflows to 0 must still give a
    # finite gate, which report.json can hold
    assert 1.0 < vfy._p_gate(0.0) < np.inf
    xi = replica_rng(16, 0).standard_normal(400)
    eta = replica_rng(17, 0).standard_normal(400)
    grid = np.array([1.0, 2.0, 3.0, 4.0])
    assert distance_correlation(xi, xi)[1] < 1e-100
    reports = [
        vfy.test_independent_increments(ProcessPath(grid, np.outer(xi, grid))),
        vfy.test_harness(ProcessPath(grid, np.outer(xi, grid) + np.outer(eta, grid**2)), 1, 2, 4),
    ]
    for r in reports:
        assert not r.passed
        assert np.isfinite(r.statistic)
        json.dumps(asdict(r), allow_nan=False)


def test_sigma_hat_recovers_diffusivity():
    Y = bm_path(LONG_GRID, 4000, 21, sigma=2.0)
    assert sigma_hat(Y) == pytest.approx(2.0, rel=0.03)


def test_sigma_hat_needs_two_grid_points_and_two_replicas():
    # one grid point has no increment, one replica no variance: numpy returned
    # nan for either, with a RuntimeWarning
    for Y in (ProcessPath([1.0], np.zeros((5, 1))), ProcessPath([1.0, 2.0], np.zeros((1, 2)))):
        with pytest.raises(DomainError, match="two grid points and two replicas"):
            sigma_hat(Y)


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
    # an infinite factor paired every u with "inf u", read as the first column
    with pytest.raises(DomainError, match="no grid pair"):
        vfy.test_brownian_scaling(Y, np.inf)


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


@pytest.mark.parametrize("rate", [-1.0, 0.0, np.nan, np.inf])
def test_compound_poisson_rejects_a_rate_outside_0_inf(rate):
    with pytest.raises(DomainError, match="jump rate"):
        compound_poisson_path(SHORT_GRID, 10, 1, rate=rate)


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
    with pytest.raises(DomainError, match="not on the path grid"):
        vfy.test_harness(Y, 1.0, 2.0, np.inf)  # Y(inf) read the first column


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
    # u0 = inf read the first column twice
    with pytest.raises(DomainError, match="not on the path grid"):
        vfy.test_moment_bootstrap(bm_path(SHORT_GRID, 500, 73), u0=np.inf)


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
    # law "gff" ignored alpha: the report at alpha 1.5 was the alpha = 2 one
    with pytest.raises(DomainError, match="alpha = 2 case"):
        vfy.test_conformal_invariance(
            "gff", Mobius(2.0, 0, 0, 1), phi, 50, 12, lattice_src=lat48, alpha=1.5
        )


def test_image_lattice_refuses_a_map_of_the_disk_onto_its_outside():
    # |f| = 1 on the unit circle, but f(0) = -a lies outside the disk: the
    # image of the disk is its outside.  The source lattice was returned,
    # and the report failed (KS 0.51) against an all-zero image pairing
    lat = disk_lattice(24)
    a = 1.7 + 0.3j
    f = Mobius(1, -a, -np.conj(a), 1)
    with pytest.raises(DomainError, match="cannot derive an image lattice"):
        vfy._image_lattice(lat, f)
    with pytest.raises(DomainError, match="cannot derive an image lattice"):
        vfy.test_conformal_invariance("gff", f, disk_bump(0.3, 0.25), 200, 3, lattice_src=lat)


def test_image_lattice_reads_a_over_d_only_for_a_scaling():
    # z -> 1/z has a = d = 0: a / d raised a bare ZeroDivisionError before b
    # and c were read; it maps the circle onto itself but sends 0 to infinity
    with pytest.raises(DomainError, match="cannot derive an image lattice"):
        vfy._image_lattice(disk_lattice(24), Mobius(0, 1, 1, 0))
    # a disk automorphism with f(0) inside the disk keeps the source lattice
    lat = disk_lattice(24)
    assert vfy._image_lattice(lat, Mobius(1, -0.3, -0.3, 1)) is lat


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
