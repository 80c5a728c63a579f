"""Excursion hitting laws: analytic oracles and the killed-path sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from gffforge import excursions
from gffforge.errors import DomainError
from gffforge.excursions import (
    arc_mass,
    continue_paths,
    hitting_cdf,
    hitting_density,
    sample_excursion_hits,
    total_mass,
    weighted_ks_distance,
)
from gffforge.geometry import gauss_legendre

TARGET = 4.0 / np.pi


# ---------------------------------------------------------------------------
# analytic laws
# ---------------------------------------------------------------------------


def test_total_mass_values():
    assert abs(total_mass(1.0) - TARGET) < 1e-15
    assert abs(total_mass(2.0) - 2.0 / np.pi) < 1e-15
    # r = inf gave mass 0.0 where NaN already raised
    for r in (0.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            total_mass(r)


def test_hitting_density_values():
    assert abs(hitting_density(1.0, np.pi / 2.0) - 2.0 / np.pi) < 1e-15
    assert hitting_density(1.0, 0.0) == 0.0
    assert abs(hitting_density(1.0, np.pi)) < 1e-15
    with pytest.raises(DomainError):
        hitting_density(1.0, -0.1)
    for r in (-1.0, np.inf):
        with pytest.raises(DomainError):
            hitting_density(r, 0.5)


def test_hitting_density_integrates_to_total_mass():
    for r in (0.5, 1.0, 2.0):
        t, w = gauss_legendre(64, 0.0, np.pi)
        quad = np.sum(w * hitting_density(r, t))
        assert abs(quad - total_mass(r)) < 1e-12


def test_hitting_cdf_values():
    assert hitting_cdf(0.0) == 0.0
    assert abs(hitting_cdf(np.pi) - 1.0) < 1e-15
    assert abs(hitting_cdf(np.pi / 2.0) - 0.5) < 1e-15
    t = np.linspace(0.0, np.pi, 100)
    assert np.all(np.diff(hitting_cdf(t)) >= 0)


def test_arc_mass_values():
    assert abs(arc_mass(1.0, 0.0, np.pi / 2.0) - 2.0 / np.pi) < 1e-15
    assert arc_mass(1.0, 0.7, 0.7) == 0.0
    for r in (0.5, 1.0, 3.0):
        assert abs(arc_mass(r, 0.0, np.pi) - total_mass(r)) < 1e-14
    with pytest.raises(DomainError):
        arc_mass(1.0, 0.5, 0.2)
    with pytest.raises(DomainError):
        arc_mass(1.0, -0.1, 0.2)
    with pytest.raises(DomainError):
        arc_mass(np.inf, 0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    r=st.floats(min_value=0.1, max_value=10.0),
    cuts=st.tuples(
        st.floats(min_value=0.0, max_value=np.pi),
        st.floats(min_value=0.0, max_value=np.pi),
        st.floats(min_value=0.0, max_value=np.pi),
    ),
)
def test_arc_mass_additive(r, cuts):
    a, b, c = sorted(cuts)
    whole = arc_mass(r, a, c)
    split = arc_mass(r, a, b) + arc_mass(r, b, c)
    assert abs(whole - split) < 1e-12 * max(1.0, abs(whole))


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def base_sample():
    return sample_excursion_hits(1.0, 5e-3, 25000, seed=101)


def test_mass_estimate(base_sample):
    s = base_sample
    assert abs(s.mass_estimate - TARGET) < 4.0 * s.mass_stderr()
    assert s.mass_stderr() > 0


def test_hit_angle_law(base_sample):
    s = base_sample
    assert len(s.angles) >= 10000
    assert weighted_ks_distance(s.angles, s.weights) < 0.02


def test_markov_continuation(base_sample):
    # excursions reaching radius 1 continued to radius 2 reproduce the
    # radius-2 hit ensemble: correct mass and (1/2) sin(theta) angles
    s = base_sample
    pts = 1.0 * np.exp(1j * s.angles)
    mask, ang2 = continue_paths(pts, 2.0, seed=103)
    w2 = s.weights[mask]
    mass2 = w2.sum() / (s.n_paths * s.eps)
    assert abs(mass2 - total_mass(2.0)) < 0.05 * total_mass(2.0)
    assert weighted_ks_distance(ang2[mask], w2) < 0.03


def test_markov_continuation_matches_fresh_start(base_sample):
    # fresh Brownian motion launched from analytically drawn hit points
    # must land on radius 2 with the same angle law
    s = base_sample
    pts = 1.0 * np.exp(1j * s.angles)
    mask_a, ang_a = continue_paths(pts, 2.0, seed=107)
    w_a = s.weights[mask_a]

    rng = np.random.default_rng(109)
    theta = np.arccos(1.0 - 2.0 * rng.uniform(size=4000))  # inverse cdf of (1/2) sin
    mask_b, ang_b = continue_paths(np.exp(1j * theta), 2.0, seed=113)

    grid = np.linspace(0.0, np.pi, 400)
    ecdf_a = np.array([w_a[ang_a[mask_a] <= g].sum() for g in grid]) / w_a.sum()
    bb = np.sort(ang_b[mask_b])
    ecdf_b = np.searchsorted(bb, grid, side="right") / len(bb)
    assert np.max(np.abs(ecdf_a - ecdf_b)) < 0.05


def test_split_and_literal_modes_agree():
    split = sample_excursion_hits(1.0, 1e-2, 20000, seed=127)
    literal = sample_excursion_hits(1.0, 1e-2, 60000, seed=131, split=False)
    gap = abs(split.mass_estimate - literal.mass_estimate)
    se = np.hypot(split.mass_stderr(), literal.mass_stderr())
    assert gap < 4.0 * se
    # splitting multiplies the effective hit yield
    assert len(split.angles) / split.n_paths > 3.0 * len(literal.angles) / literal.n_paths


def test_mass_consistent_down_the_eps_ladder():
    # any start-height bias stays below the sampler's own noise floor all
    # the way down the nominal-convergence regime
    for eps, n in ((1e-2, 30000), (1e-3, 20000)):
        s = sample_excursion_hits(1.0, eps, n, seed=137)
        assert abs(s.mass_estimate - TARGET) < 3.0 * s.mass_stderr()


def test_mass_scales_with_radius():
    # r * mass_estimate is the scale-free constant 4/pi
    s = sample_excursion_hits(2.0, 2e-2, 15000, seed=141)
    assert abs(2.0 * s.mass_estimate - TARGET) < 3.0 * 2.0 * s.mass_stderr()


def test_mass_exact_at_finite_eps():
    # seen from i*eps the arc has harmonic measure (4/pi) atan(eps/r)
    # exactly, so at finite eps the mass has a closed form with no
    # eps -> 0 bias; at this n the 3-s.e. gate is about 1.4% of the mass
    r, eps = 1.0, 1e-2
    s = sample_excursion_hits(r, eps, 400_000, seed=173)
    exact = (4.0 / np.pi) * np.arctan(eps / r) / eps
    assert abs(s.mass_estimate - exact) < 3.0 * s.mass_stderr()


def test_shell_width_convergence(monkeypatch):
    # halving both widths of the eps-shell (absorption floor and hit
    # shave) must not move the estimate beyond joint noise
    a = sample_excursion_hits(1.0, 1e-2, 15000, seed=139)
    monkeypatch.setattr(excursions, "_FLOOR", excursions._FLOOR / 2)
    monkeypatch.setattr(excursions, "_HIT_SHAVE", 1.0 - (1.0 - excursions._HIT_SHAVE) / 2)
    b = sample_excursion_hits(1.0, 1e-2, 15000, seed=139)
    gap = abs(a.mass_estimate - b.mass_estimate)
    assert gap < 3.0 * np.hypot(a.mass_stderr(), b.mass_stderr())


def test_sample_independent_of_thread_count(monkeypatch):
    # streams are keyed by fixed path blocks, not by worker, so the thread
    # count cannot change the sample; a small block makes the run span six
    # blocks
    monkeypatch.setattr(excursions, "_PATH_BLOCK", 512)
    runs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("GFFFORGE_THREADS", threads)
        runs.append(sample_excursion_hits(1.0, 1e-2, 3000, seed=167))
    first = runs[0]
    for s in runs[1:]:
        assert_array_equal(s.angles, first.angles)
        assert_array_equal(s.weights, first.weights)
        assert_array_equal(s.roots, first.roots)
        assert s.n_absorbed == first.n_absorbed


def test_sampler_validation():
    with pytest.raises(DomainError):
        sample_excursion_hits(1.0, 0.2, 10, seed=0)
    with pytest.raises(DomainError):
        sample_excursion_hits(-1.0, 1e-3, 10, seed=0)
    with pytest.raises(DomainError):
        sample_excursion_hits(1.0, 1e-3, 0, seed=0)
    # r = inf never reaches the last split level: mass 0, or a run without end
    for r, eps in ((np.inf, 1e-2), (np.nan, 1e-2), (1.0, np.nan)):
        with pytest.raises(DomainError, match="finite"):
            sample_excursion_hits(r, eps, 20, seed=1)
    # one path has no spread to estimate: an error, not a NaN
    with pytest.raises(DomainError, match="at least 2 paths"):
        sample_excursion_hits(1.0, 1e-2, 1, seed=2).mass_stderr()


def test_continue_paths_validation():
    with pytest.raises(DomainError):
        continue_paths(np.array([0.5 - 0.1j]), 2.0, seed=0)
    with pytest.raises(DomainError):
        continue_paths(np.array([3.0 + 1.0j]), 2.0, seed=0)
    # a NaN start fails every stop test and would never return; an
    # infinite target would mark every path absorbed
    for z0, r_target in (
        (0.1 + np.nan * 1j, 2.0),
        (np.nan + 0.1j, 2.0),
        (complex(np.inf, 1.0), 2.0),
        (0.1 + 0.1j, np.inf),
        (0.1 + 0.1j, np.nan),
    ):
        with pytest.raises(DomainError, match="finite"):
            continue_paths(np.array([0.2 + 0.3j, z0]), r_target, seed=1)


def test_weighted_ks_validation():
    with pytest.raises(DomainError):
        weighted_ks_distance(np.array([]), np.array([]))
    # a zero sum gave NaN, a negative weight a distance above 1
    for w in ([0.0, 0.0], [-1.0, 2.0], [1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(DomainError, match="weights"):
            weighted_ks_distance(np.array([1.0, 2.0]), np.array(w))
    # an extra weight was dropped (0.292), a missing one raised IndexError,
    # and a non-finite value gave NaN
    for v, w in (([1.0, 2.0], [1.0, 1.0, 5.0]), ([1.0, 2.0], [1.0]), ([[1.0, 2.0]], [[1.0, 1.0]])):
        with pytest.raises(DomainError, match="one weight per value"):
            weighted_ks_distance(np.array(v), np.array(w))
    for v in ([1.0, np.nan], [np.inf, 1.0], [-np.inf, 1.0]):
        with pytest.raises(DomainError, match="values must be finite"):
            weighted_ks_distance(np.array(v), np.ones(2))


def test_weighted_ks_weight_semantics():
    rng = np.random.default_rng(149)
    v = np.arccos(1.0 - 2.0 * rng.uniform(size=500))
    plain = weighted_ks_distance(v, np.ones_like(v))
    doubled = weighted_ks_distance(np.concatenate([v, v]), np.full(1000, 0.5))
    assert abs(plain - doubled) < 1e-12


def test_weighted_ks_detects_wrong_law():
    rng = np.random.default_rng(151)
    v = rng.uniform(0.0, np.pi, size=2000)  # uniform, not sine
    assert weighted_ks_distance(v, np.ones_like(v)) > 0.1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _hits_csv(sample) -> str:
    # reference rendering of hits.csv: one row per hit, then (literal
    # mode only) one row per path that missed
    rows = ["hit,angle,eps,weight\n"]
    for a, w in zip(sample.angles, sample.weights):
        rows.append(f"1,{a:.17g},{sample.eps:.17g},{w:.17g}\n")
    if sample.mode == "literal":
        rows += [f"0,,{sample.eps:.17g},1\n"] * (sample.n_paths - len(sample.angles))
    return "".join(rows)


@pytest.mark.parametrize("split", [True, False])
def test_to_csv_matches_records_rendering(tmp_path, split):
    s = sample_excursion_hits(1.0, 1e-2, 400, seed=179, split=split)
    if not split:
        assert len(s.angles) < s.n_paths  # so miss rows are written
    f = tmp_path / "hits.csv"
    s.to_csv(f)
    assert f.read_bytes() == _hits_csv(s).encode()
    # the 17 significant digits read back exactly
    rows = np.genfromtxt(f, delimiter=",", skip_header=1, ndmin=2)
    hits = rows[rows[:, 0] == 1]
    assert len(rows) == (len(s.angles) if split else s.n_paths)
    assert_array_equal(hits[:, 1], s.angles)
    assert_array_equal(hits[:, 3], s.weights)
