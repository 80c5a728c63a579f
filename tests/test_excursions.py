"""Excursion hitting laws: analytic oracles and the exact-exit sampler."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from gffforge import excursions
from gffforge.errors import DomainError
from gffforge.excursions import (
    ExcursionSample,
    arc_mass,
    continue_paths,
    hitting_cdf,
    hitting_density,
    ks_distance,
    sample_excursion_hits,
    total_mass,
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
    assert ks_distance(s.angles) < 0.02


def test_markov_continuation(base_sample):
    # excursions reaching radius 1 continued to radius 2 reproduce the
    # radius-2 hit ensemble: correct mass and (1/2) sin(theta) angles
    s = base_sample
    pts = 1.0 * np.exp(1j * s.angles)
    mask, ang2 = continue_paths(pts, 2.0, seed=103)
    mass2 = s.weight * np.count_nonzero(mask) / (s.n_paths * s.eps)
    assert abs(mass2 - total_mass(2.0)) < 0.05 * total_mass(2.0)
    assert ks_distance(ang2[mask]) < 0.03


def test_markov_continuation_matches_fresh_start(base_sample):
    # fresh Brownian motion launched from analytically drawn hit points
    # must land on radius 2 with the same angle law
    s = base_sample
    pts = 1.0 * np.exp(1j * s.angles)
    mask_a, ang_a = continue_paths(pts, 2.0, seed=107)

    rng = np.random.default_rng(109)
    theta = np.arccos(1.0 - 2.0 * rng.uniform(size=4000))  # inverse cdf of (1/2) sin
    mask_b, ang_b = continue_paths(np.exp(1j * theta), 2.0, seed=113)

    grid = np.linspace(0.0, np.pi, 400)
    aa = np.sort(ang_a[mask_a])
    ecdf_a = np.searchsorted(aa, grid, side="right") / len(aa)
    bb = np.sort(ang_b[mask_b])
    ecdf_b = np.searchsorted(bb, grid, side="right") / len(bb)
    assert np.max(np.abs(ecdf_a - ecdf_b)) < 0.05


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


def test_mass_z_against_finite_eps_closed_form_over_seeds():
    # the exits are exact, so the mass is unbiased for the finite-eps value
    # (4/pi) atan(eps/r)/eps; a z outside 3 s.e. has chance 0.27% a seed,
    # so more than 5 in 100 seeds would mean a bias or a wrong standard error
    r, eps = 1.0, 1e-2
    exact = (4.0 / np.pi) * np.arctan(eps / r) / eps
    z = []
    for seed in range(100):
        s = sample_excursion_hits(r, eps, 10_000, seed=seed)
        z.append((s.mass_estimate - exact) / s.mass_stderr())
    assert np.sum(np.abs(z) <= 3.0) >= 95


def test_continuation_hit_fraction_is_the_harmonic_measure():
    # the quadrant map z -> (R + z)/(R - z) sends the half-disk's arc to the
    # positive imaginary axis, so from z the arc has harmonic measure
    # (2/pi) arg((R + z)/(R - z)): a check independent of the sampler's
    # Cauchy formula
    R, n = 2.0, 200_000
    for k, theta in enumerate(np.linspace(0.2, np.pi - 0.2, 7)):
        z = np.exp(1j * theta)
        p = (2.0 / np.pi) * np.angle((R + z) / (R - z))
        mask, angles = continue_paths(np.full(n, z), R, seed=191 + k)
        assert abs(mask.mean() - p) < 3.0 * np.sqrt(p * (1.0 - p) / n)
        assert np.all((angles[mask] > 0) & (angles[mask] < np.pi))
        assert np.all(np.isnan(angles[~mask]))


_SAMPLE_TO_NPZ = """
import sys
import numpy as np
from gffforge.excursions import sample_excursion_hits
s = sample_excursion_hits(1.0, 1e-3, 200_000, seed=424242)
np.savez(sys.argv[1], angles=s.angles, roots=s.roots, n_absorbed=s.n_absorbed,
         mass=s.mass_estimate)
"""


def test_hit_decisions_ignore_simd_dispatch(tmp_path):
    # criterion 1's sample in a child with numpy's AVX-512 kernels off, as
    # on an AVX2-only CPU: which paths hit and the mass are bit-identical,
    # and only the arccos of the returned angles moves, by at most 1 ulp
    # (measured: 12,373 of 130,593 angles move by exactly 1 ulp;
    # a tan(phi) draw moved them by up to 134,575 ulp).  On a CPU without
    # AVX-512 both runs take the same kernels and this checks nothing.
    from numpy._core._multiarray_umath import __cpu_features__

    off = [f for f in ("AVX512_SPR", "AVX512_ICL", "X86_V4") if __cpu_features__.get(f)]
    src = str(Path(excursions.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": " ".join(off)}
    out = tmp_path / "sample.npz"
    done = subprocess.run([sys.executable, "-c", _SAMPLE_TO_NPZ, str(out)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    child = np.load(out)
    s = sample_excursion_hits(1.0, 1e-3, 200_000, seed=424242)
    assert_array_equal(child["roots"], s.roots)
    assert int(child["n_absorbed"]) == s.n_absorbed
    assert float(child["mass"]) == s.mass_estimate
    assert np.all(np.abs(child["angles"] - s.angles) <= np.spacing(s.angles))


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
        assert_array_equal(s.roots, first.roots)
        assert s.n_absorbed == first.n_absorbed


def test_sampler_validation():
    with pytest.raises(DomainError):
        sample_excursion_hits(1.0, 0.2, 10, seed=0)
    with pytest.raises(DomainError):
        sample_excursion_hits(-1.0, 1e-3, 10, seed=0)
    with pytest.raises(DomainError):
        sample_excursion_hits(1.0, 1e-3, 0, seed=0)
    # r = inf has no last level: a run without end
    for r, eps in ((np.inf, 1e-2), (np.nan, 1e-2), (1.0, np.nan)):
        with pytest.raises(DomainError, match="finite"):
            sample_excursion_hits(r, eps, 20, seed=1)
    # one path has no spread to estimate: an error, not a NaN
    with pytest.raises(DomainError, match="at least 2 paths"):
        sample_excursion_hits(1.0, 1e-2, 1, seed=2).mass_stderr()


def test_sample_rejects_misaligned_hits():
    # only mass_stderr raised on hits of two lengths, a bare ValueError
    good = {"angles": np.array([0.5, 1.0, 1.5]), "roots": np.array([0, 1, 2])}
    for key, bad in (
        ("roots", np.array([0, 1])),
        ("angles", np.array([0.5, 1.0, 1.5, 2.0])),
        ("angles", np.array([[0.5], [1.0], [1.5]])),
        ("roots", np.int64(0)),
    ):
        with pytest.raises(DomainError, match="angles and roots"):
            ExcursionSample(1.0, 1e-2, 5, **{**good, key: bad}, n_absorbed=0)
    # a root of -1 was wrapped onto the last path by np.add.at, and a root
    # of n_paths raised a bare IndexError in mass_stderr
    for bad in ([-1, 1, 2], [0, 1, 5], [0.0, 1.0, 2.0]):
        with pytest.raises(DomainError, match="roots must be integer path indices"):
            ExcursionSample(1.0, 1e-2, 5, **{**good, "roots": np.array(bad)}, n_absorbed=0)
    s = ExcursionSample(1.0, 1e-2, 5, **good, n_absorbed=0)
    assert s.mass_estimate == 3 * 2.0**-6 / (5 * 1e-2)


@pytest.mark.parametrize(
    "n_paths, n_absorbed",
    [(0, 0), (2.5, 0), (True, 0), (np.float64(5.0), 0), (5, -4), (5, 1.5), (5, False)],
    ids=["zero-paths", "fractional-paths", "bool-paths", "float-paths", "negative-absorbed",
         "fractional-absorbed", "bool-absorbed"],
)
def test_sample_rejects_path_counts_that_are_not_counts(n_paths, n_absorbed):
    # n_paths = 0 raised a bare ZeroDivisionError in mass_estimate, 2.5
    # divided the mass by 2.5 paths and then failed in mass_stderr, and a
    # negative n_absorbed was kept
    empty = np.zeros(0), np.zeros(0, dtype=np.int64)
    with pytest.raises(DomainError, match="must be an integer >="):
        ExcursionSample(1.0, 1e-2, n_paths, *empty, n_absorbed)
    s = ExcursionSample(1.0, 1e-2, np.int64(5), *empty, np.int64(0))
    assert s.mass_estimate == 0.0


def test_sample_weight_is_fixed_by_r_and_eps():
    # eps = 2^-10 below r = 1 gives the half-disks 2^-9, ..., 2^-1 and 1:
    # ten exits, nine splits
    s = ExcursionSample(1.0, 2.0**-10, 5, np.zeros(0), np.zeros(0, dtype=np.int64), 0)
    assert s.weight == 2.0**-9
    # the ladder of an infinite r or a zero eps never ends, and NaN passes
    # every loop test
    for r, eps in ((np.inf, 1e-2), (1.0, 0.0), (np.nan, 1e-2), (1.0, np.nan), (1.0, -1e-2)):
        with pytest.raises(DomainError, match="finite r > 0 and eps > 0"):
            ExcursionSample(r, eps, 5, np.zeros(0), np.zeros(0, dtype=np.int64), 0)


@pytest.mark.parametrize(
    "r, eps, n, seed", [(1.0, 1e-3, 200_000, 7), (1.0, 1e-2, 20_000, 5), (2.0, 3e-3, 50_000, 11)]
)
def test_one_weight_matches_the_per_hit_weight_formulas(r, eps, n, seed):
    # reference: a per-hit weight array, summed, added up per root and
    # cumulated into a weighted ECDF; every weight is a power of two, so
    # the one-weight forms agree bit for bit
    s = sample_excursion_hits(r, eps, n, seed)
    w = np.full(len(s.angles), s.weight)
    assert s.mass_estimate == float(w.sum() / (s.n_paths * s.eps))
    per_root = np.zeros(s.n_paths)
    np.add.at(per_root, s.roots, w / s.eps)
    assert s.mass_stderr() == float(per_root.std(ddof=1) / np.sqrt(s.n_paths))
    order = np.argsort(s.angles)
    v, w = s.angles[order], w[order]
    ecdf = np.cumsum(w) / w.sum()
    model = hitting_cdf(v)
    lo = np.concatenate([[0.0], ecdf[:-1]])
    assert ks_distance(s.angles) == float(np.max(np.maximum(np.abs(ecdf - model), np.abs(lo - model))))


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


def test_ks_distance_validation():
    with pytest.raises(DomainError, match="no values to compare"):
        ks_distance(np.array([]))
    with pytest.raises(DomainError, match="1-D"):
        ks_distance(np.array([[1.0, 2.0]]))
    # a non-finite value gave NaN
    for v in ([1.0, np.nan], [np.inf, 1.0], [-np.inf, 1.0]):
        with pytest.raises(DomainError, match="values must be finite"):
            ks_distance(np.array(v))


def test_ks_distance_detects_wrong_law():
    rng = np.random.default_rng(151)
    v = rng.uniform(0.0, np.pi, size=2000)  # uniform, not sine
    assert ks_distance(v) > 0.1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _hits_csv(sample) -> str:
    # reference rendering of hits.csv: one row per hit
    rows = ["hit,angle,eps,weight\n"]
    for a in sample.angles:
        rows.append(f"1,{a:.17g},{sample.eps:.17g},{sample.weight:.17g}\n")
    return "".join(rows)


def test_to_csv_matches_records_rendering(tmp_path):
    # a sampled batch; no hits, which writes the header only; and 13,000
    # hand-built hits over four 4,096-row blocks, at another weight
    rng = np.random.default_rng(181)
    n = 13_000
    samples = (
        sample_excursion_hits(1.0, 1e-2, 400, seed=179),
        ExcursionSample(1.0, 1e-2, 5, np.zeros(0), np.zeros(0, dtype=np.int64), 0),
        ExcursionSample(2.0, 3e-3, 5, rng.uniform(0.0, np.pi, n), rng.integers(0, 5, n), 0),
    )
    f = tmp_path / "hits.csv"
    for s in samples:
        s.to_csv(f)
        assert f.read_bytes() == _hits_csv(s).encode()
        if not len(s.angles):
            continue
        # the 17 significant digits read back exactly
        rows = np.genfromtxt(f, delimiter=",", skip_header=1, ndmin=2)
        assert len(rows) == len(s.angles)
        assert np.all(rows[:, 0] == 1)
        assert_array_equal(rows[:, 1], s.angles)
        assert np.all(rows[:, 3] == s.weight)
