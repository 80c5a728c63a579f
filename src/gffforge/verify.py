"""Statistical test battery for field averages and their path laws.

Every test returns a TestReport.  Tests carrying a p-value pass when
p >= SIGNIFICANCE; pure-tolerance tests pass when |statistic| <= threshold.
Composite tests normalize each sub-criterion to a gate value that is <= 1
exactly when the criterion holds and report the worst gate as the
statistic with threshold 1.

The independence gates (increments and the bridge harness) take their
distance-correlation p-value from the exact mean, variance and skewness
of the cross term over all permutations of the sample, through a Pearson
type III tail: no permutation is sampled, so the p-value depends on the
seed only through the subsample of a sample above 800.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import factorial, prod

import numpy as np
from scipy.special import gammainc, gammaincc, log_ndtr, ndtr

from .averaging import ProcessPath
from .errors import DomainError
from .fields import _replica_rows, sample_functionals, sample_sas
from .geometry import Mobius, TestFunction, pullback_test_function
from .greens import LatticeDomain
from .rng import parallel_map, replica_rng

__all__ = [
    "SIGNIFICANCE",
    "MIN_BATTERY_REPLICAS",
    "MIN_WICK_SAMPLES",
    "TestReport",
    "CharBMVerdict",
    "test_normality",
    "test_brownian_scaling",
    "test_independent_increments",
    "test_harness",
    "test_moment_bootstrap",
    "test_wick_fourth",
    "test_conformal_invariance",
    "characterize_bm",
    "sigma_hat",
    "anderson_darling_p",
    "distance_correlation",
    "levy_path",
    "compound_poisson_path",
    "ar1_increment_path",
]

SIGNIFICANCE = 0.01
# Smallest samples the tests take: the scaling test compares two halves of
# at least 50 replicas, the independence test needs 100 replicas, and the
# fourth-moment test 1,000 samples.
MIN_BATTERY_REPLICAS = 100
MIN_WICK_SAMPLES = 1000


@dataclass
class TestReport:
    """One test's outcome; ``passed`` is derived by the pass rule:
    p >= SIGNIFICANCE, else |statistic| <= threshold."""

    name: str
    statistic: float
    p_value: float | None
    threshold: float
    n_samples: int
    notes: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        self.statistic = float(self.statistic)
        self.threshold = float(self.threshold)
        self.n_samples = int(self.n_samples)
        if self.p_value is None:
            self.passed = abs(self.statistic) <= self.threshold
        else:
            self.p_value = float(self.p_value)
            self.passed = self.p_value >= SIGNIFICANCE


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def anderson_darling_p(x: np.ndarray) -> tuple:
    """Anderson-Darling A^2 against a normal with fitted mean/variance and
    its finite-sample p-value (the case of both parameters estimated)."""
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    if n < 20:
        raise DomainError("normality test needs at least 20 samples")
    s = x.std(ddof=1)
    if not s > 0:
        raise DomainError("degenerate samples: zero variance")
    z = (x - x.mean()) / s
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (log_ndtr(z) + log_ndtr(-z[::-1])))
    a = a2 * (1.0 + 0.75 / n + 2.25 / n**2)
    if a >= 13.0:
        # the quadratic approximation turns back up past its fitted range
        p = 0.0
    elif a >= 0.6:
        p = np.exp(1.2937 - 5.709 * a + 0.0186 * a * a)
    elif a >= 0.34:
        p = np.exp(0.9177 - 4.279 * a - 1.38 * a * a)
    elif a >= 0.2:
        p = 1.0 - np.exp(-8.318 + 42.796 * a - 59.938 * a * a)
    else:
        p = 1.0 - np.exp(-13.436 + 101.14 * a - 223.73 * a * a)
    return float(a), float(min(max(p, 0.0), 1.0))


def _pearson(x, y) -> float:
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    sx = x.std()
    sy = y.std()
    if sx < 1e-30 or sy < 1e-30:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def _centred_distances(v: np.ndarray, A: np.ndarray, S: np.ndarray) -> float:
    """Fill A with the double-centred distance matrix of the sample v, using
    S as scratch, and return mean(A * A)."""
    if v.ndim == 1:
        np.subtract(v[:, None], v[None, :], out=A)
        np.abs(A, out=A)
    else:
        # one column at a time: no (n, n, dim) array, and the same sums in
        # the same order as a reduction over the last axis
        A.fill(0.0)
        for c in v.T:
            np.subtract(c[:, None], c[None, :], out=S)
            S *= S
            A += S
        np.sqrt(A, out=A)
    # the three means are of the distances, taken before A changes, and
    # each element is ((d - mean0) - mean1) + mean
    m0, m1, m = A.mean(axis=0), A.mean(axis=1), A.mean()
    A -= m0
    A -= m1[:, None]
    A += m
    return np.mean(np.multiply(A, A, out=S))


# The permutation law of a Mantel statistic S(pi) = sum_ij A_ij B_pi(i)pi(j)
# (Mantel 1967), for symmetric double-centred A and B of zero trace, so
# that E[S] = 0.  E[S^k] sums over the set partitions P of the 2k index
# slots (slots 2l and 2l+1 index factor l): with a_P(A) the sum of the k
# factors over indices that are equal exactly within the blocks of P,
# E[S^k] = sum_P a_P(A) a_P(B) / (n)_|P|, (n)_r the falling factorial.
# Mobius inversion on the partition lattice writes a_P through the graph
# sums of the partitions Q that merge blocks of P: Q's blocks are the
# vertices, the factors the edges.  A vertex met by one edge end sums a row
# of A, and a vertex met only by one loop is tr A; both are 0.  For k <= 3
# every other graph is connected and named by (vertices, loops, largest
# multiplicity of a non-loop edge).  The graphs of k edges, with d = diag A:
_GRAPHS = {
    # sum d_i^2, sum a_ij^2
    2: ((1, 2, 0), (2, 0, 2)),
    # sum d_i^3, sum a_ij^3, sum_i d_i sum_j a_ij^2, d^T A d, tr A^3
    3: ((1, 3, 0), (2, 0, 3), (2, 1, 2), (2, 2, 1), (3, 0, 1)),
}


def _set_partitions(m: int) -> list:
    """Every set partition of range(m), as block labels numbered in order
    of first appearance."""
    parts = [[0]]
    for _ in range(1, m):
        parts = [p + [b] for p in parts for b in range(max(p) + 2)]
    return parts


@cache
def _graph_key(labels: tuple):
    """The ``_GRAPHS`` key of the graph whose edge l joins ``labels[2l]``
    and ``labels[2l + 1]``, or None where its sum is 0; memoised, as the
    k = 3 weights ask for 203 distinct graphs 2,471 times."""
    edges = list(zip(labels[::2], labels[1::2]))
    ends = {v: labels.count(v) for v in labels}
    loops = [a for a, b in edges if a == b]
    if 1 in ends.values() or any(ends[v] == 2 for v in loops):
        return None
    links = [tuple(sorted(e)) for e in edges if e[0] != e[1]]
    return len(ends), len(loops), max((links.count(e) for e in links), default=0)


@cache
def _moment_weights(k: int) -> np.ndarray:
    """G with E[S^k] = sum_r g(A)^T G[r - 1] g(B) / (n)_r, g the graph sums
    ``_GRAPHS[k]``: G[r - 1] sums the outer square of a_P's coefficients
    over the partitions P of r blocks."""
    keys = _GRAPHS[k]
    G = np.zeros((2 * k, len(keys), len(keys)))
    for P in _set_partitions(2 * k):
        coef = np.zeros(len(keys))
        for merge in _set_partitions(max(P) + 1):
            key = _graph_key(tuple(merge[b] for b in P))
            if key is not None:
                # the Mobius function of the partition lattice from P to Q
                sizes = [merge.count(b) for b in set(merge)]
                coef[keys.index(key)] += prod((-1) ** (s - 1) * factorial(s - 1) for s in sizes)
        G[max(P)] += np.outer(coef, coef)
    G.flags.writeable = False  # one array, shared by every caller
    return G


def _graph_sums(A: np.ndarray, S: np.ndarray) -> dict:
    """The ``_GRAPHS`` sums of A, using S as scratch.  Each is a numpy sum:
    a BLAS dot splits its sum over threads, so its rounding would follow
    the thread count."""
    d = A.diagonal()
    A2 = np.multiply(A, A, out=S)
    sums = {
        (1, 2, 0): np.sum(d * d),
        (2, 0, 2): np.sum(A2),
        (1, 3, 0): np.sum(d * d * d),
        (2, 1, 2): np.sum(d * A2.sum(axis=1)),
        (2, 2, 1): np.einsum("i,ij,j->", d, A, d),
    }
    sums[(2, 0, 3)] = np.sum(np.multiply(A2, A, out=S))
    # A A^T is A^2 for symmetric A, and numpy computes it by syrk at half
    # the flops of a general product
    sums[(3, 0, 1)] = np.sum(np.multiply(np.matmul(A, A.T, out=S), A, out=S))
    return sums


def _trace_free(A: np.ndarray) -> np.ndarray:
    """Make a double-centred A into A - tr(A)/(n - 1) (I - J/n) in place,
    and return it: still double-centred, of zero trace, and S(pi) of two
    such matrices is S(pi) - E[S] of the originals, as E[S] = tr A tr B /
    (n - 1)."""
    n = len(A)
    t = np.trace(A) / (n - 1)
    A += t / n
    A.flat[:: n + 1] -= t
    return A


def _permutation_moments(ga: dict, gb: dict, n: int) -> tuple:
    """Variance and third central moment of S(pi) over uniform permutations
    pi of n samples, from the ``_GRAPHS`` sums of trace-free double-centred
    A and B."""
    falling = np.cumprod(n - np.arange(6.0))
    moments = []
    for k in (2, 3):
        a = np.array([ga[g] for g in _GRAPHS[k]])
        b = np.array([gb[g] for g in _GRAPHS[k]])
        moments.append(np.einsum("r,u,ruv,v->", 1.0 / falling[: 2 * k], a, _moment_weights(k), b))
    return tuple(moments)


def _pearson3_sf(z: float, skew: float) -> float:
    """Upper tail at z of the Pearson type III law of mean 0, variance 1 and
    this skewness: a gamma law of shape k = 4/skew^2, standardized, and
    reflected for a negative skewness; the normal tail at skewness 0."""
    if skew == 0:
        return float(ndtr(-z))
    k = 4.0 / skew**2
    if skew > 0:
        return float(gammaincc(k, max(k + z * np.sqrt(k), 0.0)))
    return float(gammainc(k, max(k - z * np.sqrt(k), 0.0)))


# largest sample distance_correlation takes whole; a larger one is subsampled
_DCOR_CAP = 800


def distance_correlation(x, y, seed: int = 0) -> tuple:
    """Distance correlation on a size-capped subsample, with the p-value of
    the hypothesis of independence from the exact permutation law.

    With A and B the double-centred distance matrices, relabelling the
    sample by a permutation pi gives the cross term S(pi) =
    sum_ij A_ij B_pi(i)pi(j).  Its mean, variance and skewness over all n!
    permutations are exact (``_permutation_moments``), and the p-value is
    the upper tail of the Pearson type III law with those three moments
    (Mielke, Berry & Johnson 1976).  Nothing is sampled: ``seed`` only
    picks the subsample of a sample larger than ``_DCOR_CAP``.  The p-value is
    free of the data's units and of the BLAS thread count.  The third
    moment needs n >= 6, and x and y pair sample by sample; each is 1-D, or
    2-D with one row per sample.

    The work lives in four n x n float arrays, A, B and a scratch array for
    each (20 MB at the 800 cap), allocated here and filled in place.  The
    x side and the y side run as two items of ``parallel_map``, once to
    build and centre A and B and once to make them trace-free and take
    their graph sums; each element keeps the arithmetic of the whole-matrix
    formulas, so t and p are the same bits at any GFFFORGE_THREADS.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    for v in (x, y):
        if not (v.ndim == 1 or (v.ndim == 2 and v.shape[1] >= 1)):
            raise DomainError(
                f"distance correlation needs 1-D samples or 2-D samples with a column, got shape {v.shape}"
            )
    n = len(x)
    if len(y) != n:
        raise DomainError(f"distance correlation needs paired samples, got {n} and {len(y)}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("distance correlation needs finite samples")
    if n > _DCOR_CAP:
        idx = replica_rng(seed, 0).choice(n, size=_DCOR_CAP, replace=False)
        x, y, n = x[idx], y[idx], _DCOR_CAP
    if n < 6:
        raise DomainError("distance correlation needs at least 6 samples")
    A, B, SA, SB = np.empty((4, n, n))
    sides = ((x, A, SA), (y, B, SB))
    ma, mb = parallel_map(lambda side: _centred_distances(*side), sides)
    denom = np.sqrt(ma * mb)
    if denom < 1e-300:
        return 0.0, 1.0
    t0 = float(np.sqrt(max(np.mean(np.multiply(A, B, out=SA)), 0.0) / denom))
    ga, gb = parallel_map(lambda side: _graph_sums(_trace_free(side[1]), side[2]), sides)
    var, mu3 = _permutation_moments(ga, gb, n)
    # a spread at the rounding level of S: every permutation ties, as for x
    # on the vertices of a regular simplex
    if var <= (1e-12 * n * n * denom) ** 2:
        return t0, 1.0
    return t0, _pearson3_sf(np.sum(np.multiply(A, B, out=SA)) / np.sqrt(var), mu3 / var**1.5)


def _p_gate(p: float) -> float:
    """The gate SIGNIFICANCE / p, finite also for a p that underflowed to 0."""
    return SIGNIFICANCE / max(p, np.finfo(float).tiny)


def sigma_hat(Y: ProcessPath) -> float:
    """Diffusivity estimate: sqrt of the mean of Var(increment)/du over
    adjacent grid increments."""
    if len(Y.grid) < 2 or len(Y.replicas) < 2:
        raise DomainError("sigma_hat needs at least two grid points and two replicas")
    du = np.diff(Y.grid)
    inc = np.diff(Y.replicas, axis=1)
    return float(np.sqrt(np.mean(inc.var(axis=0, ddof=1) / du)))


def _var_gate(sample: np.ndarray, target: float, k: float = 3.0) -> tuple:
    """Gate |Var(sample) - target| / (k * s.e.) using the fourth-moment
    standard error, robust to non-normal laws."""
    v = np.asarray(sample, float)
    n = len(v)
    c = v - v.mean()
    m2 = np.mean(c * c)
    m4 = np.mean(c**4)
    se = np.sqrt(max(m4 - m2 * m2, 1e-300) / n)
    return abs(m2 - target) / (k * se), m2, se


# ---------------------------------------------------------------------------
# single-criterion tests
# ---------------------------------------------------------------------------


def test_normality(samples) -> TestReport:
    a, p = anderson_darling_p(samples)
    return TestReport("normality", a, p, SIGNIFICANCE, len(np.asarray(samples)))


def test_wick_fourth(samples) -> TestReport:
    v = np.asarray(samples, dtype=float)
    if len(v) < MIN_WICK_SAMPLES:
        raise DomainError(f"fourth-moment test needs at least {MIN_WICK_SAMPLES} samples")
    c = v - v.mean()
    m2 = np.mean(c * c)
    if not m2 > 0:
        raise DomainError("degenerate samples: zero variance")
    ratio = np.mean(c**4) / (3.0 * m2 * m2)
    return TestReport(
        "wick_fourth",
        ratio - 1.0,
        None,
        0.15,
        len(v),
        notes=f"fourth-moment ratio m4/(3 m2^2) = {ratio:.4f}",
    )


def test_brownian_scaling(Y: ProcessPath, c: float) -> TestReport:
    """Two-sample KS of Y(cu) against sqrt(c) Y(u) on independent replica
    halves, Bonferroni-combined over all grid points u with cu on the grid."""
    if c <= 0:
        raise DomainError("scaling factor must be positive")
    n = Y.replicas.shape[0]
    if c == 1.0:
        return TestReport("scaling[c=1]", 0.0, 1.0, SIGNIFICANCE, n, notes="identity scaling")
    pairs = [(u, c * u) for u in Y.grid if Y.index(c * u) is not None]
    if not pairs:
        raise DomainError(f"no grid pair (u, {c}u) available for the scaling test")
    if n < MIN_BATTERY_REPLICAS:
        raise DomainError(f"scaling test needs at least {MIN_BATTERY_REPLICAS} replicas")
    from scipy import stats  # imported here: it is most of the CLI's start-up time

    half = n // 2
    ps = []
    ds = []
    for u, cu in pairs:
        a = Y.column(cu)[:half]
        b = np.sqrt(c) * Y.column(u)[half:]
        res = stats.ks_2samp(a, b)
        ps.append(res.pvalue)
        ds.append(res.statistic)
    p = min(1.0, len(ps) * min(ps))
    notes = "Bonferroni over u in {" + ", ".join(f"{u:.4g}" for u, _ in pairs) + "}"
    return TestReport(f"scaling[c={c:g}]", float(max(ds)), float(p), SIGNIFICANCE, n, notes)


def test_independent_increments(Y: ProcessPath, seed: int = 0) -> TestReport:
    """Independence of each increment from the path's past.

    Gates: max |Pearson rho| over (past, next-increment) pairs below
    4/sqrt(n), and the distance-correlation p of independence on the pooled
    du-standardized pairs at the working significance.
    """
    n, m = Y.replicas.shape
    if m < 2:
        raise DomainError("need at least two grid points")
    if n < MIN_BATTERY_REPLICAS:
        raise DomainError(f"independence test needs at least {MIN_BATTERY_REPLICAS} replicas")
    du = np.diff(Y.grid)
    inc = np.diff(Y.replicas, axis=1) / np.sqrt(du)
    past = [Y.replicas[:, 0] / np.sqrt(Y.grid[0])] + [inc[:, k] for k in range(m - 2)]
    rho = max(abs(_pearson(p, inc[:, k])) for k, p in enumerate(past))
    pooled_x = np.concatenate(past)
    pooled_y = inc.T.ravel()
    dc, p_dc = distance_correlation(pooled_x, pooled_y, seed=seed)
    gate = max(rho / (4.0 / np.sqrt(n)), _p_gate(p_dc))
    notes = f"max|rho|={rho:.4f}, dcor={dc:.4f} (dcor p={p_dc:.3f})"
    return TestReport("independent_increments", gate, None, 1.0, n, notes)


def test_harness(Y: ProcessPath, s: float, u: float, r: float, seed: int = 0) -> TestReport:
    """Bridge residual R = Y(u) - interpolation of (Y(s), Y(r)): tests
    independence of R from the endpoints and the Brownian bridge variance
    sigma^2 (u-s)(r-u)/(r-s)."""
    if not s <= u <= r or s == r:
        raise DomainError("need s <= u <= r with s < r")
    n = Y.replicas.shape[0]
    ys, yu, yr = Y.column(s), Y.column(u), Y.column(r)
    lam = (u - s) / (r - s)
    R = yu - lam * yr - (1.0 - lam) * ys
    if u == s or u == r:
        return TestReport(
            f"harness[{s:g},{u:g},{r:g}]", 0.0, None, 1.0, n, notes="degenerate interpolation"
        )
    rho = max(abs(_pearson(R, ys)), abs(_pearson(R, yr)))
    dc, p_dc = distance_correlation(R, np.column_stack([ys, yr]), seed=seed)
    target = sigma_hat(Y) ** 2 * (u - s) * (r - u) / (r - s)
    vgate, m2, _ = _var_gate(R, target)
    gate = max(rho / (4.0 / np.sqrt(n)), _p_gate(p_dc), vgate)
    notes = (
        f"max|rho|={rho:.4f}, dcor p={p_dc:.3f}, "
        f"Var(R)={m2:.5g} vs bridge {target:.5g}"
    )
    return TestReport(f"harness[{s:g},{u:g},{r:g}]", gate, None, 1.0, n, notes)


def test_moment_bootstrap(Y: ProcessPath, u0: float = 1.0) -> TestReport:
    """Split Y(u0) = Y(2 u0)/2 + Z: Z decorrelated from Y(2 u0) and Var(Z)
    near sigma^2 u0/2."""
    n = Y.replicas.shape[0]
    y1, y2 = Y.column(u0), Y.column(2.0 * u0)
    Z = y1 - y2 / 2.0
    rho = abs(_pearson(Z, y2))
    target = sigma_hat(Y) ** 2 * u0 / 2.0
    vgate, m2, _ = _var_gate(Z, target)
    gate = max(rho / (4.0 / np.sqrt(n)), vgate)
    notes = f"|rho|={rho:.4f}, Var(Z)={m2:.5g} vs {target:.5g}"
    c = Z - Z.mean()
    kurt = np.mean(c**4) / max(np.mean(c * c) ** 2, 1e-300)
    if kurt > 20.0:
        notes += f"; heavy tails (kurtosis {kurt:.1f}) make the variance gate unstable"
    return TestReport("moment_bootstrap", gate, None, 1.0, n, notes)


def test_conformal_invariance(
    law: str,
    f: Mobius,
    phi: TestFunction,
    n: int,
    seed: int,
    lattice_src: LatticeDomain,
    alpha: float = 2.0,
) -> TestReport:
    """Two-sample KS between source-domain pairings (h, phi) and image
    pairings (h', phi^f) with phi^f the density-corrected pushforward."""
    dst = _image_lattice(lattice_src, f)
    psi = pullback_test_function(phi, f)
    srcw = np.asarray(phi(lattice_src.z)) * lattice_src.spacing**2
    dstw = np.asarray(psi(dst.z)) * dst.spacing**2
    a = sample_functionals(lattice_src, srcw[:, None], n, seed, law, alpha)[:, 0]
    b = sample_functionals(dst, dstw[:, None], n, (seed + 1) % 2**64, law, alpha)[:, 0]
    from scipy import stats

    ks = stats.ks_2samp(a, b)
    notes = f"lattice spacings {lattice_src.spacing:.4g} -> {dst.spacing:.4g}; O(spacing) bias applies"
    if law != "gff":
        notes += (
            "; the stable field's law is invariant only under the symmetries of its"
            " filter: off a box it depends on the Cholesky site order, on a box"
            " (symmetric DST root) it keeps only the box's own symmetries"
        )
    return TestReport(
        f"conformal[{law}]", float(ks.statistic), float(ks.pvalue), SIGNIFICANCE, n, notes
    )


def _image_lattice(lat: LatticeDomain, f: Mobius) -> LatticeDomain:
    """Image of lat under f: a scaled copy for z -> (a/d) z with a/d > 0,
    lat itself for a map of the unit circle onto itself."""
    ratio = complex(f.a / f.d)
    if f.b == 0 and f.c == 0 and ratio.imag == 0 and ratio.real > 0:
        return LatticeDomain(lat.spacing * ratio.real, lat.interior_ij.copy())
    probe = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    if np.max(np.abs(np.abs(np.asarray(f(probe))) - 1.0)) < 1e-9:
        return lat
    raise DomainError("cannot derive an image lattice for this map")


# ---------------------------------------------------------------------------
# the characterization suite
# ---------------------------------------------------------------------------


@dataclass
class CharBMVerdict:
    """The battery's reports and ``overall``, derived from them:
    "consistent-with-BM", or "rejected(...)" naming the failed reports in
    order."""

    reports: dict
    sigma_hat: float
    overall: str = field(init=False)

    def __post_init__(self):
        failed = [k for k, r in self.reports.items() if not r.passed]
        self.overall = "rejected(" + ",".join(failed) + ")" if failed else "consistent-with-BM"

    @property
    def consistent(self) -> bool:
        return self.overall == "consistent-with-BM"


def _continuity_report(Y: ProcessPath) -> TestReport:
    n, _ = Y.replicas.shape
    deltas = (0.1, 0.05, 0.025)
    base = None
    for u0 in Y.grid:
        if all(Y.index(u0 * (1 + d)) is not None for d in deltas):
            base = float(u0)
            break
    if base is None:
        return TestReport(
            "continuity", 0.0, None, 1.0, n,
            notes="grid lacks mean-square refinement points; condition not exercised",
        )
    y0 = Y.column(base)
    variances = [np.var(Y.column(base * (1 + d)) - y0, ddof=1) for d in deltas]
    slack = 1.0 + 6.0 * np.sqrt(2.0 / n)
    gate = max(
        variances[k + 1] / max(variances[k] * slack, 1e-300) for k in range(len(deltas) - 1)
    )
    notes = (
        "mean-square continuity at u=" + f"{base:g}" + ": Var over shrinking offsets "
        + ", ".join(f"{v:.4g}" for v in variances)
        + "; pathwise continuity is a modification statement, not tested"
    )
    return TestReport("continuity", gate, None, 1.0, n, notes)


def characterize_bm(Y: ProcessPath, seed: int = 0) -> CharBMVerdict:
    """Run the full condition suite on a path law and aggregate a verdict.

    Sub-tests: mean-square continuity, dyadic scaling (c = 2, 4),
    independence of increments, harness residual independence at up to
    three dyadic triples, the moment-bootstrap split at (1, 2), and
    normality of standardized increments.  The battery's needs, a
    positive grid of at least 4 points with an (s, 2s, 4s) triple and
    MIN_BATTERY_REPLICAS replicas, are checked before any sub-test runs.
    The sub-tests run one after another, in the caller's thread; inside
    each distance correlation of the independence and harness tests, the
    x and y sides run on the replica pool (``distance_correlation``).
    """
    n = len(Y.replicas)
    if len(Y.grid) < 4:
        raise DomainError("characterization needs at least 4 grid points")
    if not Y.grid[0] > 0:
        raise DomainError("characterization needs a positive grid")
    triples = [
        (float(s), float(2 * s), float(4 * s))
        for s in Y.grid
        if Y.index(2 * s) is not None and Y.index(4 * s) is not None
    ][:3]
    if not triples:
        raise DomainError("grid carries no (s, 2s, 4s) triple")
    if n < MIN_BATTERY_REPLICAS:
        raise DomainError(f"characterization needs at least {MIN_BATTERY_REPLICAS} replicas")
    du = np.diff(Y.grid)
    inc = np.diff(Y.replicas, axis=1)
    # zero variance in every column, tested exactly: np.var of a constant
    # column need not round to 0, and a threshold would not be scale-free
    if np.all(Y.replicas == Y.replicas[0]):
        rep = TestReport("degenerate", 0.0, None, 1.0, n, notes="zero-variance path; sigma = 0")
        return CharBMVerdict({rep.name: rep}, 0.0)
    sig = sigma_hat(Y)

    std_inc = (inc / np.sqrt(du)).T.ravel()
    if len(std_inc) > 10_000:
        std_inc = std_inc[replica_rng(seed, 1).choice(len(std_inc), 10_000, replace=False)]

    u0 = 1.0 if Y.index(1.0) is not None and Y.index(2.0) is not None else triples[0][0]
    reports = [
        _continuity_report(Y),
        test_brownian_scaling(Y, 2.0),
        test_brownian_scaling(Y, 4.0),
        test_independent_increments(Y, seed=seed),
        test_moment_bootstrap(Y, u0=u0),
        test_normality(std_inc),
    ] + [test_harness(Y, s, u, r, seed=seed) for s, u, r in triples]
    return CharBMVerdict({rep.name: rep for rep in reports}, sig)


# ---------------------------------------------------------------------------
# adversary path laws
# ---------------------------------------------------------------------------


def _increment_path(grid, n: int, seed: int, increments) -> ProcessPath:
    """Replica k is the cumulative sum of ``increments(rng, du)``, with rng
    on stream k and du the grid steps from 0."""
    g = np.asarray(grid, dtype=float)
    du = np.concatenate([[g[0]], np.diff(g)])
    rows = _replica_rows(lambda rng: increments(rng, du), len(g), n, seed)
    return ProcessPath(g, np.cumsum(rows, axis=1))


def levy_path(grid, n: int, seed: int, alpha: float = 1.5) -> ProcessPath:
    """Symmetric alpha-stable Levy motion on the grid: independent
    increments scaled du^(1/alpha); violates the sqrt-c diffusive scaling."""

    def increments(rng, du):
        return sample_sas(alpha, len(du), rng) * du ** (1.0 / alpha)

    return _increment_path(grid, n, seed, increments)


def compound_poisson_path(grid, n: int, seed: int, rate: float = 1.0) -> ProcessPath:
    """Compound Poisson path with unit Gaussian jumps; piecewise-constant jump
    structure breaks normality of increments and the harness residual."""
    if not 0.0 < rate < np.inf:
        raise DomainError("jump rate must be finite and positive")

    def increments(rng, du):
        counts = rng.poisson(rate * du)
        return np.where(counts > 0, np.sqrt(counts), 0.0) * rng.standard_normal(len(du))

    return _increment_path(grid, n, seed, increments)


def ar1_increment_path(grid, n: int, seed: int, rho: float = 0.3) -> ProcessPath:
    """Gaussian path whose standardized increments follow an AR(1) chain;
    violates independence of increments while keeping normal marginals."""
    if not -1.0 < rho < 1.0:
        raise DomainError("AR coefficient must lie in (-1, 1)")

    def increments(rng, du):
        xi = rng.standard_normal(len(du))
        eps = np.empty(len(du))
        eps[0] = xi[0]
        for j in range(1, len(du)):
            eps[j] = rho * eps[j - 1] + np.sqrt(1.0 - rho * rho) * xi[j]
        return eps * np.sqrt(du)

    return _increment_path(grid, n, seed, increments)
