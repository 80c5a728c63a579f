"""Statistical test battery for field averages and their path laws.

Every test returns a TestReport.  Tests carrying a p-value pass when
p >= SIGNIFICANCE; pure-tolerance tests pass when |statistic| <= threshold.
Composite tests normalize each sub-criterion to a gate value that is <= 1
exactly when the criterion holds and report the worst gate as the
statistic with threshold 1.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats
from scipy.special import log_ndtr

from .averaging import ProcessPath
from .errors import DomainError
from .fields import sample_functionals, sample_sas
from .geometry import ConformalMap, Scaling, TestFunction, pullback_test_function
from .greens import LatticeDomain, disk_lattice
from .rng import parallel_map, replica_rng

__all__ = [
    "SIGNIFICANCE",
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


@dataclass
class TestReport:
    name: str
    statistic: float
    p_value: float | None
    threshold: float
    passed: bool
    n_samples: int
    notes: str = ""

    def __post_init__(self):
        want = (
            self.p_value >= SIGNIFICANCE
            if self.p_value is not None
            else abs(self.statistic) <= self.threshold
        )
        if bool(self.passed) != want:
            raise DomainError(f"report {self.name!r} breaks the pass invariant")

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "TestReport":
        return cls(**json.loads(text))


def _report(name, statistic, p_value, threshold, n, notes=""):
    passed = (
        p_value >= SIGNIFICANCE if p_value is not None else abs(statistic) <= threshold
    )
    if p_value is not None:
        p_value = float(p_value)
    return TestReport(
        name, float(statistic), p_value, float(threshold), bool(passed), int(n), notes
    )


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


def _dist_matrix(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, float)
    if v.ndim == 1:
        return np.abs(v[:, None] - v[None, :])
    diff = v[:, None, :] - v[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def _center(d: np.ndarray) -> np.ndarray:
    return d - d.mean(axis=0) - d.mean(axis=1)[:, None] + d.mean()


def distance_correlation(x, y, seed: int = 0, n_perm: int = 199, cap: int = 800) -> tuple:
    """Distance correlation on a size-capped subsample with a permutation
    p-value for the hypothesis of independence.

    Double-centering commutes with relabeling the sample, so permutations
    reuse the centered distance matrices and only the cross term is
    recomputed per draw.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(x)
    rng = replica_rng(seed, 0)
    if n > cap:
        idx = rng.choice(n, size=cap, replace=False)
        x, y = x[idx], y[idx]
        n = cap
    A = _center(_dist_matrix(x))
    B = _center(_dist_matrix(y))
    denom = np.sqrt(np.mean(A * A) * np.mean(B * B))
    if denom < 1e-300:
        return 0.0, 1.0
    cross0 = max(np.mean(A * B), 0.0)
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(n)
        cross = max(np.mean(A * B[np.ix_(perm, perm)]), 0.0)
        hits += cross >= cross0 - 1e-15
    t0 = float(np.sqrt(cross0 / denom))
    return t0, (1.0 + hits) / (n_perm + 1.0)


def sigma_hat(Y: ProcessPath) -> float:
    """Diffusivity estimate: sqrt of the mean of Var(increment)/du over
    adjacent grid increments."""
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
    return _report("normality", a, p, SIGNIFICANCE, len(np.asarray(samples)))


def test_wick_fourth(samples) -> TestReport:
    v = np.asarray(samples, dtype=float)
    if len(v) < 1000:
        raise DomainError("fourth-moment test needs at least 1000 samples")
    c = v - v.mean()
    m2 = np.mean(c * c)
    if not m2 > 0:
        raise DomainError("degenerate samples: zero variance")
    ratio = np.mean(c**4) / (3.0 * m2 * m2)
    return _report(
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
        return _report("scaling[c=1]", 0.0, 1.0, SIGNIFICANCE, n, notes="identity scaling")
    g = Y.grid
    pairs = [
        (u, c * u)
        for u in g
        if np.any(np.isclose(g, c * u, rtol=1e-9, atol=1e-12))
    ]
    if not pairs:
        raise DomainError(f"no grid pair (u, {c}u) available for the scaling test")
    half = n // 2
    if half < 50:
        raise DomainError("scaling test needs at least 100 replicas")
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
    return _report(f"scaling[c={c:g}]", float(max(ds)), float(p), SIGNIFICANCE, n, notes)


def test_independent_increments(Y: ProcessPath, seed: int = 0) -> TestReport:
    """Independence of each increment from the path's past.

    Gates: max |Pearson rho| over (past, next-increment) pairs below
    4/sqrt(n), and a permutation distance-correlation p on the pooled
    du-standardized pairs at the working significance.
    """
    n, m = Y.replicas.shape
    if m < 2:
        raise DomainError("need at least two grid points")
    if n < 100:
        raise DomainError("independence test needs at least 100 replicas")
    du = np.diff(Y.grid)
    inc = np.diff(Y.replicas, axis=1) / np.sqrt(du)
    past = [Y.replicas[:, 0] / np.sqrt(Y.grid[0])] + [inc[:, k] for k in range(m - 2)]
    rho = max(abs(_pearson(p, inc[:, k])) for k, p in enumerate(past))
    pooled_x = np.concatenate(past)
    pooled_y = inc.T.ravel()
    dc, p_dc = distance_correlation(pooled_x, pooled_y, seed=seed)
    gate = max(rho / (4.0 / np.sqrt(n)), SIGNIFICANCE / p_dc)
    notes = f"max|rho|={rho:.4f}, dcor={dc:.4f} (perm p={p_dc:.3f})"
    return _report("independent_increments", gate, None, 1.0, n, notes)


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
        return _report(
            f"harness[{s:g},{u:g},{r:g}]", 0.0, None, 1.0, n, notes="degenerate interpolation"
        )
    rho = max(abs(_pearson(R, ys)), abs(_pearson(R, yr)))
    dc, p_dc = distance_correlation(R, np.column_stack([ys, yr]), seed=seed)
    target = sigma_hat(Y) ** 2 * (u - s) * (r - u) / (r - s)
    vgate, m2, _ = _var_gate(R, target)
    gate = max(rho / (4.0 / np.sqrt(n)), SIGNIFICANCE / p_dc, vgate)
    notes = (
        f"max|rho|={rho:.4f}, dcor perm p={p_dc:.3f}, "
        f"Var(R)={m2:.4f} vs bridge {target:.4f}"
    )
    return _report(f"harness[{s:g},{u:g},{r:g}]", gate, None, 1.0, n, notes)


def test_moment_bootstrap(Y: ProcessPath, seed: int = 0, u0: float = 1.0) -> TestReport:
    """Split Y(u0) = Y(2 u0)/2 + Z: Z decorrelated from Y(2 u0), Var(Z)
    near sigma^2 u0/2, and the replica-wise product identity
    Y(u0)(Y(2 u0)-Y(u0)) = Y(2 u0)^2/4 - Z^2 to near machine precision."""
    n = Y.replicas.shape[0]
    y1, y2 = Y.column(u0), Y.column(2.0 * u0)
    Z = y1 - y2 / 2.0
    rho = abs(_pearson(Z, y2))
    target = sigma_hat(Y) ** 2 * u0 / 2.0
    vgate, m2, _ = _var_gate(Z, target)
    scale = max(1.0, np.max(np.abs(y2)) ** 2)
    alg = np.max(np.abs(y1 * (y2 - y1) - (y2 * y2 / 4.0 - Z * Z))) / scale
    gate = max(rho / (4.0 / np.sqrt(n)), vgate, alg / 1e-12)
    notes = f"|rho|={rho:.4f}, Var(Z)={m2:.4f} vs {target:.4f}, identity residual {alg:.2e}"
    c = Z - Z.mean()
    kurt = np.mean(c**4) / max(np.mean(c * c) ** 2, 1e-300)
    if kurt > 20.0:
        notes += f"; heavy tails (kurtosis {kurt:.1f}) make the variance gate unstable"
    return _report("moment_bootstrap", gate, None, 1.0, n, notes)


def test_conformal_invariance(
    law: str,
    f: ConformalMap,
    phi: TestFunction,
    n: int,
    seed: int,
    lattice_src: LatticeDomain | None = None,
    lattice_dst: LatticeDomain | None = None,
    alpha: float = 2.0,
) -> TestReport:
    """Two-sample KS between source-domain pairings (h, phi) and image
    pairings (h', phi^f) with phi^f the density-corrected pushforward."""
    lat = lattice_src if lattice_src is not None else disk_lattice(96)
    dst = lattice_dst if lattice_dst is not None else _image_lattice(lat, f)
    psi = pullback_test_function(phi, f)
    srcw = np.asarray(phi(lat.z)) * lat.spacing**2
    dstw = np.asarray(psi(dst.z)) * dst.spacing**2
    a = sample_functionals(lat, srcw[:, None], n, seed, law, alpha)[:, 0]
    b = sample_functionals(dst, dstw[:, None], n, seed + 1, law, alpha)[:, 0]
    ks = stats.ks_2samp(a, b)
    notes = f"lattice spacings {lat.spacing:.4g} -> {dst.spacing:.4g}; O(spacing) bias applies"
    if law != "gff":
        notes += (
            "; linear stable constructions are scale-covariant, so this test can pass:"
            " the discriminating axiom is Gaussianity of averages"
        )
    return _report(
        f"conformal[{law}]", float(ks.statistic), float(ks.pvalue), SIGNIFICANCE, n, notes
    )


def _image_lattice(lat: LatticeDomain, f: ConformalMap) -> LatticeDomain:
    if isinstance(f, Scaling):
        return LatticeDomain(lat.spacing * f.c, lat.interior_ij.copy(), label=f"{lat.label}*{f.c:g}")
    probe = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    if np.max(np.abs(np.abs(np.asarray(f(probe))) - 1.0)) < 1e-9:
        return lat
    raise DomainError("cannot derive an image lattice for this map; pass lattice_dst")


# ---------------------------------------------------------------------------
# the characterization suite
# ---------------------------------------------------------------------------


@dataclass
class CharBMVerdict:
    reports: dict
    sigma_hat: float
    overall: str

    def __post_init__(self):
        consistent = all(r.passed for r in self.reports.values())
        if consistent != (self.overall == "consistent-with-BM"):
            raise DomainError("verdict breaks the consistency invariant")

    @property
    def consistent(self) -> bool:
        return self.overall == "consistent-with-BM"

    def to_json(self) -> str:
        return json.dumps(
            {
                "reports": {k: asdict(r) for k, r in self.reports.items()},
                "sigma_hat": self.sigma_hat,
                "overall": self.overall,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "CharBMVerdict":
        d = json.loads(text)
        return cls(
            reports={k: TestReport(**v) for k, v in d["reports"].items()},
            sigma_hat=d["sigma_hat"],
            overall=d["overall"],
        )


def _verdict(reports: dict, sig: float) -> CharBMVerdict:
    failed = [k for k, r in reports.items() if not r.passed]
    overall = "consistent-with-BM" if not failed else "rejected(" + ",".join(failed) + ")"
    return CharBMVerdict(reports=reports, sigma_hat=sig, overall=overall)


def _dyadic_triples(grid: np.ndarray, k_max: int = 3) -> list:
    triples = [
        (float(s), float(2 * s), float(4 * s))
        for s in grid
        if _on_grid(grid, 2 * s) and _on_grid(grid, 4 * s)
    ]
    return triples[:k_max]


def _continuity_report(Y: ProcessPath) -> TestReport:
    n, _ = Y.replicas.shape
    g = Y.grid
    deltas = (0.1, 0.05, 0.025)
    base = None
    for u0 in g:
        if all(np.any(np.isclose(g, u0 * (1 + d), rtol=1e-9)) for d in deltas):
            base = float(u0)
            break
    if base is None:
        return _report(
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
    return _report("continuity", gate, None, 1.0, n, notes)


def characterize_bm(Y: ProcessPath, seed: int = 0) -> CharBMVerdict:
    """Run the full condition suite on a path law and aggregate a verdict.

    Sub-tests: mean-square continuity, dyadic scaling (c = 2, 4),
    independence of increments, harness residual independence at up to
    three dyadic triples, the moment-bootstrap split at (1, 2), and
    normality of standardized increments.
    """
    n, m = Y.replicas.shape
    if m < 4:
        raise DomainError("characterization needs at least 4 grid points")
    triples = _dyadic_triples(Y.grid)
    if not triples:
        raise DomainError("grid carries no (s, 2s, 4s) triple")
    du = np.diff(Y.grid)
    inc = np.diff(Y.replicas, axis=1)
    if float(np.max(inc.var(axis=0))) < 1e-28 and float(np.var(Y.replicas[:, 0])) < 1e-28:
        reports = {
            "degenerate": _report(
                "degenerate", 0.0, None, 1.0, n, notes="zero-variance path; sigma = 0"
            )
        }
        return _verdict(reports, 0.0)
    sig = sigma_hat(Y)

    std_inc = (inc / np.sqrt(du)).T.ravel()
    if len(std_inc) > 10_000:
        std_inc = std_inc[replica_rng(seed, 1).choice(len(std_inc), 10_000, replace=False)]

    u0 = 1.0 if _on_grid(Y.grid, 1.0) and _on_grid(Y.grid, 2.0) else triples[0][0]
    jobs = [
        ("continuity", lambda: _continuity_report(Y)),
        ("scaling[c=2]", lambda: test_brownian_scaling(Y, 2.0)),
        ("scaling[c=4]", lambda: test_brownian_scaling(Y, 4.0)),
        ("independent_increments", lambda: test_independent_increments(Y, seed=seed)),
        ("moment_bootstrap", lambda: test_moment_bootstrap(Y, seed=seed, u0=u0)),
        ("normality", lambda: test_normality(std_inc)),
    ] + [
        (f"harness[{s:g},{u:g},{r:g}]", lambda s=s, u=u, r=r: test_harness(Y, s, u, r, seed=seed))
        for s, u, r in triples
    ]
    results = parallel_map(lambda kv: (kv[0], kv[1]()), jobs)
    return _verdict(dict(results), sig)


def _on_grid(grid: np.ndarray, v: float) -> bool:
    return bool(np.any(np.isclose(grid, v, rtol=1e-9, atol=1e-12)))


# ---------------------------------------------------------------------------
# adversary path laws
# ---------------------------------------------------------------------------


def levy_path(grid, n: int, seed: int, alpha: float = 1.5) -> ProcessPath:
    """Symmetric alpha-stable Levy motion on the grid: independent
    increments scaled du^(1/alpha); violates the sqrt-c diffusive scaling."""
    g = np.asarray(grid, dtype=float)
    du = np.concatenate([[g[0]], np.diff(g)])
    reps = np.empty((n, len(g)))
    for k in range(n):
        rng = replica_rng(seed, k)
        inc = sample_sas(alpha, len(g), rng) * du ** (1.0 / alpha)
        reps[k] = np.cumsum(inc)
    return ProcessPath(g, reps, kind="levy", backend="synthetic", seed=seed, meta={"alpha": alpha})


def compound_poisson_path(grid, n: int, seed: int, rate: float = 1.0, jump_scale: float = 1.0) -> ProcessPath:
    """Compound Poisson path with Gaussian jumps; piecewise-constant jump
    structure breaks normality of increments and the harness residual."""
    g = np.asarray(grid, dtype=float)
    du = np.concatenate([[g[0]], np.diff(g)])
    reps = np.empty((n, len(g)))
    for k in range(n):
        rng = replica_rng(seed, k)
        counts = rng.poisson(rate * du)
        inc = np.where(counts > 0, np.sqrt(counts) * jump_scale, 0.0) * rng.standard_normal(len(g))
        reps[k] = np.cumsum(inc)
    return ProcessPath(g, reps, kind="compound_poisson", backend="synthetic", seed=seed)


def ar1_increment_path(grid, n: int, seed: int, rho: float = 0.3) -> ProcessPath:
    """Gaussian path whose standardized increments follow an AR(1) chain;
    violates independence of increments while keeping normal marginals."""
    if not -1.0 < rho < 1.0:
        raise DomainError("AR coefficient must lie in (-1, 1)")
    g = np.asarray(grid, dtype=float)
    du = np.concatenate([[g[0]], np.diff(g)])
    reps = np.empty((n, len(g)))
    for k in range(n):
        rng = replica_rng(seed, k)
        xi = rng.standard_normal(len(g))
        eps = np.empty(len(g))
        eps[0] = xi[0]
        for j in range(1, len(g)):
            eps[j] = rho * eps[j - 1] + np.sqrt(1.0 - rho * rho) * xi[j]
        reps[k] = np.cumsum(eps * np.sqrt(du))
    return ProcessPath(g, reps, kind="ar1", backend="synthetic", seed=seed, meta={"rho": rho})
