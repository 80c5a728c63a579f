"""Reference values and output checks, written apart from gffforge.

Nothing here imports gffforge: every target is a closed form or comes from
this module's own scipy.sparse Dirichlet Laplacian, so a fault in the
program cannot also move the value it is checked against.

Statistical gates are stated in standard errors.  Each check runs on every
seed the benchmark is given, and a false alarm would be reported as a
failed operation, so the gates sit at 5 standard errors (a Gaussian
statistic crosses that with probability 6e-7) unless a comment says
otherwise.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse, stats
from scipy.sparse.linalg import splu

Z_GATE = 5.0
TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# excursions
# ---------------------------------------------------------------------------


def excursion_mass(r: float, eps: float) -> float:
    """Mass (1/eps) P_{i eps}(Brownian motion reaches radius r before the
    real axis) = (4/pi) atan(eps/r) / eps.

    The map z -> ((r + z)/(r - z))^2 sends the half-disk to the upper
    half-plane, the arc to the negative axis and the diameter to the
    positive axis; the harmonic measure of the negative axis seen from w
    is arg(w)/pi, and w(i eps) has argument 4 atan(eps/r).
    """
    return 4.0 / np.pi * np.arctan(eps / r) / eps


def hit_angle_cdf(theta):
    """CDF (1 - cos theta)/2 of the excursion hit-angle law sin(theta)/2."""
    return (1.0 - np.cos(np.clip(theta, 0.0, np.pi))) / 2.0


def weighted_ks(values, weights, cdf=hit_angle_cdf) -> float:
    """Sup distance between the weighted empirical CDF and ``cdf``."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    upper = np.cumsum(w) / w.sum()
    lower = upper - w / w.sum()
    model = cdf(v)
    return float(max(np.max(upper - model), np.max(model - lower)))


# ---------------------------------------------------------------------------
# Gaussian path laws
# ---------------------------------------------------------------------------


def sine_covariance(u) -> np.ndarray:
    """Cov(Y(u), Y(s)) = (pi^2/2) min(u, s) for the sine-average process."""
    u = np.asarray(u, dtype=float)
    return 0.5 * np.pi**2 * np.minimum.outer(u, u)


def circle_covariance(t) -> np.ndarray:
    """Cov(X(t), X(s)) = min(t, s) for the circle-average process."""
    t = np.asarray(t, dtype=float)
    return np.minimum.outer(t, t)


def covariance_z(sample_cov: np.ndarray, target: np.ndarray, n: int) -> np.ndarray:
    """|C_ij - K_ij| in units of the Gaussian standard error
    sqrt((K_ii K_jj + K_ij^2) / n) of a sample covariance entry."""
    d = np.diag(target)
    se = np.sqrt((np.outer(d, d) + target**2) / n)
    return np.abs(sample_cov - target) / se


def pooled_scale(sample_cov: np.ndarray, target: np.ndarray, n: int) -> tuple:
    """Least-squares factor k in C ~ k K, with its Gaussian standard error.

    Uses Cov(C_ij, C_kl) = (K_ik K_jl + K_il K_jk)/n, so the error bar is
    exact for the target law rather than estimated from the sample.
    """
    a = target / np.sum(target * target)
    k = float(np.sum(a * sample_cov))
    var = (2.0 / n) * float(np.sum(a * (target @ a @ target)))
    return k, float(np.sqrt(var))


def normality_rejected(x, level: float = 1e-3) -> tuple:
    """D'Agostino-Pearson test from scipy.stats; True when normality is
    rejected at ``level``."""
    p = float(stats.normaltest(np.asarray(x, dtype=float)).pvalue)
    return p < level, p


def variance_z(x, target: float) -> float:
    """(sample variance - target) over the Gaussian standard error
    target * sqrt(2/(n-1))."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    return float((x.var(ddof=1) - target) / (target * np.sqrt(2.0 / (n - 1))))


# ---------------------------------------------------------------------------
# lattice Green functions
# ---------------------------------------------------------------------------


def disk_sites(size: int) -> tuple:
    """Interior sites (i, j) of the unit disk at spacing 2/size, sorted by
    i then j, and the spacing."""
    a = 2.0 / size
    half = size // 2
    r = np.arange(-half, half + 1)
    ii, jj = np.meshgrid(r, r, indexing="ij")
    ij = np.stack([ii.ravel(), jj.ravel()], axis=1)
    keep = np.abs((ij[:, 0] + 1j * ij[:, 1]) * a) < 1.0
    return ij[keep], a


def dirichlet_laplacian(ij: np.ndarray) -> sparse.csc_matrix:
    """Graph Laplacian 4 I - adjacency on the given sites, with zero
    Dirichlet values on every site outside the set."""
    ij = np.asarray(ij, dtype=np.int64)
    n = len(ij)
    span = int(np.max(np.abs(ij))) + 2
    codes = (ij[:, 0] + span) * (4 * span) + (ij[:, 1] + span)
    order = np.argsort(codes)
    sorted_codes = codes[order]
    rows, cols = [], []
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        target = codes + di * (4 * span) + dj
        pos = np.clip(np.searchsorted(sorted_codes, target), 0, n - 1)
        hit = sorted_codes[pos] == target
        rows.append(np.nonzero(hit)[0])
        cols.append(order[pos[hit]])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    adj = sparse.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return (4.0 * sparse.identity(n, format="csc") - adj).tocsc()


def pairing_variance(ij: np.ndarray, w: np.ndarray) -> float:
    """Var((h, w)) = 2 pi w^T L^-1 w for the lattice field scaled by
    sqrt(2 pi)."""
    lu = splu(dirichlet_laplacian(ij))
    return float(TWO_PI * w @ lu.solve(np.asarray(w, dtype=float)))


def green_diagonal(ij: np.ndarray, site: int) -> float:
    """2 pi (L^-1)_{site, site}: the variance at ``site`` of the
    zero-boundary field on the given sites."""
    lu = splu(dirichlet_laplacian(ij))
    e = np.zeros(len(ij))
    e[site] = 1.0
    return float(TWO_PI * lu.solve(e)[site])


def disk_bump(z, radius: float) -> np.ndarray:
    """e * exp(-1/(1 - |z/radius|^2)) inside the disk, 0 outside: the
    bump that peaks at 1 in the center."""
    rr2 = (np.abs(z) / radius) ** 2
    out = np.zeros_like(rr2)
    inside = rr2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - rr2[inside]))
    return out
