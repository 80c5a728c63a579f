"""Half-plane excursion hitting laws and a killed Brownian sampler.

The excursion measure from the origin assigns mass 4/(pi r) to paths
reaching the radius-r upper semicircle, with hit angles distributed like
(1/2) sin(theta).  The sampler realizes the measure as the eps -> 0 limit
of Brownian paths started at i*eps, weighted by 1/eps.

Paths move by walk-on-spheres (Muller 1956): each step samples the exact
exit point of the largest disk around the path inside the half-disk.  A
path stops in an eps-shell: absorbed below height ``eps * _FLOOR``, or a
hit at radius ``r * _HIT_SHAVE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import replica_rng

__all__ = [
    "ExcursionSample",
    "total_mass",
    "hitting_density",
    "hitting_cdf",
    "arc_mass",
    "sample_excursion_hits",
    "continue_paths",
    "weighted_ks_distance",
]

_HIT_SHAVE = 1.0 - 1e-4  # declare a hit at |z| >= r * _HIT_SHAVE
_FLOOR = 1e-3  # absorb a path started at i*eps once Im z < eps * _FLOOR
# Paths per random stream (see sample_excursion_hits).  Fixed so that the
# sample does not depend on how paths are scheduled; each block loops
# until its slowest path stops, so blocks much smaller than this cost
# more per path in interpreter overhead.
_PATH_BLOCK = 50_000


def total_mass(r: float) -> float:
    """Excursion mass reaching the radius-r semicircle: 4/(pi r)."""
    if not 0 < r < np.inf:
        raise DomainError("total_mass needs finite r > 0")
    return 4.0 / (np.pi * r)


def hitting_density(r: float, theta) -> float | np.ndarray:
    """Hit-angle density (2/(pi r)) sin(theta) on [0, pi]."""
    if not 0 < r < np.inf:
        raise DomainError("hitting_density needs finite r > 0")
    t = np.asarray(theta, dtype=float)
    if np.any((t < 0) | (t > np.pi)):
        raise DomainError("theta must lie in [0, pi]")
    out = (2.0 / (np.pi * r)) * np.sin(t)
    return out if out.ndim else float(out)


def hitting_cdf(theta) -> float | np.ndarray:
    """CDF of the normalized hit angle law (1/2) sin(theta)."""
    t = np.asarray(theta, dtype=float)
    out = (1.0 - np.cos(np.clip(t, 0.0, np.pi))) / 2.0
    return out if out.ndim else float(out)


def arc_mass(r: float, a: float, b: float) -> float:
    """Excursion mass leaving through the arc angles (a, b) of radius r."""
    if not 0 < r < np.inf:
        raise DomainError("arc_mass needs finite r > 0")
    if not (0.0 <= a <= b <= np.pi):
        raise DomainError("need 0 <= a <= b <= pi")
    return (2.0 / (np.pi * r)) * (np.cos(a) - np.cos(b))


@dataclass
class ExcursionSample:
    """Hit statistics of a batch of excursion attempts.

    ``angles``/``weights``/``roots`` are per-hit; ``roots`` indexes the
    originating path so that per-path totals are independent (splitting
    correlates fragments of the same path, never across paths).  Random
    streams are keyed per fixed block of path indices, never per worker,
    so the sample does not depend on the worker count.
    """

    r: float
    eps: float
    n_paths: int
    mode: str
    angles: np.ndarray
    weights: np.ndarray
    roots: np.ndarray
    n_absorbed: int

    @property
    def mass_estimate(self) -> float:
        return float(self.weights.sum() / (self.n_paths * self.eps))

    def mass_stderr(self) -> float:
        if self.n_paths < 2:
            raise DomainError("mass standard error needs at least 2 paths")
        per_root = np.zeros(self.n_paths)
        np.add.at(per_root, self.roots, self.weights / self.eps)
        return float(per_root.std(ddof=1) / np.sqrt(self.n_paths))

    def to_csv(self, path) -> None:
        eps = f"{self.eps:.17g}"
        with open(path, "w") as fh:
            fh.write("hit,angle,eps,weight\n")
            fh.writelines(
                f"1,{a:.17g},{eps},{w:.17g}\n"
                for a, w in zip(self.angles.tolist(), self.weights.tolist())
            )
            if self.mode == "literal":
                fh.write(f"0,,{eps},1\n" * (self.n_paths - len(self.angles)))


def _advance(z, w, roots, rng, r, floor, top):
    """Run paths until absorption (Im < floor), a hit (|z| >= r *
    _HIT_SHAVE), or escape above ``top``.  A walk-on-spheres step jumps to
    z + d e^(i phi), d = min(Im z, r - |z|), phi uniform on [0, 2 pi)."""
    hit_a = []
    hit_w = []
    hit_r = []
    out = []
    hit_rad = r * _HIT_SHAVE
    while z.size:
        d = np.minimum(z.imag, r - np.abs(z))
        z = z + d * np.exp(2j * np.pi * rng.random(z.size))
        dead = z.imag < floor
        hit = np.abs(z) >= hit_rad
        live_hit = hit & ~dead
        if np.any(live_hit):
            hit_a.append(np.angle(z[live_hit]))
            hit_w.append(w[live_hit])
            hit_r.append(roots[live_hit])
        up = z.imag >= top
        esc = up & ~hit & ~dead
        if np.any(esc):
            out.append((z[esc], w[esc], roots[esc]))
        keep = ~(dead | hit | up)
        z, w, roots = z[keep], w[keep], roots[keep]

    def cat(parts, dtype=float):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    surv = (cat([p[0] for p in out], complex), cat([p[1] for p in out]), cat([p[2] for p in out], np.int64))
    return cat(hit_a), cat(hit_w), cat(hit_r, np.int64), surv


def _block_hits(r, eps, count, base_seed, k, root0, split):
    rng = replica_rng(base_seed, k)
    floor = eps * _FLOOR
    z = np.full(count, 1j * eps)
    w = np.ones(count)
    roots = root0 + np.arange(count, dtype=np.int64)
    angles, weights, hit_roots = [], [], []
    absorbed = 0
    # split survivors at each dyadic level below r/2; past it, run to the end
    level = 2.0 * eps if split else np.inf
    while z.size:
        before = z.size
        a, aw, ar, (z, w, roots) = _advance(z, w, roots, rng, r, floor, level)
        angles.append(a)
        weights.append(aw)
        hit_roots.append(ar)
        absorbed += before - z.size - len(a)
        if level >= r / 2:
            level = np.inf
            continue
        z = np.concatenate([z, z])
        w = np.concatenate([w, w]) * 0.5
        roots = np.concatenate([roots, roots])
        level *= 2.0
    return (
        np.concatenate(angles),
        np.concatenate(weights),
        np.concatenate(hit_roots),
        absorbed,
    )


def sample_excursion_hits(
    r: float,
    eps: float,
    n: int,
    seed: int,
    split: bool = True,
) -> ExcursionSample:
    """Sample n excursion attempts from i*eps against the radius-r arc.

    With ``split`` (the default) surviving paths are doubled and their
    weights halved at each dyadic height up to r/2, an unbiased variance
    reduction that multiplies the effective hit count by roughly r/eps
    relative to the plain estimator (``split=False``).

    Paths ``[k B, (k+1) B)`` form block k (B = ``_PATH_BLOCK``) and draw
    from ``replica_rng(seed, k)``; split fragments of a path share their
    block's stream.  Blocks run one after another in the calling thread;
    neither their bounds nor their streams depend on ``GFFFORGE_THREADS``,
    so neither does the sample.
    """
    # NaN fails every comparison, and r = inf never reaches the last split level
    if not (0 < r < np.inf and 0 < eps < np.inf):
        raise DomainError("need finite r > 0 and eps > 0")
    if eps >= r / 10:
        raise DomainError("eps must be < r/10 for the excursion limit to apply")
    if n < 1:
        raise DomainError("need n >= 1")
    parts = [
        _block_hits(r, eps, min(_PATH_BLOCK, n - lo), seed, k, lo, split)
        for k, lo in enumerate(range(0, n, _PATH_BLOCK))
    ]
    return ExcursionSample(
        r=r,
        eps=eps,
        n_paths=n,
        mode="split" if split else "literal",
        angles=np.concatenate([p[0] for p in parts]),
        weights=np.concatenate([p[1] for p in parts]),
        roots=np.concatenate([p[2] for p in parts]),
        n_absorbed=int(sum(p[3] for p in parts)),
    )


def continue_paths(z0, r_target: float, seed: int):
    """Run killed Brownian motion (walk-on-spheres, as in the sampler) from
    given points to the radius-r_target arc.  Returns (hit mask, hit
    angles) aligned with the inputs; paths absorbed at the real axis get
    no angle."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=complex))
    # a NaN start fails every stop test, and r_target = inf absorbs every path
    if not (np.all(np.isfinite(z0)) and np.isfinite(r_target)):
        raise DomainError("continuation needs finite start points and target radius")
    if np.any(z0.imag <= 0):
        raise DomainError("continuation must start inside the upper half-plane")
    if np.any(np.abs(z0) >= r_target):
        raise DomainError("continuation must start inside the target radius")
    floor = 1e-6 * r_target
    rng = replica_rng(seed, 0)
    roots = np.arange(len(z0), dtype=np.int64)
    a, _, ar, _ = _advance(z0.copy(), np.ones(len(z0)), roots, rng, r_target, floor, np.inf)
    mask = np.zeros(len(z0), dtype=bool)
    angles = np.full(len(z0), np.nan)
    mask[ar] = True
    angles[ar] = a
    return mask, angles


def weighted_ks_distance(values, weights, cdf=hitting_cdf) -> float:
    """Sup distance between the weighted empirical CDF and a model CDF;
    the weights must be finite and nonnegative, with a positive sum."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.size == 0:
        raise DomainError("no values to compare")
    if not (np.all(np.isfinite(w)) and np.all(w >= 0) and w.sum() > 0):
        raise DomainError("weights must be finite and nonnegative, with a positive sum")
    order = np.argsort(v)
    v, w = v[order], w[order]
    ecdf = np.cumsum(w) / w.sum()
    model = np.asarray(cdf(v), dtype=float)
    lo = np.concatenate([[0.0], ecdf[:-1]])
    return float(np.max(np.maximum(np.abs(ecdf - model), np.abs(lo - model))))
