"""Half-plane excursion hitting laws and an exact-exit Brownian sampler.

The excursion measure from the origin assigns mass 4/(pi r) to paths
reaching the radius-r upper semicircle, with hit angles distributed like
(1/2) sin(theta).  The sampler realizes the measure as the eps -> 0 limit
of Brownian paths started at i*eps, weighted by 1/eps; at finite eps its
mass is (4/pi) atan(eps/r)/eps exactly.

Paths take exact exits, by conformal invariance: w = -(zeta + 1/zeta),
zeta = z/R, maps the radius-R upper half-disk onto the upper half-plane,
its arc onto [-2, 2] and its diameter onto the rest of the real line.
From w, Brownian motion leaves the half-plane at the Cauchy point
x = Re w + Im w tan(phi), phi uniform on (-pi/2, pi/2), so a path leaves
the half-disk through the arc iff |x| < 2, at angle arccos(-x/2), and is
absorbed on the diameter otherwise.  One draw per path and half-disk: no
time step, no stopping shell.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .averaging import _write_csv_rows
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
    "ks_distance",
]

# Paths per random stream (see sample_excursion_hits).  Fixed so that the
# sample does not depend on how paths are scheduled; it also bounds the
# fragments held at once, about 0.64 per path at every level.
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


def _radii(r: float, eps: float) -> list:
    """[eps, 2 eps, 4 eps, ..., r]: the start height, then the half-disk radii a path exits."""
    # NaN fails every comparison, and for r = inf or eps = 0 the ladder never ends
    if not (0 < r < np.inf and 0 < eps < np.inf):
        raise DomainError("need finite r > 0 and eps > 0")
    radii = [eps]
    while 2.0 * radii[-1] < r:
        radii.append(2.0 * radii[-1])
    radii.append(r)
    return radii


@dataclass
class ExcursionSample:
    """Hit statistics of a batch of excursion attempts.

    ``angles``/``roots`` are per-hit, 1-D and of one length; ``roots``
    indexes the originating path, an integer in [0, n_paths), so that
    per-path totals are independent (splitting correlates fragments of the
    same path, never across paths).  Every hit carries the one ``weight``
    that r and eps fix.
    ``n_absorbed`` counts the fragments that ended on the diameter.  Random
    streams are keyed per fixed block of path indices, never per worker,
    so the sample does not depend on the worker count.
    """

    r: float
    eps: float
    n_paths: int
    angles: np.ndarray
    roots: np.ndarray
    n_absorbed: int

    def __post_init__(self):
        _radii(self.r, self.eps)  # an r or eps whose ladder never ends raises
        for name, least in (("n_paths", 1), ("n_absorbed", 0)):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, Integral) or count < least:
                raise DomainError(f"{name} must be an integer >= {least}, not {count!r}")
        self.angles = np.asarray(self.angles, dtype=float)
        self.roots = np.asarray(self.roots)
        if not (self.angles.ndim == self.roots.ndim == 1):
            raise DomainError("angles and roots must be one-dimensional")
        if len(self.angles) != len(self.roots):
            raise DomainError("angles and roots must have one length per hit")
        # np.add.at in mass_stderr would wrap a negative root onto another path
        if not np.issubdtype(self.roots.dtype, np.integer) or (
            len(self.roots) and not 0 <= self.roots.min() <= self.roots.max() < self.n_paths
        ):
            raise DomainError(f"roots must be integer path indices in [0, {self.n_paths})")

    @property
    def weight(self) -> float:
        """The weight of every hit: 2^-(number of half-disks - 1), one halving per split."""
        return 0.5 ** (len(_radii(self.r, self.eps)) - 2)

    @property
    def mass_estimate(self) -> float:
        return float(self.weight * len(self.angles) / (self.n_paths * self.eps))

    def mass_stderr(self) -> float:
        if self.n_paths < 2:
            raise DomainError("mass standard error needs at least 2 paths")
        per_root = np.zeros(self.n_paths)
        np.add.at(per_root, self.roots, self.weight / self.eps)
        return float(per_root.std(ddof=1) / np.sqrt(self.n_paths))

    def to_csv(self, path) -> None:
        """Write ``hit,angle,eps,weight``, one row per hit, each number as
        ``%.17g``; eps and the weight are formatted once into the row
        template, so only the angle is formatted per row."""
        with open(path, "w") as fh:
            fh.write("hit,angle,eps,weight\n")
            row = f"1,%.17g,{self.eps:.17g},{self.weight:.17g}\n"
            _write_csv_rows(fh, self.angles[:, None], row)


def _exit(a, b, rng):
    """Exact exit of Brownian motion from the unit upper half-disk, started
    at the points a + i b inside it.  Returns the mask of paths that leave
    through the arc and the cosines -x/2 of their exit points.

    tan(phi) is drawn as sin(phi)/cos(phi), and a hit is kept as its
    cosine, because numpy's float64 tan and arccos change their last bits
    with its SIMD dispatch while sin, cos, sqrt and arithmetic do not: the
    hit decisions are then the same on any CPU."""
    q = a * a + b * b
    phi = np.pi * (rng.random(a.size) - 0.5)
    x = -a * (1.0 + 1.0 / q) + b * (1.0 / q - 1.0) * (np.sin(phi) / np.cos(phi))
    hit = np.abs(x) < 2.0
    return hit, -0.5 * x[hit]


def _block_hits(radii, count, rng, root0):
    # a fragment at radius radii[j - 1] with cosine c exits the half-disk
    # of radius radii[j] from rho (c + i sqrt(1 - c^2)) in its units; every
    # path starts at i*eps, cosine 0
    c = np.zeros(count)
    roots = root0 + np.arange(count, dtype=np.int64)
    absorbed = 0
    for j in range(1, len(radii)):
        if j > 1:
            c = np.concatenate([c, c])
            roots = np.concatenate([roots, roots])
        rho = radii[j - 1] / radii[j]
        hit, c = _exit(rho * c, rho * np.sqrt(1.0 - c * c), rng)
        absorbed += hit.size - c.size
        roots = roots[hit]
    return np.arccos(c), roots, absorbed


def sample_excursion_hits(r: float, eps: float, n: int, seed: int) -> ExcursionSample:
    """Sample n excursion attempts from i*eps against the radius-r arc.

    Each path exits the half-disks of radii 2 eps, 4 eps, ... below r and
    finally r, one exact exit each.  Before every exit but the first the
    surviving fragments are doubled and their weights halved, an unbiased
    splitting that keeps about 0.64 fragments per path at every level, so
    every hit carries the sample's ``weight``, 2^-(number of half-disks - 1).

    Paths ``[k B, (k+1) B)`` form block k (B = ``_PATH_BLOCK``) and draw
    from ``replica_rng(seed, k)``; split fragments of a path share their
    block's stream.  Blocks run one after another in the calling thread;
    neither their bounds nor their streams depend on ``GFFFORGE_THREADS``,
    so neither does the sample.
    """
    radii = _radii(r, eps)
    if eps >= r / 10:
        raise DomainError("eps must be < r/10 for the excursion limit to apply")
    if n < 1:
        raise DomainError("need n >= 1")
    parts = [
        _block_hits(radii, min(_PATH_BLOCK, n - lo), replica_rng(seed, k), lo)
        for k, lo in enumerate(range(0, n, _PATH_BLOCK))
    ]
    return ExcursionSample(
        r=r,
        eps=eps,
        n_paths=n,
        angles=np.concatenate([p[0] for p in parts]),
        roots=np.concatenate([p[1] for p in parts]),
        n_absorbed=int(sum(p[2] for p in parts)),
    )


def continue_paths(z0, r_target: float, seed: int):
    """Continue Brownian motion from given points of the upper half-disk of
    radius r_target to its boundary, one exact exit per path.  Returns (hit
    mask, hit angles) aligned with the inputs; paths absorbed at the real
    axis get no angle."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=complex))
    # a NaN start or target would make every path a silent miss
    if not (np.all(np.isfinite(z0)) and np.isfinite(r_target)):
        raise DomainError("continuation needs finite start points and target radius")
    if np.any(z0.imag <= 0):
        raise DomainError("continuation must start inside the upper half-plane")
    if np.any(np.abs(z0) >= r_target):
        raise DomainError("continuation must start inside the target radius")
    hit, c = _exit(z0.real / r_target, z0.imag / r_target, replica_rng(seed, 0))
    angles = np.full(len(z0), np.nan)
    angles[hit] = np.arccos(c)
    return hit, angles


def ks_distance(values) -> float:
    """Sup distance between the empirical CDF of the finite 1-D ``values``
    and the hit-angle law ``hitting_cdf``."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise DomainError("no values to compare")
    if v.ndim != 1:
        raise DomainError("values must be 1-D")
    if not np.all(np.isfinite(v)):
        raise DomainError("values must be finite")
    v = np.sort(v)
    model = hitting_cdf(v)
    steps = np.arange(v.size + 1) / v.size  # the ECDF just below and at each value
    return float(np.max(np.maximum(np.abs(steps[1:] - model), np.abs(steps[:-1] - model))))
