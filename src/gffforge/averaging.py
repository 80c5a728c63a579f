"""Circle averages, sine averages, and their path laws.

A sine average at scale u pairs a half-plane field with the measure of
density sqrt(u) sin(theta) d(theta) on the semicircle of radius 1/sqrt(u)
(total mass 2 sqrt(u)).  Pairings with singular measures are defined
through the harmonic part of the domain Markov decomposition; the lattice
backends below compute exactly that, with every linear functional of a
harmonic extension collapsed once into a weight vector over ring sites;
``fields.sample_functionals`` then draws them without building a field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResolutionError
from .fields import FieldSample, sample_functionals, sample_gff_observables
from .geometry import TestFunction, UpperHalfPlane, gauss_legendre, mollifier
from .greens import LatticeDomain, disk_lattice, halfplane_lattice

__all__ = [
    "CircleMeasure",
    "SineMeasure",
    "FattenedSineMeasure",
    "ProcessPath",
    "DEFAULT_U_GRID",
    "DEFAULT_T_GRID",
    "circle_average",
    "circle_average_path",
    "sine_pair",
    "fattened_sine_pair",
    "sine_average_path",
    "sine_lattice_for",
    "rotational_average_check",
]

# scale grids with dyadic (s, 2s, 4s) triples plus the 2.5%/5%/10%
# refinement offsets the continuity check consumes
DEFAULT_U_GRID = (0.5, 1.0, 1.025, 1.05, 1.1, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
DEFAULT_T_GRID = (0.25, 0.25625, 0.2625, 0.275, 0.5, 0.75, 1.0, 1.25)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleMeasure:
    """Uniform probability measure on the circle of radius ``radius`` about
    ``center``; pairing a field with it is the circle average."""

    center: complex
    radius: float
    n_nodes: int = 512

    def __post_init__(self):
        if not self.radius > 0:
            raise DomainError("CircleMeasure needs radius > 0")

    @property
    def label(self) -> str:
        return f"circle(z={self.center:.6g},eps={self.radius:.6g})"

    def discretize(self, offset: int = 0):
        h = 2.0 * np.pi / self.n_nodes
        t = (np.arange(self.n_nodes) + (0.25 if offset == 0 else 0.75)) * h
        nodes = self.center + self.radius * np.exp(1j * t)
        return nodes, np.full(self.n_nodes, 1.0 / self.n_nodes)


@dataclass(frozen=True)
class SineMeasure:
    """sqrt(u) sin(theta) d(theta) on the upper semicircle of radius
    1/sqrt(u); total mass 2 sqrt(u)."""

    u: float
    n_nodes: int = 1024

    def __post_init__(self):
        if not self.u > 0:
            raise DomainError("SineMeasure needs u > 0")

    @property
    def radius(self) -> float:
        return 1.0 / np.sqrt(self.u)

    @property
    def total_mass(self) -> float:
        return 2.0 * np.sqrt(self.u)

    @property
    def label(self) -> str:
        return f"sine(u={self.u:.6g})"

    def discretize(self, offset: int = 0):
        h = np.pi / self.n_nodes
        t = (np.arange(self.n_nodes) + (0.25 if offset == 0 else 0.75)) * h
        nodes = np.exp(1j * t) * self.radius
        weights = np.sqrt(self.u) * np.sin(t) * h
        return nodes, weights


@dataclass(frozen=True)
class FattenedSineMeasure:
    """Smooth two-sided approximation of a sine measure.

    The angular cutoff chi kills a delta-neighbourhood of the real axis and
    the radial mollification spreads the semicircle over scales u(1 + x)
    (side "in") or u(1 - x) (side "out") with x ~ eta(x/delta)/delta on
    (0, delta).
    """

    u: float
    delta: float
    side: str = "in"
    profile: str = "default"
    n_x: int = 24
    n_theta: int = 512

    def __post_init__(self):
        if self.side not in ("in", "out"):
            raise DomainError("side must be 'in' or 'out'")
        if not self.u > 0:
            raise DomainError("FattenedSineMeasure needs u > 0")
        if self.side == "out" and self.delta >= 1.0:
            raise DomainError("outward fattening needs delta < 1")

    @property
    def label(self) -> str:
        return f"fattened_sine(u={self.u:.6g},delta={self.delta:.4g},{self.side})"

    def discretize(self, offset: int = 0):
        m = mollifier(self.delta, self.profile)
        xs, wx = gauss_legendre(self.n_x + offset, 0.0, self.delta)
        h = np.pi / self.n_theta
        t = (np.arange(self.n_theta) + (0.25 if offset == 0 else 0.75)) * h
        chi = m.chi(t)
        sgn = 1.0 if self.side == "in" else -1.0
        scales = self.u * (1.0 + sgn * xs)  # (n_x,)
        radii = 1.0 / np.sqrt(scales)
        nodes = radii[:, None] * np.exp(1j * t)[None, :]
        weights = (
            (wx * m.eta_scaled(xs) * np.sqrt(scales))[:, None]
            * (np.sin(t) * chi * h)[None, :]
        )
        return nodes.ravel(), weights.ravel()


@dataclass
class ProcessPath:
    """Replica paths of a process observed on a fixed grid."""

    grid: np.ndarray
    replicas: np.ndarray
    kind: str
    backend: str
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.replicas = np.asarray(self.replicas, dtype=float)
        if self.replicas.ndim != 2 or self.replicas.shape[1] != len(self.grid):
            raise DomainError("replicas must be (n, len(grid))")
        if np.any(np.diff(self.grid) <= 0):
            raise DomainError("grid must be strictly increasing")

    def column(self, value: float) -> np.ndarray:
        """Replica values at a grid point, linearly interpolated off-grid."""
        g = self.grid
        hit = np.nonzero(np.isclose(g, value, rtol=1e-12, atol=1e-12))[0]
        if hit.size:
            return self.replicas[:, hit[0]]
        if not (g[0] <= value <= g[-1]):
            raise DomainError(f"{value} outside the path grid")
        j = int(np.searchsorted(g, value)) - 1
        lam = (value - g[j]) / (g[j + 1] - g[j])
        return (1.0 - lam) * self.replicas[:, j] + lam * self.replicas[:, j + 1]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(f"{v:.17g}" for v in self.grid) + "\n")
            for row in self.replicas:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def from_csv(cls, path, kind: str = "", backend: str = "", seed: int = 0) -> "ProcessPath":
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        return cls(grid=data[0], replicas=data[1:], kind=kind, backend=backend, seed=seed)


# ---------------------------------------------------------------------------
# lattice pairing plumbing
# ---------------------------------------------------------------------------


def _interp_coeffs(lat: LatticeDomain, nodes: np.ndarray, weights: np.ndarray):
    """Spread quadrature weights onto the four grid corners of each node.

    Returns a dict site-code -> coefficient; corners that are not interior
    sites are returned separately (they must carry Dirichlet zeros).
    """
    a = lat.spacing
    x = nodes.real / a
    y = nodes.imag / a
    ix = np.floor(x).astype(np.int64)
    iy = np.floor(y).astype(np.int64)
    fx = x - ix
    fy = y - iy
    coeffs: dict = {}
    missing = 0.0
    for di, dj, frac in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        for k in range(len(nodes)):
            c = frac[k] * weights[k]
            if c == 0.0:
                continue
            key = (int(ix[k] + di), int(iy[k] + dj))
            coeffs[key] = coeffs.get(key, 0.0) + c
    return coeffs


def _pairing_weights(lat: LatticeDomain, member_idx: np.ndarray, nodes, weights):
    """Ring weight vector computing sum_q w_q * (harmonic extension)(z_q).

    The extension is the field on ring sites and zero on the outer lattice
    boundary, so interpolation corners there pick up the field value or
    drop out; a corner strictly outside the cell closure means the node
    grid is too coarse for the subdomain.
    """
    cell = lat.cell(member_idx)
    member_pos = {int(k): p for p, k in enumerate(cell.member_idx)}
    ring_pos = {int(k): p for p, k in enumerate(cell.ring_idx)}
    coeffs = _interp_coeffs(lat, np.asarray(nodes), np.asarray(weights))
    q = np.zeros(len(cell.member_idx))
    direct = np.zeros(len(cell.ring_idx))
    bnd = {(int(i), int(j)) for i, j in lat.boundary_ij}
    for (i, j), c in coeffs.items():
        if (i, j) in bnd:
            continue
        try:
            site = lat.site_index((i, j))
        except DomainError:
            raise ResolutionError(f"pairing node corner {(i, j)} falls off the lattice")
        p = member_pos.get(site)
        if p is not None:
            q[p] += c
            continue
        p = ring_pos.get(site)
        if p is None:
            raise ResolutionError(f"pairing node corner {(i, j)} leaves the subdomain")
        direct[p] += c
    return cell, cell.ring_weights(q) + direct


def _sample_ring_functionals(lat: LatticeDomain, weights, n, seed, law, alpha) -> np.ndarray:
    """(n, k) replicas of k ring functionals (ring_idx, w), one column each."""
    W = np.zeros((lat.n_sites, len(weights)))
    for col, (ring_idx, w) in enumerate(weights):
        W[ring_idx, col] = w
    return sample_functionals(lat, W, n, seed, law, alpha)


# ---------------------------------------------------------------------------
# circle averages
# ---------------------------------------------------------------------------


def circle_average(sample: FieldSample, z: complex, eps: float) -> float:
    """Harmonic extension of the field from the lattice boundary of
    B_z(eps), evaluated at the interior site nearest z."""
    ring_idx, w = _circle_weights(sample.lattice, complex(z), float(eps))
    return float(w @ sample.values[ring_idx])


def _circle_weights(lat: LatticeDomain, z: complex, eps: float):
    if not eps > 0:
        raise DomainError("circle_average needs eps > 0")
    key = ("circle", complex(z), float(eps))
    hit = lat._weights.get(key)
    if hit is not None:
        return hit
    idx = lat.indices_of(lambda zz: np.abs(zz - z) < eps)
    if len(idx) < 4:
        raise ResolutionError(f"ball B({z}, {eps}) captures fewer than 4 lattice sites")
    target = lat.nearest_site(z)
    cell = lat.cell(idx)
    pos = np.searchsorted(cell.member_idx, target)
    if pos >= len(cell.member_idx) or cell.member_idx[pos] != target:
        raise ResolutionError("nearest site to the center is not inside the ball")
    e = np.zeros(len(cell.member_idx))
    e[pos] = 1.0
    w = cell.ring_weights(e)
    lat._weights[key] = (cell.ring_idx, w)
    return lat._weights[key]


def circle_average_path(
    n: int,
    t_grid,
    seed: int,
    backend: str = "exact",
    lattice: LatticeDomain | None = None,
    law: str = "gff",
    alpha: float = 2.0,
    center: complex = 0.0,
) -> ProcessPath:
    """Circle-average process X(t) = h_(e^-t)(center) on a fixed t grid.

    The exact backend draws from the min(t, t') covariance directly; the
    lattice backend pairs lattice fields (law "gff" or "stable") with the
    circle-average weights through ``fields.sample_functionals``.
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t < 0):
        raise DomainError("t grid must be nonnegative")
    if backend == "exact":
        if law != "gff":
            raise DomainError("the exact backend only carries the Gaussian law")
        cov = np.minimum(t[:, None], t[None, :])
        reps = sample_gff_observables(cov, n, seed)
        return ProcessPath(t, reps, kind="circle", backend="exact", seed=seed)
    if backend != "lattice":
        raise DomainError(f"unknown backend {backend!r}")
    lat = lattice if lattice is not None else disk_lattice(128)
    # a ball that exhausts the domain has an empty ring: a zero column
    weights = [_circle_weights(lat, complex(center), float(r)) for r in np.exp(-t)]
    reps = _sample_ring_functionals(lat, weights, n, seed, law, alpha)
    return ProcessPath(t, reps, kind="circle", backend="lattice", seed=seed, meta={"law": law})


# ---------------------------------------------------------------------------
# sine pairings
# ---------------------------------------------------------------------------


def _as_evaluator(f):
    if isinstance(f, FieldSample):
        return f.interp
    if isinstance(f, TestFunction):
        return f.evaluator
    if callable(f):
        return f
    raise DomainError("expected a callable, TestFunction, or FieldSample")


def sine_pair(f, u: float, n_nodes: int = 256) -> float:
    """Quadrature pairing sqrt(u) * integral of sin(theta) f(e^(i theta)/sqrt(u))."""
    if not u > 0:
        raise DomainError("sine_pair needs u > 0")
    ev = _as_evaluator(f)
    t, w = gauss_legendre(n_nodes, 0.0, np.pi)
    vals = np.asarray(ev(np.exp(1j * t) / np.sqrt(u)), dtype=float)
    return float(np.sqrt(u) * np.sum(w * np.sin(t) * vals))


def fattened_sine_pair(f, measure: FattenedSineMeasure) -> float:
    """Pairing with the smooth fattened density via nested quadrature."""
    ev = _as_evaluator(f)
    nodes, weights = measure.discretize(offset=0)
    return float(np.sum(weights * np.asarray(ev(nodes), dtype=float)))


def sine_lattice_for(
    u_grid, points_per_radius: int = 12, width_factor: float = 8.0
) -> LatticeDomain:
    """Dirichlet box truncation of the half-plane sized for a u grid.

    The box wall removes long-range Green mass; at width 4/sqrt(min u) the
    sine covariance sits ~7% low, at 8/sqrt(min u) the deficit is inside
    Monte Carlo noise, hence the default.  Spacing resolves the smallest
    pairing semicircle with ``points_per_radius`` sites.
    """
    u = np.asarray(u_grid, dtype=float)
    if np.any(u <= 0):
        raise DomainError("u grid must be positive")
    width = width_factor / np.sqrt(u.min())
    smallest = 1.0 / np.sqrt(2.0 * u.max())
    return halfplane_lattice(width, smallest / points_per_radius)


def _sine_weights(lat: LatticeDomain, u: float, r_factor: float, n_nodes: int = 256):
    key = ("sine", float(u), float(r_factor), n_nodes)
    hit = lat._weights.get(key)
    if hit is not None:
        return hit
    radius = 1.0 / np.sqrt(u)
    idx = lat.indices_of(lambda z: np.abs(z) < radius)
    if len(idx) < 16:
        raise ResolutionError(f"semi-disk at u={u} captures too few lattice sites")
    r = r_factor * u
    t, wq = gauss_legendre(n_nodes, 0.0, np.pi)
    nodes = np.exp(1j * t) / np.sqrt(r)
    weights = np.sqrt(r) * np.sin(t) * wq
    cell, pair = _pairing_weights(lat, idx, nodes, weights)
    lat._weights[key] = (cell.ring_idx, pair)
    return lat._weights[key]


def sine_average_path(
    n: int,
    u_grid,
    seed: int,
    backend: str = "exact",
    lattice: LatticeDomain | None = None,
    law: str = "gff",
    alpha: float = 2.0,
    r_factor: float = 2.0,
    domain=None,
) -> ProcessPath:
    """Sine-average process Y(u) on a fixed u grid.

    The sine measures live on semicircles about the origin in the upper
    half-plane; that is the only supported domain.  exact: jointly
    Gaussian with covariance (pi^2/2) min(u, u'), in closed form: between
    concentric semicircles only the first angular mode of the half-plane
    kernel survives the sin weights.  lattice: pair the harmonic part of
    the domain Markov decomposition at semi-disk scale u with the sine
    measure at test scale r_factor * u, through
    ``fields.sample_functionals``; the choice of test scale is immaterial
    and exercised by tests.
    """
    if domain is not None and not isinstance(domain, UpperHalfPlane):
        raise DomainError("sine averages are defined on the upper half-plane only")
    u = np.asarray(u_grid, dtype=float)
    if np.any(u <= 0) or np.any(np.diff(u) <= 0):
        raise DomainError("u grid must be positive and increasing")
    if backend == "exact":
        if law != "gff":
            raise DomainError("the exact backend only carries the Gaussian law")
        cov = (np.pi**2 / 2.0) * np.minimum.outer(u, u)
        reps = sample_gff_observables(cov, n, seed)
        return ProcessPath(u, reps, kind="sine", backend="exact", seed=seed)
    if backend != "lattice":
        raise DomainError(f"unknown backend {backend!r}")
    lat = lattice if lattice is not None else sine_lattice_for(u)
    weights = [_sine_weights(lat, float(v), r_factor) for v in u]
    reps = _sample_ring_functionals(lat, weights, n, seed, law, alpha)
    return ProcessPath(u, reps, kind="sine", backend="lattice", seed=seed, meta={"law": law})


# ---------------------------------------------------------------------------
# rotational averaging
# ---------------------------------------------------------------------------


def rotational_average_check(
    sample: FieldSample, u: float, n_angles: int = 64, n_theta: int = 256
) -> tuple:
    """Both sides of the rotational identity for a disk field.

    lhs: for each of n_angles equispaced frame rotations, decompose the
    field in the semi-disk of radius 1/sqrt(u) of that frame and pair
    the harmonic part with the normalized sine density sin(theta)/2 on
    the semicircle, scaled by sqrt(u).  The zero-boundary part of the
    decomposition vanishes on the semicircle, so only the harmonic part
    contributes there.  rhs: sqrt(u) times the circle average at the
    same radius.  Averaging the rotated sine densities over the frames
    gives the uniform density on the circle, so for the Gaussian law
    lhs equals rhs up to lattice and quadrature discretization.
    """
    if not u >= 1.0:
        raise DomainError("rotational check needs u >= 1 (pairing circle inside the disk)")
    lat = sample.lattice
    if 1.0 / np.sqrt(u) <= 6.0 * lat.spacing:
        raise ResolutionError(
            f"radius {1.0 / np.sqrt(u):.4g} unresolved at spacing {lat.spacing:.4g}"
        )
    vals_by_angle = np.empty(n_angles)
    for k in range(n_angles):
        alpha = 2.0 * np.pi * k / n_angles
        ring_idx, w = _rotated_semidisk_weights(lat, u, alpha, n_theta)
        vals_by_angle[k] = w @ sample.values[ring_idx]
    lhs = float(vals_by_angle.mean())
    rhs = float(np.sqrt(u) * circle_average(sample, 0.0, 1.0 / np.sqrt(u)))
    return lhs, rhs


def _rotated_semidisk_weights(lat: LatticeDomain, u: float, alpha: float, n_theta: int):
    key = ("rotavg", float(u), round(float(alpha), 12), n_theta)
    hit = lat._weights.get(key)
    if hit is not None:
        return hit
    rot = np.exp(1j * alpha)
    radius = 1.0 / np.sqrt(u)
    idx = lat.indices_of(lambda z: (np.abs(z) < radius) & ((np.conj(rot) * z).imag > 1e-12))
    if len(idx) < 16:
        raise ResolutionError("rotated semi-disk captures too few lattice sites")
    a = lat.spacing
    t, wq = gauss_legendre(n_theta, 0.0, np.pi)
    # quadrature nodes sit inside the arc so every bilinear corner is a
    # member site; reading at two offsets and extrapolating linearly to
    # the arc removes the O(spacing) inward bias.  Nodes closer than two
    # steps to the tilted diameter are dropped (the sine density
    # vanishes there) and the weights are renormalized to the full sine
    # mass.
    rho_in, rho_out = radius - 4.0 * a, radius - 2.0 * a
    keep = rho_in * np.sin(t) >= 2.0 * a
    t, wq = t[keep], wq[keep]
    w = 0.5 * np.sqrt(u) * np.sin(t) * wq
    w *= np.sqrt(u) / w.sum()
    nodes = np.concatenate([rot * rho_out * np.exp(1j * t), rot * rho_in * np.exp(1j * t)])
    weights = np.concatenate([2.0 * w, -w])
    cell, pair = _pairing_weights(lat, idx, nodes, weights)
    lat._weights[key] = (cell.ring_idx, pair)
    return lat._weights[key]
