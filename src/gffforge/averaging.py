"""Circle averages, sine averages, and their path laws.

A sine average at scale u pairs a half-plane field with the measure of
density sqrt(u) sin(theta) d(theta) on the semicircle of radius 1/sqrt(u)
(total mass 2 sqrt(u)).  Pairings with singular measures are defined
through the harmonic part of the domain Markov decomposition; the lattice
routes below compute exactly that, with every linear functional of a
harmonic extension collapsed once into a weight vector over ring sites;
``fields.sample_functionals`` then draws them without building a field.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DomainError, ResolutionError
from .fields import FieldSample, sample_functionals, sample_gff_observables
from .geometry import gauss_legendre
from .greens import DirichletCell, LatticeDomain, halfplane_lattice

__all__ = [
    "CircleMeasure",
    "SineMeasure",
    "ProcessPath",
    "DEFAULT_U_GRID",
    "DEFAULT_T_GRID",
    "circle_average_path",
    "sine_pair",
    "sine_average_path",
    "sine_lattice_for",
    "rotational_average_check",
]

# scale grids with dyadic (s, 2s, 4s) triples plus the 2.5%/5%/10%
# refinement offsets the continuity check consumes
DEFAULT_U_GRID = (0.5, 1.0, 1.025, 1.05, 1.1, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
DEFAULT_T_GRID = (0.25, 0.25625, 0.2625, 0.275, 0.5, 0.75, 1.0, 1.25)

# rows per string format in _write_csv_rows: bounds the text held at once
# for any row count
_CSV_BLOCK = 4096


def _write_csv_rows(fh, values, row: str) -> None:
    """Write each row of the 2-D float array ``values`` to the text file
    ``fh`` as ``row % tuple(that row)``.

    ``row`` holds one ``%.17g`` per column (17 significant digits read a
    float64 back exactly) and ends in a newline; it may carry fixed text,
    such as a column that is constant over the rows.  One ``%`` formats up
    to ``_CSV_BLOCK`` rows of the repeated template, so no Python runs per
    row.  The text equals ``np.savetxt``'s and the per-value f-string's."""
    for lo in range(0, len(values), _CSV_BLOCK):
        block = values[lo : lo + _CSV_BLOCK]
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def _check_nodes(measure) -> None:
    n = measure.n_nodes
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise DomainError(f"{type(measure).__name__} needs a positive integer n_nodes, not {n!r}")


@dataclass(frozen=True)
class CircleMeasure:
    """Uniform probability measure on the circle of radius ``radius`` about
    ``center``; pairing a field with it is the circle average."""

    center: complex
    radius: float
    n_nodes: int = 512

    def __post_init__(self):
        if not (0 < self.radius < np.inf and np.isfinite(self.center)):
            raise DomainError("CircleMeasure needs a finite center and finite radius > 0")
        _check_nodes(self)

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
        if not 0 < self.u < np.inf:
            raise DomainError("SineMeasure needs finite u > 0")
        _check_nodes(self)

    @property
    def radius(self) -> float:
        return 1.0 / np.sqrt(self.u)

    def discretize(self, offset: int = 0):
        h = np.pi / self.n_nodes
        t = (np.arange(self.n_nodes) + (0.25 if offset == 0 else 0.75)) * h
        nodes = np.exp(1j * t) * self.radius
        weights = np.sqrt(self.u) * np.sin(t) * h
        return nodes, weights


@dataclass
class ProcessPath:
    """Replica paths of a process observed on a fixed grid."""

    grid: np.ndarray
    replicas: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.replicas = np.asarray(self.replicas, dtype=float)
        if self.grid.ndim != 1:
            raise DomainError("grid must be one-dimensional")
        if not np.all(np.isfinite(self.grid)):
            raise DomainError("grid must be finite")
        if self.replicas.ndim != 2 or self.replicas.shape[1] != len(self.grid):
            raise DomainError("replicas must be (n, len(grid))")
        if not np.all(np.isfinite(self.replicas)):
            raise DomainError("replicas must be finite")
        if np.any(np.diff(self.grid) <= 0):
            raise DomainError("grid must be strictly increasing")

    def index(self, value: float) -> int | None:
        """Position of the first grid point within 1e-9 |value| of value,
        else None, as for a value that is not finite.  The rule is relative
        only, so 0 matches only 0 and a grid in any unit matches alike."""
        if not np.isfinite(value):
            return None
        hit = np.flatnonzero(np.abs(self.grid - value) <= 1e-9 * abs(value))
        return int(hit[0]) if hit.size else None

    def column(self, value: float) -> np.ndarray:
        """Replica values at a grid point; an off-grid value raises."""
        j = self.index(value)
        if j is None:
            raise DomainError(f"{value:g} is not on the path grid")
        return self.replicas[:, j]

    def to_csv(self, path) -> None:
        """Write the grid row, then one row per replica, each value as
        ``%.17g`` and comma-separated (see ``_write_csv_rows``)."""
        row = ",".join(["%.17g"] * len(self.grid)) + "\n"
        with open(path, "w") as fh:
            for rows in (self.grid[None, :], self.replicas):
                _write_csv_rows(fh, rows, row)


# ---------------------------------------------------------------------------
# lattice pairing plumbing
# ---------------------------------------------------------------------------


def _cell_weights(lat: LatticeDomain, region, minimum: int, what: str, nodes, weights):
    """Ring weights of the Dirichlet cell on the sites in ``region`` (a
    predicate on points), paired with the quadrature (nodes, weights)."""
    idx = lat.indices_of(region)
    if len(idx) < minimum:
        raise ResolutionError(f"{what} captures fewer than {minimum} lattice sites")
    return DirichletCell(lat, idx).pairing_weights(nodes, weights)


def _average_path(grid, rate, functional, n, seed, lattice, law, alpha):
    """Either average process on ``grid``: with no lattice the exact Gaussian
    path, covariance rate * min(s, s') (a grid point at 0 reads exactly 0);
    on a lattice, the ring functional ``functional(lat, v)`` as column v."""
    if lattice is None:
        if law != "gff" or alpha != 2.0:
            raise DomainError("the exact backend only carries the Gaussian law, which is alpha = 2")
        return ProcessPath(grid, sample_gff_observables(rate * np.minimum.outer(grid, grid), n, seed))
    W = np.zeros((lattice.n_sites, len(grid)))
    for col, v in enumerate(grid):
        ring_idx, w = functional(lattice, float(v))
        W[ring_idx, col] = w
    return ProcessPath(grid, sample_functionals(lattice, W, n, seed, law, alpha))


# ---------------------------------------------------------------------------
# circle averages
# ---------------------------------------------------------------------------


def _circle_weights(lat: LatticeDomain, eps: float):
    """Ring weights of the circle average at B_0(eps): the harmonic
    extension of the field from the ball's lattice boundary, evaluated at
    the center site (0, 0), as a one-node pairing."""
    if not eps > 0:
        raise DomainError("circle average needs eps > 0")

    def build():
        if not np.any(lat.z == 0.0):
            raise ResolutionError("the disk center (0, 0) is not an interior lattice site")
        center = np.zeros(1, dtype=complex), np.ones(1)
        return _cell_weights(lat, lambda z: np.abs(z) < eps, 4, f"ball B(0, {eps})", *center)

    return lat.cached(("circle", float(eps)), build)


def circle_average_path(
    n: int,
    t_grid,
    seed: int,
    lattice: LatticeDomain | None = None,
    law: str = "gff",
    alpha: float = 2.0,
) -> ProcessPath:
    """Circle-average process X(t) = h_(e^-t)(0) on a fixed t grid.

    With no lattice, drawn from the min(t, t') covariance directly (law
    "gff" only); on a disk lattice, lattice fields (law "gff" or "stable")
    paired with the circle-average weights through
    ``fields.sample_functionals``.
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t < 0):
        raise DomainError("t grid must be nonnegative")
    # a ball that exhausts the domain has an empty ring: a zero column
    return _average_path(t, 1.0, lambda lat, v: _circle_weights(lat, np.exp(-v)),
                         n, seed, lattice, law, alpha)


# ---------------------------------------------------------------------------
# sine pairings
# ---------------------------------------------------------------------------

_R_FACTOR = 2.0  # the lattice sine test scale over the semi-disk scale u


def _sine_rule(u: float):
    """256-node Gauss-Legendre rule for the sine measure at scale u: nodes
    e^(it)/sqrt(u) and weights sqrt(u) sin(t) w on the upper semicircle."""
    t, w = gauss_legendre(256, 0.0, np.pi)
    return np.exp(1j * t) / np.sqrt(u), np.sqrt(u) * np.sin(t) * w


def sine_pair(f, u: float) -> float:
    """Quadrature pairing sqrt(u) * integral of sin(theta) f(e^(i theta)/sqrt(u))."""
    if not 0 < u < np.inf:
        raise DomainError("sine_pair needs 0 < u < inf")
    if not callable(f):
        raise DomainError("expected a callable")
    nodes, weights = _sine_rule(u)
    return float(np.sum(weights * np.asarray(f(nodes), dtype=float)))


def _u_grid(u_grid) -> np.ndarray:
    """u_grid as a float array, if non-empty, finite, positive and strictly increasing."""
    u = np.asarray(u_grid, dtype=float)
    # NaN fails every comparison; an increasing grid is finite if its last value is
    if not (u.ndim == 1 and u.size and np.all(np.diff(u, prepend=0.0) > 0) and u[-1] < np.inf):
        raise DomainError("u grid must be non-empty, finite, positive and strictly increasing")
    return u


def sine_lattice_for(
    u_grid, points_per_radius: int = 12, width_factor: float = 8.0
) -> LatticeDomain:
    """Dirichlet box truncation of the half-plane sized for a u grid.

    The box wall removes long-range Green mass.  The exact lattice
    variances of the sine averages (2 pi w . L^-1 w over the sine weights,
    no sampling) on the grid (1, 2, 4) sit 3.6-6.8% below (pi^2/2) u at
    width 4/sqrt(min u) and 2.6-2.8% below at the default 8/sqrt(min u);
    on DEFAULT_U_GRID at the default, 1.8-3.4% below.  A 2.8% deficit is
    2 s.e. of a variance from 10,000 replicas.  Spacing resolves the
    smallest pairing semicircle with ``points_per_radius`` sites.
    """
    u = _u_grid(u_grid)
    width = width_factor / np.sqrt(u.min())
    smallest = 1.0 / np.sqrt(2.0 * u.max())
    return halfplane_lattice(width, smallest / points_per_radius)


def _sine_weights(lat: LatticeDomain, u: float):
    # the sine rule's nodes near the real axis read the Dirichlet row j = 0
    if np.any(lat.interior_ij[:, 1] <= 0):
        raise DomainError("sine averages need a half-plane lattice (every site at j >= 1)")
    region = lambda z: np.abs(z) < 1.0 / np.sqrt(u)
    build = lambda: _cell_weights(lat, region, 16, f"semi-disk at u={u}", *_sine_rule(_R_FACTOR * u))
    return lat.cached(("sine", float(u)), build)


def sine_average_path(
    n: int,
    u_grid,
    seed: int,
    lattice: LatticeDomain | None = None,
    law: str = "gff",
    alpha: float = 2.0,
) -> ProcessPath:
    """Sine-average process Y(u) on a fixed u grid.

    The sine measures live on semicircles about the origin in the upper
    half-plane, the only supported domain: a lattice with a site at j <= 0
    raises DomainError.  With no lattice (law "gff" only): jointly
    Gaussian with covariance (pi^2/2) min(u, u'), in closed form: between
    concentric semicircles only the first angular mode of the half-plane
    kernel survives the sin weights.  On a lattice such as
    ``sine_lattice_for(u_grid)``: pair the harmonic part of
    the domain Markov decomposition at semi-disk scale u with the sine
    measure at the fixed test scale 2.0 * u, through
    ``fields.sample_functionals``.  That scale is immaterial: for the same
    reason the harmonic part's sine average is the same on every inner
    semicircle.
    """
    return _average_path(_u_grid(u_grid), np.pi**2 / 2.0, _sine_weights,
                         n, seed, lattice, law, alpha)


# ---------------------------------------------------------------------------
# rotational averaging
# ---------------------------------------------------------------------------


def rotational_average_check(
    sample: FieldSample, u: float, n_angles: int = 64
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
    lhs equals rhs up to lattice and quadrature discretization.  The
    frame pairings are averaged once per lattice into one ring
    functional, so each side is one dot product; that frame sum is built
    from orbit representatives under the lattice's square symmetry
    (``LatticeDomain.square_symmetries``), one cell per orbit.
    """
    if not u >= 1.0:
        raise DomainError("rotational check needs u >= 1 (pairing circle inside the disk)")
    if n_angles < 1:
        raise DomainError("rotational check needs n_angles >= 1")
    lat = sample.lattice
    if 1.0 / np.sqrt(u) <= 6.0 * lat.spacing:
        raise ResolutionError(
            f"radius {1.0 / np.sqrt(u):.4g} unresolved at spacing {lat.spacing:.4g}"
        )
    ring_idx, w = _rotational_weights(lat, u, n_angles)
    lhs = float(w @ sample.values[ring_idx])
    ring_idx, w = _circle_weights(lat, 1.0 / np.sqrt(u))
    rhs = float(np.sqrt(u) * (w @ sample.values[ring_idx]))
    return lhs, rhs


def _frame_symmetries(lat: LatticeDomain, n_angles: int) -> list:
    """(site permutation, frame permutation) of each lattice symmetry: it
    sends frame k's pairing to frame frames[k]'s, at sites perm[ring_idx].
    The quarter turn sends frame k to k + n/4 and the reflection
    (i, j) -> (i, -j) sends it to n/2 - k, since the sine rule and its
    ``keep`` mask are symmetric under t -> pi - t.  Only the identity when
    n_angles is not a multiple of 4 or the sites lack the square symmetry."""
    sym = lat.square_symmetries() if n_angles % 4 == 0 else None
    k = np.arange(n_angles)
    if sym is None:
        return [(np.arange(lat.n_sites), k)]
    quarter, reflect = sym
    turn, elements = np.arange(lat.n_sites), []
    for shift in range(0, n_angles, n_angles // 4):
        # turn is the quarter turn to the power shift / (n/4)
        elements.append((turn, (k + shift) % n_angles))
        elements.append((turn[reflect], (n_angles // 2 + shift - k) % n_angles))
        turn = quarter[turn]
    return elements


def _rotational_weights(lat: LatticeDomain, u: float, n_angles: int):
    """The frame mean of the n_angles rotated semi-disk pairings as one
    ring functional.  Only orbit representatives under the lattice's
    square symmetry build a cell (9 of 64 frames on a disk lattice); each
    representative's pairing is permuted onto every frame of its orbit."""

    def build():
        total = np.zeros(lat.n_sites)
        covered = np.zeros(n_angles, dtype=bool)
        symmetries = _frame_symmetries(lat, n_angles)
        for k in range(n_angles):
            if covered[k]:
                continue
            ring_idx, w = _rotated_semidisk_weights(lat, u, 2.0 * np.pi * k / n_angles)
            for perm, frames in symmetries:
                image = frames[k]
                if not covered[image]:
                    covered[image] = True
                    total[perm[ring_idx]] += w
        ring_idx = np.flatnonzero(total)
        return ring_idx, total[ring_idx] / n_angles

    return lat.cached(("rotavg", float(u), n_angles), build)


def _rotated_semidisk_weights(lat: LatticeDomain, u: float, alpha: float):
    rot = np.exp(1j * alpha)
    radius = 1.0 / np.sqrt(u)
    a = lat.spacing
    t, wq = gauss_legendre(256, 0.0, np.pi)
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
    # uncached: a frame cell is read once, into the cached frame sum, and
    # freed with this call
    region = lambda z: (np.abs(z) < radius) & ((np.conj(rot) * z).imag > 1e-12)
    return _cell_weights(lat, region, 16, "rotated semi-disk", nodes, np.concatenate([2 * w, -w]))
