"""Green functions of the Dirichlet Laplacian, continuum and lattice.

Normalization: G(x, y) ~ -log|x - y| near the diagonal, no 1/(2 pi), so the
variance of a circle average of radius eps about the disk center is
log(1/eps).

The lattice side inverts the graph Laplacian (diagonal 4, Dirichlet rows
eliminated) with a banded Cholesky factorization; row-major site ordering
keeps the bandwidth at one grid row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtbtrs

from .errors import DomainError, ResolutionError, SingularityError
from .geometry import Ball, TestFunction, UnitDisk, UpperHalfPlane, gauss_legendre

__all__ = [
    "green_disk",
    "green_halfplane",
    "h_minus1_inner",
    "covariance_of_observables",
    "CovarianceMatrix",
    "LatticeDomain",
    "disk_lattice",
    "halfplane_lattice",
    "DirichletCell",
    "discrete_green",
    "green_variance_ratio",
]


# ---------------------------------------------------------------------------
# continuum kernels
# ---------------------------------------------------------------------------


def green_disk(x, y):
    """G(x, y) = log|1 - x conj(y)| - log|x - y| on the unit disk."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if np.any(np.abs(x) >= 1.0) or np.any(np.abs(y) >= 1.0):
        raise DomainError("green_disk needs both arguments inside the unit disk")
    d = np.abs(x - y)
    if x.ndim == 0 and y.ndim == 0 and d == 0.0:
        raise SingularityError("green_disk is singular on the diagonal")
    with np.errstate(divide="ignore"):
        return np.log(np.abs(1.0 - x * np.conj(y))) - np.log(d)


def green_halfplane(x, y):
    """G(x, y) = log|x - conj(y)| - log|x - y| on the upper half-plane."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if np.any(x.imag <= 0.0) or np.any(y.imag <= 0.0):
        raise DomainError("green_halfplane needs both arguments in the open upper half-plane")
    d = np.abs(x - y)
    if x.ndim == 0 and y.ndim == 0 and d == 0.0:
        raise SingularityError("green_halfplane is singular on the diagonal")
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x - np.conj(y))) - np.log(d)


def _kernel_parts(domain):
    """(harmonic part, domain membership) for the supported domains.

    The singular part is always -log|x - y|; splitting it off lets the
    quadrature code treat the near-diagonal band separately.
    """
    if isinstance(domain, UnitDisk):
        return (lambda x, y: np.log(np.abs(1.0 - x * np.conj(y)))), domain.contains
    if isinstance(domain, UpperHalfPlane):
        return (lambda x, y: np.log(np.abs(x - np.conj(y)))), domain.contains
    if isinstance(domain, Ball):
        c, R = domain.center, domain.radius

        def harm(x, y):
            return np.log(np.abs(1.0 - (x - c) / R * np.conj((y - c) / R))) + np.log(R)

        return harm, domain.contains
    raise DomainError(f"no Green function implemented for domain {domain!r}")


def _green_for(domain):
    harm, _ = _kernel_parts(domain)

    def g(x, y):
        with np.errstate(divide="ignore"):
            return harm(x, y) - np.log(np.abs(x - y))

    return g


# ---------------------------------------------------------------------------
# H^-1 pairing of test functions
# ---------------------------------------------------------------------------


def _radial_pairing(f: TestFunction, g: TestFunction, n: int = 4096) -> float:
    """Pairing of two radial profiles about the disk center.

    The angular average of the disk kernel between circles of radii r and
    rho is exactly -log(max(r, rho)), which turns the 4-D integral into a
    1-D one with a cumulative-mass factor.
    """
    (flo, fhi, fprof) = f.radial
    (glo, ghi, gprof) = g.radial
    lo = max(min(flo, glo), 0.0)
    hi = max(fhi, ghi)
    r = np.linspace(max(lo, 1e-12), hi, n)
    mf = 2.0 * np.pi * r * fprof(r)
    mg = 2.0 * np.pi * r * gprof(r)
    dr = r[1] - r[0]
    # trapezoid cumulative masses M(r) = integral up to r
    Mf = np.concatenate([[0.0], np.cumsum(0.5 * (mf[1:] + mf[:-1]) * dr)])[: n]
    Mg = np.concatenate([[0.0], np.cumsum(0.5 * (mg[1:] + mg[:-1]) * dr)])[: n]
    neg_log = -np.log(r)
    inner = np.trapezoid(mf * neg_log * Mg, r) + np.trapezoid(mg * neg_log * Mf, r)
    return float(inner)


def h_minus1_inner(
    f: TestFunction,
    g: TestFunction,
    domain=UnitDisk(),
    n: int = 48,
    h_split: float = 1e-3,
) -> float:
    """Double integral of G_domain against two test functions.

    Tensor Gauss-Legendre on offset grids (orders n and n+1, so nodes never
    collide); pairs closer than ``h_split`` keep only the harmonic part of
    the kernel, and the -log singularity is integrated analytically over the
    matching disk and added back.  Symmetrized over the argument order.
    """
    radial_f = getattr(f, "radial", None)
    radial_g = getattr(g, "radial", None)
    if radial_f is not None and radial_g is not None and isinstance(domain, UnitDisk):
        return _radial_pairing(f, g)
    return 0.5 * (
        _h_minus1_once(f, g, domain, n, h_split) + _h_minus1_once(g, f, domain, n, h_split)
    )


def _area_nodes(phi: TestFunction, domain, n: int):
    harm, contains = _kernel_parts(domain)
    x0, x1, y0, y1 = phi.support.bbox
    gx, wx = gauss_legendre(n, x0, x1)
    gy, wy = gauss_legendre(n, y0, y1)
    zz = (gx[:, None] + 1j * gy[None, :]).ravel()
    ww = (wx[:, None] * wy[None, :]).ravel()
    keep = np.asarray(phi.support.contains(zz)) & np.asarray(contains(zz))
    zz, ww = zz[keep], ww[keep]
    vals = phi(zz)
    nz = vals != 0.0
    return zz[nz], (ww * vals)[nz]


def _h_minus1_once(f, g, domain, n, h_split):
    harm, _ = _kernel_parts(domain)
    xz, xw = _area_nodes(f, domain, n)
    yz, yw = _area_nodes(g, domain, n + 1)
    if xz.size == 0 or yz.size == 0:
        return 0.0
    X = xz[:, None]
    Y = yz[None, :]
    D = np.abs(X - Y)
    far = D >= h_split
    K = harm(X, Y) - np.where(far, np.log(np.maximum(D, h_split)), 0.0)
    total = float(xw @ K @ yw)
    # analytic -log integral over the excised disk of radius h_split
    ball = np.pi * h_split**2 * (0.5 - np.log(h_split))
    total += ball * float(np.sum(xw * g(xz)))
    return total


# ---------------------------------------------------------------------------
# covariance assembly
# ---------------------------------------------------------------------------


@dataclass
class CovarianceMatrix:
    labels: list
    entries: np.ndarray
    domain: object = None

    def to_csv(self, path) -> None:
        # labels may contain commas; quote the header row
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow([str(l) for l in self.labels])
            for row in self.entries:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "CovarianceMatrix":
        with open(path, newline="") as fh:
            labels = next(csv.reader(fh))
            matrix = np.loadtxt(fh, delimiter=",", ndmin=2)
        if matrix.shape != (len(labels), len(labels)):
            raise ValueError("covariance CSV is not square against its header")
        return cls(labels=labels, entries=matrix)


def _pair_discrete(obs_a, obs_b, domain, same: bool) -> float:
    """Pairing of two discretizable observables (measures on curves)."""
    from . import averaging  # local import: averaging depends on this module

    g = _green_for(domain)
    if same and isinstance(obs_a, averaging.CircleMeasure):
        return _circle_self(obs_a, domain)
    if same and isinstance(obs_a, averaging.SineMeasure):
        return _sine_self(obs_a, domain)
    # offset node sets keep the log singularity of an absolutely continuous
    # (fattened) self-pairing integrable
    xn, xw = obs_a.discretize(offset=0)
    yn, yw = obs_b.discretize(offset=1)
    return float(xw @ g(xn[:, None], yn[None, :]) @ yw)


def _circle_self(m, domain) -> float:
    """Variance pairing of a uniform unit-mass circle measure with itself.

    The angular average of -log|x - y| over a circle of radius eps is
    exactly -log(eps); only the harmonic part needs quadrature.
    """
    harm, contains = _kernel_parts(domain)
    n = 512
    h = 2.0 * np.pi / n
    ta = (np.arange(n) + 0.25) * h
    tb = (np.arange(n) + 0.75) * h
    x = m.center + m.radius * np.exp(1j * ta)
    y = m.center + m.radius * np.exp(1j * tb)
    if not (np.all(contains(x)) and np.all(contains(y))):
        raise DomainError("circle measure leaves the domain")
    w = np.full(n, 1.0 / n)
    smooth = float(w @ harm(x[:, None], y[None, :]) @ w)
    return smooth - np.log(m.radius)


def _sine_self(m, domain) -> float:
    """Self-pairing of a sine measure: offset-midpoint quadrature with one
    Richardson step to kill the O(1/n) diagonal error."""
    g = _green_for(domain)

    def value(n):
        h = np.pi / n
        ta = (np.arange(n) + 0.25) * h
        tb = (np.arange(n) + 0.75) * h
        x = np.exp(1j * ta) / np.sqrt(m.u)
        y = np.exp(1j * tb) / np.sqrt(m.u)
        wa = np.sqrt(m.u) * np.sin(ta) * h
        wb = np.sqrt(m.u) * np.sin(tb) * h
        return float(wa @ g(x[:, None], y[None, :]) @ wb)

    n = m.n_nodes
    return 2.0 * value(2 * n) - value(n)


def _pair_function_measure(phi: TestFunction, m, domain) -> float:
    """TestFunction against a curve measure: measure nodes outside, tensor
    Gauss-Legendre over the function inside, near hits guarded."""
    harm, contains = _kernel_parts(domain)
    zn, zw = m.discretize(offset=0)
    xz, xw = _area_nodes(phi, domain, 64)
    X = xz[:, None]
    Z = zn[None, :]
    D = np.abs(X - Z)
    np.maximum(D, 1e-12, out=D)
    K = harm(X, Z) - np.log(D)
    return float(xw @ K @ zw)


def covariance_of_observables(observables, domain=UnitDisk(), n_quad: int = 48) -> CovarianceMatrix:
    """Covariance matrix of jointly Gaussian field observables.

    Every entry is the double pairing of G_domain against the pair of
    observables; symmetric by construction.
    """
    from . import averaging

    obs = list(observables)
    k = len(obs)
    mat = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            a, b = obs[i], obs[j]
            fa = isinstance(a, TestFunction)
            fb = isinstance(b, TestFunction)
            if fa and fb:
                v = h_minus1_inner(a, b, domain, n=n_quad)
            elif fa:
                v = _pair_function_measure(a, b, domain)
            elif fb:
                v = _pair_function_measure(b, a, domain)
            else:
                v = _pair_discrete(a, b, domain, same=(i == j and a is b) or a == b)
            mat[i, j] = mat[j, i] = v
    labels = [getattr(o, "label", None) or repr(o) for o in obs]
    return CovarianceMatrix(labels=labels, entries=mat, domain=domain)


# ---------------------------------------------------------------------------
# lattice domains
# ---------------------------------------------------------------------------

_CODE_SHIFT = 1 << 22  # site indices must fit in +-2^21


def _encode(ij: np.ndarray) -> np.ndarray:
    return (ij[:, 0].astype(np.int64) + _CODE_SHIFT) * (2 * _CODE_SHIFT) + (
        ij[:, 1].astype(np.int64) + _CODE_SHIFT
    )


class LatticeDomain:
    """Square-lattice discretization of a planar domain.

    ``interior_ij`` holds integer sites (i, j) with embedding (i + 1j*j) *
    spacing, lexicographically sorted; ``boundary_ij`` is the outer vertex
    boundary (4-neighbours of interior sites that are not interior), which
    carries Dirichlet zeros.
    """

    def __init__(self, spacing: float, interior_ij: np.ndarray, label: str = ""):
        if interior_ij.ndim != 2 or interior_ij.shape[1] != 2:
            raise DomainError("interior_ij must be (m, 2)")
        if len(interior_ij) == 0:
            raise ResolutionError("lattice has no interior sites")
        order = np.lexsort((interior_ij[:, 1], interior_ij[:, 0]))
        self.spacing = float(spacing)
        self.interior_ij = np.ascontiguousarray(interior_ij[order], dtype=np.int64)
        self.label = label
        self._codes = _encode(self.interior_ij)
        nbrs = []
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            shifted = self.interior_ij + np.array([di, dj])
            codes = _encode(shifted)
            pos = np.searchsorted(self._codes, codes)
            pos = np.clip(pos, 0, len(self._codes) - 1)
            miss = self._codes[pos] != codes
            nbrs.append(shifted[miss])
        bnd = np.unique(np.concatenate(nbrs), axis=0)
        self.boundary_ij = bnd
        self._chol = None
        self._cells: dict = {}
        self._weights: dict = {}

    # -- basic geometry ----------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self.interior_ij)

    @property
    def z(self) -> np.ndarray:
        return (self.interior_ij[:, 0] + 1j * self.interior_ij[:, 1]) * self.spacing

    def site_index(self, ij) -> int:
        code = _encode(np.asarray(ij, dtype=np.int64).reshape(1, 2))[0]
        pos = int(np.searchsorted(self._codes, code))
        if pos >= len(self._codes) or self._codes[pos] != code:
            raise DomainError(f"site {tuple(ij)} is not interior")
        return pos

    def nearest_site(self, z: complex) -> int:
        return int(np.argmin(np.abs(self.z - z)))

    def indices_of(self, mask_or_pred) -> np.ndarray:
        """Indices of interior sites selected by a boolean mask or a
        predicate on embedded points."""
        if callable(mask_or_pred):
            mask = np.asarray(mask_or_pred(self.z), dtype=bool)
        else:
            mask = np.asarray(mask_or_pred, dtype=bool)
        if mask.shape != (self.n_sites,):
            raise DomainError("mask length must match interior site count")
        return np.nonzero(mask)[0]

    # -- Laplacian ----------------------------------------------------------

    def _banded(self):
        """(U, bandwidth): the Laplacian band, Cholesky-factored in place
        into its upper factor U (LAPACK upper band storage)."""
        if self._chol is None:
            self._chol = _factored_laplacian(self._codes)
        return self._chol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(graph Laplacian)^-1 rhs with Dirichlet elimination."""
        cb, _ = self._banded()
        return cho_solve_banded((cb, False), rhs)

    def white_to_field(self, xi: np.ndarray) -> np.ndarray:
        """Solve U x = xi for the upper Cholesky factor U of the Laplacian,
        so that x has covariance (graph Laplacian)^-1."""
        return self._solve_factor(xi, "N")

    def _solve_factor(self, b: np.ndarray, trans: str) -> np.ndarray:
        """U^-1 b (trans "N") or U^-T b (trans "T") without copying the band;
        U's diagonal is positive, so LAPACK's info is always 0."""
        return dtbtrs(self._banded()[0], b, uplo="U", trans=trans)[0]

    def cell(self, member_idx: np.ndarray) -> "DirichletCell":
        key = np.asarray(member_idx, dtype=np.int64).tobytes()
        cell = self._cells.get(key)
        if cell is None:
            cell = DirichletCell(self, np.asarray(member_idx, dtype=np.int64))
            self._cells[key] = cell
        return cell


def disk_lattice(size: int) -> LatticeDomain:
    """size x size lattice covering the unit disk (spacing 2/size)."""
    if size < 8:
        raise ResolutionError("disk lattice needs size >= 8")
    a = 2.0 / size
    half = size // 2
    r = np.arange(-half, half + 1)
    ii, jj = np.meshgrid(r, r, indexing="ij")
    ij = np.stack([ii.ravel(), jj.ravel()], axis=1)
    z = (ij[:, 0] + 1j * ij[:, 1]) * a
    return LatticeDomain(a, ij[np.abs(z) < 1.0], label=f"disk{size}")


def halfplane_lattice(width: float, spacing: float) -> LatticeDomain:
    """Dirichlet box [-width, width] x (0, width] truncating the half-plane."""
    if spacing <= 0 or width <= spacing:
        raise ResolutionError("halfplane lattice needs spacing < width")
    ni = int(np.floor(width / spacing))
    i = np.arange(-ni, ni + 1)
    j = np.arange(1, ni + 1)
    ii, jj = np.meshgrid(i, j, indexing="ij")
    ij = np.stack([ii.ravel(), jj.ravel()], axis=1)
    return LatticeDomain(spacing, ij, label=f"halfplane(W={width:g},a={spacing:g})")


class DirichletCell:
    """Factorized Dirichlet problem on a sub-collection of interior sites.

    Supports harmonic extension from the surrounding sites (field values on
    the ring, zeros on the true boundary) and adjoint weight vectors that
    turn linear functionals of the extension into dot products with ring
    values.
    """

    def __init__(self, parent: LatticeDomain, member_idx: np.ndarray):
        if len(member_idx) == 0:
            raise ResolutionError("empty subdomain")
        self.parent = parent
        self.member_idx = np.sort(member_idx)
        codes = parent._codes[self.member_idx]
        self._cb, _ = _factored_laplacian(codes)
        # ring incidence: for each member, parent-interior neighbours outside
        # the membership (true-boundary neighbours carry zeros and drop out)
        member_mask = np.zeros(parent.n_sites, dtype=bool)
        member_mask[self.member_idx] = True
        src = []
        ring = []
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            target = codes + di * (2 * _CODE_SHIFT) + dj
            pos = np.searchsorted(parent._codes, target)
            pos_c = np.clip(pos, 0, parent.n_sites - 1)
            hit = parent._codes[pos_c] == target
            outside = hit & ~member_mask[pos_c]
            src.append(np.nonzero(outside)[0])
            ring.append(pos_c[outside])
        self._inc_rows = np.concatenate(src)
        self._inc_ring = np.concatenate(ring)
        self.ring_idx = np.unique(self._inc_ring)
        self._ring_pos = np.searchsorted(self.ring_idx, self._inc_ring)

    def _rhs_from_ring(self, ring_values: np.ndarray) -> np.ndarray:
        rhs_shape = (len(self.member_idx),) + ring_values.shape[1:]
        rhs = np.zeros(rhs_shape)
        np.add.at(rhs, self._inc_rows, ring_values[self._ring_pos])
        return rhs

    def harmonic_extension(self, values: np.ndarray) -> np.ndarray:
        """Extension of the parent-interior ``values`` harmonically into the
        cell; returns values on the member sites only."""
        ring_values = values[self.ring_idx]
        return cho_solve_banded((self._cb, False), self._rhs_from_ring(ring_values))

    def ring_weights(self, member_coeffs: np.ndarray) -> np.ndarray:
        """Weights w with w . values[ring_idx] = member_coeffs . extension."""
        v = cho_solve_banded((self._cb, False), member_coeffs)
        w = np.zeros(len(self.ring_idx))
        np.add.at(w, self._ring_pos, v[self._inc_rows])
        return w


def _factored_laplacian(codes: np.ndarray):
    """(U, bandwidth) of the graph Laplacian (diagonal 4, Dirichlet rows
    eliminated) on the sites with sorted ``codes``; the band is assembled
    Fortran-ordered and factored in place, so only one band is ever held."""
    rows, cols = _subdomain_pairs(codes)
    bw = int(np.max(cols - rows)) if len(rows) else 0
    ab = np.zeros((bw + 1, len(codes)), order="F")
    ab[bw, :] = 4.0
    ab[bw + rows - cols, cols] = -1.0
    return cholesky_banded(ab, overwrite_ab=True, lower=False), bw


def _subdomain_pairs(codes: np.ndarray):
    n = len(codes)
    base = np.arange(n)
    rows = []
    cols = []
    for di, dj in ((1, 0), (0, 1)):
        target = codes + di * (2 * _CODE_SHIFT) + dj
        pos = np.searchsorted(codes, target)
        pos_c = np.clip(pos, 0, n - 1)
        hit = codes[pos_c] == target
        rows.append(base[hit])
        cols.append(pos_c[hit])
    return np.concatenate(rows), np.concatenate(cols)


def discrete_green(lat: LatticeDomain, x, y) -> float:
    """Entry (x, y) of the inverse graph Laplacian with Dirichlet boundary.

    ``x`` and ``y`` are integer site pairs (i, j) or complex points (the
    nearest interior site is used).
    """

    def resolve(p):
        if isinstance(p, (tuple, list)) or (isinstance(p, np.ndarray) and p.ndim == 1):
            return lat.site_index(p)
        return lat.nearest_site(complex(p))

    kx, ky = resolve(x), resolve(y)
    e = np.zeros(lat.n_sites)
    e[ky] = 1.0
    return float(lat.solve(e)[kx])


def green_variance_ratio(lat: LatticeDomain) -> float:
    """Mean ratio of discrete to continuum Green values over spread probe
    pairs of a unit-disk lattice; tends to 1/(2 pi) under refinement, which
    pins the sampling calibration at 1/sqrt(ratio)."""
    probes = [
        (0.0 + 0.0j, 0.3 + 0.0j),
        (0.0 + 0.0j, 0.0 + 0.45j),
        (-0.25 - 0.2j, 0.35 + 0.1j),
        (0.1 + 0.3j, -0.2 + 0.25j),
    ]
    ratios = []
    for x, y in probes:
        kx, ky = lat.nearest_site(x), lat.nearest_site(y)
        ratios.append(discrete_green(lat, x, y) / float(green_disk(lat.z[kx], lat.z[ky])))
    return float(np.mean(ratios))
