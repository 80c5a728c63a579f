"""Green functions of the Dirichlet Laplacian, continuum and lattice.

Normalization: G(x, y) ~ -log|x - y| near the diagonal, no 1/(2 pi), so the
variance of a circle average of radius eps about the disk center is
log(1/eps).

The lattice side inverts the graph Laplacian (diagonal 4, Dirichlet rows
eliminated) through one root R with R R^T = L^-1.  On a full rectangle of
sites the Laplacian is diagonal in the orthonormal DST-I basis on both
axes, so the symmetric root L^(-1/2) costs two transforms and no
factorization; any other site set uses a banded Cholesky factorization,
made when the lattice is built, where row-major site ordering keeps the
bandwidth at one grid row.  Every band is factored on one OpenBLAS thread
(the pin at import, see rng): LAPACK dpbtrf on a small band loses on a
second thread (on 2 cores the disk-64 band, 3,205 sites of bandwidth 63,
takes 10-11 ms wall and about 20 ms CPU on two threads, 3.5 ms wall and
7.5 ms CPU on one).  This module starts no threads: many fields are solved
in replica blocks on the pool of the fields module, and the band solve
releases the interpreter lock so that two blocks can solve at once.
"""

from __future__ import annotations

import ctypes
import weakref
from dataclasses import replace

import numpy as np
from scipy.fft import dstn
from scipy.linalg import cholesky_banded, cython_lapack
from scipy.linalg.lapack import dpbtrs

from .errors import DomainError, NumericalError, ResolutionError, SingularityError
from .geometry import TestFunction, UnitDisk, UpperHalfPlane, gauss_legendre

__all__ = [
    "green_disk",
    "green_halfplane",
    "h_minus1_inner",
    "covariance_of_observables",
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
    """(Green function, its harmonic part) for the supported domains.

    The Green function raises DomainError for points off the domain.  The
    singular part is always -log|x - y|; splitting it off lets the
    quadrature code treat the near-diagonal band separately.
    """
    if isinstance(domain, UnitDisk):
        return green_disk, (lambda x, y: np.log(np.abs(1.0 - x * np.conj(y))))
    if isinstance(domain, UpperHalfPlane):
        return green_halfplane, (lambda x, y: np.log(np.abs(x - np.conj(y))))
    raise DomainError(f"no Green function implemented for domain {domain!r}")


# ---------------------------------------------------------------------------
# H^-1 pairing of test functions
# ---------------------------------------------------------------------------


def _radial_pairing(f: TestFunction, g: TestFunction) -> float:
    """Pairing of two radial test functions about the disk center.

    Each profile is its function read on the positive real axis, across
    both support radii (``TestFunction.radial``).  The angular average of
    the disk kernel between circles of radii r and rho is exactly
    -log(max(r, rho)), which turns the 4-D integral into a 1-D one with a
    cumulative-mass factor, integrated by the trapezoid rule on 4,096 nodes.
    """
    (flo, fhi), (glo, ghi) = f.radial, g.radial
    lo = max(min(flo, glo), 0.0)
    hi = max(fhi, ghi)
    r = np.linspace(max(lo, 1e-12), hi, 4096)
    mf = 2.0 * np.pi * r * f(r)
    mg = 2.0 * np.pi * r * g(r)
    dr = r[1] - r[0]
    # trapezoid cumulative masses M(r) = integral up to r
    Mf = np.concatenate([[0.0], np.cumsum(0.5 * (mf[1:] + mf[:-1]) * dr)])
    Mg = np.concatenate([[0.0], np.cumsum(0.5 * (mg[1:] + mg[:-1]) * dr)])
    neg_log = -np.log(r)
    inner = np.trapezoid(mf * neg_log * Mg, r) + np.trapezoid(mg * neg_log * Mf, r)
    return float(inner)


def h_minus1_inner(
    f: TestFunction,
    g: TestFunction,
    domain=UnitDisk(),
    n: int = 48,
) -> float:
    """Double integral of G_domain against two test functions.

    Tensor Gauss-Legendre on offset grids (orders n and n+1, so nodes never
    collide); pairs closer than 1e-3 keep only the harmonic part of
    the kernel, and the -log singularity is integrated analytically over the
    matching disk and added back.  Symmetrized over the argument order.
    """
    if f.radial is not None and g.radial is not None and isinstance(domain, UnitDisk):
        return _radial_pairing(f, g)
    return 0.5 * (
        _h_minus1_once(f, g, domain, n) + _h_minus1_once(g, f, domain, n)
    )


def _area_nodes(phi: TestFunction, domain, n: int):
    x0, x1, y0, y1 = phi.bbox
    gx, wx = gauss_legendre(n, x0, x1)
    gy, wy = gauss_legendre(n, y0, y1)
    zz = (gx[:, None] + 1j * gy[None, :]).ravel()
    ww = (wx[:, None] * wy[None, :]).ravel()
    keep = np.asarray(domain.contains(zz))
    zz, ww = zz[keep], ww[keep]
    vals = phi(zz)
    nz = vals != 0.0  # phi is 0 off its support
    return zz[nz], (ww * vals)[nz]


def _h_minus1_once(f, g, domain, n):
    _, harm = _kernel_parts(domain)
    xz, xw = _area_nodes(f, domain, n)
    yz, yw = _area_nodes(g, domain, n + 1)
    if xz.size == 0 or yz.size == 0:
        return 0.0
    X = xz[:, None]
    Y = yz[None, :]
    D = np.abs(X - Y)
    h_split = 1e-3
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


def _pair_offset(obs_a, obs_b, g) -> float:
    """Offset-0 nodes of obs_a against offset-1 nodes of obs_b under the
    Green function g; the two node sets never collide, and g raises
    DomainError for nodes off the domain."""
    xn, xw = obs_a.discretize(offset=0)
    yn, yw = obs_b.discretize(offset=1)
    return float(xw @ g(xn[:, None], yn[None, :]) @ yw)


def covariance_of_observables(observables, domain=UnitDisk()) -> np.ndarray:
    """(k, k) covariance matrix of k jointly Gaussian curve measures; test
    functions pair through ``h_minus1_inner``.

    Every entry is the double pairing of G_domain against the pair of
    observables; symmetric by construction.  A curve measure pairs with
    itself by one Richardson step on its own offset rule,
    2 P(m_2n, m_2n) - P(m_n, m_n) for n and 2n nodes, which kills the
    O(1/n) error of the -log singularity (exactly, for a circle: half-step
    offset nodes make the rule's angular log mean log r + (log 2)/n).
    """
    obs = list(observables)
    if any(isinstance(o, TestFunction) for o in obs):
        raise DomainError(
            "covariance_of_observables pairs curve measures; use h_minus1_inner for test functions"
        )
    g = _kernel_parts(domain)[0]
    k = len(obs)
    mat = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            a, b = obs[i], obs[j]
            if i == j or a == b:
                a2 = replace(a, n_nodes=2 * a.n_nodes)
                v = 2.0 * _pair_offset(a2, a2, g) - _pair_offset(a, a, g)
            else:
                v = _pair_offset(a, b, g)
            mat[i, j] = mat[j, i] = v
    return mat


# ---------------------------------------------------------------------------
# lattice domains
# ---------------------------------------------------------------------------


def _lapack_dtbtrs():
    """LAPACK dtbtrs(uplo, trans, diag, n, kd, nrhs, ab, ldab, b, ldb, info)
    through the C entry point that scipy exports for Cython, whichever
    LAPACK scipy was built with.  A ctypes foreign function releases the
    interpreter lock while it runs, where scipy's f2py wrapper holds it."""
    cap = cython_lapack.__pyx_capi__["dtbtrs"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    char, int_p = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
    proto = ctypes.CFUNCTYPE(
        None, char, char, char, int_p, int_p, int_p, ctypes.c_void_p, int_p, ctypes.c_void_p, int_p, int_p
    )
    return proto(pointer(cap, name(cap)))


dtbtrs = _lapack_dtbtrs()

def _band_solve(U: np.ndarray, x: np.ndarray, trans: str) -> np.ndarray:
    """U^-1 x, or U^-T x for trans="T", for the upper band factor U (LAPACK
    upper band storage, Fortran-ordered) and x of one or more columns, in a
    new Fortran-ordered array; LAPACK's info is checked."""
    n, kd = U.shape[1], U.shape[0] - 1
    b = np.array(x, dtype=float, order="F")
    if b.shape[:1] != (n,) or not (U.dtype == np.float64 and U.flags.f_contiguous):
        raise ValueError("band solve needs a Fortran-ordered float band and one row per site")
    info = ctypes.c_int()
    dtbtrs(
        b"U", trans.encode(), b"N", ctypes.c_int(n), ctypes.c_int(kd), ctypes.c_int(b.size // n),
        U.ctypes.data, ctypes.c_int(kd + 1), b.ctypes.data, ctypes.c_int(n), info,
    )
    if info.value != 0:
        raise NumericalError(f"LAPACK dtbtrs failed with info = {info.value}")
    return b


# a code is one-to-one for j in [-2^22, 2^22); lattice sites lie in +-2^21
# (_MAX_SITE), which leaves room for their neighbours and pairing corners
_CODE_SHIFT = 1 << 22
_MAX_SITE = _CODE_SHIFT // 2


def _encode(ij: np.ndarray) -> np.ndarray:
    return (ij[:, 0].astype(np.int64) + _CODE_SHIFT) * (2 * _CODE_SHIFT) + (
        ij[:, 1].astype(np.int64) + _CODE_SHIFT
    )


def _lookup(sorted_keys: np.ndarray, keys):
    """(pos, found): sorted_keys[pos] == keys exactly where found; pos is
    always a valid index into the non-empty ``sorted_keys``."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys


class LatticeDomain:
    """Square-lattice discretization of a planar domain.

    ``interior_ij`` holds integer sites (i, j) with embedding (i + 1j*j) *
    spacing, lexicographically sorted; ``boundary_ij`` is the outer vertex
    boundary (4-neighbours of interior sites that are not interior), which
    carries Dirichlet zeros.

    The field is ``white_to_field(xi) = R xi`` for a root R with R R^T = L^-1:
    the symmetric root L^(-1/2) when the sites fill a full rectangle (a
    "box"), and U^-1 for the upper Cholesky factor U of L otherwise.
    ``_root`` is the one place that chooses R; ``solve`` is R R^T.
    """

    def __init__(self, spacing: float, interior_ij: np.ndarray):
        if not 0 < spacing < np.inf:
            raise DomainError("lattice spacing must be finite and positive")
        if interior_ij.ndim != 2 or interior_ij.shape[1] != 2:
            raise DomainError("interior_ij must be (m, 2)")
        if len(interior_ij) == 0:
            raise ResolutionError("lattice has no interior sites")
        # a float site would be truncated toward 0, so (0.5, 2.9) read as (0, 2)
        if np.any(interior_ij != np.floor(interior_ij)):
            raise DomainError("lattice sites must be integer pairs")
        if np.abs(interior_ij).max() > _MAX_SITE:
            raise DomainError("site indices must lie in [-2^21, 2^21]")
        order = np.lexsort((interior_ij[:, 1], interior_ij[:, 0]))
        self.spacing = float(spacing)
        self.interior_ij = np.ascontiguousarray(interior_ij[order], dtype=np.int64)
        self._codes = _encode(self.interior_ij)
        dup = np.flatnonzero(np.diff(self._codes) == 0)
        if len(dup):
            raise DomainError(f"site {tuple(self.interior_ij[dup[0]].tolist())} is given twice")
        nbrs = []
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            shifted = self.interior_ij + np.array([di, dj])
            nbrs.append(shifted[~_lookup(self._codes, _encode(shifted))[1]])
        bnd = np.unique(np.concatenate(nbrs), axis=0)
        self.boundary_ij = bnd
        # sorted i-major, a full m x n rectangle is a C-ordered (m, n) array
        m, n = self.interior_ij.max(axis=0) - self.interior_ij.min(axis=0) + 1
        box = self.n_sites == m * n
        self._box = (int(m), int(n)) if box else None
        self._band = None if box else _factored_laplacian(self._codes)
        self._cache: dict = {}

    # -- basic geometry ----------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self.interior_ij)

    @property
    def z(self) -> np.ndarray:
        return (self.interior_ij[:, 0] + 1j * self.interior_ij[:, 1]) * self.spacing

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

    def square_symmetries(self):
        """(quarter, reflect): the site permutations of the quarter turn
        (i, j) -> (-j, i) and the reflection (i, j) -> (i, -j), as index
        arrays sending site s to site quarter[s] (reflect[s]); None when the
        site set is not invariant under both.  These generate the square's
        symmetry group D4, which commutes with the Dirichlet Laplacian of
        an invariant site set."""
        i, j = self.interior_ij.T
        perms = []
        for image in (np.stack([-j, i], axis=1), np.stack([i, -j], axis=1)):
            pos, found = _lookup(self._codes, _encode(image))
            if not found.all():
                return None
            perms.append(pos)
        return tuple(perms)

    # -- Laplacian ----------------------------------------------------------

    def _banded(self):
        """(U, bandwidth) of a lattice that is not a box; perfbench's tracer
        test reads the bandwidth here."""
        return self._band, self._band.shape[0] - 1

    def _root(self, x: np.ndarray, trans: str = "N") -> np.ndarray:
        """R x, or R^T x for trans="T" (so w . R xi == R^T w . xi).

        On a box R = S diag(lam)^(-1/2) S is symmetric, with S the orthonormal
        DST-I on both axes (its own inverse) and lam the Laplacian's
        eigenvalues 4 - 2 cos(pi p/(m+1)) - 2 cos(pi q/(n+1)).  Elsewhere
        R = U^-1 by dtbtrs against the band factored at construction
        (``_band_solve``).  Both run on the calling thread, each column on
        its own, so a block of columns gets the bits of the whole batch;
        both return a new array and leave ``x`` as it was.
        """
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            # dtbtrs corrupts the heap on a right-hand side with no columns
            return np.zeros(x.shape)
        if self._box is None:
            return _band_solve(self._band, x, trans)
        m, n = self._box
        lam_i = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
        lam_j = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        scale = (lam_i[:, None] + lam_j[None, :]) ** -0.5
        y = dstn(x.reshape((m, n) + x.shape[1:]), type=1, axes=(0, 1), norm="ortho")
        y *= scale.reshape(scale.shape + (1,) * (x.ndim - 1))
        return dstn(y, type=1, axes=(0, 1), norm="ortho", overwrite_x=True).reshape(x.shape)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(graph Laplacian)^-1 rhs = R R^T rhs, with Dirichlet elimination."""
        return self._root(self._root(rhs, "T"))

    def white_to_field(self, xi: np.ndarray) -> np.ndarray:
        """R xi, a new array with covariance (graph Laplacian)^-1 for white
        noise xi."""
        return self._root(xi)

    def cached(self, key, build):
        """The value cached under ``key``: a ring functional (ring_idx, w),
        with value w . values[ring_idx] for a field's interior ``values``,
        or a DirichletCell.  ``build()`` returns it and runs only on a miss."""
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = build()
        return hit

    def site_weights(self, nodes, weights) -> tuple:
        """(site_idx, c) with c . values[site_idx] = sum_q weights_q *
        (bilinear interpolation)(nodes_q) of a field's interior ``values``.

        Each weight is spread bilinearly onto the four grid corners of its
        node, corner-major, and repeated corners are summed in that order.
        The field is zero on the outer lattice boundary, so corners there
        drop out; a corner that is neither interior nor on that boundary
        raises ResolutionError, and a non-finite node or weight DomainError.
        """
        nodes, weights = np.asarray(nodes, dtype=complex), np.asarray(weights, dtype=float)
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise DomainError("pairing nodes and weights must be finite")
        x = nodes.real / self.spacing
        y = nodes.imag / self.spacing
        ix, iy = np.floor(x), np.floor(y)
        # corners lie at floor, floor + 1; beyond +-(_MAX_SITE + 1) they could alias a site's code
        if np.any((np.minimum(ix, iy) < -_MAX_SITE - 1) | (np.maximum(ix, iy) > _MAX_SITE)):
            raise ResolutionError("pairing node corners fall off the lattice")
        fx = x - ix
        fy = y - iy
        ix, iy = ix.astype(np.int64), iy.astype(np.int64)
        offsets = ((0, 0), (1, 0), (0, 1), (1, 1))
        fracs = ((1 - fx) * (1 - fy), fx * (1 - fy), (1 - fx) * fy, fx * fy)
        corners = np.concatenate([np.stack([ix + di, iy + dj], axis=1) for di, dj in offsets])
        c = np.concatenate([frac * weights for frac in fracs])
        keep = c != 0.0
        corners, c = corners[keep], c[keep]
        codes, first, inv = np.unique(_encode(corners), return_index=True, return_inverse=True)
        c = np.bincount(inv, weights=c, minlength=len(codes))
        inner = ~_lookup(_encode(self.boundary_ij), codes)[1]
        corners, codes, c = corners[first[inner]], codes[inner], c[inner]
        site, on_lattice = _lookup(self._codes, codes)
        if not on_lattice.all():
            bad = tuple(corners[~on_lattice][0].tolist())
            raise ResolutionError(f"pairing node corner {bad} falls off the lattice")
        return site, c


def disk_lattice(size: int) -> LatticeDomain:
    """size x size lattice covering the unit disk (spacing 2/size)."""
    if not float(size).is_integer():
        raise DomainError(f"disk lattice size must be an integer, got {size!r}")
    if size < 8:
        raise ResolutionError("disk lattice needs size >= 8")
    a = 2.0 / size
    half = size // 2
    r = np.arange(-half, half + 1)
    ii, jj = np.meshgrid(r, r, indexing="ij")
    ij = np.stack([ii.ravel(), jj.ravel()], axis=1)
    z = (ij[:, 0] + 1j * ij[:, 1]) * a
    return LatticeDomain(a, ij[np.abs(z) < 1.0])


def halfplane_lattice(width: float, spacing: float) -> LatticeDomain:
    """Dirichlet box [-width, width] x (0, width] truncating the half-plane."""
    if not 0 < spacing < width < np.inf:
        raise ResolutionError("halfplane lattice needs finite 0 < spacing < width")
    ni = int(np.floor(width / spacing))
    i = np.arange(-ni, ni + 1)
    j = np.arange(1, ni + 1)
    ii, jj = np.meshgrid(i, j, indexing="ij")
    ij = np.stack([ii.ravel(), jj.ravel()], axis=1)
    return LatticeDomain(spacing, ij)


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
        # weak, because the parent caches the cells of markov_decompose: a
        # strong reference back would keep a dropped lattice and its cell
        # factors until a gc pass
        self._parent = weakref.ref(parent)
        idx = np.asarray(member_idx)
        if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
            raise DomainError("cell site indices must be a 1-D integer array")
        self.member_idx = np.sort(idx).astype(np.int64)
        if self.member_idx[0] < 0 or self.member_idx[-1] >= parent.n_sites:
            raise DomainError(f"cell site indices must lie in [0, {parent.n_sites})")
        if np.any(np.diff(self.member_idx) == 0):
            raise DomainError("cell site indices must not repeat")
        codes = parent._codes[self.member_idx]
        self._cb = _factored_laplacian(codes)
        # ring incidence: for each member, parent-interior neighbours outside
        # the membership (true-boundary neighbours carry zeros and drop out)
        member_mask = np.zeros(parent.n_sites, dtype=bool)
        member_mask[self.member_idx] = True
        src = []
        ring = []
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            pos, hit = _lookup(parent._codes, codes + di * (2 * _CODE_SHIFT) + dj)
            outside = hit & ~member_mask[pos]
            src.append(np.nonzero(outside)[0])
            ring.append(pos[outside])
        self._inc_rows = np.concatenate(src)
        inc_ring = np.concatenate(ring)
        self.ring_idx = np.unique(inc_ring)
        self._ring_pos = np.searchsorted(self.ring_idx, inc_ring)

    def _solve(self, b) -> np.ndarray:
        """(cell Laplacian)^-1 b by LAPACK dpbtrs on the stored factor, the
        routine behind cho_solve_banded without its per-call cost; its
        check that b is finite and has one row per member stays."""
        b = np.asarray(b, dtype=float)
        if b.shape[:1] != self.member_idx.shape or not np.isfinite(b).all():
            raise DomainError("right-hand side must be finite, with one row per member site")
        return dpbtrs(self._cb, b)[0]

    def harmonic_extension(self, values: np.ndarray) -> np.ndarray:
        """Extension of the parent-interior ``values`` (one field, or one per
        column) harmonically into the cell; returns values on the member
        sites only."""
        rhs = np.zeros((len(self.member_idx),) + values.shape[1:])
        np.add.at(rhs, self._inc_rows, values[self.ring_idx[self._ring_pos]])
        return self._solve(rhs)

    def ring_weights(self, member_coeffs: np.ndarray) -> np.ndarray:
        """Weights w with w . values[ring_idx] = member_coeffs . extension."""
        v = self._solve(member_coeffs)
        w = np.zeros(len(self.ring_idx))
        np.add.at(w, self._ring_pos, v[self._inc_rows])
        return w

    def pairing_weights(self, nodes, weights) -> tuple:
        """Ring functional (ring_idx, w) computing sum_q weights_q *
        (harmonic extension)(nodes_q).

        The quadrature is spread onto lattice sites by
        ``LatticeDomain.site_weights``.  The extension is the field on ring
        sites and zero on the outer lattice boundary, so a corner on the
        ring picks up the field value; a corner strictly outside the cell
        closure means the node grid is too coarse for the subdomain.
        """
        lat = self._parent()
        if lat is None:
            raise ReferenceError("the cell's lattice was freed")
        site, c = lat.site_weights(nodes, weights)
        p, in_member = _lookup(self.member_idx, site)
        q = np.zeros(len(self.member_idx))
        q[p[in_member]] = c[in_member]
        p, in_ring = _lookup(self.ring_idx, site[~in_member])
        if not in_ring.all():
            bad = tuple(lat.interior_ij[site[~in_member][~in_ring][0]].tolist())
            raise ResolutionError(f"pairing node corner {bad} leaves the subdomain")
        direct = np.zeros(len(self.ring_idx))
        direct[p] = c[~in_member]
        return self.ring_idx, self.ring_weights(q) + direct


def _factored_laplacian(codes: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor U of the graph Laplacian (diagonal 4, Dirichlet
    rows eliminated) on the sites with sorted ``codes``, in LAPACK upper band
    storage; the band is assembled Fortran-ordered and factored in place, so
    only one band is ever held."""
    base = np.arange(len(codes))
    rows = []
    cols = []
    for di, dj in ((1, 0), (0, 1)):
        pos, hit = _lookup(codes, codes + di * (2 * _CODE_SHIFT) + dj)
        rows.append(base[hit])
        cols.append(pos[hit])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    bw = int(np.max(cols - rows)) if len(rows) else 0
    ab = np.zeros((bw + 1, len(codes)), order="F")
    ab[bw, :] = 4.0
    ab[bw + rows - cols, cols] = -1.0
    return cholesky_banded(ab, overwrite_ab=True, lower=False)


def discrete_green(lat: LatticeDomain, x: complex, y: complex) -> float:
    """Entry (x, y) of the inverse graph Laplacian with Dirichlet boundary,
    at the interior sites nearest the points x and y."""
    e = np.zeros(lat.n_sites)
    e[lat.nearest_site(complex(y))] = 1.0
    return float(lat.solve(e)[lat.nearest_site(complex(x))])


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
