"""Green functions of the Dirichlet Laplacian, continuum and lattice.

Normalization: G(x, y) ~ -log|x - y| near the diagonal, no 1/(2 pi), so the
variance of a circle average of radius eps about the disk center is
log(1/eps).

The lattice side inverts the graph Laplacian (diagonal 4, Dirichlet rows
eliminated) through one root R with R R^T = L^-1.  On a full rectangle of
sites the Laplacian is diagonal in the orthonormal DST-I basis on both
axes, so the symmetric root L^(-1/2) costs two transforms and no
factorization; any other site set uses a banded Cholesky factorization,
where row-major site ordering keeps the bandwidth at one grid row.  Every
band is factored on one OpenBLAS thread (the pin at import, see rng):
LAPACK dpbtrf on a small band loses on a second thread (on 2 cores the disk-64
band, 3,205 sites of bandwidth 63, takes 10-11 ms wall and about 20 ms CPU
on two threads, 3.5 ms wall and 7.5 ms CPU on one).  Many right-hand-side
columns are spread over threads instead: a band solve in contiguous column
blocks on the replica pool, a box's DSTs on their own workers.  Each column
is solved on its own, so the split never changes a bit.
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
from .rng import parallel_map, thread_count

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


def covariance_of_observables(observables, domain=UnitDisk(), n_quad: int = 48) -> np.ndarray:
    """(k, k) covariance matrix of k jointly Gaussian field observables,
    either all test functions or all curve measures.

    Every entry is the double pairing of G_domain against the pair of
    observables; symmetric by construction.  A curve measure pairs with
    itself by one Richardson step on its own offset rule,
    2 P(m_2n, m_2n) - P(m_n, m_n) for n and 2n nodes, which kills the
    O(1/n) error of the -log singularity (exactly, for a circle: half-step
    offset nodes make the rule's angular log mean log r + (log 2)/n).
    """
    obs = list(observables)
    functions = [isinstance(o, TestFunction) for o in obs]
    if any(functions) and not all(functions):
        raise DomainError("cannot pair a test function with a curve measure")
    g = None if all(functions) else _kernel_parts(domain)[0]
    k = len(obs)
    mat = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            a, b = obs[i], obs[j]
            if functions[i]:
                v = h_minus1_inner(a, b, domain, n=n_quad)
            elif i == j or a == b:
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

# Smallest band solve that runs on the replica pool, in multiply-adds (sites
# x band rows x columns); starting the pool costs about 0.5 ms.  On 2 cores,
# 2 workers took 1.04-1.5x the serial wall time at 1.6-3.3 M (disk-64 with 8
# and 16 columns), 0.6-0.8x at 10-25 M (disk-32 with 400 and 1,000 columns,
# disk-96 with 16) and 0.54-0.58x on disk-96 with 400 and disk-32 with 5,000,
# for 0-20% more CPU.  The cut keeps the 1-8 weight columns of
# sample_functionals serial (up to 13 M on disk-128), where the pool saves a
# millisecond or two and only while the second core is free.
_POOL_WORK = 1 << 24

# Smallest box root whose two DSTs take thread_count() workers, in values
# (sites x columns).  On 2 cores, 2 workers took the 146,689-site box from
# 385 to 263 ms wall with 64 columns and 97 to 80 ms with 16, but saved only
# 1.5-5.5 ms with 3 and 8 columns, while a second thread on a busy host adds
# CPU time from run to run.  The cut keeps up to 8 weight columns on the
# largest boxes serial.
_BOX_POOL_VALUES = 1 << 21


def _band_solve(U: np.ndarray, x: np.ndarray, trans: str, overwrite_x: bool = False) -> np.ndarray:
    """U^-1 x, or U^-T x for trans="T", for the upper band factor U (LAPACK
    upper band storage, Fortran-ordered) and x of one or more columns, in a
    new Fortran-ordered array, or in x itself when ``overwrite_x`` and x is
    a Fortran-ordered float array.  Large solves split the columns into one
    contiguous block per worker; LAPACK solves each column on its own, so
    the result is the same at any split."""
    n, kd = U.shape[1], U.shape[0] - 1
    b = (np.asarray if overwrite_x else np.array)(x, dtype=float, order="F")
    if b.shape[:1] != (n,) or not (U.dtype == np.float64 and U.flags.f_contiguous):
        raise ValueError("band solve needs a Fortran-ordered float band and one row per site")
    cols = b.size // n
    workers = min(thread_count(), cols) if n * (kd + 1) * cols >= _POOL_WORK else 1
    bounds = [cols * i // workers for i in range(workers + 1)]

    def run(lo_hi):
        lo, hi = lo_hi
        info = ctypes.c_int()
        dtbtrs(
            b"U", trans.encode(), b"N", ctypes.c_int(n), ctypes.c_int(kd), ctypes.c_int(hi - lo),
            U.ctypes.data, ctypes.c_int(kd + 1), b.ctypes.data + b.itemsize * n * lo, ctypes.c_int(n), info,
        )
        return info.value

    infos = parallel_map(run, zip(bounds[:-1], bounds[1:]))
    bad = [i for i in infos if i != 0]
    if bad:
        raise NumericalError(f"LAPACK dtbtrs failed with info = {bad[0]}")
    return b


_CODE_SHIFT = 1 << 22  # site indices must fit in +-2^21


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
        if interior_ij.ndim != 2 or interior_ij.shape[1] != 2:
            raise DomainError("interior_ij must be (m, 2)")
        if len(interior_ij) == 0:
            raise ResolutionError("lattice has no interior sites")
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
        self._box = (int(m), int(n)) if self.n_sites == m * n else None
        self._chol = None
        self._cache: dict = {}

    # -- basic geometry ----------------------------------------------------

    @property
    def n_sites(self) -> int:
        return len(self.interior_ij)

    @property
    def z(self) -> np.ndarray:
        return (self.interior_ij[:, 0] + 1j * self.interior_ij[:, 1]) * self.spacing

    def site_index(self, ij) -> int:
        pos, found = _lookup(self._codes, _encode(np.asarray(ij, dtype=np.int64).reshape(1, 2))[0])
        if not found:
            raise DomainError(f"site {tuple(ij)} is not interior")
        return int(pos)

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
        """(U, bandwidth): the Laplacian band, Cholesky-factored in place
        into its upper factor U (LAPACK upper band storage)."""
        if self._chol is None:
            self._chol = _factored_laplacian(self._codes)
        return self._chol

    def _root(self, x: np.ndarray, trans: str = "N", overwrite_x: bool = False) -> np.ndarray:
        """R x, or R^T x for trans="T" (so w . R xi == R^T w . xi).

        On a box R = S diag(lam)^(-1/2) S is symmetric, with S the orthonormal
        DST-I on both axes (its own inverse) and lam the Laplacian's
        eigenvalues 4 - 2 cos(pi p/(m+1)) - 2 cos(pi q/(n+1)).  Elsewhere
        R = U^-1 by dtbtrs against the band, uncopied (``_band_solve``).
        Both branches take up to thread_count() threads for many columns,
        bit for bit as on one, and leave ``x`` as it was unless
        ``overwrite_x``, when they may reuse its memory.
        """
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            # dtbtrs corrupts the heap on a right-hand side with no columns
            return np.zeros(x.shape)
        if self._box is None:
            return _band_solve(self._banded()[0], x, trans, overwrite_x)
        m, n = self._box
        workers = thread_count() if x.size >= _BOX_POOL_VALUES else 1
        lam_i = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
        lam_j = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
        scale = (lam_i[:, None] + lam_j[None, :]) ** -0.5
        y = dstn(
            x.reshape((m, n) + x.shape[1:]), type=1, axes=(0, 1), norm="ortho", overwrite_x=overwrite_x, workers=workers
        )
        y *= scale.reshape(scale.shape + (1,) * (x.ndim - 1))
        return dstn(y, type=1, axes=(0, 1), norm="ortho", overwrite_x=True, workers=workers).reshape(x.shape)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(graph Laplacian)^-1 rhs = R R^T rhs, with Dirichlet elimination."""
        return self._root(self._root(rhs, "T"))

    def white_to_field(self, xi: np.ndarray, overwrite_xi: bool = False) -> np.ndarray:
        """R xi, so that x has covariance (graph Laplacian)^-1; with
        ``overwrite_xi`` the solve may run in xi's memory, which saves a copy
        of the noise matrix."""
        return self._root(xi, overwrite_x=overwrite_xi)

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
        raises ResolutionError.
        """
        x = nodes.real / self.spacing
        y = nodes.imag / self.spacing
        ix = np.floor(x).astype(np.int64)
        iy = np.floor(y).astype(np.int64)
        fx = x - ix
        fy = y - iy
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
    if spacing <= 0 or width <= spacing:
        raise ResolutionError("halfplane lattice needs spacing < width")
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
        self._cb, _ = _factored_laplacian(codes)
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
        self._inc_ring = np.concatenate(ring)
        self.ring_idx = np.unique(self._inc_ring)
        self._ring_pos = np.searchsorted(self.ring_idx, self._inc_ring)

    def _solve(self, b) -> np.ndarray:
        """(cell Laplacian)^-1 b by LAPACK dpbtrs on the stored factor, the
        routine behind cho_solve_banded without its per-call cost; its
        check that b is finite and has one row per member stays."""
        b = np.asarray(b, dtype=float)
        if b.shape[:1] != self.member_idx.shape or not np.isfinite(b).all():
            raise ValueError("right-hand side must be finite, with one row per member site")
        return dpbtrs(self._cb, b)[0]

    def _rhs_from_ring(self, ring_values: np.ndarray) -> np.ndarray:
        rhs_shape = (len(self.member_idx),) + ring_values.shape[1:]
        rhs = np.zeros(rhs_shape)
        np.add.at(rhs, self._inc_rows, ring_values[self._ring_pos])
        return rhs

    def harmonic_extension(self, values: np.ndarray) -> np.ndarray:
        """Extension of the parent-interior ``values`` harmonically into the
        cell; returns values on the member sites only."""
        ring_values = values[self.ring_idx]
        return self._solve(self._rhs_from_ring(ring_values))

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


def _factored_laplacian(codes: np.ndarray):
    """(U, bandwidth) of the graph Laplacian (diagonal 4, Dirichlet rows
    eliminated) on the sites with sorted ``codes``; the band is assembled
    Fortran-ordered and factored in place, so only one band is ever held."""
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
    return cholesky_banded(ab, overwrite_ab=True, lower=False), bw


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
