"""Field samplers and the domain Markov decomposition.

Three constructions share one calibration convention:

* exact observables: finite Gaussian vectors with a given covariance, such
  as one assembled by the greens module, through one Cholesky factor of
  the rows with nonzero variance (an observable of variance 0 is exactly 0);
* lattice Gaussian: covariance (graph Laplacian)^-1 scaled by CALIBRATION,
  sampled as R xi for white noise xi, with R the root of ``LatticeDomain``
  (R R^T = L^-1);
* symmetric alpha-stable: the same filter R driven by
  Chambers-Mallows-Stuck variates, which keeps every linear-algebra
  property of the Gaussian field while breaking Gaussianity itself.  On a
  box the symmetric root keeps the box's mirror symmetry; U^-1 depends on
  the site order, so the stable law on other lattices does not.

Linear functionals W^T h of a lattice field are drawn without the field
(``sample_functionals``), from V = c R^T W.  Gaussian functionals are
N(0, V^T V), so they draw k normals per replica through the triangular QR
factor of V (a k x k root of that Gram matrix); stable functionals draw
the field's own site noise xi and return xi . V.

Lattice replicas are drawn in contiguous blocks of replica indices
through ``rng.parallel_map`` (serially for noise vectors of under 2,000
entries), the one place where the library decides its threads: each block
fills its own rows (functionals) or columns (fields) of one array, replica
r always from stream r, and a block of fields is solved and scaled into its
own columns before the block ends, so the output is the same at any
GFFFORGE_THREADS.  The blocks only read the lattice: a band root is
factored when the lattice is built.

CALIBRATION = sqrt(2 pi) matches the lattice field to the continuum
normalization in which a radius-eps circle average at the disk center has
variance log(1/eps); the refinement study behind the constant lives in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .greens import DirichletCell, LatticeDomain
from .rng import parallel_map, replica_rng

__all__ = [
    "CALIBRATION",
    "FieldSample",
    "MarkovDecomposition",
    "sample_gff_observables",
    "sample_dgff",
    "dgff_matrix",
    "stable_matrix",
    "sample_functionals",
    "sample_sas",
    "markov_decompose",
]

CALIBRATION = float(np.sqrt(2.0 * np.pi))


@dataclass
class FieldSample:
    """One lattice field realization (values on interior sites)."""

    lattice: LatticeDomain
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.lattice.n_sites,):
            raise DomainError("values must align with lattice interior sites")

    def grid(self) -> tuple:
        """Dense rectangular view: (array, i0, j0); non-interior cells are 0."""
        ij = self.lattice.interior_ij
        i0, j0 = int(ij[:, 0].min()), int(ij[:, 1].min())
        nx = int(ij[:, 0].max()) - i0 + 1
        ny = int(ij[:, 1].max()) - j0 + 1
        arr = np.zeros((nx, ny))
        arr[ij[:, 0] - i0, ij[:, 1] - j0] = self.values
        return arr, i0, j0


@dataclass
class MarkovDecomposition:
    """h = harmonic + residual relative to a subdomain: ``harmonic`` agrees
    with the field outside and is discretely harmonic inside; ``residual``
    vanishes outside and has zero boundary values on the subdomain edge."""

    sample: FieldSample
    cell: DirichletCell
    harmonic: FieldSample
    residual: FieldSample


def sample_gff_observables(cov, n: int, seed: int) -> np.ndarray:
    """(n, k) Gaussian draws with the given covariance: replica r is
    xi_r @ L^T for the k normals xi_r of stream r, so results do not depend
    on batch splitting.

    In a positive semidefinite matrix a zero variance forces a zero row, so
    L is the Cholesky factor of the rows with nonzero variance, zero
    elsewhere, and those observables are exactly 0.  No jitter is added:
    a zero variance with a nonzero covariance, or a remaining block that
    is not positive definite, raises NumericalError.
    """
    matrix = np.asarray(cov, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError("covariance must be square")
    if not np.all(np.isfinite(matrix)):
        raise DomainError("covariance must be finite")
    # Cholesky reads the lower triangle only; a caller's rounding may differ
    if np.any(np.abs(matrix - matrix.T) > 1e-12 * np.max(np.abs(matrix), initial=0.0)):
        raise DomainError("covariance must be symmetric")
    live = np.diag(matrix) != 0.0
    if np.any(matrix[~live]) or np.any(matrix[:, ~live]):
        raise NumericalError("covariance has a zero variance with a nonzero covariance")
    L = np.zeros_like(matrix)
    try:
        L[np.ix_(live, live)] = np.linalg.cholesky(matrix[np.ix_(live, live)])
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance is not positive definite on its nonzero variances") from exc
    k = matrix.shape[0]
    return _replica_rows(_law_noise("gff", 2.0, k), k, n, seed, V=L.T)


def _law_noise(law: str, alpha: float, size: int):
    """The noise of one replica as a function of its generator: ``size``
    unit Gaussians ("gff") or SaS variates ("stable")."""
    if law == "gff":
        return lambda rng: rng.standard_normal(size)
    if law == "stable":
        if not 1.0 < alpha <= 2.0:
            raise DomainError("stable field needs alpha in (1, 2]")
        return lambda rng: sample_sas(alpha, size, rng, _SAS_DRIVER_SCALE)
    raise DomainError(f"unknown law {law!r}")


# Replicas per parallel_map item in _replica_rows.  Rows are independent, so
# the value never changes a result, only the load balance: on 2 cores, 32 to
# 256 time alike on the 1,000-10,000 replica batches of site noise, and 32
# also splits the 64 replicas of a stable (alpha 1.5) sine path on its
# 147,153-site box over 2 threads (0.83-0.93 s as one block -> 0.46-0.52 s).
_REPLICA_BLOCK = 32

# Smallest noise vector worth a worker thread, for noise and fields alike.
# Below it a replica's work is mostly Python under the interpreter lock: on 2
# cores, 2 threads took 1.1-1.4x the serial wall time at 193 and 793 sites,
# 0.76-0.91x at 1,789 (with 30-46% more CPU) and 0.52-0.80x from 3,205 sites
# up.  Gaussian functionals draw only k normals per replica, so they always
# run serially.
_PARALLEL_SITES = 2_000


def _replica_rows(noise, size, n, seed, V=None, step=None) -> np.ndarray:
    """(n, size) array whose row r is ``noise(rng)`` for the generator of
    replica r, or (n, k) with row r that noise @ V for a
    (size, k) matrix V.  ``step``, if given, is then called on each block's
    rows, which it may rewrite in place.

    Contiguous blocks of _REPLICA_BLOCK rows run through ``parallel_map``
    (serially below _PARALLEL_SITES); each block fills its own rows from
    the replicas' own streams, so the array is the same at any thread
    count and block size as long as ``step`` treats each row on its own.
    """
    if n < 0:
        raise DomainError("replica count must be nonnegative")
    out = np.empty((n, size if V is None else V.shape[1]))

    def fill(lo):
        rng = None
        hi = min(lo + _REPLICA_BLOCK, n)
        for r in range(lo, hi):
            rng = replica_rng(seed, r, rng)
            xi = noise(rng)
            out[r] = xi if V is None else xi @ V
        if step is not None:
            step(out[lo:hi])

    blocks = range(0, n, _REPLICA_BLOCK)
    if size < _PARALLEL_SITES:
        for lo in blocks:
            fill(lo)
    else:
        parallel_map(fill, blocks)
    return out


def _field_matrix(lat, law, alpha, n, seed) -> np.ndarray:
    """(n_sites, n) calibrated fields; column r is replica r."""

    def solve(rows):
        # each block's fields are scaled into the block's own noise rows: no
        # second (n_sites, n) matrix
        np.multiply(lat.white_to_field(rows.T), CALIBRATION, out=rows.T)

    noise = _law_noise(law, alpha, lat.n_sites)
    return _replica_rows(noise, lat.n_sites, n, seed, step=solve).T


def dgff_matrix(lat: LatticeDomain, n: int, seed: int) -> np.ndarray:
    """(n_sites, n) matrix of lattice GFF samples; column r is replica r,
    so the first m columns of n replicas are the m replicas' draw."""
    return _field_matrix(lat, "gff", 2.0, n, seed)


def sample_dgff(lat: LatticeDomain, n: int, seed: int):
    """n lattice Gaussian free field samples on ``lat``."""
    vals = dgff_matrix(lat, n, seed)
    return [FieldSample(lat, np.ascontiguousarray(vals[:, r])) for r in range(n)]


def sample_sas(alpha: float, size, rng, scale: float = 1.0) -> np.ndarray:
    """Symmetric alpha-stable variates by the Chambers-Mallows-Stuck method.

    At alpha = 2 the formula degenerates to 2 sin(U) sqrt(W), a normal with
    variance 2 (times scale), and at alpha = 1 to sin(U) / cos(U), a Cauchy
    variate (the exponential W is drawn and raised to the power 0).
    """
    if not 0.0 < alpha <= 2.0:
        raise DomainError("sample_sas needs alpha in (0, 2]")
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    w = rng.standard_exponential(size)
    t = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    s = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return scale * t * s


# SaS(alpha=2, scale 1) is N(0, 2); this driver scale makes the alpha -> 2
# limit coincide with the unit-variance Gaussian driver of sample_dgff
_SAS_DRIVER_SCALE = 2.0 ** (-0.5)


def stable_matrix(lat: LatticeDomain, alpha: float, n: int, seed: int) -> np.ndarray:
    """(n_sites, n) matrix of symmetric alpha-stable lattice fields; column
    r is replica r."""
    return _field_matrix(lat, "stable", alpha, n, seed)


def sample_functionals(
    lat: LatticeDomain, W: np.ndarray, n: int, seed: int, law: str = "gff", alpha: float = 2.0
) -> np.ndarray:
    """(n, k) replicas of W.T @ field for an (n_sites, k) weight matrix W,
    without building a field.  V = c R^T W, with R the root of
    ``LatticeDomain``.

    Law "gff": the functionals are exactly N(0, V^T V).  Replica r is
    z_r @ T, with T the triangular QR factor of V (T^T T = V^T V) and z_r
    the min(k, n_sites) normals of stream r: k normals per replica instead
    of one per site.  A zero column of W gives exact zeros.  Column j of T
    depends on the columns of W before it, so at one seed a column's
    replicas change with the rest of W; its law does not.
    Law "stable": an SaS functional is not a function of its Gram matrix,
    so replica r is xi_r . V with xi_r the noise of column r of
    stable_matrix, the field's own pairing.

    Replica r draws from stream r, each row by its own gemv, so the
    result is the same at any thread count and n replicas are a prefix of
    any larger batch."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != lat.n_sites:
        raise DomainError("weights must be (n_sites, k)")
    if not np.isfinite(W).all():
        raise DomainError("weights must be finite")
    V = CALIBRATION * lat._root(W, "T")
    if law == "gff":
        V = np.linalg.qr(V, mode="r")
    return _replica_rows(_law_noise(law, alpha, V.shape[0]), V.shape[0], n, seed, V=V)


def markov_decompose(sample: FieldSample, subdomain) -> MarkovDecomposition:
    """Split ``sample`` over a subdomain into harmonic and zero-boundary parts.

    ``subdomain`` is a site-index array, a boolean mask over interior sites
    or a predicate on embedded points.  The cell of a site set is built, and
    its indices checked, once per lattice, in the lattice's cache.
    """
    lat = sample.lattice
    idx = (
        subdomain
        if isinstance(subdomain, np.ndarray) and subdomain.dtype != bool
        else lat.indices_of(subdomain)
    )
    key = ("cell", idx.dtype.str, idx.shape, idx.tobytes())
    cell = lat.cached(key, lambda: DirichletCell(lat, idx))
    harm = sample.values.copy()
    harm[cell.member_idx] = cell.harmonic_extension(sample.values)
    return MarkovDecomposition(
        sample, cell, FieldSample(lat, harm), FieldSample(lat, sample.values - harm)
    )
