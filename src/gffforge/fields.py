"""Field samplers and the domain Markov decomposition.

Three constructions share one calibration convention:

* exact observables: finite Gaussian vectors with covariance assembled by
  the greens module, Cholesky with a tiny diagonal jitter fallback;
* lattice Gaussian: covariance (graph Laplacian)^-1 scaled by CALIBRATION,
  sampled by solving the upper Cholesky factor against white noise;
* symmetric alpha-stable: the same Cholesky filter driven by
  Chambers-Mallows-Stuck variates, which keeps every linear-algebra
  property of the Gaussian field while breaking Gaussianity itself.

Linear functionals w . h of a lattice field are drawn without the field,
as c v . xi with v = U^-T w (``sample_functionals``).

CALIBRATION = sqrt(2 pi) matches the lattice field to the continuum
normalization in which a radius-eps circle average at the disk center has
variance log(1/eps); the refinement study behind the constant lives in the
test suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericalError, ResolutionError
from .greens import CovarianceMatrix, DirichletCell, LatticeDomain
from .rng import replica_rng

__all__ = [
    "CALIBRATION",
    "FieldSample",
    "MarkovDecomposition",
    "sample_gff_observables",
    "sample_dgff",
    "sample_stable_field",
    "dgff_matrix",
    "stable_matrix",
    "sample_functionals",
    "sample_sas",
    "markov_decompose",
    "evaluate",
    "save_field",
    "load_field",
]

CALIBRATION = float(np.sqrt(2.0 * np.pi))

_LAW_TAGS = {"gff": 0, "stable": 1, "deterministic": 2}
_TAG_LAWS = {v: k for k, v in _LAW_TAGS.items()}


@dataclass
class FieldSample:
    """One lattice field realization (values on interior sites)."""

    lattice: LatticeDomain
    values: np.ndarray
    law: str
    alpha: float
    seed: int
    calibration: float = CALIBRATION

    def __post_init__(self):
        if self.law not in _LAW_TAGS:
            raise DomainError(f"unknown law {self.law!r}")
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

    def interp(self, z) -> np.ndarray:
        """Bilinear interpolation at complex points; zero off the grid."""
        arr, i0, j0 = self._grid_cache()
        a = self.lattice.spacing
        z = np.asarray(z, dtype=np.complex128)
        x = z.real / a - i0
        y = z.imag / a - j0
        nx, ny = arr.shape
        ix = np.clip(np.floor(x).astype(int), 0, nx - 2)
        iy = np.clip(np.floor(y).astype(int), 0, ny - 2)
        fx = np.clip(x - ix, 0.0, 1.0)
        fy = np.clip(y - iy, 0.0, 1.0)
        v = (
            arr[ix, iy] * (1 - fx) * (1 - fy)
            + arr[ix + 1, iy] * fx * (1 - fy)
            + arr[ix, iy + 1] * (1 - fx) * fy
            + arr[ix + 1, iy + 1] * fx * fy
        )
        inside = (x >= 0) & (x <= nx - 1) & (y >= 0) & (y <= ny - 1)
        return np.where(inside, v, 0.0)

    def _grid_cache(self):
        cached = getattr(self, "_grid", None)
        if cached is None:
            cached = self.grid()
            object.__setattr__(self, "_grid", cached)
        return cached


@dataclass
class MarkovDecomposition:
    """h = harmonic + residual relative to a subdomain: ``harmonic`` agrees
    with the field outside and is discretely harmonic inside; ``residual``
    vanishes outside and has zero boundary values on the subdomain edge."""

    sample: FieldSample
    cell: DirichletCell
    harmonic: FieldSample
    residual: FieldSample


def _chol_with_jitter(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, retrying with diagonal jitter up to
    1e-10 * trace for semidefinite inputs."""
    trace = float(np.trace(matrix))
    scale = trace if trace > 0 else 1.0
    for jitter in (0.0, 1e-14, 1e-12, 1e-10):
        try:
            return np.linalg.cholesky(matrix + jitter * scale * np.eye(len(matrix)))
        except np.linalg.LinAlgError:
            continue
    raise NumericalError("covariance matrix is not positive semidefinite within jitter budget")


def sample_gff_observables(cov, n: int, seed: int) -> np.ndarray:
    """(n, k) Gaussian draws with the given covariance.

    Replica k draws from its own derived stream, so results do not depend
    on batch splitting.
    """
    matrix = cov.entries if isinstance(cov, CovarianceMatrix) else np.asarray(cov, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError("covariance must be square")
    L = _chol_with_jitter(matrix)
    k = matrix.shape[0]
    out = np.empty((n, k))
    for r in range(n):
        out[r] = L @ replica_rng(seed, r).standard_normal(k)
    return out


def _replica_noise(law: str, alpha: float, size: int, seed: int, r: int) -> np.ndarray:
    """Noise of replica ``r``: unit Gaussians ("gff") or SaS variates ("stable")."""
    rng = replica_rng(seed, r)
    if law == "gff":
        return rng.standard_normal(size)
    if law == "stable":
        if not 1.0 < alpha <= 2.0:
            raise DomainError("stable field needs alpha in (1, 2]")
        return sample_sas(alpha, size, rng, _SAS_DRIVER_SCALE)
    raise DomainError(f"unknown law {law!r}")


def _field_matrix(lat, law, alpha, n, seed, calibration, replica_offset) -> np.ndarray:
    """(n_sites, n) calibrated fields; column r is replica replica_offset + r."""
    xi = np.empty((lat.n_sites, n), order="F")
    for r in range(n):
        xi[:, r] = _replica_noise(law, alpha, lat.n_sites, seed, replica_offset + r)
    return calibration * lat.white_to_field(xi)


def dgff_matrix(
    lat: LatticeDomain, n: int, seed: int, calibration: float = CALIBRATION, replica_offset: int = 0
) -> np.ndarray:
    """(n_sites, n) matrix of lattice GFF samples; column r is replica
    ``replica_offset + r``, so chunked generation matches one big batch."""
    return _field_matrix(lat, "gff", 2.0, n, seed, calibration, replica_offset)


def sample_dgff(lat: LatticeDomain, n: int, seed: int, calibration: float = CALIBRATION):
    """n lattice Gaussian free field samples on ``lat``."""
    vals = dgff_matrix(lat, n, seed, calibration)
    return [
        FieldSample(lat, np.ascontiguousarray(vals[:, r]), "gff", 2.0, seed, calibration)
        for r in range(n)
    ]


def sample_sas(alpha: float, size, rng, scale: float = 1.0) -> np.ndarray:
    """Symmetric alpha-stable variates by the Chambers-Mallows-Stuck method.

    At alpha = 2 the formula degenerates to 2 sin(U) sqrt(W), a normal with
    variance 2 (times scale).
    """
    if not 0.0 < alpha <= 2.0:
        raise DomainError("sample_sas needs alpha in (0, 2]")
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    if alpha == 1.0:
        return scale * np.tan(u)
    w = rng.standard_exponential(size)
    t = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    s = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return scale * t * s


# SaS(alpha=2, scale 1) is N(0, 2); this driver scale makes the alpha -> 2
# limit coincide with the unit-variance Gaussian driver of sample_dgff
_SAS_DRIVER_SCALE = 2.0 ** (-0.5)


def stable_matrix(
    lat: LatticeDomain,
    alpha: float,
    n: int,
    seed: int,
    calibration: float = CALIBRATION,
    replica_offset: int = 0,
) -> np.ndarray:
    """(n_sites, n) matrix of symmetric alpha-stable lattice fields; column
    r is replica ``replica_offset + r``."""
    return _field_matrix(lat, "stable", alpha, n, seed, calibration, replica_offset)


def sample_functionals(
    lat: LatticeDomain, W: np.ndarray, n: int, seed: int, law: str = "gff", alpha: float = 2.0
) -> np.ndarray:
    """(n, k) replicas of W.T @ field for an (n_sites, k) weight matrix W,
    without building a field: replica r is c xi_r . V with V = U^-T W, U
    the upper Cholesky factor of the Laplacian and xi_r the noise of column
    r of dgff_matrix (law "gff") or stable_matrix (law "stable")."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != lat.n_sites:
        raise DomainError("weights must be (n_sites, k)")
    V = CALIBRATION * lat._solve_factor(W, "T")
    out = np.empty((n, W.shape[1]))
    for r in range(n):
        out[r] = _replica_noise(law, alpha, lat.n_sites, seed, r) @ V
    return out


def sample_stable_field(
    lat: LatticeDomain, alpha: float, n: int, seed: int, calibration: float = CALIBRATION
):
    """n symmetric alpha-stable fields through the Gaussian Cholesky filter."""
    vals = stable_matrix(lat, alpha, n, seed, calibration)
    return [
        FieldSample(lat, np.ascontiguousarray(vals[:, r]), "stable", alpha, seed, calibration)
        for r in range(n)
    ]


def markov_decompose(sample: FieldSample, subdomain) -> MarkovDecomposition:
    """Split ``sample`` over a subdomain into harmonic and zero-boundary parts.

    ``subdomain`` is a site-index array, a boolean mask over interior sites,
    a predicate on embedded points, or an already-built DirichletCell of the
    same lattice.
    """
    lat = sample.lattice
    if isinstance(subdomain, DirichletCell):
        cell = subdomain
        if cell.parent is not lat:
            raise DomainError("cell belongs to a different lattice")
    else:
        idx = (
            subdomain
            if isinstance(subdomain, np.ndarray) and subdomain.dtype != bool
            else lat.indices_of(subdomain)
        )
        if len(idx) < 1:
            raise ResolutionError("subdomain resolves to no lattice sites")
        cell = lat.cell(idx)
    harm_vals = sample.values.copy()
    harm_vals[cell.member_idx] = cell.harmonic_extension(sample.values)
    res_vals = sample.values - harm_vals
    harmonic = replace(sample, values=harm_vals)
    residual = replace(sample, values=res_vals)
    return MarkovDecomposition(sample=sample, cell=cell, harmonic=harmonic, residual=residual)


def evaluate(sample: FieldSample, phi) -> float:
    """Riemann pairing (h, phi) = spacing^2 * sum phi(site) * value."""
    f = phi if callable(phi) else phi.evaluator
    return float(sample.lattice.spacing ** 2 * np.sum(np.asarray(f(sample.lattice.z)) * sample.values))


# ---------------------------------------------------------------------------
# binary serialization
# ---------------------------------------------------------------------------

_MAGIC = b"GFFS"
_HEADER = struct.Struct("<4sIdIIqqIdQd")
_VERSION = 1


def save_field(sample: FieldSample, path) -> None:
    """Write a field as a binary grid file (header + row-major f64 values)."""
    arr, i0, j0 = sample.grid()
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        sample.lattice.spacing,
        arr.shape[0],
        arr.shape[1],
        i0,
        j0,
        _LAW_TAGS[sample.law],
        sample.alpha,
        sample.seed,
        sample.calibration,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


@dataclass
class GridField:
    """Self-contained deserialized field grid."""

    values: np.ndarray
    spacing: float
    i0: int
    j0: int
    law: str
    alpha: float
    seed: int
    calibration: float

    def attach(self, lattice: LatticeDomain) -> FieldSample:
        """Rebind grid values to interior sites of a matching lattice."""
        if abs(lattice.spacing - self.spacing) > 1e-15 * max(1.0, self.spacing):
            raise DomainError("lattice spacing does not match the file")
        ij = lattice.interior_ij
        ii = ij[:, 0] - self.i0
        jj = ij[:, 1] - self.j0
        nx, ny = self.values.shape
        if ii.min() < 0 or jj.min() < 0 or ii.max() >= nx or jj.max() >= ny:
            raise DomainError("lattice does not fit inside the stored grid")
        return FieldSample(
            lattice, self.values[ii, jj].copy(), self.law, self.alpha, self.seed, self.calibration
        )


def load_field(path) -> GridField:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError("truncated field file")
        magic, version, spacing, nx, ny, i0, j0, law_tag, alpha, seed, calibration = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError("not a field file (bad magic)")
        if version != _VERSION:
            raise ValueError(f"unsupported field file version {version}")
        if law_tag not in _TAG_LAWS:
            raise ValueError(f"unknown law tag {law_tag}")
        data = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8")
        if data.size != nx * ny:
            raise ValueError("truncated field payload")
    return GridField(
        values=data.reshape(nx, ny).copy(),
        spacing=spacing,
        i0=i0,
        j0=j0,
        law=_TAG_LAWS[law_tag],
        alpha=alpha,
        seed=seed,
        calibration=calibration,
    )
