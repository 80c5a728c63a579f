"""Planar domains, conformal maps, test functions, quadrature.

Points are plain complex numbers throughout.  Maps act on scalars or
numpy arrays and carry analytic derivatives and inverses, so pullbacks of
test functions never need numerical differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError

__all__ = [
    "UnitDisk",
    "UpperHalfPlane",
    "Mobius",
    "TestFunction",
    "mobius_to_disk",
    "pullback_test_function",
    "gauss_legendre",
    "disk_bump",
    "radial_annulus_bump",
]


def _as_complex(z):
    return np.asarray(z, dtype=np.complex128)


# ---------------------------------------------------------------------------
# model domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitDisk:
    def contains(self, z) -> np.ndarray:
        return np.abs(_as_complex(z)) < 1.0


@dataclass(frozen=True)
class UpperHalfPlane:
    def contains(self, z) -> np.ndarray:
        return _as_complex(z).imag > 0.0


# ---------------------------------------------------------------------------
# conformal maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mobius:
    """z -> (a z + b) / (c z + d) on complex scalars/arrays, with analytic
    derivative and exact inverse; rotations and scalings are the b = c = 0
    cases."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        # an infinite coefficient would map every point to NaN
        if not np.all(np.isfinite([self.a, self.b, self.c, self.d])):
            raise DomainError("Mobius coefficients must be finite")
        if abs(self.a * self.d - self.b * self.c) == 0:
            raise DomainError("Mobius coefficients are degenerate (ad - bc = 0)")

    def __call__(self, z):
        z = _as_complex(z)
        return (self.a * z + self.b) / (self.c * z + self.d)

    def derivative(self, z):
        z = _as_complex(z)
        det = self.a * self.d - self.b * self.c
        return det / (self.c * z + self.d) ** 2

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)


def mobius_to_disk(z0: complex) -> Mobius:
    """Disk automorphism sending z0 to 0 with positive real derivative there.

    F(w) = (w - z0) / (1 - conj(z0) w), so F'(z0) = 1 / (1 - |z0|^2) > 0.
    """
    z0 = complex(z0)
    if not abs(z0) < 1:
        raise DomainError("mobius_to_disk needs |z0| < 1")
    return Mobius(1.0, -z0, -np.conj(z0), 1.0)


def gauss_legendre(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b]."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"gauss_legendre needs an integer n >= 1, got {n!r}")
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise DomainError("gauss_legendre needs finite a < b")
    x, w = _reference_rule(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@lru_cache(maxsize=None)
def _reference_rule(n: int):
    """leggauss(n) on [-1, 1], built once per order and kept read-only."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported observable phi: C -> R.

    ``bbox`` = (x0, x1, y0, y1) bounds the support; ``boundary(n)`` gives n
    points on the support's boundary, used to transport the box through
    conformal maps.  ``radial`` = (r_lo, r_hi) marks a function that is
    rotation invariant about the origin and vanishes outside
    r_lo <= |z| <= r_hi; its profile is phi on the positive real axis, and
    pairings of two such functions collapse to 1-D integrals.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    bbox: tuple
    boundary: Callable[[int], np.ndarray]
    radial: tuple | None = None

    def __call__(self, z):
        z = _as_complex(z)
        return np.asarray(self.evaluator(z), dtype=float)


def _smoothstep(t):
    """C-infinity step e^(-1/t) / (e^(-1/t) + e^(-1/(1-t))) of t clipped to
    [0, 1]: exactly 0 for t <= 0 and 1 for t >= 1, increasing between, with
    every derivative zero at both ends."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        up = np.exp(-1.0 / t)
        down = np.exp(-1.0 / (1.0 - t))
    return up / (up + down)


def disk_bump(center: complex, radius: float) -> TestFunction:
    """Radially symmetric bump supported on B_center(radius)."""
    center = complex(center)
    if not (np.isfinite(center) and 0 < radius < np.inf):
        raise DomainError("disk_bump needs a finite center and 0 < radius < inf")

    def ev(z):
        rr2 = (np.abs(z - center) / radius) ** 2
        out = np.zeros_like(rr2)
        inside = rr2 < 1.0
        # exp(1) rescales the classical exp(-1/(1-r^2)) profile to peak at 1
        out[inside] = np.exp(1.0) * np.exp(-1.0 / (1.0 - rr2[inside]))
        return out

    def boundary(n):
        t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return center + radius * np.exp(1j * t)

    bbox = (center.real - radius, center.real + radius, center.imag - radius, center.imag + radius)
    radial = (0.0, radius) if center == 0 else None
    return TestFunction(ev, bbox, boundary, radial=radial)


def radial_annulus_bump(
    delta: float,
    normalize: bool = False,
    inner: float | None = None,
    outer: float | None = None,
) -> TestFunction:
    """Radial plateau bump hugging the unit circle from inside.

    Equal to 1 for 1 - delta <= |z| <= 1 - delta/2, zero outside a
    delta/10 neighbourhood of that annulus, with smoothstep shoulders.  With
    ``normalize`` the profile is divided by its 2-D integral.  ``inner`` and
    ``outer`` override the plateau radii, which must be finite with
    0 <= inner < outer.
    """
    if not 0 < delta < 1:
        raise DomainError("radial_annulus_bump needs delta in (0, 1)")
    r_lo = 1.0 - delta if inner is None else inner
    r_hi = 1.0 - delta / 2.0 if outer is None else outer
    if not 0 <= r_lo < r_hi < np.inf:
        raise DomainError("radial_annulus_bump needs finite 0 <= inner < outer")
    pad = delta / 10.0
    lo, hi = max(r_lo - pad, 0.0), r_hi + pad

    def profile(r):
        return _smoothstep((r - (r_lo - pad)) / pad) * (1.0 - _smoothstep((r - r_hi) / pad))

    scale = 1.0
    if normalize:
        rr, ww = gauss_legendre(256, lo, hi)
        scale = 1.0 / (2.0 * np.pi * np.sum(ww * rr * profile(rr)))

    def ev(z):
        return scale * profile(np.abs(z))

    def boundary(n):
        t = np.linspace(0.0, 2.0 * np.pi, n // 2, endpoint=False)
        return np.concatenate([lo * np.exp(1j * t), hi * np.exp(1j * t)])

    return TestFunction(ev, (-hi, hi, -hi, hi), boundary, radial=(lo, hi))


def pullback_test_function(phi: TestFunction, f: Mobius) -> TestFunction:
    """Transport phi under f so that integrals against fields are preserved:
    phi^f(z) = |(f^{-1})'(z)|^2 * phi(f^{-1}(z))."""
    finv = f.inverse()

    def ev(z):
        w = finv(z)
        return np.abs(finv.derivative(z)) ** 2 * phi(w)

    pts = f(phi.boundary(512))
    pad = 1e-9 + 1e-3 * (np.max(np.abs(pts)) if pts.size else 1.0)
    bbox = (
        float(pts.real.min() - pad),
        float(pts.real.max() + pad),
        float(pts.imag.min() - pad),
        float(pts.imag.max() + pad),
    )

    def boundary(n):
        return f(phi.boundary(n))

    return TestFunction(ev, bbox, boundary)
