"""Tests for domains, conformal maps, test functions, and quadrature."""

import numpy as np
import pytest

from gffforge.errors import DomainError
from gffforge.geometry import (
    Mobius,
    UnitDisk,
    UpperHalfPlane,
    disk_bump,
    gauss_legendre,
    mobius_to_disk,
    pullback_test_function,
    radial_annulus_bump,
)


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


def test_unit_disk_contains():
    d = UnitDisk()
    assert d.contains(0.0)
    assert d.contains(0.5 + 0.3j)
    assert not d.contains(1.0)
    assert not d.contains(1.2j)


def test_half_plane_contains():
    h = UpperHalfPlane()
    assert h.contains(1j)
    assert h.contains(-3.0 + 0.001j)
    assert not h.contains(1.0)
    assert not h.contains(-1j)


# ---------------------------------------------------------------------------
# conformal maps
# ---------------------------------------------------------------------------


def test_mobius_to_disk_identity_at_origin():
    f = mobius_to_disk(0.0)
    pts = np.array([0.3 + 0.1j, -0.5j, 0.9])
    np.testing.assert_allclose(f(pts), pts, atol=1e-14)


def test_mobius_to_disk_sends_center_to_zero():
    f = mobius_to_disk(0.5)
    assert abs(f(0.5)) < 1e-14


def test_mobius_to_disk_derivative_positive_and_valued():
    f = mobius_to_disk(0.5)
    d = f.derivative(0.5)
    assert d.imag == pytest.approx(0.0, abs=1e-14)
    assert d.real == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_mobius_to_disk_preserves_disk():
    f = mobius_to_disk(0.3 - 0.4j)
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    inner = 0.99 * np.exp(1j * t)
    assert np.max(np.abs(f(inner))) < 1.0
    assert np.max(np.abs(f(inner))) > 0.97


def test_mobius_to_disk_rejects_outside_points():
    with pytest.raises(DomainError):
        mobius_to_disk(1.0)
    with pytest.raises(DomainError):
        mobius_to_disk(2.0 + 1.0j)


def test_mobius_requires_invertibility():
    with pytest.raises(DomainError):
        Mobius(1.0, 2.0, 2.0, 4.0)


@pytest.mark.parametrize("coef", [np.inf, np.nan, complex(0.0, np.inf)])
def test_mobius_rejects_non_finite_coefficients(coef):
    # Mobius(inf, 0, 0, 1) mapped every point to NaN
    with pytest.raises(DomainError, match="finite"):
        Mobius(coef, 0, 0, 1)


_MAPS = [
    pytest.param(Mobius(1.0 + 0.5j, 0.2, 0.1j, 1.0), id="mobius"),
    pytest.param(Mobius(np.exp(0.7j), 0, 0, 1), id="rotation"),
    pytest.param(Mobius(2.5, 0, 0, 1), id="scaling"),
    pytest.param(mobius_to_disk(0.4 + 0.2j), id="mobius_to_disk"),
]


@pytest.mark.parametrize("f", _MAPS)
def test_analytic_derivative_matches_finite_differences(f):
    rng = np.random.default_rng(5)
    z = 1.5 + 1.5j + 0.3 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))
    h = 1e-6
    fd = (f(z + h) - f(z - h)) / (2 * h)
    np.testing.assert_allclose(f.derivative(z), fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("f", _MAPS)
def test_inverse_round_trip(f):
    rng = np.random.default_rng(6)
    z = 2.0 + 2.0j + 0.2 * (rng.standard_normal(32) + 1j * rng.standard_normal(32))
    finv = f.inverse()
    np.testing.assert_allclose(finv(f(z)), z, rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_gauss_legendre_single_node():
    x, w = gauss_legendre(1, 0.0, 2.0)
    assert x[0] == pytest.approx(1.0)
    assert w[0] == pytest.approx(2.0)


def test_gauss_legendre_classic_integrals():
    x, w = gauss_legendre(64, 0.0, np.pi)
    assert w @ np.sin(x) == pytest.approx(2.0, abs=1e-12)
    assert w @ np.sin(x) ** 2 == pytest.approx(np.pi / 2, abs=1e-12)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(np.pi, rel=1e-13)


@pytest.mark.parametrize("k", range(6))
def test_gauss_legendre_polynomial_exactness(k):
    # 3 nodes integrate monomials up to degree 5 exactly
    x, w = gauss_legendre(3, -1.0, 2.0)
    exact = (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
    assert w @ x**k == pytest.approx(exact, rel=1e-12)


def test_gauss_legendre_cached_rule_is_not_shared_out():
    from numpy.polynomial.legendre import leggauss

    from gffforge.geometry import _reference_rule

    x, w = gauss_legendre(7, 0.0, 1.0)
    x0, w0 = x.copy(), w.copy()
    x[:] = 99.0
    w[:] = -1.0
    x1, w1 = gauss_legendre(7, 0.0, 1.0)
    assert np.array_equal(x1, x0) and np.array_equal(w1, w0)
    # another interval maps the same reference rule
    xr, wr = leggauss(7)
    x2, w2 = gauss_legendre(7, -2.0, 4.0)
    assert np.array_equal(x2, -2.0 + 3.0 * (xr + 1.0))
    assert np.array_equal(w2, 3.0 * wr)
    ref_x, ref_w = _reference_rule(7)
    with pytest.raises(ValueError):
        ref_x[0] = 0.0
    with pytest.raises(ValueError):
        ref_w[0] = 0.0


def test_gauss_legendre_validation():
    with pytest.raises(DomainError):
        gauss_legendre(0, 0.0, 1.0)
    with pytest.raises(DomainError):
        gauss_legendre(4, 1.0, 1.0)


@pytest.mark.parametrize("n", [2.5, 4.0, "4"])
def test_gauss_legendre_needs_an_integer_order(n):
    # numpy's leggauss raised a bare TypeError
    with pytest.raises(DomainError, match="integer n"):
        gauss_legendre(n, 0.0, 1.0)
    assert np.array_equal(gauss_legendre(np.int64(4), 0.0, 1.0)[0], gauss_legendre(4, 0.0, 1.0)[0])


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 1.0), (-np.inf, np.inf)])
def test_gauss_legendre_rejects_infinite_interval(a, b):
    # an infinite end gave inf or NaN nodes
    with pytest.raises(DomainError, match="finite"):
        gauss_legendre(4, a, b)


# ---------------------------------------------------------------------------
# test functions and pullbacks
# ---------------------------------------------------------------------------


def test_disk_bump_support_and_smoothness():
    phi = disk_bump(0.2 + 0.1j, 0.3)
    assert phi(0.2 + 0.1j) > 0
    assert phi(0.2 + 0.1j + 0.31) == 0.0
    grid = 0.2 + 0.1j + 0.29 * np.exp(1j * np.linspace(0, 2 * np.pi, 100))
    assert np.all(np.isfinite(phi(grid)))


@pytest.mark.parametrize(
    "center, radius", [(np.nan, 0.3), (complex(0.0, np.inf), 0.3), (0.0, np.inf)],
    ids=["nan-center", "inf-center", "inf-radius"],
)
def test_disk_bump_rejects_non_finite_center_or_radius(center, radius):
    # each was accepted with a NaN or infinite box
    with pytest.raises(DomainError, match="finite"):
        disk_bump(center, radius)


@pytest.mark.parametrize(
    "inner, outer", [(np.nan, None), (None, np.nan), (None, np.inf), (0.9, 0.5), (-0.5, -0.3)],
    ids=["nan-inner", "nan-outer", "inf-outer", "inner-above-outer", "below-radius-0"],
)
def test_radial_annulus_bump_rejects_bad_radii(inner, outer):
    # NaN radii evaluated to NaN and an infinite one gave an infinite box;
    # the last two cases were identically zero
    with pytest.raises(DomainError, match="inner < outer"):
        radial_annulus_bump(0.1, inner=inner, outer=outer)


def test_smoothstep_is_an_exact_monotone_step():
    from gffforge.geometry import _smoothstep

    t = np.linspace(-0.5, 1.5, 20_001)
    s = _smoothstep(t)
    assert np.all(s[t <= 0] == 0.0) and np.all(s[t >= 1] == 1.0)
    assert np.all(np.diff(s) >= 0)
    assert _smoothstep(0.5) == 0.5
    np.testing.assert_allclose(s + _smoothstep(1.0 - t), 1.0, rtol=0, atol=1e-15)


def test_pullback_scaling_rule():
    phi = disk_bump(0.0, 0.5)
    c = 2.0
    pulled = pullback_test_function(phi, Mobius(c, 0, 0, 1))
    z = np.array([0.3 + 0.2j, 0.6j, -0.4])
    np.testing.assert_allclose(pulled(z), phi(z / c) / c**2, rtol=1e-12)


def test_pullback_rotation_is_isometry():
    phi = disk_bump(0.3, 0.2)
    rot = Mobius(np.exp(1j * np.pi / 3), 0, 0, 1)
    pulled = pullback_test_function(phi, rot)
    z = 0.3 * np.exp(1j * np.pi / 3) + np.array([0.0, 0.05 + 0.02j])
    np.testing.assert_allclose(pulled(z), phi(rot.inverse()(z)), rtol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_pullback_preserves_total_integral(seed):
    rng = np.random.default_rng(seed)
    z0 = 0.45 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
    phi = disk_bump(0.15 * rng.uniform(-1, 1), 0.25)
    f = mobius_to_disk(z0).inverse()
    pulled = pullback_test_function(phi, f)
    assert _plane_integral(pulled, n=384) == pytest.approx(_plane_integral(phi, n=384), abs=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_pullback_bbox_bounds_the_image_of_the_support(seed):
    # the bbox is read from the images of the source bbox's edges: it holds
    # the image of the support, and a pullback of a pullback keeps the rule
    rng = np.random.default_rng(100 + seed)
    z0 = 0.45 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
    center, radius = 0.15 * rng.uniform(-1, 1), 0.25
    f = mobius_to_disk(z0).inverse()
    g = Mobius(np.exp(1j * rng.uniform(0, np.pi)), 0, 0, 1)
    phi = disk_bump(center, radius)
    pulled = pullback_test_function(phi, f)
    twice = pullback_test_function(pulled, g)
    rim = center + radius * np.exp(1j * np.linspace(0, 2 * np.pi, 4096))
    for psi, image in ((pulled, f(rim)), (twice, g(f(rim)))):
        x0, x1, y0, y1 = psi.bbox
        assert np.all((x0 < image.real) & (image.real < x1))
        assert np.all((y0 < image.imag) & (image.imag < y1))
    assert _plane_integral(twice, n=384) == pytest.approx(_plane_integral(phi, n=384), abs=1e-6)


def test_test_function_is_an_evaluator_a_bbox_and_radial_radii():
    from dataclasses import fields

    from gffforge.geometry import TestFunction

    assert [f.name for f in fields(TestFunction)] == ["evaluator", "bbox", "radial"]


def _plane_integral(phi, n):
    """Plane integral of phi by tensor Gauss-Legendre over its bounding box."""
    x0, x1, y0, y1 = phi.bbox
    gx, wx = gauss_legendre(n, x0, x1)
    gy, wy = gauss_legendre(n, y0, y1)
    return float(np.sum(wx[:, None] * wy[None, :] * phi(gx[:, None] + 1j * gy[None, :])))

