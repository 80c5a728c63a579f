"""Tests for continuum Green kernels, covariance assembly, and the lattice inverse."""

import ast
import gc
import inspect
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded
from scipy.linalg.lapack import dtbtrs

from gffforge import greens, rng
from gffforge.averaging import CircleMeasure, SineMeasure
from gffforge.errors import DomainError, NumericalError, SingularityError
from gffforge.geometry import Mobius, UnitDisk, UpperHalfPlane, disk_bump, radial_annulus_bump
from gffforge.fields import FieldSample, markov_decompose
from gffforge.greens import (
    LatticeDomain,
    covariance_of_observables,
    disk_lattice,
    discrete_green,
    green_disk,
    green_halfplane,
    green_variance_ratio,
    h_minus1_inner,
    halfplane_lattice,
)

_HALF_TO_DISK = Mobius(1.0, -1.0j, 1.0, 1.0j)  # z -> (z - i)/(z + i)


# ---------------------------------------------------------------------------
# continuum kernels
# ---------------------------------------------------------------------------


def test_green_disk_center_value():
    assert green_disk(0.0, 0.5) == pytest.approx(np.log(2.0), rel=1e-12)


def test_green_disk_center_value_against_lattice_oracle():
    # independent discretization oracle: the lattice inverse Laplacian
    # approaches G/(2 pi) under refinement
    lat = disk_lattice(128)
    approx = 2.0 * np.pi * discrete_green(lat, 0.0, 0.5)
    assert approx == pytest.approx(np.log(2.0), rel=0.05)


def test_green_disk_boundary_decay():
    assert abs(green_disk(0.0, 0.999)) < 2e-3


def test_green_disk_symmetry():
    assert green_disk(0.3, 0.5j) == pytest.approx(green_disk(0.5j, 0.3), abs=1e-12)


def test_green_disk_log_singularity():
    # G + log|x-y| stays bounded as the points merge
    x = 0.2 + 0.1j
    for d in (1e-3, 1e-5):
        val = green_disk(x, x + d) + np.log(d)
        assert abs(val) < 1.0


def test_green_disk_errors():
    with pytest.raises(SingularityError):
        green_disk(0.2, 0.2)
    with pytest.raises(DomainError):
        green_disk(1.5, 0.2)


def test_green_halfplane_values():
    assert green_halfplane(1j, 2j) == pytest.approx(np.log(3.0), rel=1e-12)
    assert abs(green_halfplane(1j, 1000.0 + 1j)) < 1e-5


def test_green_halfplane_conformal_transport():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-2, 2) + 1j * rng.uniform(0.1, 3)
        y = rng.uniform(-2, 2) + 1j * rng.uniform(0.1, 3)
        if abs(x - y) < 1e-3:
            continue
        lhs = green_halfplane(x, y)
        rhs = green_disk(_HALF_TO_DISK(x), _HALF_TO_DISK(y))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_green_halfplane_errors():
    with pytest.raises(DomainError):
        green_halfplane(1.0, 1j)  # first point on the real axis
    with pytest.raises(SingularityError):
        green_halfplane(1j, 1j)


# ---------------------------------------------------------------------------
# H^{-1} inner product
# ---------------------------------------------------------------------------


def test_h_minus1_radial_bump_matches_circle_variance():
    # thin unit-mass annular bump around radius 1/e: the pairing tends to
    # the circle-circle value log(1/eps) = 1
    eps = np.exp(-1.0)
    f = radial_annulus_bump(0.02, normalize=True, inner=eps - 0.01, outer=eps + 0.01)
    val = h_minus1_inner(f, f, UnitDisk())
    assert val == pytest.approx(1.0, abs=2e-2)


def test_h_minus1_separated_supports_positive():
    f = disk_bump(-0.5, 0.2)
    g = disk_bump(0.5, 0.2)
    assert h_minus1_inner(f, g, UnitDisk()) > 0


def test_h_minus1_bilinear_and_symmetric():
    f = disk_bump(-0.3, 0.25)
    g = disk_bump(0.2 + 0.2j, 0.25)
    fg = h_minus1_inner(f, g, UnitDisk())
    f2 = disk_bump(-0.3, 0.25, height=2.0)
    assert h_minus1_inner(f2, g, UnitDisk()) == pytest.approx(2 * fg, rel=1e-10)
    assert h_minus1_inner(g, f, UnitDisk()) == pytest.approx(fg, rel=1e-10)


# ---------------------------------------------------------------------------
# covariance assembly
# ---------------------------------------------------------------------------


def test_circle_average_covariance_matrix():
    obs = [CircleMeasure(0.0, np.exp(-2.0)), CircleMeasure(0.0, np.exp(-1.0))]
    cov = covariance_of_observables(obs, UnitDisk())
    np.testing.assert_allclose(cov, [[2.0, 1.0], [1.0, 1.0]], atol=1e-8)


def test_sine_average_covariance_structure():
    obs = [SineMeasure(1.0), SineMeasure(2.0)]
    c = covariance_of_observables(obs, UpperHalfPlane())
    sigma2 = c[0, 0]
    assert sigma2 == pytest.approx(np.pi**2 / 2.0, rel=1e-6)
    np.testing.assert_allclose(c / sigma2, [[1.0, 1.0], [1.0, 2.0]], atol=1e-6)


def test_circle_diagonal_uses_the_measure_own_nodes():
    # the diagonal is one Richardson step on the measure's own offset rule,
    # 2 P(m_2n, m_2n) - P(m_n, m_n), so n_nodes sets the diagonal as it
    # sets the off-diagonal entries
    def offset_pair(m):
        x, w = m.discretize(offset=0)
        y, v = m.discretize(offset=1)
        return w @ green_disk(x[:, None], y[None, :]) @ v

    m = CircleMeasure(0.5 + 0.2j, 0.3, n_nodes=4)
    richardson = 2.0 * offset_pair(replace(m, n_nodes=8)) - offset_pair(m)
    cov = covariance_of_observables([m], UnitDisk())
    assert cov[0, 0] == pytest.approx(richardson, rel=1e-14)
    # the step is exact for the -log singularity, so at 512 nodes the
    # diagonal is the harmonic part's quadrature plus -log r
    m = CircleMeasure(0.5 + 0.2j, 0.3)
    x, w = m.discretize(offset=0)
    y, _ = m.discretize(offset=1)
    harmonic = w @ np.log(np.abs(1.0 - x[:, None] * np.conj(y[None, :]))) @ w
    cov = covariance_of_observables([m], UnitDisk())
    assert cov[0, 0] == pytest.approx(harmonic - np.log(0.3), rel=1e-14)


def test_curve_pairings_are_checked_against_the_domain():
    # SineMeasure(0.25) is a semicircle of radius 2, which leaves the unit
    # disk: its Richardson self-pairing and, in the reversed list, its
    # off-diagonal pairing with the radius-1/2 semicircle both raise
    with pytest.raises(DomainError):
        covariance_of_observables([SineMeasure(0.25), SineMeasure(4.0)], UnitDisk())
    with pytest.raises(DomainError):
        covariance_of_observables([SineMeasure(4.0), SineMeasure(0.25)], UnitDisk())
    with pytest.raises(DomainError):
        covariance_of_observables([SineMeasure(0.25)], UnitDisk())
    # so does a circle that leaves the disk
    with pytest.raises(DomainError):
        covariance_of_observables([CircleMeasure(0.5, 0.6)], UnitDisk())


def test_mixed_function_and_measure_list_is_rejected():
    obs = [disk_bump(0.0, 0.4), CircleMeasure(0.0, 0.5)]
    with pytest.raises(DomainError, match="test function with a curve measure"):
        covariance_of_observables(obs, UnitDisk())
    with pytest.raises(DomainError, match="test function with a curve measure"):
        covariance_of_observables(obs[::-1], UnitDisk())


def test_single_observable_variance():
    cov = covariance_of_observables([disk_bump(0.0, 0.4)], UnitDisk())
    assert cov.shape == (1, 1)
    assert cov[0, 0] > 0


@pytest.mark.parametrize("seed", range(10))
def test_covariance_matrices_are_psd(seed):
    rng = np.random.default_rng(seed)
    k = rng.integers(2, 8)
    obs = []
    for _ in range(k):
        c = 0.5 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        obs.append(disk_bump(c, rng.uniform(0.1, 0.3)))
    cov = covariance_of_observables(obs, UnitDisk(), n_quad=24)
    w = np.linalg.eigvalsh(cov)
    assert w.min() >= -1e-8 * np.trace(cov)


# ---------------------------------------------------------------------------
# lattice Green function
# ---------------------------------------------------------------------------


def test_discrete_green_single_site():
    lat = LatticeDomain(1.0, np.array([[0, 0]]))
    assert discrete_green(lat, (0, 0), (0, 0)) == pytest.approx(0.25)


def test_discrete_green_symmetry():
    lat = disk_lattice(16)
    pairs = [((0, 0), (2, 3)), ((1, -2), (-3, 1)), ((4, 0), (0, -4))]
    for x, y in pairs:
        assert discrete_green(lat, x, y) == pytest.approx(
            discrete_green(lat, y, x), abs=1e-10
        )


def test_discrete_green_nonnegative():
    lat = disk_lattice(16)
    k = lat.site_index((1, 1))
    e = np.zeros(lat.n_sites)
    e[k] = 1.0
    col = lat.solve(e)
    assert col.min() >= 0.0


def test_box_solve_matches_banded_cholesky():
    lat = halfplane_lattice(1.0, 0.1)
    assert lat._box == (21, 10) and lat.n_sites == 210
    b = np.random.default_rng(3).standard_normal((lat.n_sites, 4))
    got, got_vec = lat.solve(b), lat.solve(b[:, 1])
    assert lat._chol is None  # the box path builds no band
    ref = cho_solve_banded((lat._banded()[0], False), b)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(got_vec - ref[:, 1])) <= 1e-12 * np.max(np.abs(ref))


def test_box_root_is_symmetric_and_squares_to_inverse():
    lat = halfplane_lattice(1.0, 0.1)
    eye = np.eye(lat.n_sites)
    R = lat.white_to_field(eye)
    L_inv = lat.solve(eye)
    assert lat._chol is None
    assert np.max(np.abs(R - R.T)) <= 1e-14 * np.max(np.abs(R))
    assert np.max(np.abs(R @ R - L_inv)) <= 1e-12 * np.max(np.abs(L_inv))
    assert np.array_equal(lat._root(eye, "T"), R)


@pytest.mark.parametrize("which", ["disk", "box-minus-site"])
def test_non_rectangular_sites_use_banded_factor(monkeypatch, which):
    # every solve of more than one column runs on two column blocks
    monkeypatch.setenv("GFFFORGE_THREADS", "2")
    monkeypatch.setattr(greens, "_POOL_WORK", 0)
    if which == "disk":
        lat = disk_lattice(16)
    else:
        ij = halfplane_lattice(1.0, 0.1).interior_ij
        lat = LatticeDomain(0.1, np.delete(ij, 37, axis=0))
    assert lat._box is None
    U = lat._banded()[0]
    for cols in (3, 400):
        xi = np.random.default_rng(5).standard_normal((lat.n_sites, cols))
        assert np.array_equal(lat.white_to_field(xi), dtbtrs(U, xi, uplo="U", trans="N")[0])
        assert np.array_equal(lat._root(xi, "T"), dtbtrs(U, xi, uplo="U", trans="T")[0])
        assert np.array_equal(lat.solve(xi), cho_solve_banded((U, False), xi))


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_band_solve_matches_scipy_dtbtrs_at_any_thread_count(monkeypatch, threads):
    # the same bits as scipy's f2py dtbtrs whatever the column split: 1-D
    # input, one column, 7 columns (serial by size, then forced onto the
    # pool in uneven blocks) and 400 columns on disk-64 (pooled by size),
    # for C- and F-ordered input, and the caller's array is left alone
    monkeypatch.setenv("GFFFORGE_THREADS", threads)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    default = greens._POOL_WORK
    try:
        cases = ((16, None, default), (16, 1, default), (16, 7, default), (16, 7, 0), (64, 400, default))
        for size, cols, pool_work in cases:
            monkeypatch.setattr(greens, "_POOL_WORK", pool_work)
            lat = disk_lattice(size)
            U = lat._banded()[0]
            assert (U.size * (cols or 1) >= pool_work) == (size == 64 or pool_work == 0)
            shape = (lat.n_sites,) if cols is None else (lat.n_sites, cols)
            x = np.random.default_rng(size).standard_normal(shape)
            for xx in (np.ascontiguousarray(x), np.asfortranarray(x)):
                for trans in "NT":
                    got = lat._root(xx, trans)
                    assert got.shape == xx.shape
                    assert np.array_equal(got, dtbtrs(U, xx, uplo="U", trans=trans)[0])
                assert np.array_equal(xx, x)
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("which", ["disk", "box"])
def test_white_to_field_in_place_keeps_the_bits(monkeypatch, which):
    # overwrite_xi solves in the noise's own memory on the band (a
    # Fortran-ordered float array is used as it is, anything else is copied)
    # and hands it to the box's first DST; the field is the same either way
    monkeypatch.setenv("GFFFORGE_THREADS", "2")
    monkeypatch.setattr(greens, "_POOL_WORK", 0)
    monkeypatch.setattr(greens, "_BOX_POOL_VALUES", 0)
    lat = disk_lattice(32) if which == "disk" else halfplane_lattice(1.0, 0.05)
    assert (lat._box is None) == (which == "disk")
    x = np.random.default_rng(9).standard_normal((40, lat.n_sites)).T
    want = lat.white_to_field(x)
    assert np.array_equal(x, np.random.default_rng(9).standard_normal((40, lat.n_sites)).T)
    for xx in (x.copy(order="F"), x.copy(order="C"), x[:, 0].copy()):
        kept = xx.copy()
        got = lat.white_to_field(xx, overwrite_xi=True)
        assert np.array_equal(got, want if xx.ndim == 2 else want[:, 0])
        if which == "disk" and xx.flags.f_contiguous:
            assert np.shares_memory(got, xx)
        elif which == "disk":
            assert np.array_equal(xx, kept)


def test_band_solve_raises_on_lapack_failure():
    # a zero on the factor's diagonal is a singular U: LAPACK's info is
    # checked for every column block
    U = disk_lattice(16)._banded()[0].copy(order="F")
    U[-1, 5] = 0.0
    with pytest.raises(NumericalError, match="info = 6"):
        greens._band_solve(U, np.ones((U.shape[1], 2)), "N")
    with pytest.raises(ValueError, match="one row per site"):
        greens._band_solve(U, np.ones((U.shape[1] + 1, 2)), "N")


def test_box_root_is_the_same_at_any_thread_count(monkeypatch):
    lat = halfplane_lattice(2.0, 0.02)
    assert lat._box is not None
    x = np.random.default_rng(7).standard_normal((lat.n_sites, 16))
    # below the cut every root is serial; lowered to 0, 2 threads take the
    # 1-D root and the 16 columns alike
    monkeypatch.setattr(greens, "_BOX_POOL_VALUES", 0)
    got = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("GFFFORGE_THREADS", threads)
        got[threads] = [lat._root(x, "N"), lat._root(x, "T"), lat._root(x[:, 5])]
    for a, b in zip(got["1"], got["2"]):
        assert np.array_equal(a, b)


def test_one_method_chooses_the_lattice_root():
    # the box/band decision is made in _root alone: every other method
    # reaches R through it, and dtbtrs has a single call site in src/
    tree = ast.parse(inspect.getsource(greens))
    lat_cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "LatticeDomain")
    readers = {
        fn.name
        for fn in lat_cls.body
        if isinstance(fn, ast.FunctionDef)
        for n in ast.walk(fn)
        if isinstance(n, ast.Attribute) and n.attr == "_box" and isinstance(n.ctx, ast.Load)
        and isinstance(n.value, ast.Name) and n.value.id == "self"
    }
    assert readers == {"_root"}
    calls = sum(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "dtbtrs"
        for path in Path(greens.__file__).parent.glob("*.py")
        for n in ast.walk(ast.parse(path.read_text()))
    )
    assert calls == 1


_LAYERS = ("errors", "rng", "geometry", "greens", "fields", "averaging", "excursions", "verify", "cli")


def _package_imports(tree):
    """Names that a module's source imports from the package, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gffforge")):
            module = node.module if node.level else node.module.partition(".")[2]
            if module:
                yield module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names if a.name.startswith("gffforge."))


def test_modules_import_only_earlier_layers():
    # function-level imports count too: a local import is how a cycle
    # hides.  The package namespace holds only the error types, its import
    # of rng is the OpenBLAS pin, and cli's `from . import __version__`
    # reads the version, not a module.
    pkg = Path(greens.__file__).parent
    assert sorted(p.stem for p in pkg.glob("*.py")) == sorted(_LAYERS + ("__init__",))
    for path in pkg.glob("*.py"):
        if path.stem == "__init__":
            allowed = {"errors", "rng"}
        else:
            allowed = set(_LAYERS[: _LAYERS.index(path.stem)])
        if path.stem == "cli":
            allowed.add("__version__")
        imported = set(_package_imports(ast.parse(path.read_text())))
        assert imported <= allowed, f"{path.stem} imports {sorted(imported - allowed)}"


def test_duplicate_sites_rejected():
    with pytest.raises(DomainError, match=r"site \(0, 0\) is given twice"):
        LatticeDomain(1.0, np.array([[0, 0], [1, 0], [0, 0]]))


def test_duplicate_site_cannot_fill_a_holed_rectangle():
    # a rectangle with one site missing and another repeated has m*n rows;
    # without the check it would pass the box test and take the DST path
    ij = halfplane_lattice(1.0, 0.1).interior_ij
    holed = np.delete(ij, 37, axis=0)
    with pytest.raises(DomainError, match="given twice"):
        LatticeDomain(0.1, np.vstack([holed, holed[:1]]))


def test_discrete_green_refinement_toward_continuum():
    # ratio of lattice to continuum Green values approaches 1/(2 pi) with
    # monotone error decrease under refinement; no spacing prefactor
    target = 1.0 / (2.0 * np.pi)
    errs = []
    for size in (32, 64, 128):
        lat = disk_lattice(size)
        ratio = green_variance_ratio(lat)
        errs.append(abs(ratio - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02 * target


def test_lattice_interior_neighbors_are_interior_or_boundary():
    lat = disk_lattice(24)
    interior = set(map(tuple, lat.interior_ij))
    boundary = set(map(tuple, lat.boundary_ij))
    assert not (interior & boundary)
    for i, j in interior:
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert (i + di, j + dj) in interior or (i + di, j + dj) in boundary


def test_square_symmetries_permute_sites_and_commute_with_the_solve():
    lat = disk_lattice(24)
    quarter, reflect = lat.square_symmetries()
    i, j = lat.interior_ij.T
    assert np.array_equal(lat.interior_ij[quarter], np.stack([-j, i], axis=1))
    assert np.array_equal(lat.interior_ij[reflect], np.stack([i, -j], axis=1))
    x = np.random.default_rng(5).standard_normal(lat.n_sites)
    for perm in (quarter, reflect):
        moved = np.empty_like(x)
        moved[perm] = x
        np.testing.assert_allclose(lat.solve(moved)[perm], lat.solve(x), rtol=0, atol=1e-12)
    assert halfplane_lattice(2.0, 0.25).square_symmetries() is None
    holed = lat.interior_ij[np.any(lat.interior_ij != (3, 1), axis=1)]
    assert LatticeDomain(lat.spacing, holed).square_symmetries() is None


def test_dropped_lattice_with_cells_is_freed_without_gc():
    # the lattice caches the cells of markov_decompose, so a cell must not
    # hold the lattice strongly
    gc.disable()
    try:
        lat = disk_lattice(16)
        field = FieldSample(lat, np.zeros(lat.n_sites))
        markov_decompose(field, np.arange(10))
        markov_decompose(field, np.arange(20, 30))
        ref = weakref.ref(lat)
        del lat, field
        assert ref() is None
    finally:
        gc.enable()


def test_lattice_site_lookup_errors():
    lat = disk_lattice(16)
    with pytest.raises(DomainError):
        lat.site_index((500, 0))


def _half_disk_cell_field():
    lat = disk_lattice(32)
    idx = lat.indices_of(lambda z: np.abs(z) < 0.5)
    values = np.random.default_rng(3).standard_normal(lat.n_sites)
    return FieldSample(lat, values), idx


@pytest.mark.parametrize("bad", ["repeated", "negative", "out-of-range", "float"])
def test_cell_rejects_bad_site_indices(bad):
    # markov_decompose passes a site-index array straight to the cell; a
    # repeated index assembled a wrong Laplacian (the harmonic part moved on
    # all 193 sites), -1 wrapped to the last site and a float was truncated
    field, idx = _half_disk_cell_field()
    bad_idx = {
        "repeated": np.append(idx, idx[5]),
        "negative": np.append(idx[:-1], -1),
        "out-of-range": np.append(idx, field.lattice.n_sites),
        "float": idx.astype(float),
    }[bad]
    with pytest.raises(DomainError, match="cell site indices"):
        markov_decompose(field, bad_idx)
    assert len(markov_decompose(field, idx).cell.member_idx) == 193


def test_markov_decompose_of_a_nan_field_raises():
    field, idx = _half_disk_cell_field()
    ring = markov_decompose(field, idx).cell.ring_idx
    field.values[ring[0]] = np.nan
    with pytest.raises(ValueError):
        markov_decompose(field, idx)


def test_thread_limit_is_a_no_op_without_openblas(monkeypatch):
    import _ctypes

    # an extension that links no BLAS: the lookup finds nothing, and that
    # pool's count then reads None
    assert rng._openblas_threads_api(_ctypes) is None
    pools = rng._OPENBLAS
    for missing in pools:
        monkeypatch.setattr(rng, "_OPENBLAS", {**pools, missing: None})
        assert rng.openblas_threads()[missing] is None
