"""Spatial discretization against dense-matrix and analytic oracles."""

import sys

import numpy as np
import pytest
import scipy.fft

from choc import grid as grid_module
from choc import (
    ConfigurationError,
    DomainError,
    Field,
    Grid,
    laplacian,
    mean,
    norm_h,
    norm_v,
    norm_z,
    prolong,
)
from choc.grid import (
    _dct,
    _idct,
    grad_norm_sq_values,
    lap_values,
    norm_h_values,
    norm_v_values,
    norm_z_sq_values,
    norm_z_values,
    prolong_values,
)

from conftest import apply_dense, dense_neumann_laplacian, inner_h, random_field


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid((3,), (1.0,))
    with pytest.raises(ConfigurationError):
        Grid((8,), (-1.0,))
    with pytest.raises(ConfigurationError):
        Grid((8, 8, 8), (1.0, 1.0, 1.0))
    # h^2 underflows to 0, or overflows (where 2/h^2 = 0 would pass a
    # finiteness test of the symbol alone)
    for extreme in (1e-300, 1e300):
        with pytest.raises(ConfigurationError, match="Laplacian symbol"):
            Grid((8,), (extreme,))
        with pytest.raises(ConfigurationError, match="Laplacian symbol"):
            Grid((8, 8), (1.0, extreme))
    g = Grid((8, 10), (2.0, 1.0))
    assert g.cell_volume == pytest.approx(0.25 * 0.1)
    assert g.volume == pytest.approx(2.0)


def test_grid_rejects_non_integral_point_counts():
    with pytest.raises(ConfigurationError, match="integers"):
        Grid(64.7)
    with pytest.raises(ConfigurationError, match="integers"):
        Grid([16.2, 12.9])
    assert Grid(64.0).npoints == (64,)
    assert Grid([16.0, 12]).npoints == (16, 12)


def test_grid_size_is_exact():
    # the point count is a Python int: an int64 product of 2^32 x 2^32
    # wraps to 0, and every mean divides by the size
    assert Grid((2**32, 2**32)).size == 2**64
    assert Grid((2**62,)).size == 2**62
    assert Grid((16, 12)).size == 192


def test_field_validation(grid64):
    with pytest.raises(DomainError):
        Field(grid64, np.full(grid64.shape, np.nan))
    with pytest.raises(Exception):
        Field(grid64, np.zeros(12))


# --- laplacian -------------------------------------------------------------


def test_laplacian_constant_is_zero(grid64):
    out = laplacian(Field.constant(grid64, 3.7))
    assert np.max(np.abs(out.values)) <= 1e-11


@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_laplacian_eigenfield_1d(grid64, k):
    # oracle: dense second-difference matrix with reflected ghosts,
    # diagonalized numerically
    mat = dense_neumann_laplacian(grid64)
    x = Field(grid64, grid64.cosine_mode((k,)))
    dense_out = apply_dense(mat, x)
    spectral_out = laplacian(x)
    n = grid64.npoints[0]
    h = grid64.spacings[0]
    lam_analytic = -(2.0 / h**2) * (1.0 - np.cos(k * np.pi / n))
    scale = abs(lam_analytic)
    assert np.max(np.abs(spectral_out.values - dense_out)) <= 1e-11 * scale
    assert np.max(np.abs(spectral_out.values - lam_analytic * x.values)) <= 1e-11 * scale
    # dense diagonalization reproduces the same eigenvalue
    evals = np.sort(np.linalg.eigvalsh(mat))
    assert np.min(np.abs(evals - lam_analytic)) <= 1e-8 * scale


def test_laplacian_matches_dense_random(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        mat = dense_neumann_laplacian(g)
        for _ in range(5):
            x = random_field(g, rng)
            assert np.allclose(laplacian(x).values, apply_dense(mat, x),
                               rtol=1e-12, atol=1e-9)


def test_laplacian_output_zero_mean(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        x = random_field(g, rng)
        assert abs(mean(laplacian(x))) <= 1e-12 * np.max(np.abs(x.values))


def test_laplacian_symmetry(grid64, grid2d, rng):
    # smooth fields meet the stated rounding tolerance; rough white-noise
    # fields sit at the float64 envelope eps*|lambda|_max
    for g in (grid64, grid2d):
        for _ in range(10):
            x = random_field(g, rng, smooth=True)
            z = random_field(g, rng, smooth=True)
            a = inner_h(laplacian(x), z)
            b = inner_h(x, laplacian(z))
            assert abs(a - b) <= 1e-12 * norm_h(x) * norm_h(z)
        lam_max = float(np.max(-g.lap_symbol))
        for _ in range(10):
            x = random_field(g, rng)
            z = random_field(g, rng)
            a = inner_h(laplacian(x), z)
            b = inner_h(x, laplacian(z))
            assert abs(a - b) <= 32 * np.finfo(float).eps * lam_max * norm_h(x) * norm_h(z)


def test_laplacian_negative_semidefinite(grid64, rng):
    for _ in range(10):
        x = random_field(grid64, rng)
        assert inner_h(laplacian(x), x) <= 1e-10


# --- spectral round trip ---------------------------------------------------


def test_spectral_roundtrip_identity(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        x = random_field(g, rng)
        back = _idct(_dct(x.values))
        assert np.max(np.abs(back - x.values)) <= 1e-12 * np.max(np.abs(x.values))


def test_spectral_zero_coefficient_is_mean(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        x = random_field(g, rng)
        coeffs = _dct(x.values)
        c0 = coeffs.ravel()[0]
        assert c0 == pytest.approx(mean(x) * np.sqrt(g.size), rel=1e-12, abs=1e-14)


def _entered(call) -> set:
    """Names of the Python functions that ``call`` enters."""
    names = set()

    def profile(frame, event, arg):
        if event == "call":
            names.add(frame.f_code.co_name)
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return names


def test_transforms_call_the_pocketfft_kernel(rng):
    # A scipy release that renames or changes the private kernel makes the
    # probe refuse it: every result keeps its bits, and only this test
    # shows that the transforms lost their fast path.
    assert grid_module._KERNEL_BITWISE
    dispatch = {"_r2rn", "_init_nd_shape_and_axes", "__ua_function__", "_asfarray"}
    for shape, axes in (((64,), None), ((8, 64), (-1,)), ((3, 8, 8), (-2, -1))):
        x = rng.standard_normal(shape)
        assert not dispatch & _entered(lambda: _idct(_dct(x, axes), axes))
        assert dispatch <= _entered(
            lambda: scipy.fft.dctn(x, type=2, norm="ortho", axes=axes))


# --- norms -----------------------------------------------------------------


def test_mean_and_norms_constant(grid64):
    c = Field.constant(grid64, -2.5)
    assert mean(c) == pytest.approx(-2.5)
    assert norm_h(c) == pytest.approx(2.5 * np.sqrt(grid64.volume), rel=1e-13)


def test_eigenfield_mean_zero(grid64):
    x = Field(grid64, grid64.cosine_mode((1,)))
    assert abs(mean(x)) <= 1e-14


def test_norm_v_matches_dense_quadratic_form(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        mat = dense_neumann_laplacian(g)
        for _ in range(5):
            x = random_field(g, rng)
            v = x.values.ravel()
            dirichlet = float(v @ (-mat @ v)) * g.cell_volume
            oracle = np.sqrt(norm_h(x) ** 2 + dirichlet)
            assert norm_v(x) == pytest.approx(oracle, rel=1e-11)


def test_norm_z_matches_dense(grid64, rng):
    mat = dense_neumann_laplacian(grid64)
    x = random_field(grid64, rng)
    lap = apply_dense(mat, x)
    oracle = np.sqrt(norm_v(x) ** 2
                     + np.sum(lap**2) * grid64.cell_volume)
    assert norm_z(x) == pytest.approx(oracle, rel=1e-9)


def test_array_norms_are_roots_of_sums_of_squares(rng):
    # a norm built on others adds their squares as sums, before the one
    # square root: no norm is squared back from a rounded square root, and
    # the squared Z norm that the checks sum over time is one of these sums
    g = Grid((4,), (1.0,))
    values = rng.standard_normal((20000,) + g.shape)
    h_sq = np.sum(values**2, axis=-1) * g.cell_volume
    v_sq = h_sq + grad_norm_sq_values(g, values)
    lap_sq = np.sum(lap_values(g, values) ** 2, axis=-1) * g.cell_volume
    assert np.array_equal(norm_h_values(g, values), np.sqrt(h_sq))
    assert np.array_equal(norm_v_values(g, values), np.sqrt(v_sq))
    assert np.array_equal(norm_z_sq_values(g, values), v_sq + lap_sq)
    assert np.array_equal(norm_z_values(g, values), np.sqrt(v_sq + lap_sq))


# --- prolongation ----------------------------------------------------------


def test_prolong_preserves_modes_and_mean(grid64, rng):
    fine = Grid((128,), (1.0,))
    x = random_field(grid64, rng, smooth=True)
    out = prolong(x, fine)
    assert mean(out) == pytest.approx(mean(x), rel=1e-12, abs=1e-14)
    # cosine modes resample exactly
    mode = Field(grid64, grid64.cosine_mode((3,)))
    up = prolong(mode, fine)
    assert np.allclose(up.values, fine.cosine_mode((3,)), atol=1e-12)


@pytest.mark.parametrize("coarse, fine", [(Grid((16,), (1.0,)), Grid((32,), (1.0,))),
                                          (Grid((6, 8), (1.0, 2.0)),
                                           Grid((12, 8), (1.0, 2.0)))])
def test_prolong_values_is_the_field_level_prolong(coarse, fine, rng):
    # a batch of fields prolongs in one transform pair, each field with the
    # bits of its own prolongation
    values = rng.standard_normal((3, 5) + coarse.shape)
    out = prolong_values(coarse, values, fine)
    assert out.shape == (3, 5) + fine.shape
    for ix in np.ndindex(3, 5):
        assert np.array_equal(out[ix], prolong(Field(coarse, values[ix]), fine).values)
