"""Spatial discretization against dense-matrix and analytic oracles."""

import numpy as np
import pytest

from choc import (
    ConfigurationError,
    DomainError,
    Field,
    Grid,
    PreconditionError,
    check_compactness_inequality,
    inner_h,
    inverse_neumann_laplacian,
    laplacian,
    mean,
    norm_h,
    norm_v,
    norm_vstar,
    norm_z,
    prolong,
)
from choc.grid import (
    _dct,
    _idct,
    compactness_constant,
    grad_norm_sq_values,
    lap_values,
    norm_h_values,
    norm_v_values,
    norm_z_values,
)

from conftest import apply_dense, dense_neumann_laplacian, random_field


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid((3,), (1.0,))
    with pytest.raises(ConfigurationError):
        Grid((8,), (-1.0,))
    with pytest.raises(ConfigurationError):
        Grid((8, 8, 8), (1.0, 1.0, 1.0))
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


def test_field_validation(grid64):
    with pytest.raises(DomainError):
        Field(grid64, np.full(grid64.shape, np.nan))
    with pytest.raises(Exception):
        Field(grid64, np.zeros(12))


def test_grid_mismatch_raises(grid64, rng):
    other = Grid((48,), (1.0,))
    x = random_field(grid64, rng)
    z = random_field(other, rng)
    with pytest.raises(ConfigurationError):
        inner_h(x, z)


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


# --- inverse Laplacian -----------------------------------------------------


def test_inverse_zero_field(grid64):
    out = inverse_neumann_laplacian(Field.zeros(grid64))
    assert np.all(out.values == 0.0)


def test_inverse_rejects_nonzero_mean(grid64):
    with pytest.raises(PreconditionError) as err:
        inverse_neumann_laplacian(Field.constant(grid64, 0.5))
    assert err.value.value == pytest.approx(0.5)


@pytest.mark.parametrize("k", [1, 3, 9])
def test_inverse_eigenfield(grid64, k):
    # oracle: dense pseudo-inverse of minus the Laplacian
    mat = dense_neumann_laplacian(grid64)
    pinv = np.linalg.pinv(-mat)
    x = Field(grid64, grid64.cosine_mode((k,)))
    out = inverse_neumann_laplacian(x)
    oracle = (pinv @ x.values).reshape(grid64.shape)
    n, h = grid64.npoints[0], grid64.spacings[0]
    lam = -(2.0 / h**2) * (1.0 - np.cos(k * np.pi / n))
    assert np.allclose(out.values, -x.values / lam, rtol=1e-10, atol=1e-13)
    assert np.allclose(out.values, oracle, rtol=1e-8, atol=1e-10)


def test_inverse_roundtrip_random(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        raw = random_field(g, rng)
        x = Field(g, raw.values - np.mean(raw.values))
        y = inverse_neumann_laplacian(x)
        assert abs(mean(y)) <= 1e-12
        assert norm_h(laplacian(y) + x) <= 1e-10 * norm_h(x)


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


def test_array_norms_square_like_python_floats(rng):
    # the array norms compose as the scalar ones always have: a Python float
    # squared with ** (the C library's pow), then np.sqrt; np.square rounds
    # differently in about one case in a thousand, which would move the bits
    # of every report built on these norms
    g = Grid((4,), (1.0,))
    values = rng.standard_normal((20000,) + g.shape)
    hs = norm_h_values(g, values)
    vs = norm_v_values(g, values)
    lap_hs = norm_h_values(g, lap_values(g, values))
    assert all(v == float(np.sqrt(float(h) ** 2 + gsq)) for v, h, gsq
               in zip(vs, hs, grad_norm_sq_values(g, values)))
    assert all(z == float(np.sqrt(float(v) ** 2 + float(lh) ** 2))
               for z, v, lh in zip(norm_z_values(g, values), vs, lap_hs))


# --- dual norm -------------------------------------------------------------


def test_norm_vstar_zero_and_constant(grid64):
    assert norm_vstar(Field.zeros(grid64)) == 0.0
    assert norm_vstar(Field.constant(grid64, -1.25)) == pytest.approx(1.25)


def test_norm_vstar_matches_dense_oracle(grid64, grid2d, rng):
    # oracle: sqrt(<x - xbar, N (x - xbar)>_H) + |xbar| via dense pinv
    for g in (grid64, grid2d):
        mat = dense_neumann_laplacian(g)
        pinv = np.linalg.pinv(-mat)
        for _ in range(5):
            x = random_field(g, rng)
            m = mean(x)
            v = (x.values - m).ravel()
            quad = float(v @ (pinv @ v)) * g.cell_volume
            oracle = np.sqrt(quad) + abs(m)
            assert norm_vstar(x) == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_norm_vstar_homogeneous_and_triangle(grid64, rng):
    for _ in range(10):
        x = random_field(grid64, rng)
        z = random_field(grid64, rng)
        s = float(rng.standard_normal())
        assert norm_vstar(x * s) == pytest.approx(abs(s) * norm_vstar(x), rel=1e-12, abs=1e-13)
        assert norm_vstar(x + z) <= norm_vstar(x) + norm_vstar(z) + 1e-12


# --- compactness inequality ------------------------------------------------


def test_compactness_zero_field(grid64):
    lhs, rhs = check_compactness_inequality(Field.zeros(grid64), 0.3)
    assert lhs == 0.0 and rhs == 0.0


def test_compactness_equality_at_lowest_mode(grid64):
    x = Field(grid64, grid64.cosine_mode((1,)))
    nu1 = float(-grid64.lap_symbol[1])
    lhs, rhs = check_compactness_inequality(x, 1.0 / nu1)
    # explicit spectral computation: C_sigma = 0 and both sides coincide
    assert compactness_constant(grid64, 1.0 / nu1) == 0.0
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_compactness_random_zero_mean(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        raw = random_field(g, rng)
        x = Field(g, raw.values - np.mean(raw.values))
        lhs, rhs = check_compactness_inequality(x, 0.1)
        assert lhs <= rhs * (1 + 1e-12)


def test_compactness_rejects_bad_sigma(grid64):
    with pytest.raises(DomainError):
        check_compactness_inequality(Field.zeros(grid64), -1.0)
    with pytest.raises(PreconditionError):
        check_compactness_inequality(Field.constant(grid64, 1.0), 0.5)


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
