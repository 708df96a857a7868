"""Potential and noise operator contracts."""

import math

import numpy as np
import pytest

from choc import (
    ConfigurationError,
    TimeGrid,
    additive_noise,
    double_well,
    multiplicative_noise,
    quadratic_potential,
)
from choc.grid import _dct, _idct, norm_h_values
from choc.physics import (
    _mode_sum,
    b_increment_values,
    db_adjoint_scaled_values,
    db_increment_values,
    no_noise,
)
from choc.state import StateParams

from conftest import inner_h, random_field


def increment_field(nm, dw) -> np.ndarray:
    """The increment field xi = sum_k sigma_k dw_k g_k the operators take."""
    return _mode_sum(nm, np.asarray(dw, dtype=float))


def apply_B(nm, y: np.ndarray, dw) -> np.ndarray:
    """Noise increment B(y) dw of one field."""
    return b_increment_values(nm, y, increment_field(nm, dw), np.empty(y.shape))


def apply_DB(nm, y: np.ndarray, z: np.ndarray, dw) -> np.ndarray:
    """Directional derivative DB(y)[z] dw of one field, for multiplicative
    noise."""
    return db_increment_values(nm.rho_prime(y), z, increment_field(nm, dw),
                               np.empty(z.shape))


def zero_coefficient_mean(g, p: np.ndarray) -> np.ndarray:
    """The grid mean of p from its zero cosine coefficient, as the adjoint
    sweep takes it, shaped to broadcast against p."""
    return _dct(p, g.axes)[(slice(0, 1),) * g.ndims] / math.sqrt(g.size)


def project(g, v: np.ndarray) -> np.ndarray:
    """v without its zero cosine mode, the projection that the steps' symbol
    c makes."""
    coeffs = _dct(v, g.axes)
    coeffs[(0,) * g.ndims] = 0.0
    return _idct(coeffs, g.axes)


def apply_DB_adjoint(nm, y: np.ndarray, p: np.ndarray, dw) -> np.ndarray:
    """(Pi DB(y))^T applied to p for the increments dw, for multiplicative
    noise."""
    return db_adjoint_scaled_values(nm.rho_prime(y) * increment_field(nm, dw),
                                    p - zero_coefficient_mean(nm.grid, p),
                                    np.empty(p.shape))


# --- potential -------------------------------------------------------------


def test_double_well_at_origin():
    pot = double_well()
    assert pot.psi(0.0) == pytest.approx(0.25)
    assert pot.psi_prime(0.0) == 0.0
    assert pot.psi_second(0.0) == pytest.approx(-1.0)


@pytest.mark.parametrize("r", [1.0, -1.0])
def test_double_well_minima(r):
    pot = double_well()
    assert pot.psi(r) == pytest.approx(0.0)
    assert pot.psi_prime(r) == pytest.approx(0.0)
    assert pot.psi_second(r) == pytest.approx(2.0)


def test_psi_derivatives_match_finite_differences(rng):
    # oracle: centered difference quotient, O(eps^2)
    for pot in (double_well(), quadratic_potential(1.7)):
        for r in rng.uniform(-3, 3, size=10):
            eps = 1e-5
            fd1 = (pot.psi(r + eps) - pot.psi(r - eps)) / (2 * eps)
            fd2 = (pot.psi_prime(r + eps) - pot.psi_prime(r - eps)) / (2 * eps)
            assert fd1 == pytest.approx(pot.psi_prime(r), rel=1e-7, abs=1e-7)
            assert fd2 == pytest.approx(pot.psi_second(r), rel=1e-7, abs=1e-7)


# --- curvature bound ----------------------------------------------------------


def test_builtin_c1_bounds_curvature():
    # each built-in's c1 is what its formula fixes: psi'' >= -c1 on a
    # sample, and the double well's bound is attained at r = 0
    r = np.linspace(-10.0, 10.0, 4001)
    for pot in (double_well(), quadratic_potential(0.0), quadratic_potential(1.7)):
        assert np.all(pot.psi_second(r) >= -pot.c1), pot.name
    assert double_well().psi_second(0.0) == -double_well().c1


# --- noise operator ----------------------------------------------------------


def test_additive_rejects_constant_mode(grid64):
    with pytest.raises(ConfigurationError):
        additive_noise(grid64, [0.1], mode_indices=[(0,)])
    nm = additive_noise(grid64, [0.1], mode_indices=[(0,)],
                        allow_nonzero_mean_modes=True)
    assert nm.nmodes == 1


def test_noise_model_flags_are_read_once(grid64):
    # the operators read them at every step, so each is computed once
    for nm, mean_free in ((multiplicative_noise(grid64, [0.1, 0.2]), True),
                          (additive_noise(grid64, [0.1, 0.2]), True),
                          (no_noise(grid64), True),
                          (additive_noise(grid64, [0.1], mode_indices=[(0,)],
                                          allow_nonzero_mean_modes=True), False)):
        assert nm.is_mean_free == mean_free
        assert nm.nmodes == len(nm.sigmas)
        assert nm.is_multiplicative == (nm.kind == "multiplicative")
        assert {"nmodes", "is_multiplicative", "is_mean_free"} <= set(vars(nm))


def test_apply_B_zero_increment(grid64, rng):
    nm = multiplicative_noise(grid64, [0.1, 0.2])
    y = random_field(grid64, rng)
    out = apply_B(nm, y, np.zeros(2))
    assert np.all(out == 0.0)


def test_apply_B_additive_single_mode(grid64, rng):
    nm = additive_noise(grid64, [0.3], mode_indices=[(2,)])
    y = random_field(grid64, rng)
    out = apply_B(nm, y, np.array([1.0]))
    assert np.allclose(out, 0.3 * grid64.cosine_mode((2,)), atol=1e-14)


def test_apply_B_multiplicative_zero_state(grid64):
    # tanh(0) = 0, so the modulated modes vanish
    nm = multiplicative_noise(grid64, [0.5, 0.5])
    out = apply_B(nm, np.zeros(grid64.shape), np.array([1.0, -2.0]))
    assert np.max(np.abs(out)) == 0.0


def test_multiplicative_mean_free(grid64, grid2d, rng):
    # the steps take the noise increment to coefficient space through the
    # symbol c, whose zero mode is 0: the projected increment is mean-free
    # exactly, and its field to rounding
    for g in (grid64, grid2d):
        nm = multiplicative_noise(g, [0.4, 0.2, 0.1])
        params = StateParams(grid=g, timegrid=TimeGrid(0.05, 10),
                             potential=double_well(), noise=nm)
        c = params.step_symbols[2]
        for _ in range(20):
            y = random_field(g, rng)
            dw = rng.standard_normal(3)
            out = apply_B(nm, y, dw)
            assert (c * _dct(out, g.axes))[(0,) * g.ndims] == 0.0
            assert abs(np.mean(project(g, out))) <= 1e-12


def test_k0_reproduces_deterministic(grid64, rng):
    nm = no_noise(grid64)
    y = random_field(grid64, rng)
    out = apply_B(nm, y, np.zeros(0))
    assert np.all(out == 0.0)


def test_db_linear_in_direction(grid64, rng):
    nm = multiplicative_noise(grid64, [0.3, 0.1])
    y = random_field(grid64, rng)
    out = apply_DB(nm, y, np.zeros(grid64.shape), rng.standard_normal(2))
    assert np.all(out == 0.0)


def test_db_adjoint_identity(grid64, grid2d, rng):
    # oracle: both inner products evaluated directly, with q_k = p dw_k, on
    # the projected pair: DB without its zero mode, DB* with the mean of p
    # from its zero coefficient
    for g in (grid64, grid2d):
        nm = multiplicative_noise(g, [0.4, 0.2, 0.7])
        for _ in range(10):
            y = random_field(g, rng)
            z = random_field(g, rng)
            p = random_field(g, rng)
            dw = rng.standard_normal(3)
            q = [p * float(dw[k]) for k in range(3)]
            lhs = 0.0
            for k in range(3):
                ek = np.zeros(3)
                ek[k] = 1.0
                lhs += inner_h(g, project(g, apply_DB(nm, y, z, ek)), q[k])
            adj = apply_DB_adjoint(nm, y, p, dw)
            rhs = inner_h(g, z, adj)
            scale = norm_h_values(g, z) * max(norm_h_values(g, qk) for qk in q)
            assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


def test_db_directional_derivative(grid64, rng):
    # |(B(y+eps z) - B(y))/eps - DB(y)z| = O(eps)
    nm = multiplicative_noise(grid64, [0.4, 0.2])
    y = random_field(grid64, rng)
    z = random_field(grid64, rng)
    dw = rng.standard_normal(2)
    db = apply_DB(nm, y, z, dw)
    errors = []
    for eps in (1e-2, 1e-3, 1e-4):
        bumped = apply_B(nm, y + eps * z, dw)
        base = apply_B(nm, y, dw)
        quotient = (bumped - base) / eps
        errors.append(norm_h_values(grid64, quotient - db))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-3 * max(norm_h_values(grid64, db), 1.0)
