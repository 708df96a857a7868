"""The solvers' fast arithmetic against direct reference formulas.

Each oracle computes the same quantity the way its definition reads:

- the projected multiplicative noise mode by mode, each mode's product
  with the state projected to zero mean on its own, where the solvers
  project the mode sum once;
- the increment fields of a block of steps one step at a time, where the
  sweeps compute a block of them with one mode sum;
- psi'(r) = r^3 - r through ``**``, where the double well multiplies;
- ptilde_n = -Lap p_n from the values of p_n, where the adjoint sweep
  transforms the coefficients of p_n that it already holds;
- the checks' ensemble means and time sums as Python loops in path and
  step order, where the checks let numpy sum.

They agree to rounding, and the fast forms keep the batch == serial
property bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from choc import (
    Grid,
    TimeGrid,
    double_well,
    multiplicative_noise,
    sample_wiener_path,
    solve_adjoint,
)
from choc.grid import _dct, _idct, lap_values, low_pass_field, norm_h_values, norm_z_values
from choc.physics import (
    _mode_sum,
    _path_mean,
    _projected_modes,
    db_adjoint_scaled_values,
)
from choc.state import solve_state
from choc.verify import _duality_residual, _norm_c0h_l2z

from test_properties import PROPERTIES, _smooth_series, grids, seeds, state_params

EPS = np.finfo(float).eps
# A product or difference that lands among the subnormals is off by up to
# half their spacing, whatever the scale of its operands.
TINY = np.finfo(float).smallest_subnormal


def projected_modes_oracle(nm, v, dw):
    """sum_k sigma_k dw_k (g_k v - mean(g_k v)), one mode at a time."""
    scales = (nm.sigmas * dw).T                      # (K, *batch)
    scales = scales.reshape(scales.shape + (1,) * nm.grid.ndims)
    out = np.zeros(v.shape)
    for k in range(nm.nmodes):
        col = nm.modes[k] * v
        col = col - _path_mean(nm.grid, col)
        out += scales[k] * col
    return out


@st.composite
def multiplicative_rows(draw):
    """A multiplicative noise model, states of the rows controls × paths and
    the paths' Brownian increments."""
    g = draw(grids)
    candidates = [ix for ix in np.ndindex(*(min(4, n) for n in g.npoints)) if any(ix)]
    modes = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3,
                          unique=True))
    sigmas = draw(st.lists(st.floats(0.0, 0.5), min_size=len(modes),
                           max_size=len(modes)))
    nm = multiplicative_noise(g, sigmas, modes)
    ncontrols = draw(st.integers(1, 3))
    npaths = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(seeds))
    v = np.tanh(2.0 * rng.standard_normal((ncontrols, npaths) + g.shape))
    dw = 0.1 * rng.standard_normal((npaths, nm.nmodes))
    return nm, v, dw


def row_scale(nm, v, dw):
    """sum_k |sigma_k dw_k| max|v| per row, which bounds |g v| for the mode
    sum g (each |g_k| <= 1); shaped to broadcast against the rows."""
    axes = nm.grid.axes
    weights = np.abs(nm.sigmas * dw).sum(axis=-1)
    return (weights.reshape(weights.shape + (1,) * len(axes))
            * np.max(np.abs(v), axis=axes, keepdims=True))


@PROPERTIES
@given(case=multiplicative_rows())
def test_projected_modes_is_the_mode_by_mode_projection(case):
    nm, v, dw = case
    out = _projected_modes(nm, v, _mode_sum(nm, dw))
    oracle = projected_modes_oracle(nm, v, dw)
    assert out.shape == oracle.shape == v.shape
    assert np.all(np.abs(out - oracle) <= 8 * (EPS * row_scale(nm, v, dw) + TINY))


@PROPERTIES
@given(case=multiplicative_rows())
def test_projected_modes_rows_are_mean_free(case):
    nm, v, dw = case
    sums = np.sum(_projected_modes(nm, v, _mode_sum(nm, dw)), axis=nm.grid.axes,
                  keepdims=True)
    assert np.all(np.abs(sums) <= 4 * EPS * nm.grid.size * row_scale(nm, v, dw))


@PROPERTIES
@given(case=multiplicative_rows())
def test_projected_modes_rows_are_their_own_projection(case):
    nm, v, dw = case
    out = _projected_modes(nm, v, _mode_sum(nm, dw))
    ncontrols, npaths = v.shape[:2]
    for c in range(ncontrols):
        for i in range(npaths):
            xi = _mode_sum(nm, dw[i])
            assert np.array_equal(out[c, i], _projected_modes(nm, v[c, i], xi))


@pytest.mark.parametrize("nmodes", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", [Grid((24,), (1.0,)), Grid((9, 7), (1.0, 1.5))],
                         ids=["1d", "2d"])
def test_block_mode_sum_is_the_per_step_mode_sums(grid, nmodes):
    # the sweeps take a block's increment fields from one mode sum over
    # (nsteps, npaths, K); each step's fields must be its own call's, and
    # each path's its own row's, bit for bit
    rng = np.random.default_rng(nmodes)
    modes = [ix for ix in np.ndindex(*(min(5, n) for n in grid.npoints)) if any(ix)]
    nm = multiplicative_noise(grid, rng.uniform(0.05, 0.5, nmodes), modes[:nmodes])
    nsteps, npaths = 13, 5
    dw = 0.1 * rng.standard_normal((nsteps, npaths, nmodes))
    block = _mode_sum(nm, dw)
    assert block.shape == (nsteps, npaths) + grid.shape
    for n in range(nsteps):
        assert np.array_equal(block[n], _mode_sum(nm, dw[n]))
        for i in range(npaths):
            assert np.array_equal(block[n, i], _mode_sum(nm, dw[n, i]))


@PROPERTIES
@given(r=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64))
def test_double_well_prime_is_the_cube_minus_r(r):
    r = np.array(r)
    fast = double_well().psi_prime(r)
    oracle = r**3 - r
    # within 2 ulps of the larger term, |r^3| or |r|
    assert np.all(np.abs(fast - oracle)
                  <= 2 * np.spacing(np.maximum(np.abs(r**3), np.abs(r))))


def ptildes_oracle(traj, x_q, x_t, alphas):
    """The transpose sweep of one path with ptilde_n = -Lap p_n taken from
    the values of p_n."""
    p = traj.params
    g = p.grid
    tau = p.timegrid.tau
    nsteps = p.timegrid.nsteps
    a1, a2, _ = alphas
    ys = traj.ys[0]
    dws = traj.wiener[0].increments
    costate = a2 * (ys[nsteps] - x_t)
    ptildes = np.empty(ys.shape)
    ptildes[nsteps] = -lap_values(g, costate)
    for n in range(nsteps - 1, -1, -1):
        p_n = _idct(_dct(costate, g.axes) / p.implicit_symbol, g.axes)
        ptildes[n] = -lap_values(g, p_n)
        c_n = p.potential.psi_second(ys[n])
        costate = (tau * a1 * (ys[n] - x_q[n]) + p_n
                   - tau * (c_n - p.stabilization) * ptildes[n]
                   + db_adjoint_scaled_values(p.noise, ys[n], p_n,
                                              _mode_sum(p.noise, dws[n])))
    return ptildes


@PROPERTIES
@given(params=state_params(), seed=seeds,
       alphas=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)))
def test_adjoint_ptilde_is_minus_lap_p(params, seed, alphas):
    rng = np.random.default_rng(seed)
    alphas = alphas + (0.0,)
    y0 = low_pass_field(params.grid, rng, 0.4)
    u = _smooth_series(params, rng, 0.5)
    x_q = _smooth_series(params, rng, 0.3)
    x_t = low_pass_field(params.grid, rng, 0.3).values
    wp = sample_wiener_path(params.noise, params.timegrid, seed)
    traj = solve_state(y0, u, [wp], params)
    (ptildes,) = solve_adjoint(traj, x_q, x_t, alphas).ptildes
    oracle = ptildes_oracle(traj, x_q, x_t, alphas)
    assert np.array_equal(ptildes[-1], oracle[-1])
    assert np.max(np.abs(ptildes - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@PROPERTIES
@given(npaths=st.integers(1, 64), seed=seeds, gap=st.floats(0.0, 1e-6))
def test_duality_residual_is_the_path_order_mean(npaths, seed, gap):
    rng = np.random.default_rng(seed)
    lhs = rng.standard_normal(npaths)
    rhs = lhs * (1.0 + gap * rng.standard_normal(npaths))
    lhs_total = rhs_total = 0.0
    for lhs_i, rhs_i in zip(lhs.tolist(), rhs.tolist()):
        lhs_total += lhs_i
        rhs_total += rhs_i
    lhs_total /= npaths
    rhs_total /= npaths
    res, lhs_mean, rhs_mean = _duality_residual(lhs, rhs)
    bound = npaths * EPS * max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    assert abs(lhs_mean - lhs_total) <= bound and abs(rhs_mean - rhs_total) <= bound
    scale = max(abs(lhs_total), abs(rhs_total), 1e-300)
    assert abs(res - abs(lhs_total - rhs_total) / scale) <= 4 * bound / scale


@PROPERTIES
@given(g=grids, nsteps=st.integers(1, 50), seed=seeds)
def test_norm_c0h_l2z_is_the_step_order_sum(g, nsteps, seed):
    tg = TimeGrid(0.05, nsteps)
    series = np.random.default_rng(seed).standard_normal((nsteps + 1,) + g.shape)
    zsq = 0.0
    for z in norm_z_values(g, series[:nsteps]):
        zsq += float(z) ** 2
    oracle = float(np.max(norm_h_values(g, series))) + np.sqrt(zsq * tg.tau)
    assert abs(_norm_c0h_l2z(series, tg, g) - oracle) <= 4 * nsteps * EPS * oracle
