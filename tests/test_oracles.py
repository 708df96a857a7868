"""The solvers' fast arithmetic against direct reference formulas.

Each oracle computes the same quantity the way its definition reads:

- the projected multiplicative noise mode by mode, each mode's product
  with the state projected to zero mean on its own, where the steps drop
  the zero cosine mode of the mode sum's product;
- the increment fields of a block of steps one step at a time, where the
  sweeps compute a block of them with one mode sum;
- psi'(r) = r^3 - r through ``**``, where the double well multiplies;
- ptilde_n = -Lap p_n from the values of p_n, where the adjoint sweep's
  node map gives it from P_{n+1} through the symbol -lambda/d;
- the checks' ensemble means and time sums as Python loops in path and
  step order, where the checks let numpy sum;
- the continuous reference ptilde stored and its gap to the transpose taken
  by ``series_l2h_norm``, where the backend check compares it node by node;
- the state, linearized and adjoint steps as formulas that allocate every
  result and run the grid's step and node maps on new arrays, where the
  sweeps bind those maps to a workspace once: these agree bit for bit;
- the same steps as the scheme's equations read, with the noise projected
  in physical space and the right-hand side divided by the implicit symbol,
  where the sweeps step in coefficient space with three symbols.

They agree to rounding, and the fast forms keep the batch == serial
property bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from choc import (
    BlowUpError,
    Grid,
    TimeGrid,
    additive_noise,
    double_well,
    multiplicative_noise,
    sample_wiener_paths,
    solve_adjoint,
)
from choc.grid import (
    _dct,
    _idct,
    lap_values,
    low_pass_values,
    norm_h_values,
    norm_z_sq_values,
)
from choc.physics import _mode_sum, db_adjoint_scaled_values, db_increment_values
from choc.sensitivity import _sweep_adjoint, _sweep_linearized
from choc.state import (
    StateParams,
    _sweep_state,
    series_l2h_norm,
    solve_state,
    target_values,
)
from choc.verify import _continuous_gaps, _duality_residual, _norm_c0h_l2z

from conftest import (
    REFERENCE_FORMULAS,
    continuous_ptildes,
    path_mean,
    sweep_adjoint_oracle,
    sweep_linearized_oracle,
    sweep_state_oracle,
)
from test_blocks import make_params
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
        col = col - path_mean(nm.grid, col)
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


def step_projection(nm, v, xi):
    """The steps' projection of xi * v, in coefficient space: the step
    symbol c times the transform of DB at rho'(y) = 1, xi * (1 * v) = xi * v;
    c is 1/d with its zero mode 0. Returns it with 1/d."""
    p = StateParams(grid=nm.grid, timegrid=TimeGrid(0.05, 10),
                    potential=double_well(), noise=nm)
    db = db_increment_values(np.ones(v.shape), v, xi, np.empty(v.shape))
    coeffs = _dct(db, nm.grid.axes)
    return p.step_symbols[2] * coeffs, 1.0 / p.implicit_symbol


@PROPERTIES
@given(case=multiplicative_rows())
def test_projected_modes_is_the_mode_by_mode_projection(case):
    # the physical-space bound 8 (eps |xi v| + tiny) of a point carried to a
    # cosine coefficient, which the orthonormal transform bounds by sqrt(size)
    # times the largest point
    nm, v, dw = case
    out, inverse = step_projection(nm, v, _mode_sum(nm, dw))
    oracle = inverse * _dct(projected_modes_oracle(nm, v, dw), nm.grid.axes)
    assert out.shape == oracle.shape == v.shape
    bound = 8 * np.sqrt(nm.grid.size) * (EPS * row_scale(nm, v, dw) + TINY)
    assert np.all(np.abs(out - oracle) <= bound)


@PROPERTIES
@given(case=multiplicative_rows())
def test_projected_modes_rows_are_mean_free(case):
    # c drops the zero mode, exactly, and no other: every other coefficient
    # is 1/d times the unprojected one, bit for bit
    nm, v, dw = case
    xi = _mode_sum(nm, dw)
    out, inverse = step_projection(nm, v, xi)
    zero = (Ellipsis,) + (0,) * nm.grid.ndims
    assert np.all(out[zero] == 0.0)
    unprojected = inverse * _dct(xi * v, nm.grid.axes)
    unprojected[zero] = 0.0
    assert np.array_equal(out, unprojected)


@PROPERTIES
@given(case=multiplicative_rows())
def test_projected_modes_rows_are_their_own_projection(case):
    nm, v, dw = case
    out, _ = step_projection(nm, v, _mode_sum(nm, dw))
    ncontrols, npaths = v.shape[:2]
    for c in range(ncontrols):
        for i in range(npaths):
            xi = _mode_sum(nm, dw[i])
            assert np.array_equal(out[c, i], step_projection(nm, v[c, i], xi)[0])


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
    the values of p_n; only multiplicative noise has a DB* term."""
    p = traj.params
    g = p.grid
    tau = p.timegrid.tau
    nsteps = p.timegrid.nsteps
    a1, a2, _ = alphas
    ys = traj.ys[0]
    dws = traj.wiener.increments[:, 0]
    costate = a2 * (ys[nsteps] - x_t)
    ptildes = np.empty(ys.shape)
    ptildes[nsteps] = -lap_values(g, costate)
    for n in range(nsteps - 1, -1, -1):
        p_n = _idct(_dct(costate, g.axes) / p.implicit_symbol, g.axes)
        ptildes[n] = -lap_values(g, p_n)
        c_n = p.potential.psi_second(ys[n])
        costate = (tau * a1 * (ys[n] - x_q[n]) + p_n
                   - tau * (c_n - p.stabilization) * ptildes[n])
        if p.noise.is_multiplicative:
            costate += db_adjoint_scaled_values(
                p.noise.rho_prime(ys[n]) * _mode_sum(p.noise, dws[n]),
                p_n - path_mean(g, p_n), np.empty(p_n.shape))
    return ptildes


@PROPERTIES
@given(params=state_params(), seed=seeds,
       alphas=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)))
def test_adjoint_ptilde_is_minus_lap_p(params, seed, alphas):
    rng = np.random.default_rng(seed)
    alphas = alphas + (0.0,)
    y0 = low_pass_values(params.grid, rng, 0.4)
    u = _smooth_series(params, rng, 0.5)
    x_q = _smooth_series(params, rng, 0.3)
    x_t = low_pass_values(params.grid, rng, 0.3)
    wp = sample_wiener_paths(params.noise, params.timegrid, [seed])
    traj = solve_state(y0, u, wp, params)
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
    for z in np.sqrt(norm_z_sq_values(g, series[:nsteps])):
        zsq += float(z) ** 2
    oracle = float(np.max(norm_h_values(g, series))) + np.sqrt(zsq * tg.tau)
    assert abs(_norm_c0h_l2z(series, tg, g) - oracle) <= 4 * nsteps * EPS * oracle


@PROPERTIES
@given(params=state_params(), seed=seeds, npaths=st.integers(1, 3),
       a1=st.floats(0.1, 2.0))
def test_continuous_gaps_are_the_terms_of_the_stored_gap(params, seed, npaths, a1):
    rng = np.random.default_rng(seed)
    tg, g = params.timegrid, params.grid
    y0 = low_pass_values(g, rng, 0.4)
    u = _smooth_series(params, rng, 0.5)
    x_q = _smooth_series(params, rng, 0.3)
    paths = sample_wiener_paths(params.noise, tg, [seed + i for i in range(npaths)])
    traj = solve_state(y0, u, paths, params)
    ptildes = solve_adjoint(traj, x_q, None, (a1, 0.0, 0.0)).ptildes
    gaps = _continuous_gaps(traj, x_q, a1, ptildes)
    diff = ptildes[:, : tg.nsteps] - continuous_ptildes(traj, x_q, a1)
    for i in range(npaths):
        assert np.array_equal(gaps[i], np.sum(diff[i] ** 2, axis=g.axes))
        assert (np.sqrt(np.sum(gaps[i]) * tg.tau * g.cell_volume)
                == series_l2h_norm(diff[i], tg, g))


def sweep_case(ndims: int, kind: str, ncontrols: int):
    """Parameters, rows ``ncontrols`` × 2 paths of controls and directions,
    and the adjoint's targets: per path, shared, and terminal alone."""
    p = make_params(ndims, kind)
    g = p.grid
    nsteps = p.timegrid.nsteps
    rng = np.random.default_rng(10 * ndims + ncontrols)
    y0 = low_pass_values(g, rng, 0.6)
    controls = np.stack([np.stack([low_pass_values(g, rng, 0.8)
                                   for _ in range(nsteps)])
                         for _ in range(ncontrols)])
    directions = rng.standard_normal(controls.shape)
    paths = sample_wiener_paths(p.noise, p.timegrid, (3, 5))
    x_q = rng.standard_normal((paths.npaths, nsteps) + g.shape)
    x_t = rng.standard_normal(g.shape)
    targets = []
    for alphas, pair in (((1.0, 0.7, 0.0), (x_q, x_t)),
                         ((1.0, 0.0, 0.0), (x_q[0], None)),
                         ((0.0, 0.7, 0.0), (None, x_t))):
        targets.append(target_values(*pair, alphas, p.timegrid, g, paths.npaths) + (alphas,))
    return p, y0, controls, directions, paths, targets


SWEEP_CASES = pytest.mark.parametrize(
    "ndims, kind, ncontrols",
    [(ndims, kind, ncontrols) for ndims in (1, 2)
     for kind in ("none", "additive", "multiplicative") for ncontrols in (1, 3)])


@SWEEP_CASES
def test_sweeps_are_bitwise_the_per_step_formulas(ndims, kind, ncontrols):
    # the sweeps' steps in a workspace, with maps bound once, against the
    # steps that allocate every result: the same bits for every row, with
    # shared and per-path targets
    p, y0, controls, directions, paths, targets = sweep_case(ndims, kind, ncontrols)
    ys = _sweep_state(y0, controls, paths, p)
    assert np.array_equal(ys, sweep_state_oracle(y0, controls, paths, p))
    assert np.array_equal(_sweep_linearized(ys, directions, paths, p),
                          sweep_linearized_oracle(ys, directions, paths, p))
    for xq, xt, alphas in targets:
        assert np.array_equal(_sweep_adjoint(ys, paths, xq, xt, alphas, p),
                              sweep_adjoint_oracle(ys, paths, xq, xt, alphas, p))


def assert_close(fast, reference, rel=1e-12):
    assert fast.shape == reference.shape
    assert np.max(np.abs(fast - reference)) <= rel * np.max(np.abs(reference))


@SWEEP_CASES
def test_sweeps_match_the_reference_formulas(ndims, kind, ncontrols):
    # the steps in coefficient space, with the projection as c's zero mode,
    # against the scheme as its equations read: the noise projected in
    # physical space and the right-hand side divided by the implicit
    # symbol; each sweep runs on the reference's own input states
    p, y0, controls, directions, paths, targets = sweep_case(ndims, kind, ncontrols)
    ys = sweep_state_oracle(y0, controls, paths, p, REFERENCE_FORMULAS)
    assert_close(_sweep_state(y0, controls, paths, p), ys)
    assert_close(_sweep_linearized(ys, directions, paths, p),
                 sweep_linearized_oracle(ys, directions, paths, p, REFERENCE_FORMULAS))
    for xq, xt, alphas in targets:
        assert_close(_sweep_adjoint(ys, paths, xq, xt, alphas, p),
                     sweep_adjoint_oracle(ys, paths, xq, xt, alphas, p,
                                          REFERENCE_FORMULAS))


@pytest.mark.parametrize("ndims", [1, 2])
def test_sweep_blowup_is_the_per_step_formulas_blowup(ndims):
    # strong additive noise blows some rows up; the sweep names the step,
    # path and seed that the per-step formulas, guarded step by step, name
    nsteps = 40
    p = make_params(ndims, "additive")
    g = p.grid
    p = replace(p, timegrid=TimeGrid(0.05, nsteps),
                noise=additive_noise(g, [200.0, 200.0], p.noise.mode_indices[:2]))
    rng = np.random.default_rng(8)
    y0 = low_pass_values(g, rng, 0.4)
    controls = np.stack([np.zeros((nsteps,) + g.shape),
                         np.stack([low_pass_values(g, rng, 2.0)
                                   for _ in range(nsteps)]),
                         np.zeros((nsteps,) + g.shape)])
    paths = sample_wiener_paths(p.noise, p.timegrid, (1, 2, 3, 4))
    with pytest.raises(BlowUpError) as expected:
        sweep_state_oracle(y0, controls, paths, p)
    with pytest.raises(BlowUpError) as got:
        _sweep_state(y0, controls, paths, p)
    assert got.value.args == expected.value.args
