"""Linearized and adjoint solvers: recursion oracles, exact duality,
transpose against a column-assembled dense operator, truncation behavior."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from choc import (
    ConfigurationError,
    Field,
    Grid,
    TimeGrid,
    convergence_in_truncation,
    double_well,
    duality_terms,
    multiplicative_noise,
    sample_wiener_path,
    solve_adjoint,
    solve_linearized,
    solve_state,
)
from choc.grid import lap_values, low_pass_field
from choc.physics import additive_noise, no_noise, zero_potential
from choc.state import StateParams, series_l2h_norm

from conftest import dense_neumann_laplacian, random_field


def _make_traj(params, rng, seed=0, y0_amp=0.4, u=None):
    y0 = low_pass_field(params.grid, rng, y0_amp)
    wp = sample_wiener_path(params.noise, params.timegrid, seed)
    return solve_state(y0, u, [wp], params)


def _random_direction(params, rng, amplitude=1.0):
    tg = params.timegrid
    return np.stack([
        low_pass_field(params.grid, rng, amplitude).values
        for _ in range(tg.nsteps)
    ])


# --- linearized solver -------------------------------------------------------


def test_linearized_zero_direction(small_params, rng):
    traj = _make_traj(small_params, rng)
    lin = solve_linearized(traj, None)
    assert np.all(lin.zs == 0.0)
    assert np.all(lin.mus == 0.0)


def test_linearized_starts_at_zero(small_params, rng):
    traj = _make_traj(small_params, rng)
    lin = solve_linearized(traj, _random_direction(small_params, rng))
    assert np.all(lin.zs[0, 0] == 0.0)


@pytest.mark.parametrize("k", [1, 3])
def test_linearized_eigen_recursion(grid64, k):
    # additive noise, psi = 0, S = 0, constant-in-time eigen direction:
    # oracle is the scalar recursion z+ = (z + tau*nu*h) / (1 + tau*nu^2)
    # with nu the positive eigenvalue of -Lap
    tg = TimeGrid(0.05, 50)
    nm = additive_noise(grid64, [0.1])
    params = StateParams(grid=grid64, timegrid=tg, potential=zero_potential(),
                         noise=nm, stabilization=0.0)
    wp = sample_wiener_path(nm, tg, 4)
    traj = solve_state(Field.zeros(grid64), None, [wp], params)

    mode = grid64.cosine_mode((k,))
    h = np.repeat(mode[None], tg.nsteps, axis=0)
    lin = solve_linearized(traj, h)

    n, hx = grid64.npoints[0], grid64.spacings[0]
    nu = (2.0 / hx**2) * (1.0 - np.cos(k * np.pi / n))
    z_scalar = 0.0
    for step in range(tg.nsteps):
        z_scalar = (z_scalar + tg.tau * nu * 1.0) / (1.0 + tg.tau * nu**2)
    final = lin.zs[0, tg.nsteps]
    assert np.allclose(final, z_scalar * mode, rtol=1e-11, atol=1e-13)


def test_linearized_is_linear_in_direction(small_params, rng):
    traj = _make_traj(small_params, rng)
    h1 = _random_direction(small_params, rng)
    h2 = _random_direction(small_params, rng)
    z1 = solve_linearized(traj, h1).zs
    z2 = solve_linearized(traj, h2).zs
    z12 = solve_linearized(traj, h1 + h2).zs
    scale = np.max(np.abs(z12)) + 1e-30
    assert np.max(np.abs(z12 - z1 - z2)) <= 1e-11 * max(scale, 1.0)


def test_linearized_zero_mean_propagation(small_params, rng):
    # multiplicative noise keeps DB mean-free, so z stays mean-free
    traj = _make_traj(small_params, rng)
    lin = solve_linearized(traj, _random_direction(small_params, rng))
    zs = lin.zs[0]
    means = np.mean(zs.reshape(zs.shape[0], -1), axis=1)
    assert np.max(np.abs(means)) <= 1e-12


def test_linearized_mu_definition(small_params, rng):
    traj = _make_traj(small_params, rng)
    h = _random_direction(small_params, rng)
    lin = solve_linearized(traj, h, trunc=5.0)
    pot = small_params.potential
    for n in (0, small_params.timegrid.nsteps // 2):
        c = np.clip(pot.psi_second(traj.ys[0, n]), -5.0, 5.0)
        expected = (-lap_values(small_params.grid, lin.zs[0, n])
                    + c * lin.zs[0, n] - h[n])
        assert np.allclose(lin.mus[0, n], expected, atol=1e-11)


def _count_transforms(monkeypatch):
    calls = []
    for name in ("dctn", "idctn"):
        original = getattr(scipy.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    return calls


@pytest.mark.parametrize("noise_kind, per_step", [("multiplicative", 3), ("none", 2)])
def test_linearized_runs_the_state_step(small_params, rng, monkeypatch, noise_kind,
                                        per_step):
    params = small_params
    if noise_kind == "none":
        params = replace(params, noise=no_noise(params.grid))
    nsteps = params.timegrid.nsteps
    h = _random_direction(params, rng)
    y0 = low_pass_field(params.grid, rng, 0.4)
    wp = sample_wiener_path(params.noise, params.timegrid, 0)
    calls = _count_transforms(monkeypatch)
    traj = solve_state(y0, None, [wp], params)
    state_calls = len(calls)
    solve_linearized(traj, h)
    assert state_calls == 1 + per_step * nsteps
    assert len(calls) - state_calls == per_step * nsteps


def test_linearized_grid_mismatch(small_params, rng):
    traj = _make_traj(small_params, rng)
    with pytest.raises(ConfigurationError):
        solve_linearized(traj, np.zeros((7,) + small_params.grid.shape))


def test_batched_linearized_is_path_solve(small_params, rng):
    # one sweep of a trajectory of two paths gives each path its own solve,
    # bit for bit
    y0 = low_pass_field(small_params.grid, rng, 0.4)
    paths = [sample_wiener_path(small_params.noise, small_params.timegrid, s)
             for s in (1, 2)]
    batch = solve_state(y0, None, paths, small_params)
    h = _random_direction(small_params, rng)
    lin = solve_linearized(batch, h, trunc=5.0)
    assert lin.npaths == 2
    assert lin.zs.shape == batch.ys.shape
    for i, wp in enumerate(paths):
        alone = solve_linearized(solve_state(y0, None, [wp], small_params), h,
                                 trunc=5.0)
        assert np.array_equal(lin.zs[i], alone.zs[0])
        assert np.array_equal(lin.mus[i], alone.mus[0])


def test_batched_adjoint_rejects_target_of_other_path_count(small_params, rng):
    y0 = low_pass_field(small_params.grid, rng, 0.4)
    paths = [sample_wiener_path(small_params.noise, small_params.timegrid, s)
             for s in (1, 2)]
    batch = solve_state(y0, None, paths, small_params)
    x_t = np.zeros((3,) + small_params.grid.shape)
    with pytest.raises(ConfigurationError, match=r"terminal target shape \(3, 32\)"):
        solve_adjoint(batch, None, x_t, (0.0, 1.0, 0.0))


# --- adjoint solver ------------------------------------------------------------


def test_adjoint_zero_weights(small_params, rng):
    traj = _make_traj(small_params, rng)
    adj = solve_adjoint(traj, None, None, (0.0, 0.0, 1.0))
    assert np.all(adj.ptildes == 0.0)


def test_adjoint_terminal_condition(small_params, rng):
    traj = _make_traj(small_params, rng)
    x_t = random_field(small_params.grid, rng, smooth=True)
    adj = solve_adjoint(traj, None, x_t.values, (0.0, 1.0, 0.0))
    n = small_params.timegrid.nsteps
    expected = -lap_values(small_params.grid, traj.ys[0, n] - x_t.values)
    assert np.array_equal(adj.ptildes[0, n], expected)


def test_adjoint_ptilde_is_minus_lap_p(small_params, rng):
    # one step back from a terminal datum against the dense operators:
    # ptilde_{N-1} = -L p_{N-1} with p_{N-1} = (I + tau L^2 - tau S L)^{-1} P_N
    params = small_params
    traj = _make_traj(params, rng)
    x_t = random_field(params.grid, rng, smooth=True).values
    adj = solve_adjoint(traj, None, x_t, (0.0, 1.0, 0.0))
    n = params.timegrid.nsteps
    tau = params.timegrid.tau
    lap = dense_neumann_laplacian(params.grid)
    implicit = (np.eye(lap.shape[0]) + tau * lap @ lap
                - tau * params.stabilization * lap)
    p_prev = np.linalg.solve(implicit, (traj.ys[0, n] - x_t).ravel())
    expected = (-lap @ p_prev).reshape(params.grid.shape)
    assert np.allclose(adj.ptildes[0, n - 1], expected, atol=1e-10)

    x_q = _random_direction(params, rng, 0.3)
    for backend in ("discrete_transpose", "continuous"):
        adj = solve_adjoint(traj, x_q, x_t, (1.0, 1.0, 0.0), backend=backend)
        means = np.mean(adj.ptildes[0].reshape(n + 1, -1), axis=1)
        assert np.max(np.abs(means)) <= 1e-12


def test_adjoint_warns_continuous_multiplicative(small_params, rng):
    traj = _make_traj(small_params, rng)
    adj = solve_adjoint(traj, None, traj.ys[0, -1] * 0.5, (0.0, 1.0, 0.0),
                        backend="continuous")
    assert adj.warning is not None
    adj_t = solve_adjoint(traj, None, traj.ys[0, -1] * 0.5, (0.0, 1.0, 0.0))
    assert adj_t.warning is None


def test_adjoint_unknown_backend(small_params, rng):
    traj = _make_traj(small_params, rng)
    with pytest.raises(ConfigurationError):
        solve_adjoint(traj, None, None, (0.0, 0.0, 1.0), backend="magic")


# --- duality ----------------------------------------------------------------------


def _duality_setup(params, rng, seed):
    traj = _make_traj(params, rng, seed=seed)
    h = _random_direction(params, rng)
    x_q = _random_direction(params, rng, 0.3)
    x_t = low_pass_field(params.grid, rng, 0.3).values
    alphas = (0.8, 1.3, 0.0)
    return traj, h, x_q, x_t, alphas


@pytest.mark.parametrize("noise_kind", ["additive", "multiplicative"])
def test_duality_exact_transpose(grid64, rng, noise_kind):
    tg = TimeGrid(0.05, 200)
    if noise_kind == "additive":
        nm = additive_noise(grid64, [0.1, 0.1])
    else:
        nm = multiplicative_noise(grid64, [0.1, 0.1])
    params = StateParams(grid=grid64, timegrid=tg, potential=double_well(),
                         noise=nm)
    for seed in range(3):
        traj, h, x_q, x_t, alphas = _duality_setup(params, rng, seed)
        lin = solve_linearized(traj, h)
        adj = solve_adjoint(traj, x_q, x_t, alphas)
        (lhs,), (rhs,) = duality_terms(traj, lin, adj, h, x_q, x_t, alphas)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_duality_trivial_cases(small_params, rng):
    traj = _make_traj(small_params, rng)
    h = _random_direction(small_params, rng)
    lin = solve_linearized(traj, None)
    adj = solve_adjoint(traj, None, None, (0.0, 0.0, 0.0))
    (lhs,), (rhs,) = duality_terms(traj, lin, adj, np.zeros_like(h), None, None,
                                   (0.0, 0.0, 0.0))
    assert lhs == 0.0 and rhs == 0.0


def test_transpose_against_dense_column_oracle(rng):
    # assemble the linear map h -> z column by column on a tiny problem and
    # compare the adjoint output with the dense transpose applied to the
    # cost weights
    g = Grid((8,), (1.0,))
    tg = TimeGrid(0.01, 5)
    nm = multiplicative_noise(g, [0.3])
    params = StateParams(grid=g, timegrid=tg, potential=double_well(), noise=nm)
    traj = _make_traj(params, rng, seed=11)
    npts = g.size
    ncols = tg.nsteps * npts

    columns = np.zeros((tg.nsteps + 1, npts, ncols))
    for col in range(ncols):
        h = np.zeros((tg.nsteps, npts))
        h[col // npts, col % npts] = 1.0
        columns[:, :, col] = solve_linearized(traj, h).zs[0]

    x_q = _random_direction(params, rng, 0.3)
    x_t = low_pass_field(g, rng, 0.3).values
    alphas = (0.7, 1.1, 0.0)

    # cost gradient with respect to z, matching the duality pairing
    weights = np.zeros((tg.nsteps + 1, npts))
    weights[: tg.nsteps] = alphas[0] * tg.tau * (traj.ys[0, : tg.nsteps] - x_q)
    weights[tg.nsteps] = alphas[1] * (traj.ys[0, tg.nsteps] - x_t)
    dense_grad = np.einsum("np,npc->c", weights, columns) * g.cell_volume

    adj = solve_adjoint(traj, x_q, x_t, alphas)
    adjoint_grad = (tg.tau * g.cell_volume) * adj.ptildes[0, : tg.nsteps].reshape(-1)
    scale = np.max(np.abs(dense_grad)) + 1e-30
    assert np.max(np.abs(dense_grad - adjoint_grad)) <= 1e-10 * max(scale, 1.0)


# --- backends ------------------------------------------------------------------


def test_backends_consistent_additive(grid64, rng):
    # same trajectory, both backends; gap small at fine tau and O(tau) overall
    tg = TimeGrid(0.05, 400)
    nm = additive_noise(grid64, [0.05, 0.05])
    params = StateParams(grid=grid64, timegrid=tg, potential=double_well(),
                         noise=nm)
    traj = _make_traj(params, rng)
    x_q = np.repeat(low_pass_field(grid64, rng, 0.3).values[None], tg.nsteps, axis=0)
    adj_t = solve_adjoint(traj, x_q, None, (1.0, 0.0, 0.0))
    adj_c = solve_adjoint(traj, x_q, None, (1.0, 0.0, 0.0), backend="continuous")
    gap = series_l2h_norm(adj_t.ptildes[0, : tg.nsteps] - adj_c.ptildes[0, : tg.nsteps],
                          tg, grid64)
    ref = series_l2h_norm(adj_t.ptildes[0, : tg.nsteps], tg, grid64)
    assert gap <= 0.05 * ref


# --- Gateaux property ------------------------------------------------------------


def test_gateaux_difference_quotients(small_params, rng):
    traj_params = small_params
    y0 = low_pass_field(traj_params.grid, rng, 0.4)
    wp = sample_wiener_path(traj_params.noise, traj_params.timegrid, 21)
    u = _random_direction(traj_params, rng, 0.5)
    h = _random_direction(traj_params, rng)
    base = solve_state(y0, u, [wp], traj_params)
    lin = solve_linearized(base, h)
    tg = traj_params.timegrid
    errors = []
    eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
    for eps in eps_list:
        bumped = solve_state(y0, u + eps * h, [wp], traj_params)
        quotient = (bumped.ys[0] - base.ys[0]) / eps
        errors.append(series_l2h_norm(quotient[: tg.nsteps] - lin.zs[0, : tg.nsteps],
                                      tg, traj_params.grid))
    order = np.polyfit(np.log(eps_list), np.log(errors), 1)[0]
    assert order >= 0.9


# --- truncation -----------------------------------------------------------------


def test_truncation_identical_above_curvature(small_params, rng):
    traj = _make_traj(small_params, rng)
    h = _random_direction(small_params, rng)
    max_curv = float(np.max(np.abs(small_params.potential.psi_second(traj.ys))))
    (rows,) = convergence_in_truncation(traj, h, [2.0, 10.0 + max_curv,
                                                  20.0 + max_curv])
    assert rows[-1]["difference_l2h"] == 0.0
    assert rows[-1]["identical"]


def test_truncation_zero_direction(small_params, rng):
    traj = _make_traj(small_params, rng)
    (rows,) = convergence_in_truncation(traj, None, [1.0, 2.0, 4.0])
    assert all(r["difference_l2h"] == 0.0 for r in rows)


def test_truncation_differences_decrease(small_params, rng):
    # slow lowest-mode initial state keeps |psi''(y)| above the low clamp
    # levels along the whole trajectory
    g = small_params.grid
    y0 = Field(g, 1.2 * g.cosine_mode((1,)))
    wp = sample_wiener_path(small_params.noise, small_params.timegrid, 2)
    traj = solve_state(y0, None, [wp], small_params)
    h = _random_direction(small_params, rng)
    (rows,) = convergence_in_truncation(traj, h, [1.0, 2.0, 4.0, 64.0])
    diffs = [r["difference_l2h"] for r in rows]
    assert diffs[0] > 0.0                 # low levels genuinely clamp
    assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] == 0.0


def test_truncation_levels_must_increase(small_params, rng):
    traj = _make_traj(small_params, rng)
    with pytest.raises(ConfigurationError):
        convergence_in_truncation(traj, None, [4.0, 2.0])
