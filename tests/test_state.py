"""State solver: stepping oracle, conservation, dissipation, reproducibility."""

from dataclasses import replace

import numpy as np
import pytest

from choc import (
    BlowUpError,
    ConfigurationError,
    EnsembleSpec,
    Field,
    Grid,
    TimeGrid,
    chemical_potential,
    double_well,
    energy,
    mix_seed,
    multiplicative_noise,
    norm_h,
    Problem,
    reduced_cost,
    sample_wiener_path,
    solve_state,
    step_state,
)
from choc.grid import low_pass_field
from choc.physics import additive_noise, no_noise, zero_potential
from choc.state import StateParams, aggregate_increments

from conftest import apply_dense, dense_neumann_laplacian, random_field


# --- Wiener sampling ---------------------------------------------------------


def test_wiener_empty_for_k0(grid64):
    nm = no_noise(grid64)
    wp = sample_wiener_path(nm, TimeGrid(1.0, 10), 3)
    assert wp.increments.shape == (10, 0)


def test_wiener_deterministic(grid64):
    nm = multiplicative_noise(grid64, [0.1, 0.1])
    tg = TimeGrid(0.05, 200)
    a = sample_wiener_path(nm, tg, 77)
    b = sample_wiener_path(nm, tg, 77)
    assert np.array_equal(a.increments, b.increments)
    c = sample_wiener_path(nm, tg, 78)
    assert not np.array_equal(a.increments, c.increments)


def test_wiener_moments(grid64):
    nm = multiplicative_noise(grid64, [0.1] * 4)
    tg = TimeGrid(0.05, 4000)
    wp = sample_wiener_path(nm, tg, 5)
    samples = wp.increments.ravel()           # 16000 draws
    tau = tg.tau
    assert abs(np.mean(samples)) <= 4 * np.sqrt(tau / samples.size)
    assert np.var(samples) == pytest.approx(tau, rel=0.05)


def test_seed_mixing_spreads():
    seeds = {mix_seed(2024, i) for i in range(1000)}
    assert len(seeds) == 1000


# --- chemical potential -------------------------------------------------------


def test_chemical_potential_constant_state(grid64):
    pot = double_well()
    y = Field.constant(grid64, 0.4)
    w = chemical_potential(y, Field.zeros(grid64), pot)
    expected = 0.4**3 - 0.4
    assert np.allclose(w.values, expected, atol=1e-11)


def test_chemical_potential_at_minimum(grid64):
    pot = double_well()
    w = chemical_potential(Field.constant(grid64, 1.0), Field.zeros(grid64), pot)
    assert np.max(np.abs(w.values)) <= 1e-11


def test_chemical_potential_matches_dense(grid64, rng):
    pot = double_well()
    mat = dense_neumann_laplacian(grid64)
    y = random_field(grid64, rng)
    u = random_field(grid64, rng)
    w = chemical_potential(y, u, pot)
    oracle = -apply_dense(mat, y) + (y.values**3 - y.values) - u.values
    assert np.allclose(w.values, oracle, rtol=1e-12, atol=1e-9)


# --- single step ---------------------------------------------------------------


def test_step_constant_fixed_point(grid64):
    pot = double_well()
    nm = no_noise(grid64)
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 200),
                         potential=pot, noise=nm)
    y = Field.constant(grid64, 0.3)
    y1, w0 = step_state(y, Field.zeros(grid64), np.zeros(0), params)
    assert np.max(np.abs(y1.values - 0.3)) <= 1e-13
    assert np.allclose(w0.values, 0.3**3 - 0.3, atol=1e-12)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_step_pure_bilaplacian_decay(grid64, k):
    # oracle: per-mode scalar recursion y+ = y / (1 + tau * lam^2)
    pot = zero_potential()
    nm = no_noise(grid64)
    tg = TimeGrid(0.05, 200)
    params = StateParams(grid=grid64, timegrid=tg, potential=pot, noise=nm,
                         stabilization=0.0)
    n, h = grid64.npoints[0], grid64.spacings[0]
    lam = -(2.0 / h**2) * (1.0 - np.cos(k * np.pi / n))
    y = Field(grid64, grid64.cosine_mode((k,)))
    y1, _ = step_state(y, Field.zeros(grid64), np.zeros(0), params)
    factor = 1.0 / (1.0 + tg.tau * lam**2)
    assert np.allclose(y1.values, factor * y.values, rtol=1e-12, atol=1e-13)


def test_step_matches_dense_solve(grid64, rng):
    # oracle: dense factorization of (I + tau L^2 - tau S L)
    pot = double_well()
    nm = additive_noise(grid64, [0.2, 0.1])
    tg = TimeGrid(0.05, 100)
    s = 2.0
    params = StateParams(grid=grid64, timegrid=tg, potential=pot, noise=nm,
                         stabilization=s)
    mat = dense_neumann_laplacian(grid64)
    ident = np.eye(grid64.size)
    operator = ident + tg.tau * (mat @ mat) - tg.tau * s * mat

    y = random_field(grid64, rng, smooth=True, amplitude=0.5)
    u = random_field(grid64, rng, smooth=True)
    dw = rng.standard_normal(2) * np.sqrt(tg.tau)
    y1, _ = step_state(y, u, dw, params)

    noise_field = 0.2 * dw[0] * grid64.cosine_mode((1,)) + 0.1 * dw[1] * grid64.cosine_mode((2,))
    explicit = (y.values**3 - y.values) - s * y.values - u.values
    rhs = y.values + tg.tau * apply_dense(mat, Field(grid64, explicit)) + noise_field
    oracle = np.linalg.solve(operator, rhs.ravel()).reshape(grid64.shape)
    assert np.allclose(y1.values, oracle, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("make_noise", [additive_noise, multiplicative_noise])
def test_step_is_first_step_of_solve(grid64, grid2d, rng, make_noise):
    # step_state and solve_state share one stepping kernel, bit for bit
    for g in (grid64, grid2d):
        params = StateParams(grid=g, timegrid=TimeGrid(0.02, 5),
                             potential=double_well(),
                             noise=make_noise(g, [0.3, 0.2, 0.1]))
        y0 = low_pass_field(g, rng, 0.4)
        u = np.stack([low_pass_field(g, rng, 0.5).values for _ in range(5)])
        wp = sample_wiener_path(params.noise, params.timegrid, 21)
        traj = solve_state(y0, u, [wp], params)
        y1, w0 = step_state(y0, Field(g, u[0]), wp.increments[0], params)
        assert np.array_equal(y1.values, traj.ys[0, 1])
        assert np.array_equal(w0.values, traj.ws[0, 0])


def test_step_requires_stabilization_above_c1(grid64):
    with pytest.raises(ConfigurationError):
        StateParams(grid=grid64, timegrid=TimeGrid(0.05, 10),
                    potential=double_well(), noise=no_noise(grid64),
                    stabilization=0.5)


# --- full trajectories ----------------------------------------------------------


def test_solve_constant_state_stays(grid64):
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 200),
                         potential=double_well(), noise=no_noise(grid64))
    wp = sample_wiener_path(params.noise, params.timegrid, 0)
    traj = solve_state(Field.constant(grid64, 0.3), None, [wp], params)
    assert np.max(np.abs(traj.ys - 0.3)) <= 1e-12


def test_solve_energy_dissipation(grid64, rng):
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 200),
                         potential=double_well(), noise=no_noise(grid64),
                         stabilization=2.0)
    y0 = low_pass_field(grid64, rng, 0.4)
    wp = sample_wiener_path(params.noise, params.timegrid, 0)
    traj = solve_state(y0, None, [wp], params)
    assert np.all(np.diff(traj.energy[0]) <= 1e-10)


def test_solve_bitwise_reproducible(small_params, rng):
    y0 = low_pass_field(small_params.grid, rng, 0.4)
    wp = sample_wiener_path(small_params.noise, small_params.timegrid, 123)
    t1 = solve_state(y0, None, [wp], small_params)
    t2 = solve_state(y0, None, [wp], small_params)
    assert np.array_equal(t1.ys, t2.ys)
    assert np.array_equal(t1.ws, t2.ws)


def test_solve_mass_conservation_multiplicative(grid64, rng):
    nm = multiplicative_noise(grid64, [0.3, 0.2])
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 200),
                         potential=double_well(), noise=nm)
    y0 = low_pass_field(grid64, rng, 0.4)
    for seed in range(4):
        wp = sample_wiener_path(nm, params.timegrid, mix_seed(9, seed))
        traj = solve_state(y0, None, [wp], params)
        assert np.max(np.abs(traj.mass[0] - traj.mass[0, 0])) <= 1e-12


def test_solve_mass_conservation_zero_mean_additive(grid64, rng):
    nm = additive_noise(grid64, [0.3, 0.2])
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 200),
                         potential=double_well(), noise=nm)
    y0 = low_pass_field(grid64, rng, 0.4)
    wp = sample_wiener_path(nm, params.timegrid, 5)
    traj = solve_state(y0, None, [wp], params)
    assert np.max(np.abs(traj.mass[0] - traj.mass[0, 0])) <= 1e-12


def test_blowup_raises_with_diagnostics(grid64, rng):
    nm = additive_noise(grid64, [1e3, 1e3])
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 20),
                         potential=double_well(), noise=nm,
                         blowup_threshold=1e6)
    y0 = low_pass_field(grid64, rng, 0.4)
    wp = sample_wiener_path(nm, params.timegrid, 3)
    with pytest.raises(BlowUpError) as err:
        solve_state(y0, None, [wp], params)
    assert err.value.max_abs > 1e6 or not np.isfinite(err.value.max_abs)


def test_step_blowup_names_no_path(grid64, rng):
    # one field-level step belongs to no ensemble, so no path is named
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 20),
                         potential=double_well(), noise=no_noise(grid64),
                         blowup_threshold=1e-3)
    y = low_pass_field(grid64, rng, 0.4)
    with pytest.raises(BlowUpError) as err:
        step_state(y, Field.zeros(grid64), np.zeros(0), params)
    assert err.value.path is None
    assert err.value.seed is None
    assert err.value.step == 0
    assert "ensemble path" not in str(err.value)


def test_blowup_seed_replays_path(grid64, rng):
    nm = additive_noise(grid64, [30.0, 30.0])
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 20),
                         potential=double_well(), noise=nm)
    problem = Problem(params=params, y0=low_pass_field(grid64, rng, 0.4),
                      alphas=(1.0, 0.0, 0.0))
    es = EnsembleSpec(4, 31)
    u = problem.zero_control()
    # a threshold between the two largest path maxima blows up one path only
    tops = sorted((float(np.max(np.abs(solve_state(problem.y0, None, [wp], params).ys))), i)
                  for i, wp in enumerate(es.sample_paths(params)))
    (second, _), (top, worst) = tops[-2:]
    assert second < top
    params = replace(params, blowup_threshold=0.5 * (second + top))
    problem = replace(problem, params=params)
    with pytest.raises(BlowUpError) as err:
        reduced_cost(u, es, problem)
    assert err.value.seed == es.path_seed(worst)
    assert str(err.value.seed) in str(err.value)
    assert err.value.path == worst
    assert f"ensemble path {worst}" in str(err.value)
    with pytest.raises(BlowUpError) as replay:
        solve_state(problem.y0, None, [sample_wiener_path(nm, params.timegrid,
                                                          err.value.seed)], params)
    assert (replay.value.step, replay.value.max_abs) == (err.value.step,
                                                         err.value.max_abs)


def test_blowup_in_batch_names_earliest_step(grid64, rng):
    # in one sweep the error names the earliest step at which any path blew
    # up and, at that step, the lowest such path; here a later path blows up
    # before an earlier one does
    nm = additive_noise(grid64, [30.0, 30.0])
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 20),
                         potential=double_well(), noise=nm)
    y0 = low_pass_field(grid64, rng, 0.4)
    paths = EnsembleSpec(6, 31).sample_paths(params)
    # tops[i, n]: the largest |y| the guard sees after step n of path i
    tops = np.array([np.max(np.abs(solve_state(y0, None, [wp], params).ys[0, 1:]),
                            axis=1) for wp in paths])

    def first_steps(threshold):
        return {i: int(np.argmax(row > threshold))
                for i, row in enumerate(tops) if np.any(row > threshold)}

    # a threshold at which two paths blow up at different steps, and a
    # higher-indexed path first
    for threshold in np.sort(tops.ravel())[::-1]:
        steps = first_steps(threshold)
        if len(set(steps.values())) < 2:
            continue
        earliest = min(steps.values())
        culprit = min(i for i, n in steps.items() if n == earliest)
        if culprit != min(steps):
            break
    else:
        pytest.fail("no threshold separates the paths' blow-up steps")
    fragile = replace(params, blowup_threshold=float(threshold))
    with pytest.raises(BlowUpError) as err:
        solve_state(y0, None, paths, fragile)
    assert err.value.step == earliest
    assert err.value.path == culprit
    assert err.value.seed == paths[culprit].seed
    assert err.value.max_abs == tops[culprit, earliest]
    # the named path alone replays the same blow-up, as path 0 of its batch
    with pytest.raises(BlowUpError) as alone:
        solve_state(y0, None, [paths[culprit]], fragile)
    assert (alone.value.step, alone.value.max_abs) == (earliest, err.value.max_abs)
    assert alone.value.path == 0
    # every path blows up at step 0, the first with the smallest value: the
    # lowest index is named, not the largest value
    order = np.argsort(tops[:, 0])
    low = replace(params, blowup_threshold=0.5 * float(tops[:, 0].min()))
    with pytest.raises(BlowUpError) as first:
        solve_state(y0, None, [paths[i] for i in order], low)
    assert (first.value.step, first.value.path) == (0, 0)
    assert first.value.seed == paths[order[0]].seed
    assert first.value.max_abs == tops[order[0], 0]


def test_timegrid_mismatch_rejected(small_params, rng):
    y0 = low_pass_field(small_params.grid, rng, 0.4)
    wrong = sample_wiener_path(small_params.noise, TimeGrid(0.02, 41), 0)
    with pytest.raises(ConfigurationError):
        solve_state(y0, None, [wrong], small_params)


def test_bare_wiener_path_rejected(small_params, rng):
    # a bare path is not a batch: its steps would read as paths
    y0 = low_pass_field(small_params.grid, rng, 0.4)
    wp = sample_wiener_path(small_params.noise, small_params.timegrid, 0)
    with pytest.raises(ConfigurationError, match=r"\[path\]"):
        solve_state(y0, None, wp, small_params)


def test_per_path_control_rejected(small_params, rng):
    # a control is one deterministic field series, shared by every path
    y0 = low_pass_field(small_params.grid, rng, 0.4)
    paths = EnsembleSpec(2, 7).sample_paths(small_params)
    u = np.zeros((2, small_params.timegrid.nsteps) + small_params.grid.shape)
    with pytest.raises(ConfigurationError):
        solve_state(y0, u, paths, small_params)


# --- energy ----------------------------------------------------------------------


def test_energy_at_minimum(grid64):
    assert energy(Field.constant(grid64, 1.0), double_well()) == pytest.approx(0.0, abs=1e-13)


def test_energy_at_zero_state(grid64):
    expected = 0.25 * grid64.volume
    assert energy(Field.zeros(grid64), double_well()) == pytest.approx(expected, rel=1e-13)


def test_energy_matches_dense_quadrature(grid64, rng):
    mat = dense_neumann_laplacian(grid64)
    pot = double_well()
    y = random_field(grid64, rng)
    v = y.values.ravel()
    oracle = 0.5 * float(v @ (-mat @ v)) * grid64.cell_volume \
        + float(np.sum(pot.psi(y.values))) * grid64.cell_volume
    assert energy(y, pot) == pytest.approx(oracle, rel=1e-11)


def test_energy_computed_on_read(small_params, rng):
    calls = []

    def psi(r):
        calls.append(1)
        return double_well().psi(r)

    pot = replace(double_well(), psi=psi)
    params = replace(small_params, potential=pot)
    wp = sample_wiener_path(params.noise, params.timegrid, 8)
    traj = solve_state(low_pass_field(params.grid, rng, 0.4), None, [wp], params)
    assert calls == []
    assert all(traj.energy[0, n] == energy(Field(params.grid, traj.ys[0, n]), pot)
               for n in range(params.timegrid.nsteps + 1))


# --- strong-order sanity -----------------------------------------------------------


def test_strong_order_sweep():
    g = Grid((32,), (1.0,))
    pot = double_well()
    nm = multiplicative_noise(g, [0.2, 0.2])
    y0 = low_pass_field(g, np.random.default_rng(3), 0.4)
    base, factor_max = 8, 32
    tg_fine = TimeGrid(0.05, base * factor_max)
    params_fine = StateParams(grid=g, timegrid=tg_fine, potential=pot, noise=nm)
    errors = []
    taus = []
    for mult in (1, 2, 4):
        nsteps = base * mult
        tg = TimeGrid(0.05, nsteps)
        params = StateParams(grid=g, timegrid=tg, potential=pot, noise=nm)
        err = 0.0
        for s in range(4):
            wp_fine = sample_wiener_path(nm, tg_fine, mix_seed(77, s))
            wp = aggregate_increments(wp_fine, base * factor_max // nsteps)
            ref = solve_state(y0, None, [wp_fine], params_fine)
            coarse = solve_state(y0, None, [wp], params)
            err += norm_h(Field(g, coarse.ys[0, -1] - ref.ys[0, -1]))
        errors.append(err / 4)
        taus.append(tg.tau)
    assert errors[2] < errors[1] < errors[0]
    order = np.polyfit(np.log(taus), np.log(errors), 1)[0]
    assert order >= 0.4
