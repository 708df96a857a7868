"""State solver: stepping oracle, conservation, dissipation, reproducibility."""

from dataclasses import replace

import numpy as np
import pytest

import choc.sensitivity
import choc.state
from choc import (
    BlowUpError,
    ConfigurationError,
    EnsembleSpec,
    Grid,
    TimeGrid,
    WienerPaths,
    double_well,
    mix_seed,
    multiplicative_noise,
    Problem,
    reduced_cost,
    sample_wiener_paths,
    solve_state,
)
from choc.errors import DomainError, ShapeError
from choc.grid import _dct, low_pass_values, norm_h_values
from choc.physics import _mode_sum, additive_noise, b_increment_values, no_noise
from choc.sensitivity import _sweep_linearized
from choc.state import (
    StateParams,
    _energy_values,
    _stepper,
    _sweep_state,
    aggregate_increments,
)

from conftest import (
    apply_dense,
    chemical_potential,
    dense_neumann_laplacian,
    each_path,
    random_field,
    select_paths,
    step_potentials,
    zero_potential,
)


# --- Wiener sampling ---------------------------------------------------------


def test_wiener_empty_for_k0(grid64):
    nm = no_noise(grid64)
    wp = sample_wiener_paths(nm, TimeGrid(1.0, 10), [3])
    assert wp.increments.shape == (10, 1, 0)


def test_wiener_deterministic(grid64):
    nm = multiplicative_noise(grid64, [0.1, 0.1])
    tg = TimeGrid(0.05, 200)
    a = sample_wiener_paths(nm, tg, [77])
    b = sample_wiener_paths(nm, tg, [77])
    assert np.array_equal(a.increments, b.increments)
    c = sample_wiener_paths(nm, tg, [78])
    assert not np.array_equal(a.increments, c.increments)


def test_wiener_moments(grid64):
    nm = multiplicative_noise(grid64, [0.1] * 4)
    tg = TimeGrid(0.05, 4000)
    wp = sample_wiener_paths(nm, tg, [5])
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
    y = np.full(grid64.shape, 0.4)
    w = chemical_potential(grid64, y, np.zeros(grid64.shape), pot)
    expected = 0.4**3 - 0.4
    assert np.allclose(w, expected, atol=1e-11)


def test_chemical_potential_at_minimum(grid64):
    pot = double_well()
    w = chemical_potential(grid64, np.full(grid64.shape, 1.0), np.zeros(grid64.shape), pot)
    assert np.max(np.abs(w)) <= 1e-11


def test_chemical_potential_matches_dense(grid64, rng):
    pot = double_well()
    mat = dense_neumann_laplacian(grid64)
    y = random_field(grid64, rng)
    u = random_field(grid64, rng)
    w = chemical_potential(grid64, y, u, pot)
    oracle = -apply_dense(mat, y) + (y**3 - y) - u
    assert np.allclose(w, oracle, rtol=1e-12, atol=1e-9)


# --- single step ---------------------------------------------------------------


def one_step(y: np.ndarray, u: np.ndarray, dw, params: StateParams):
    """The trajectory of one step of the scheme from y under control u and
    Brownian increments dw; ``params`` has a time grid of one step."""
    wp = WienerPaths(params.timegrid, (0,),
                     np.reshape(dw, (1, 1, params.noise.nmodes)))
    return solve_state(y, u[None], wp, params)


def test_step_constant_fixed_point(grid64):
    pot = double_well()
    nm = no_noise(grid64)
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05 / 200, 1),
                         potential=pot, noise=nm)
    y = np.full(grid64.shape, 0.3)
    traj = one_step(y, np.zeros(grid64.shape), np.zeros(0), params)
    assert np.max(np.abs(traj.ys[0, 1] - 0.3)) <= 1e-13
    assert np.allclose(step_potentials(traj, 0.0)[0, 0], 0.3**3 - 0.3, atol=1e-12)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_step_pure_bilaplacian_decay(grid64, k):
    # oracle: per-mode scalar recursion y+ = y / (1 + tau * lam^2)
    pot = zero_potential()
    nm = no_noise(grid64)
    tg = TimeGrid(0.05 / 200, 1)
    params = StateParams(grid=grid64, timegrid=tg, potential=pot, noise=nm,
                         stabilization=0.0)
    n, h = grid64.npoints[0], grid64.spacings[0]
    lam = -(2.0 / h**2) * (1.0 - np.cos(k * np.pi / n))
    y = grid64.cosine_mode((k,))
    traj = one_step(y, np.zeros(grid64.shape), np.zeros(0), params)
    factor = 1.0 / (1.0 + tg.tau * lam**2)
    assert np.allclose(traj.ys[0, 1], factor * y, rtol=1e-12, atol=1e-13)


def test_step_matches_dense_solve(grid64, rng):
    # oracle: dense factorization of (I + tau L^2 - tau S L)
    pot = double_well()
    nm = additive_noise(grid64, [0.2, 0.1])
    tg = TimeGrid(0.05 / 100, 1)
    s = 2.0
    params = StateParams(grid=grid64, timegrid=tg, potential=pot, noise=nm,
                         stabilization=s)
    mat = dense_neumann_laplacian(grid64)
    ident = np.eye(grid64.size)
    operator = ident + tg.tau * (mat @ mat) - tg.tau * s * mat

    y = random_field(grid64, rng, smooth=True, amplitude=0.5)
    u = random_field(grid64, rng, smooth=True)
    dw = rng.standard_normal(2) * np.sqrt(tg.tau)
    traj = one_step(y, u, dw, params)

    noise_field = 0.2 * dw[0] * grid64.cosine_mode((1,)) + 0.1 * dw[1] * grid64.cosine_mode((2,))
    explicit = (y**3 - y) - s * y - u
    rhs = y + tg.tau * apply_dense(mat, explicit) + noise_field
    oracle = np.linalg.solve(operator, rhs.ravel()).reshape(grid64.shape)
    assert np.allclose(traj.ys[0, 1], oracle, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("make_noise", [additive_noise, multiplicative_noise])
def test_step_is_first_step_of_solve(grid64, grid2d, rng, make_noise):
    # the one-step solve the scheme tests read is, bit for bit, the first
    # step of a longer sweep
    for g in (grid64, grid2d):
        params = StateParams(grid=g, timegrid=TimeGrid(0.02, 5),
                             potential=double_well(),
                             noise=make_noise(g, [0.3, 0.2, 0.1]))
        y0 = low_pass_values(g, rng, 0.4)
        u = np.stack([low_pass_values(g, rng, 0.5) for _ in range(5)])
        wp = sample_wiener_paths(params.noise, params.timegrid, [21])
        traj = solve_state(y0, u, wp, params)
        first = replace(params, timegrid=TimeGrid(params.timegrid.tau, 1))
        step = one_step(y0, u[0], wp.increments[0], first)
        assert np.array_equal(step.ys[0, 1], traj.ys[0, 1])
        assert np.array_equal(step_potentials(step, u[:1])[0, 0],
                              step_potentials(traj, u)[0, 0])


def test_step_requires_stabilization_above_c1(grid64):
    with pytest.raises(ConfigurationError):
        StateParams(grid=grid64, timegrid=TimeGrid(0.05, 10),
                    potential=double_well(), noise=no_noise(grid64),
                    stabilization=0.5)


# --- full trajectories ----------------------------------------------------------


def test_solve_constant_state_stays(grid64):
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 200),
                         potential=double_well(), noise=no_noise(grid64))
    wp = sample_wiener_paths(params.noise, params.timegrid, [0])
    traj = solve_state(np.full(grid64.shape, 0.3), None, wp, params)
    assert np.max(np.abs(traj.ys - 0.3)) <= 1e-12


def test_solve_energy_dissipation(grid64, rng):
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 200),
                         potential=double_well(), noise=no_noise(grid64),
                         stabilization=2.0)
    y0 = low_pass_values(grid64, rng, 0.4)
    wp = sample_wiener_paths(params.noise, params.timegrid, [0])
    traj = solve_state(y0, None, wp, params)
    assert np.all(np.diff(traj.energy[0]) <= 1e-10)


def test_solve_bitwise_reproducible(small_params, rng):
    y0 = low_pass_values(small_params.grid, rng, 0.4)
    wp = sample_wiener_paths(small_params.noise, small_params.timegrid, [123])
    t1 = solve_state(y0, None, wp, small_params)
    t2 = solve_state(y0, None, wp, small_params)
    assert np.array_equal(t1.ys, t2.ys)
    assert np.array_equal(step_potentials(t1, 0.0), step_potentials(t2, 0.0))


def test_solve_mass_conservation_multiplicative(grid64, rng):
    nm = multiplicative_noise(grid64, [0.3, 0.2])
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 200),
                         potential=double_well(), noise=nm)
    y0 = low_pass_values(grid64, rng, 0.4)
    for seed in range(4):
        wp = sample_wiener_paths(nm, params.timegrid, [mix_seed(9, seed)])
        traj = solve_state(y0, None, wp, params)
        assert np.max(np.abs(traj.mass[0] - traj.mass[0, 0])) <= 1e-12


def test_solve_mass_conservation_zero_mean_additive(grid64, rng):
    nm = additive_noise(grid64, [0.3, 0.2])
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 200),
                         potential=double_well(), noise=nm)
    y0 = low_pass_values(grid64, rng, 0.4)
    wp = sample_wiener_paths(nm, params.timegrid, [5])
    traj = solve_state(y0, None, wp, params)
    assert np.max(np.abs(traj.mass[0] - traj.mass[0, 0])) <= 1e-12


def test_mass_is_computed_on_read(small_params, rng):
    # a solve does not reduce the mass series; a read gives the grid mean
    # of every state
    g = small_params.grid
    y0 = low_pass_values(g, rng, 0.4)
    paths = sample_wiener_paths(small_params.noise, small_params.timegrid, (1, 2))
    traj = solve_state(y0, None, paths, small_params)
    assert "mass" not in vars(traj)
    assert np.array_equal(traj.mass, traj.ys.sum(axis=g.axes) / g.size)
    assert traj.mass.shape == (2, small_params.timegrid.nsteps + 1)


@pytest.mark.parametrize("kind", ["none", "additive", "multiplicative", "constant"])
@pytest.mark.parametrize("ndims", [1, 2])
def test_step_carries_the_zero_mode_exactly(ndims, kind):
    # the step's c symbol drops the zero mode of mean-free noise, and a's
    # zero mode is 1 and b's 0, so one step leaves the zero coefficient, the
    # mean times sqrt(size), bit for bit; a constant additive mode (the
    # negative control) moves it. The state is nearly mean-free, so that a
    # rounding-level zero coefficient of the noise would show.
    if ndims == 1:
        g, modes, constant = Grid((24,), (1.0,)), [(1,), (2,)], (0,)
    else:
        g, modes, constant = Grid((8, 6), (1.0, 1.5)), [(1, 0), (1, 1)], (0, 0)
    sigmas = [0.3, 0.2]
    nm = {"none": no_noise(g),
          "additive": additive_noise(g, sigmas, modes),
          "multiplicative": multiplicative_noise(g, sigmas, modes),
          "constant": additive_noise(g, sigmas, [constant, modes[0]],
                                     allow_nonzero_mean_modes=True)}[kind]
    p = StateParams(grid=g, timegrid=TimeGrid(0.05, 10), potential=double_well(),
                    noise=nm)
    rng = np.random.default_rng(ndims)
    shape = (2, 3) + g.shape
    y = 0.4 * rng.standard_normal(shape)
    y -= y.mean(axis=g.axes, keepdims=True)
    y_hat = _dct(y, g.axes)
    zero = (Ellipsis,) + (0,) * ndims
    before = y_hat[zero].copy()
    noise, step = _stepper(p, y, y_hat, nm.nmodes > 0)
    if noise is not None:
        xi = _mode_sum(nm, 0.2 * rng.standard_normal((3, nm.nmodes)))
        b_increment_values(nm, y, xi, out=noise)
    step(double_well().psi_prime(y), rng.standard_normal(g.shape))
    assert nm.is_mean_free == (kind != "constant")
    if kind == "constant":
        assert np.all(np.abs(y_hat[zero] - before) > 1e-6)
    else:
        assert np.array_equal(y_hat[zero], before)


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
@pytest.mark.parametrize("shape", [(64,), (17,), (128,), (8, 6)])
def test_sweeps_carry_the_zero_coefficient_at_every_step(monkeypatch, shape, kind):
    # with mean-free noise, b's and c's zero modes are 0 (a zero column of a
    # folded factor) and a's is 1: every step of the state and linearized
    # sweeps leaves yhat's zero coefficient bitwise as the sweep began it
    g = Grid(shape)
    modes = [(1,) * g.ndims, (2,) + (0,) * (g.ndims - 1)]
    make = additive_noise if kind == "additive" else multiplicative_noise
    p = StateParams(grid=g, timegrid=TimeGrid(0.05, 30), potential=double_well(),
                    noise=make(g, [0.3, 0.2], modes))
    zero = (Ellipsis,) + (0,) * g.ndims
    seen = []

    def recording(params, x, x_hat, noisy):
        noise, step = stepper(params, x, x_hat, noisy)
        start = x_hat[zero].copy()

        def recorded(reaction, source):
            step(reaction, source)
            seen.append(np.array_equal(x_hat[zero], start))
        return noise, recorded
    stepper = choc.state._stepper
    monkeypatch.setattr(choc.state, "_stepper", recording)
    monkeypatch.setattr(choc.sensitivity, "_stepper", recording)
    rng = np.random.default_rng(len(shape))
    y0 = low_pass_values(g, rng, 0.6)
    controls = rng.standard_normal((2, 30) + shape)
    paths = sample_wiener_paths(p.noise, p.timegrid, (4, 5, 6))
    ys = _sweep_state(y0, controls, paths, p)
    _sweep_linearized(ys, controls, paths, p)
    assert len(seen) == 2 * 30 and all(seen)


def test_blowup_raises_with_diagnostics(grid64, rng):
    nm = additive_noise(grid64, [1e3, 1e3])
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 20),
                         potential=double_well(), noise=nm,
                         blowup_threshold=1e6)
    y0 = low_pass_values(grid64, rng, 0.4)
    wp = sample_wiener_paths(nm, params.timegrid, [3])
    with pytest.raises(BlowUpError) as err:
        solve_state(y0, None, wp, params)
    assert err.value.max_abs > 1e6 or not np.isfinite(err.value.max_abs)


def test_blowup_seed_replays_path(grid64, rng):
    nm = additive_noise(grid64, [30.0, 30.0])
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 20),
                         potential=double_well(), noise=nm)
    problem = Problem(params=params, y0=low_pass_values(grid64, rng, 0.4),
                      alphas=(1.0, 0.0, 0.0))
    es = EnsembleSpec(4, 31)
    u = problem.zero_control()
    # a threshold between the two largest path maxima blows up one path only
    tops = sorted((float(np.max(np.abs(solve_state(problem.y0, None, wp, params).ys))), i)
                  for i, wp in enumerate(each_path(es.sample_paths(params))))
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
        solve_state(problem.y0, None,
                    sample_wiener_paths(nm, params.timegrid, [err.value.seed]), params)
    assert (replay.value.step, replay.value.max_abs) == (err.value.step,
                                                         err.value.max_abs)


def test_blowup_in_batch_names_earliest_step(grid64, rng):
    # in one sweep the error names the earliest step at which any path blew
    # up and, at that step, the lowest such path; here a later path blows up
    # before an earlier one does
    nm = additive_noise(grid64, [30.0, 30.0])
    params = StateParams(grid=grid64, timegrid=TimeGrid(0.05, 20),
                         potential=double_well(), noise=nm)
    y0 = low_pass_values(grid64, rng, 0.4)
    paths = EnsembleSpec(6, 31).sample_paths(params)
    # tops[i, n]: the largest |y| the guard sees after step n of path i
    tops = np.array([np.max(np.abs(solve_state(y0, None, wp, params).ys[0, 1:]),
                            axis=1) for wp in each_path(paths)])

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
    assert err.value.seed == paths.seeds[culprit]
    assert err.value.max_abs == tops[culprit, earliest]
    # the named path alone replays the same blow-up, as path 0 of its batch
    with pytest.raises(BlowUpError) as alone:
        solve_state(y0, None, select_paths(paths, [culprit]), fragile)
    assert (alone.value.step, alone.value.max_abs) == (earliest, err.value.max_abs)
    assert alone.value.path == 0
    # every path blows up at step 0, the first with the smallest value: the
    # lowest index is named, not the largest value
    order = np.argsort(tops[:, 0])
    low = replace(params, blowup_threshold=0.5 * float(tops[:, 0].min()))
    with pytest.raises(BlowUpError) as first:
        solve_state(y0, None, select_paths(paths, order), low)
    assert (first.value.step, first.value.path) == (0, 0)
    assert first.value.seed == paths.seeds[order[0]]
    assert first.value.max_abs == tops[order[0], 0]


def test_timegrid_mismatch_rejected(small_params, rng):
    y0 = low_pass_values(small_params.grid, rng, 0.4)
    wrong = sample_wiener_paths(small_params.noise, TimeGrid(0.02, 41), [0])
    with pytest.raises(ConfigurationError):
        solve_state(y0, None, wrong, small_params)


def test_mode_count_mismatch_rejected(small_params, rng):
    y0 = low_pass_values(small_params.grid, rng, 0.4)
    wrong = sample_wiener_paths(multiplicative_noise(small_params.grid, [0.1]),
                                small_params.timegrid, [0])
    with pytest.raises(ConfigurationError, match="number of modes"):
        solve_state(y0, None, wrong, small_params)


def test_wiener_paths_check_their_shape(small_params):
    # the increments are (nsteps, npaths, K): a batch whose increment array
    # does not lay out one column per seed, or has no path, is refused
    tg = small_params.timegrid
    for incr in (np.zeros((tg.nsteps, 2)), np.zeros((tg.nsteps, 3, 2)),
                 np.zeros((tg.nsteps + 1, 2, 2))):
        with pytest.raises(ShapeError):
            WienerPaths(tg, (1, 2), incr)
    with pytest.raises(ConfigurationError, match="at least one"):
        WienerPaths(tg, (), np.zeros((tg.nsteps, 0, 2)))


def test_wiener_paths_column_is_its_seed_alone(small_params):
    # each column is drawn from its own seed's generator, whatever the batch
    nm, tg = small_params.noise, small_params.timegrid
    seeds = (5, -3, 2**64 + 5, 11)
    batch = sample_wiener_paths(nm, tg, seeds)
    assert batch.seeds == seeds and (batch.npaths, batch.nmodes) == (4, nm.nmodes)
    assert batch.increments.flags.c_contiguous
    for i, seed in enumerate(seeds):
        alone = sample_wiener_paths(nm, tg, [seed]).increments[:, 0]
        assert np.array_equal(batch.increments[:, i], alone)
    # a seed is taken mod 2^64
    assert np.array_equal(batch.increments[:, 0], batch.increments[:, 2])


@pytest.mark.parametrize("nmodes", [1, 2])
@pytest.mark.parametrize("factor", [2, 8, 16])
def test_batch_aggregation_is_per_path_aggregation(nmodes, factor):
    # one mode and a factor of 8 or more is where a reduction over the
    # step-first layout changes bits; the batch sums each path on its own
    g = Grid((8,), (1.0,))
    nm = multiplicative_noise(g, [0.1] * nmodes)
    tg = TimeGrid(0.05, 32 * factor)
    batch = sample_wiener_paths(nm, tg, range(8))
    coarse = aggregate_increments(batch, factor)
    assert coarse.timegrid == TimeGrid(0.05, 32) and coarse.seeds == batch.seeds
    assert coarse.increments.flags.c_contiguous
    for i in range(batch.npaths):
        alone = aggregate_increments(select_paths(batch, [i]), factor)
        assert np.array_equal(coarse.increments[:, i], alone.increments[:, 0])
        # a path alone sums its own (coarse, factor, K) array
        own = batch.increments[:, i].reshape(32, factor, nmodes).sum(axis=1)
        assert np.array_equal(alone.increments[:, 0], own)


def test_aggregation_factor_must_divide(small_params):
    paths = sample_wiener_paths(small_params.noise, small_params.timegrid, [0])
    with pytest.raises(ConfigurationError, match="divide"):
        aggregate_increments(paths, 3)


def test_initial_datum_checked_where_it_enters(small_params, rng):
    # an array carries no grid: the solver and the problem check the shape
    # and that every value is finite
    g = small_params.grid
    paths = sample_wiener_paths(small_params.noise, small_params.timegrid, [0])
    bad_nan = low_pass_values(g, rng, 0.4)
    bad_nan[3] = np.nan
    for y0, error in ((np.zeros(g.npoints[0] + 1), ShapeError),
                      (np.zeros((1,) + g.shape), ShapeError),
                      (bad_nan, DomainError),
                      (np.full(g.shape, np.inf), DomainError)):
        with pytest.raises(error, match="initial datum"):
            solve_state(y0, None, paths, small_params)
        with pytest.raises(error, match="initial datum"):
            Problem(params=small_params, y0=y0, alphas=(1.0, 1.0, 0.0))
    problem = Problem(params=small_params, y0=[0.5] * g.npoints[0], alphas=(1.0, 1.0, 0.0))
    assert problem.y0.dtype == np.float64 and np.all(problem.y0 == 0.5)


def test_per_path_control_rejected(small_params, rng):
    # a control is one deterministic field series, shared by every path
    y0 = low_pass_values(small_params.grid, rng, 0.4)
    paths = EnsembleSpec(2, 7).sample_paths(small_params)
    u = np.zeros((2, small_params.timegrid.nsteps) + small_params.grid.shape)
    with pytest.raises(ConfigurationError):
        solve_state(y0, u, paths, small_params)


# --- energy ----------------------------------------------------------------------


def test_energy_at_minimum(grid64):
    assert _energy_values(grid64, np.ones(grid64.shape), double_well()) == pytest.approx(
        0.0, abs=1e-13)


def test_energy_at_zero_state(grid64):
    expected = 0.25 * grid64.volume
    assert _energy_values(grid64, np.zeros(grid64.shape), double_well()) == pytest.approx(
        expected, rel=1e-13)


def test_energy_matches_dense_quadrature(grid64, rng):
    mat = dense_neumann_laplacian(grid64)
    pot = double_well()
    y = random_field(grid64, rng)
    v = y.ravel()
    oracle = 0.5 * float(v @ (-mat @ v)) * grid64.cell_volume \
        + float(np.sum(pot.psi(y))) * grid64.cell_volume
    assert _energy_values(grid64, y, pot) == pytest.approx(oracle, rel=1e-11)


def test_energy_computed_on_read(small_params, rng):
    calls = []

    def psi(r):
        calls.append(1)
        return double_well().psi(r)

    pot = replace(double_well(), psi=psi)
    params = replace(small_params, potential=pot)
    wp = sample_wiener_paths(params.noise, params.timegrid, [8])
    traj = solve_state(low_pass_values(params.grid, rng, 0.4), None, wp, params)
    assert calls == []
    assert all(traj.energy[0, n] == _energy_values(params.grid, traj.ys[0, n], pot)
               for n in range(params.timegrid.nsteps + 1))


# --- strong-order sanity -----------------------------------------------------------


def test_strong_order_sweep():
    g = Grid((32,), (1.0,))
    pot = double_well()
    nm = multiplicative_noise(g, [0.2, 0.2])
    y0 = low_pass_values(g, np.random.default_rng(3), 0.4)
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
            wp_fine = sample_wiener_paths(nm, tg_fine, [mix_seed(77, s)])
            wp = aggregate_increments(wp_fine, base * factor_max // nsteps)
            ref = solve_state(y0, None, wp_fine, params_fine)
            coarse = solve_state(y0, None, wp, params)
            err += float(norm_h_values(g, coarse.ys[0, -1] - ref.ys[0, -1]))
        errors.append(err / 4)
        taus.append(tg.tau)
    assert errors[2] < errors[1] < errors[0]
    order = np.polyfit(np.log(taus), np.log(errors), 1)[0]
    assert order >= 0.4
