"""Cost, gradient, projection, and projected gradient descent."""

from dataclasses import fields, replace

import numpy as np
import pytest

from choc import (
    BlowUpError,
    ConfigurationError,
    ControlProcess,
    DomainError,
    EnsembleSpec,
    Grid,
    OptimizerOptions,
    Problem,
    TimeGrid,
    build_problem,
    double_well,
    evaluate_cost,
    gradient,
    multiplicative_noise,
    optimality_residual,
    optimize,
    parse_config,
    project_admissible,
    reduced_cost,
    sample_wiener_paths,
    solve_adjoint,
    solve_state,
)
import choc.control
from choc.control import l2q_inner, l2q_norm
from choc.grid import low_pass_values
from choc.physics import no_noise
from choc.state import StateParams

from conftest import sequential_line_search
from test_sensitivity import _count_transforms


def _problem(grid_n=32, nsteps=40, npaths=3, alphas=(1.0, 1.0, 1e-2),
             noise=True, seed=5, c0=1.0):
    g = Grid((grid_n,), (1.0,))
    tg = TimeGrid(0.02, nsteps)
    nm = multiplicative_noise(g, [0.1, 0.1]) if noise else no_noise(g)
    params = StateParams(grid=g, timegrid=tg, potential=double_well(), noise=nm)
    rng = np.random.default_rng(seed)
    y0 = low_pass_values(g, rng, 0.4)
    x_q = np.stack([low_pass_values(g, rng, 0.3) for _ in range(nsteps)])
    x_t = low_pass_values(g, rng, 0.3)
    problem = Problem(params=params, y0=y0, alphas=alphas, x_q=x_q, x_t=x_t, c0=c0)
    return problem, EnsembleSpec(npaths, 77)


def _smooth_control(problem, seed, amplitude=0.5):
    g = problem.params.grid
    tg = problem.params.timegrid
    rng = np.random.default_rng(seed)
    vals = np.stack([low_pass_values(g, rng, 1.0) for _ in range(tg.nsteps)])
    vals *= amplitude / l2q_norm(vals, tg, g)
    return ControlProcess(g, tg, vals)


# --- evaluate_cost -----------------------------------------------------------


def test_cost_perfect_tracking(small_params, rng):
    g = small_params.grid
    y0 = low_pass_values(g, rng, 0.4)
    wp = sample_wiener_paths(small_params.noise, small_params.timegrid, [4])
    traj = solve_state(y0, None, wp, small_params)
    tg = small_params.timegrid
    cost = evaluate_cost(traj, None, traj.ys[0, : tg.nsteps], traj.ys[0, tg.nsteps],
                         (1.0, 1.0, 1.0))
    assert cost.tolist() == [0.0]


def test_cost_pure_control_quadrature(grid64):
    tg = TimeGrid(0.05, 200)
    params = StateParams(grid=grid64, timegrid=tg, potential=double_well(),
                         noise=no_noise(grid64))
    wp = sample_wiener_paths(params.noise, tg, [0])
    u = np.ones((tg.nsteps,) + grid64.shape)
    traj = solve_state(np.full(grid64.shape, 0.0), u, wp, params)
    (cost,) = evaluate_cost(traj, u, None, None, (0.0, 0.0, 1.0))
    expected = 0.5 * tg.t_final * grid64.volume          # (1/2) |u|^2 over Q
    assert cost == pytest.approx(expected, rel=1e-12)


def test_cost_matches_quadrature_oracle(small_params, rng):
    g = small_params.grid
    tg = small_params.timegrid
    y0 = low_pass_values(g, rng, 0.4)
    wp = sample_wiener_paths(small_params.noise, tg, [4])
    u = np.stack([low_pass_values(g, rng, 0.5) for _ in range(tg.nsteps)])
    traj = solve_state(y0, u, wp, small_params)
    x_q = np.stack([low_pass_values(g, rng, 0.3) for _ in range(tg.nsteps)])
    x_t = low_pass_values(g, rng, 0.3)
    alphas = (0.7, 1.3, 0.4)
    (cost,) = evaluate_cost(traj, u, x_q, x_t, alphas)
    cv, tau = g.cell_volume, tg.tau
    ys = traj.ys[0]
    oracle = 0.0
    for n in range(tg.nsteps):
        oracle += 0.5 * alphas[0] * tau * cv * np.sum((ys[n] - x_q[n]) ** 2)
        oracle += 0.5 * alphas[2] * tau * cv * np.sum(u[n] ** 2)
    oracle += 0.5 * alphas[1] * cv * np.sum((ys[tg.nsteps] - x_t) ** 2)
    assert cost == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("x_t", [np.zeros(1), np.zeros(16)])
def test_terminal_target_of_wrong_shape_rejected(small_params, rng, x_t):
    wp = sample_wiener_paths(small_params.noise, small_params.timegrid, [4])
    traj = solve_state(low_pass_values(small_params.grid, rng, 0.4), None, wp,
                       small_params)
    alphas = (0.0, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        evaluate_cost(traj, None, None, x_t, alphas)
    with pytest.raises(ConfigurationError):
        solve_adjoint(traj, None, x_t, alphas)


def test_distributed_target_of_wrong_shape_rejected(small_params, rng):
    wp = sample_wiener_paths(small_params.noise, small_params.timegrid, [4])
    traj = solve_state(low_pass_values(small_params.grid, rng, 0.4), None, wp,
                       small_params)
    x_q = np.zeros((3, 32))
    alphas = (1.0, 0.0, 0.0)
    message = r"distributed target shape \(3, 32\) != \(40, 32\)"
    with pytest.raises(ConfigurationError, match=message):
        evaluate_cost(traj, None, x_q, None, alphas)
    with pytest.raises(ConfigurationError, match=message):
        solve_adjoint(traj, x_q, None, alphas)


# --- reduced cost -------------------------------------------------------------


def test_reduced_cost_deterministic_no_noise():
    problem, _ = _problem(noise=False)
    u = _smooth_control(problem, 3)
    m1, s1 = reduced_cost(u, EnsembleSpec(1, 5), problem)
    m8, s8 = reduced_cost(u, EnsembleSpec(8, 5), problem)
    assert m1 == m8
    assert s1 == 0.0 and s8 == 0.0


def test_reduced_cost_bitwise_reproducible():
    problem, es = _problem()
    u = _smooth_control(problem, 3)
    assert reduced_cost(u, es, problem) == reduced_cost(u, es, problem)


def test_reduced_cost_lipschitz_in_control():
    problem, es = _problem()
    u = _smooth_control(problem, 3)
    du = _smooth_control(problem, 4, amplitude=1e-3)
    m1, _ = reduced_cost(u, es, problem)
    m2, _ = reduced_cost(u.with_values(u.values + du.values), es, problem)
    # common random numbers: the gap is controlled by the perturbation size
    assert abs(m1 - m2) <= 10.0 * du.norm_l2q()


# --- gradient ------------------------------------------------------------------


def test_gradient_pure_penalty():
    problem, es = _problem(alphas=(0.0, 0.0, 1.0))
    u = _smooth_control(problem, 3)
    grad = gradient(u, es, problem)
    assert np.allclose(grad, u.values, atol=1e-14)
    zero = problem.zero_control()
    assert np.all(gradient(zero, es, problem) == 0.0)


@pytest.mark.parametrize("trial", range(3))
def test_gradient_matches_central_differences(trial):
    # oracle: central finite differences of the common-random-number cost
    problem, es = _problem(seed=100 + trial, npaths=2,
                           alphas=(1.0, 0.8, 1e-2))
    u = _smooth_control(problem, 50 + trial)
    h = _smooth_control(problem, 60 + trial, amplitude=1.0)
    tg = problem.params.timegrid
    g = problem.params.grid
    grad = gradient(u, es, problem)
    inner = l2q_inner(grad, h.values, tg, g)
    eps = 1e-4
    jp, _ = reduced_cost(u.with_values(u.values + eps * h.values), es, problem)
    jm, _ = reduced_cost(u.with_values(u.values - eps * h.values), es, problem)
    fd = (jp - jm) / (2 * eps)
    assert abs(inner - fd) / (abs(fd) + 1e-14) <= 1e-5


def test_given_states_change_no_bits():
    problem, es = _problem()
    u = _smooth_control(problem, 3)
    paths = es.sample_paths(problem.params)
    states = solve_state(problem.y0, u.values, paths, problem.params)
    assert (reduced_cost(u, es, problem, states=states)
            == reduced_cost(u, es, problem))
    assert np.array_equal(gradient(u, es, problem, states=states),
                          gradient(u, es, problem))
    assert (optimality_residual(u, es, problem, states=states)
            == optimality_residual(u, es, problem))


@pytest.mark.parametrize("npaths", [1, 3])
def test_gradient_reads_the_stored_ptilde(monkeypatch, npaths):
    # given u's states, the gradient is one adjoint sweep for all paths:
    # 2 transforms for the terminal ptilde and 1 per node (on this short 1D
    # axis one product of the costate with the folded 1/d and -lambda/d
    # gives p_n and ptilde_n); reading the stored ptilde afterwards makes
    # none
    problem, es = _problem(npaths=npaths)
    u = _smooth_control(problem, 3)
    paths = es.sample_paths(problem.params)
    states = solve_state(problem.y0, u.values, paths, problem.params)
    nsteps = problem.params.timegrid.nsteps
    adjoints = []

    def kept(*args, **kwargs):
        adjoints.append(solve_adjoint(*args, **kwargs))
        return adjoints[-1]
    monkeypatch.setattr(choc.control, "solve_adjoint", kept)
    calls = _count_transforms(monkeypatch)
    gradient(u, es, problem, states=states)
    assert len(calls) == 2 + nsteps
    (adj,) = adjoints
    del calls[:]
    assert adj.ptildes.shape == states.ys.shape
    adj.ptildes[npaths - 1, nsteps]
    assert calls == []


# --- projection ------------------------------------------------------------------


def test_projection_interior_untouched():
    problem, _ = _problem()
    u = _smooth_control(problem, 3, amplitude=0.5 * problem.c0)
    out = project_admissible(u, problem.c0)
    assert out is u


def test_projection_radial_scaling():
    problem, _ = _problem()
    u = _smooth_control(problem, 3, amplitude=2.0 * problem.c0)
    out = project_admissible(u, problem.c0)
    assert out.norm_l2q() == pytest.approx(problem.c0, rel=1e-12)
    assert np.allclose(out.values, u.values * 0.5, rtol=1e-12)
    again = project_admissible(out, problem.c0)
    assert np.array_equal(again.values, out.values)


def test_projection_nonexpansive(rng):
    problem, _ = _problem()
    for trial in range(5):
        u = _smooth_control(problem, 30 + trial, amplitude=3.0)
        w = _smooth_control(problem, 40 + trial, amplitude=0.8)  # admissible
        pu = project_admissible(u, problem.c0)
        tg, g = problem.params.timegrid, problem.params.grid
        assert (l2q_norm(pu.values - w.values, tg, g)
                <= l2q_norm(u.values - w.values, tg, g) + 1e-12)


def test_control_is_one_field_series():
    problem, es = _problem()
    g, tg = problem.params.grid, problem.params.timegrid
    with pytest.raises(ConfigurationError):
        ControlProcess(g, tg, np.zeros((es.npaths, tg.nsteps) + g.shape))


# --- optimizer -------------------------------------------------------------------


def test_optimize_pure_penalty_contracts_to_zero():
    problem, es = _problem(alphas=(0.0, 0.0, 1.0), noise=False)
    u0 = _smooth_control(problem, 3, amplitude=0.9)
    res = optimize(u0, es, problem, OptimizerOptions(tol=1e-10, max_iter=60))
    assert res.control.norm_l2q() <= 1e-6
    assert res.cost_history[-1] <= 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(res.cost_history,
                                              res.cost_history[1:]))


def test_optimize_huge_tol_stops_immediately():
    # optimize refuses an eta0 at or above c0/tol, whose gradient map meets
    # the tol at once, so the ball is as large as the tol
    problem, es = _problem(c0=1e7)
    u0 = _smooth_control(problem, 3)
    res = optimize(u0, es, problem, OptimizerOptions(tol=1e6, max_iter=50))
    assert res.n_iterations == 0
    assert res.termination == "converged"
    assert np.array_equal(res.control.values, u0.values)


def _small_build():
    """The build of the 16-point, 10-step, 2-path configuration."""
    return build_problem(parse_config(
        "[grid]\nnpoints = 16\n[time]\nnsteps = 10\n[ensemble]\nnpaths = 2\n"))


# the default config's c0 / tol, the least eta0 that fakes convergence
_ETA0_LIMIT = 1.0 / 7e-7


@pytest.mark.parametrize("eta0", [1e-300, 1e7, 1e300, _ETA0_LIMIT])
def test_optimize_refuses_an_eta0_that_fakes_convergence(monkeypatch, eta0):
    # at the zero control the gradient map is min(|grad|, c0/eta0), below
    # tol for any gradient once eta0 >= c0/tol (1.43e6 here), and at 1e-300
    # the step's squares underflow: each once returned "converged" after 0
    # iterations. The library refuses them as the config does, before any
    # sweep.
    build = _small_build()
    monkeypatch.setattr(choc.control, "solve_state", None)
    opts = replace(build.optimizer, eta0=eta0)
    with pytest.raises(ConfigurationError, match="optimizer.eta0 must be at least"):
        optimize(build.u0, build.ensemble, build.problem, opts)


@pytest.mark.parametrize("eta0", [choc.control._ETA_MIN, np.nextafter(_ETA0_LIMIT, 0.0)])
def test_optimize_takes_an_eta0_at_the_ends_of_the_range(eta0):
    # the range is [_ETA_MIN, c0/tol): both ends of it run
    build = _small_build()
    opts = replace(build.optimizer, eta0=eta0, max_iter=0)
    res = optimize(build.u0, build.ensemble, build.problem, opts)
    assert res.n_iterations == 0 and len(res.gradient_map_history) == 1


_OFF_GEOMETRY = {"grid": dict(grid=Grid((16,), (9.0,))),
                 "timegrid": dict(timegrid=TimeGrid(7.0, 10))}
_CONTROL_CALLS = {
    "reduced_cost": lambda u, b: reduced_cost(u, b.ensemble, b.problem),
    "gradient": lambda u, b: gradient(u, b.ensemble, b.problem),
    "optimality_residual": lambda u, b: optimality_residual(u, b.ensemble, b.problem),
    "optimize": lambda u, b: optimize(u, b.ensemble, b.problem, b.optimizer),
}


@pytest.mark.parametrize("call", list(_CONTROL_CALLS))
@pytest.mark.parametrize("off", list(_OFF_GEOMETRY))
def test_a_control_off_the_problem_geometry_is_refused(monkeypatch, off, call):
    # a control on another grid or time grid of the same shape was measured
    # with its own cell volume and step: 5.0 everywhere on Grid((16,), (9.0,))
    # and TimeGrid(7.0, 10) projected to 0.126, not 4.472, and optimize from
    # it ended at cost 0.0255 instead of 1.2e-4, with no error
    build = _small_build()
    g, tg = build.problem.params.grid, build.problem.params.timegrid
    values = np.full((tg.nsteps,) + g.shape, 5.0)
    good = ControlProcess(g, tg, values)
    assert project_admissible(good, 1.0).values[0, 0] == pytest.approx(4.472, abs=1e-3)
    other = replace(good, **_OFF_GEOMETRY[off])
    monkeypatch.setattr(choc.control, "solve_state", None)
    with pytest.raises(ConfigurationError) as err:
        _CONTROL_CALLS[call](other, build)
    for geometry in (g, tg, other.grid, other.timegrid):
        assert repr(geometry) in str(err.value)


# tol -> the sweeps and cost evaluations of optimize. At 1e-300, iteration 1
# rejects eta0 = 16, swept alone, then sweeps the trials 8 and 4 as one batch
# and accepts 4; iterations 2 and 3 accept their first trial. One sweep per
# trial, as the sequential search ran, would make 6 state sweeps.
_SOLVE_BUDGETS = {
    1e-300: dict(state=4, batches=1, batch_rows=2, adjoint=4, cost=6),
    1e6: dict(state=1, batches=0, batch_rows=0, adjoint=1, cost=1),
}


@pytest.mark.parametrize("tol", list(_SOLVE_BUDGETS))
def test_optimize_solves_each_control_once(monkeypatch, tol):
    # the ensemble is solved in one sweep per control: the starting cost and
    # each trial that is swept, alone or in a batch; the gradient and the
    # residual reuse those trajectories, and each gradient is one adjoint
    # sweep. At tol = 1e6 the ball is enlarged so that eta0 = 16 lies below
    # c0/tol.
    problem, es = _problem(grid_n=16, npaths=2, c0=1e8 if tol > 1 else 1.0)
    budget = _SOLVE_BUDGETS[tol]
    counts = dict.fromkeys(budget, 0)
    solved = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    sweep_controls = choc.control._sweep_controls

    def batch(controls, *args):
        counts["batches"] += 1
        counts["batch_rows"] += len(controls)
        solved.extend(c.values for c in controls)
        return sweep_controls(controls, *args)

    def state(y0, u, *args):
        counts["state"] += 1
        solved.append(u)
        return solve_state(y0, u, *args)

    monkeypatch.setattr(choc.control, "solve_state", state)
    monkeypatch.setattr(choc.control, "_sweep_controls", batch)
    monkeypatch.setattr(choc.control, "solve_adjoint",
                        counted("adjoint", choc.control.solve_adjoint))
    monkeypatch.setattr(choc.control, "reduced_cost",
                        counted("cost", choc.control.reduced_cost))
    res = optimize(_smooth_control(problem, 3), es, problem,
                   OptimizerOptions(tol=tol, max_iter=3, eta0=16.0))
    assert res.n_iterations == (3 if tol < 1 else 0)
    assert counts == budget
    assert counts["adjoint"] == res.n_iterations + 1
    assert len(solved) == counts["state"] + counts["batch_rows"]
    assert not any(np.array_equal(a, b) for i, a in enumerate(solved)
                   for b in solved[i + 1:])


def test_optimize_history_golden():
    # recorded from the optimizer that solved every path again for each
    # gradient and for the residual; reusing the trajectories moves no bit.
    # The last bits are those of the steps in coefficient space, with the
    # noise projection as the zero mode of the symbol c, and of the sweeps'
    # cosine transforms as products with the cosine matrix, into which the
    # steps' and nodes' symbols are folded. Two of the five trials backtrack.
    problem, es = _problem()
    u0 = _smooth_control(problem, 3)
    res = optimize(u0, es, problem, OptimizerOptions(tol=1e-300, max_iter=3,
                                                     eta0=16.0))
    assert [c.hex() for c in res.cost_history] == [
        "0x1.161d0b682a2e7p-6", "0x1.c4b5ac72f6a85p-7",
        "0x1.2fb8cf026d558p-7", "0x1.1c225ec567e98p-7"]
    assert res.projection_residual.hex() == "0x1.fef20647839a8p-1"
    assert res.projection_residual == optimality_residual(res.control, es, problem)
    assert len(res.cost_stderr_history) == len(res.cost_history)
    assert res.cost_stderr_history[0] == reduced_cost(u0, es, problem)[1]
    assert res.cost_stderr_history[-1] == reduced_cost(res.control, es, problem)[1]
    assert res.blowup_rejections == 0


@pytest.mark.parametrize("max_iter", [0, 3])
def test_gradient_map_history_ends_at_the_final_control(max_iter):
    # a run stopped by its budget reports the gradient map of its final
    # control too: one entry per cost
    problem, es = _problem()
    opts = OptimizerOptions(tol=1e-300, max_iter=max_iter, eta0=16.0)
    res = optimize(_smooth_control(problem, 3), es, problem, opts)
    assert res.termination == "max_iter" and res.n_iterations == max_iter
    assert len(res.gradient_map_history) == len(res.cost_history) == max_iter + 1
    u = res.control
    final = choc.control._gradient_map_norm(u, gradient(u, es, problem),
                                            opts.eta0, problem.c0)
    assert res.gradient_map_history[-1] == final > 0.0
    assert res.summary()["final_gradient_map"] == final


def test_optimize_synthetic_target_descends():
    # small synthetic-target run: targets generated from a reference control
    # with the ensemble's own seeds
    problem, es = _problem(alphas=(1.0, 1.0, 1e-3), npaths=2)
    u_ref = _smooth_control(problem, 9, amplitude=0.4)
    params = problem.params
    tg = params.timegrid
    x_q = np.empty((es.npaths, tg.nsteps) + params.grid.shape)
    x_t = np.empty((es.npaths,) + params.grid.shape)
    for i in range(es.npaths):
        wp = sample_wiener_paths(params.noise, tg, [es.path_seed(i)])
        traj = solve_state(problem.y0, u_ref.values, wp, params)
        x_q[i] = traj.ys[0, : tg.nsteps]
        x_t[i] = traj.ys[0, tg.nsteps]
    from dataclasses import replace
    synth = replace(problem, x_q=x_q, x_t=x_t)
    u0 = synth.zero_control()
    res = optimize(u0, es, synth, OptimizerOptions(tol=1e-7, max_iter=150))
    assert res.cost_history[-1] <= res.cost_history[0] / 10.0
    assert all(b <= a + 1e-12 for a, b in zip(res.cost_history,
                                              res.cost_history[1:]))
    resid = optimality_residual(res.control, es, synth)
    assert resid / (1.0 + res.control.norm_l2q()) <= 1e-3


# A trial step from eta0 = 1e8 along the first gradient blows the state up.
_BLOWUP_TRIAL_CONFIG = """
[control]
c0 = 1e6
[cost]
alpha3 = 0
x_q = constant:0.9
x_t = constant:0.9
[optimizer]
eta0 = 1e8
max_iter = 1
[ensemble]
npaths = 2
"""


def test_optimize_rejects_blown_up_trial():
    build = build_problem(parse_config(_BLOWUP_TRIAL_CONFIG))
    problem, es, u0 = build.problem, build.ensemble, build.u0
    first_trial = project_admissible(
        u0.with_values(u0.values - 1e8 * gradient(u0, es, problem)), problem.c0)
    with pytest.raises(BlowUpError):
        reduced_cost(first_trial, es, problem)
    res = optimize(u0, es, problem, build.optimizer)
    assert res.n_iterations == 1
    assert res.step_history[0] < 1e8
    assert res.blowup_rejections >= 1
    assert all(b <= a for a, b in zip(res.cost_history, res.cost_history[1:]))


# A weight past the float range: every trial projects -t * gradient onto the
# ball's surface, so the line search tries one control (two with alpha1 =
# 1e160, whose projection moves by rounding once) over and over and stalls.
_HEAVY_CONFIG = """
[grid]
npoints = 16
[time]
t_final = 0.01
nsteps = 10
[ensemble]
npaths = 2
[cost]
{weight}
"""


_HEAVY_CASES = [
    ("alpha1 = 1e160", 3, "0x1.04b61b683353ep+519", "0x1.fffffffffffffp-1", "0x1.0p+0"),
    ("alpha1 = 1e308", 2, "0x1.97c928db17f2ep+1010", "0x1.0p+0", "0x1.0p+0"),
    ("alpha2 = 1e300", 2, "0x1.2b4059e3b6518p+992", "0x1.0p+0", "0x1.fffffffffffffp-1"),
    # the trials blow up: each reuse counts as a blow-up rejection
    ("alpha1 = 1e160\nx_q = constant:1\nx_t = constant:1\n[control]\nc0 = 1e9", 2,
     "0x1.9023015cd4cd1p+523", "0x1.dcd64ffffffffp+29", "0x1.dcd64ffffffffp+29"),
]


@pytest.mark.parametrize("weight, sweeps, cost, gmap, residual", _HEAVY_CASES)
def test_optimize_reuses_a_repeated_trial(monkeypatch, weight, sweeps, cost, gmap,
                                          residual):
    # a trial whose projected control is bitwise the last rejected one's takes
    # its outcome without a sweep; the pinned results are those of a run that
    # solves all 40 trials. Every sweep is the starting cost's or a trial's
    # with a new control, and no trial after the first has another new
    # control to share a batch with: each is swept alone.
    build = build_problem(parse_config(_HEAVY_CONFIG.format(weight=weight)))
    solve_paths = choc.control._solve_paths
    solved = []

    def counted(u, *args):
        solved.append(u.values.copy())
        return solve_paths(u, *args)
    monkeypatch.setattr(choc.control, "_solve_paths", counted)
    monkeypatch.setattr(choc.control, "_sweep_controls", None)
    res = optimize(build.u0, build.ensemble, build.problem, build.optimizer)
    assert len(solved) == sweeps
    assert not any(np.array_equal(a, b) for a, b in zip(solved, solved[1:]))
    assert (res.termination, res.n_iterations, res.step_history) == ("stalled", 0, [])
    assert res.blowup_rejections == (40 if "c0" in weight else 0)
    assert res.cost_history == [float.fromhex(cost)]
    assert res.gradient_map_history == [float.fromhex(gmap)]
    assert res.projection_residual == float.fromhex(residual)


def test_optimize_refuses_a_starting_cost_that_is_not_finite(monkeypatch):
    # alpha2 = 1e308 against a far terminal target puts every path's cost
    # past the float range: a named error before any gradient is taken, with
    # no warning (pytest makes warnings errors)
    heavy = "alpha2 = 1e308\nx_t = constant:100"
    build = build_problem(parse_config(_HEAVY_CONFIG.format(weight=heavy)))

    def no_gradient(*args, **kwargs):
        raise AssertionError("a gradient was taken")
    monkeypatch.setattr(choc.control, "gradient", no_gradient)
    seed = build.ensemble.path_seed(0)
    with pytest.raises(DomainError, match=rf"starting cost is not finite: ensemble "
                                          rf"path 0 \(Wiener path seed {seed}\) has cost inf"):
        optimize(build.u0, build.ensemble, build.problem, build.optimizer)


# Synthetic targets from a reference control 8 times the radius: the ball binds.
# With alpha3 = 1 and eta0 = 1 the gradient map is the optimality residual.
_BINDING_BALL_CONFIG = """
[grid]
npoints = 16
[time]
nsteps = 20
[control]
c0 = 0.02
[cost]
alpha3 = 1
synthetic_amplitude = 8
[ensemble]
npaths = 2
base_seed = {seed}
[optimizer]
tol = 1e-9
"""


@pytest.mark.parametrize("seed", [1, 2])
def test_optimize_stays_in_the_problem_ball(seed):
    build = build_problem(parse_config(_BINDING_BALL_CONFIG.format(seed=seed)))
    problem, es, opts = build.problem, build.ensemble, build.optimizer
    res = optimize(build.u0, es, problem, opts)
    assert res.termination == "converged"
    assert problem.c0 * (1.0 - 1e-12) <= res.control.norm_l2q() <= problem.c0
    assert res.projection_residual == optimality_residual(res.control, es, problem)
    assert res.projection_residual <= opts.tol


def test_projection_residual_is_gradient_map_over_alpha3_inside_the_ball():
    # the same problem with a reference control well inside the ball: the run
    # stops on the gradient map at eta0 = 1, and the residual it reports is
    # that map divided by alpha3
    config = _BINDING_BALL_CONFIG.format(seed=1).replace(
        "alpha3 = 1\nsynthetic_amplitude = 8\n", "")
    build = build_problem(parse_config(config))
    problem, es, opts = build.problem, build.ensemble, build.optimizer
    a3 = problem.alphas[2]
    assert opts.eta0 == 1.0 and a3 == 1e-3
    res = optimize(build.u0, es, problem, opts)
    assert res.termination == "converged"
    u = res.control
    grad = gradient(u, es, problem)
    # the ball binds neither the gradient step nor -mean(ptilde)/alpha3
    for point in (u.values - grad, u.values - grad / a3):
        assert l2q_norm(point, u.timegrid, u.grid) < problem.c0
    assert res.projection_residual * a3 == pytest.approx(
        res.gradient_map_history[-1], rel=1e-6)


# A 16-point problem whose line searches backtrack; on base seed 1 the
# penalty bound rejects trials that the sequential search swept.
_SIXTEEN_POINT_CONFIG = """
[grid]
npoints = 16
[time]
nsteps = 20
[ensemble]
npaths = 2
base_seed = {seed}
[optimizer]
max_iter = 30
"""
_ORACLE_CASES = {
    **{f"16-point seed {seed}": _SIXTEEN_POINT_CONFIG.format(seed=seed)
       for seed in (1, 2, 3, 4)},
    "alpha3 = 0": _SIXTEEN_POINT_CONFIG.format(seed=1) + "[cost]\nalpha3 = 0\n",
    **{f"binding ball seed {seed}": _BINDING_BALL_CONFIG.format(seed=seed)
       for seed in (1, 2)},
    "blown-up trials": _BLOWUP_TRIAL_CONFIG,
    **{f"heavy {case[0]}": _HEAVY_CONFIG.format(weight=case[0]) for case in _HEAVY_CASES},
}


def _bits(value):
    """A result field as bits: floats as hex, a control as its bytes."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, ControlProcess):
        return (value.grid, value.timegrid, value.values.tobytes())
    return value


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_line_search_is_the_sequential_search(monkeypatch, case):
    # the penalty bound and the batched backtracks make the sequential
    # search's decisions: every field of the result keeps its bits, the
    # blow-up count included, and no more costs are evaluated
    build = build_problem(parse_config(_ORACLE_CASES[case]))
    args = (build.u0, build.ensemble, build.problem, build.optimizer)
    costs = []
    batches = []    # whether each batch sweep blew up
    reduced = choc.control.reduced_cost
    sweep_controls = choc.control._sweep_controls

    def counted(*a, **kw):
        costs[-1] += 1
        return reduced(*a, **kw)

    def batch(*a):
        batches.append(True)
        out = sweep_controls(*a)
        batches[-1] = False
        return out

    monkeypatch.setattr(choc.control, "reduced_cost", counted)
    monkeypatch.setattr(choc.control, "_sweep_controls", batch)
    results = []
    for search in (choc.control._line_search, sequential_line_search):
        monkeypatch.setattr(choc.control, "_line_search", search)
        costs.append(0)
        results.append(optimize(*args))
    res, ref = results
    for field in fields(res):
        assert _bits(getattr(res, field.name)) == _bits(getattr(ref, field.name)), field.name
    assert costs[0] <= costs[1]
    if case == "16-point seed 1":
        assert costs[0] < costs[1]      # the bound rejected a trial
        assert batches == [False] * len(batches) and batches
    if case == "blown-up trials":
        assert any(batches) and res.blowup_rejections > 0


def test_optimize_blowup_in_starting_cost_raises():
    from dataclasses import replace
    problem, es = _problem()
    fragile = replace(problem, params=replace(problem.params, blowup_threshold=1e-3))
    with pytest.raises(BlowUpError):
        optimize(fragile.zero_control(), es, fragile)


# --- optimality residual ------------------------------------------------------


def test_residual_zero_at_origin_without_tracking():
    problem, es = _problem(alphas=(0.0, 0.0, 1.0))
    u = problem.zero_control()
    assert optimality_residual(u, es, problem) == 0.0


def test_residual_positive_off_stationarity():
    problem, es = _problem()
    u = _smooth_control(problem, 3)
    assert optimality_residual(u, es, problem) > 0.0


def test_residual_alpha3_zero_fallback():
    # no control penalty: falls back to the most negative coordinate
    # directional derivative, nonpositive by construction
    problem, es = _problem(alphas=(1.0, 1.0, 0.0))
    u = _smooth_control(problem, 3)
    value = optimality_residual(u, es, problem)
    assert value <= 0.0
