"""Check harness: positive runs, negative controls, bitwise determinism."""

from dataclasses import replace

import numpy as np
import pytest

from choc import (
    ControlProcess,
    EnsembleSpec,
    Grid,
    Problem,
    TimeGrid,
    double_well,
    multiplicative_noise,
    quadratic_potential,
)
from choc.errors import ConfigurationError
from choc.grid import low_pass_field
from choc.physics import additive_noise, no_noise
from choc.state import StateParams
from choc.verify import (
    check_backend_consistency,
    check_duality,
    check_gateaux,
    check_lipschitz,
    check_mass_conservation,
    check_moment_bounds,
    check_truncation,
    empirical_order,
    random_smooth_control,
    _resize_problem,
    _retime_control,
)


def _problem(grid_n=32, nsteps=40, noise="multiplicative", potential=None,
             alphas=(1.0, 1.0, 1e-2), sigma=0.1, t_final=0.02,
             bad_mode=False, blowup_threshold=1e10, seed=5):
    g = Grid((grid_n,), (1.0,))
    tg = TimeGrid(t_final, nsteps)
    if noise == "multiplicative":
        nm = multiplicative_noise(g, [sigma, sigma])
    elif noise == "additive":
        if bad_mode:
            nm = additive_noise(g, [sigma], mode_indices=[(0,)],
                                allow_nonzero_mean_modes=True)
        else:
            nm = additive_noise(g, [sigma, sigma])
    else:
        nm = no_noise(g)
    pot = potential or double_well()
    params = StateParams(grid=g, timegrid=tg, potential=pot, noise=nm,
                         blowup_threshold=blowup_threshold)
    rng = np.random.default_rng(seed)
    y0 = low_pass_field(g, rng, 0.4)
    x_q = np.stack([low_pass_field(g, rng, 0.3).values for _ in range(nsteps)])
    x_t = low_pass_field(g, rng, 0.3).values
    return Problem(params=params, y0=y0, alphas=alphas, x_q=x_q, x_t=x_t, c0=1.0)


# --- mass conservation -------------------------------------------------------


def test_mass_check_passes_k0():
    problem = _problem(noise="none")
    report = check_mass_conservation(problem, EnsembleSpec(2, 3))
    assert report.passed
    assert report.measured["max_mass_drift"] <= 1e-14


def test_mass_check_passes_multiplicative():
    problem = _problem()
    report = check_mass_conservation(problem, EnsembleSpec(4, 3))
    assert report.passed


def test_mass_check_negative_control():
    # constant additive mode injects mass; the check must fail with the drift
    problem = _problem(noise="additive", bad_mode=True)
    report = check_mass_conservation(problem, EnsembleSpec(2, 3))
    assert not report.passed
    assert report.measured["max_mass_drift"] > 1e-6


# --- Gateaux -------------------------------------------------------------------


def test_gateaux_zero_direction_trivial():
    problem = _problem()
    u = problem.zero_control()
    h = u
    report = check_gateaux(problem, u, h, path_seed=1, npaths=1)
    assert report.passed
    assert report.measured["max_error"] == 0.0


def test_gateaux_quadratic_potential_exact():
    # constant curvature makes the dynamics affine in u: quotient == z
    problem = _problem(noise="additive", potential=quadratic_potential(1.0))
    u = random_smooth_control(problem, 2, amplitude=0.4)
    h = random_smooth_control(problem, 3, amplitude=1.0)
    report = check_gateaux(problem, u, h, path_seed=1, npaths=1)
    assert report.passed
    assert report.measured["exact_linearity"]
    assert report.measured["max_error"] <= 1e-11 * (
        1 + report.measured["linearized_norm"])


def test_gateaux_double_well_order_one():
    problem = _problem()
    u = random_smooth_control(problem, 2, amplitude=0.4)
    h = random_smooth_control(problem, 3, amplitude=1.0)
    report = check_gateaux(problem, u, h, path_seed=1, npaths=2)
    assert report.passed
    assert report.measured["empirical_order"] >= 0.9
    errs = [row["error_l2h"] for row in report.table]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_gateaux_requires_decreasing_eps():
    problem = _problem()
    u = problem.zero_control()
    with pytest.raises(ConfigurationError):
        check_gateaux(problem, u, u, eps_list=(1e-3, 1e-2))


# --- duality ---------------------------------------------------------------------


@pytest.mark.parametrize("noise", ["additive", "multiplicative"])
def test_duality_check_transpose(noise):
    problem = _problem(noise=noise)
    report = check_duality(problem, EnsembleSpec(2, 9), npairs=3, seed=1)
    assert report.passed
    assert report.measured["max_relative_residual"] <= 1e-10


def test_duality_check_continuous_trend():
    problem = _problem(noise="additive", nsteps=50)
    report = check_duality(problem, EnsembleSpec(2, 9), backend="continuous",
                           seed=1, nsteps_list=(50, 100, 200, 400))
    assert report.passed
    assert report.measured["empirical_order"] >= 0.8


def test_nearly_constant_series_do_not_change_time_grid():
    # a rise of 5e-6 in the second half passes np.allclose against the first
    # step, but the series is not constant in time, and retiming it as one
    # would drop the rise
    problem = _problem(nsteps=200)
    g, tg = problem.params.grid, problem.params.timegrid
    profile = 1.0 + 0.3 * g.cosine_mode((1,))
    flat = np.repeat(profile[None], tg.nsteps, axis=0)
    raised = flat.copy()
    raised[tg.nsteps // 2:] += 5e-6
    resized = _resize_problem(replace(problem, x_q=flat), 400)
    assert np.array_equal(resized.x_q, np.repeat(profile[None], 400, axis=0))
    u = ControlProcess(g, tg, flat)
    assert np.array_equal(_retime_control(u, resized).values, resized.x_q)
    with pytest.raises(ConfigurationError, match="constant-in-time"):
        _retime_control(replace(u, values=raised), resized)
    with pytest.raises(ConfigurationError, match="time-varying target"):
        _resize_problem(replace(problem, x_q=raised), 400)


def test_duality_continuous_rejects_multiplicative():
    problem = _problem(noise="multiplicative")
    with pytest.raises(ConfigurationError):
        check_duality(problem, EnsembleSpec(2, 9), backend="continuous")


# --- Lipschitz -------------------------------------------------------------------


def test_lipschitz_check_default():
    problem = _problem()
    report = check_lipschitz(problem, EnsembleSpec(2, 9), npairs=2, seed=4)
    assert report.passed
    assert report.measured["all_finite"]
    assert 0.5 <= report.measured["refinement_drift"] <= 2.0


def test_lipschitz_linear_map_ratio_independent_of_base():
    # quadratic potential, no noise: the control-to-state map is affine, so
    # the ratio depends only on the direction, not the base control
    problem = _problem(noise="none", potential=quadratic_potential(1.0))
    es = EnsembleSpec(1, 9)
    d = random_smooth_control(problem, 11, amplitude=0.3)
    ratios = []
    for seed in (21, 22):
        u1 = random_smooth_control(problem, seed, amplitude=0.5)
        u2 = ControlProcess(problem.params.grid, problem.params.timegrid,
                            u1.values + d.values)
        report = check_lipschitz(problem, es, pairs=[(u1, u2)])
        ratios.append(report.measured["max_ratio_coarse"])
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-10)


def test_lipschitz_ratio_bounded_by_dense_operator_norm():
    # tiny affine problem: assemble the map d -> state difference densely and
    # bound every measured ratio by its operator norm
    problem = _problem(grid_n=8, nsteps=5, noise="none",
                       potential=quadratic_potential(1.0))
    es = EnsembleSpec(1, 9)
    g = problem.params.grid
    tg = problem.params.timegrid
    npts, nsteps = g.size, tg.nsteps

    from choc.state import sample_wiener_path, solve_state
    from choc.verify import _norm_c0h_l2z
    wp = sample_wiener_path(problem.params.noise, tg, 0)
    base = solve_state(problem.y0, None, [wp], problem.params)
    cols = np.zeros((nsteps + 1, npts, nsteps * npts))
    for col in range(nsteps * npts):
        d = np.zeros((nsteps, npts))
        d[col // npts, col % npts] = 1.0
        bumped = solve_state(problem.y0, d, [wp], problem.params)
        cols[:, :, col] = bumped.ys[0] - base.ys[0]

    # operator norm wrt the (C0 H cap L2 Z) output norm is bounded by the
    # Euclidean norm times the worst per-column ratio; use an SVD bound on a
    # weighted flattening for a sound upper bound
    tau, cv = tg.tau, g.cell_volume
    flat = cols.reshape(-1, nsteps * npts)
    svals = np.linalg.svd(flat, compute_uv=False)
    # crude but valid: |Sd| <= smax |d|_2; translate both sides to the norms
    # used by the ratio
    smax = svals[0]

    ratios = []
    for seed in (31, 32, 33):
        d = random_smooth_control(problem, seed, amplitude=0.2)
        u2 = ControlProcess(g, tg, d.values)
        diff_traj = None
        bumped = solve_state(problem.y0, d.values, [wp], problem.params)
        num = _norm_c0h_l2z(bumped.ys[0] - base.ys[0], tg, g)
        den = np.sqrt(np.sum(d.values**2) * tau * cv)
        ratios.append(num / den)
        # consistency of the dense map: reproduce the state difference
        pred = (flat @ d.values.ravel()).reshape(nsteps + 1, npts)
        assert np.allclose(pred, bumped.ys[0] - base.ys[0], atol=1e-9)
    # bound: num <= smax |d|_2 * norm-equivalence factors
    lam_max = float(np.max(-g.lap_symbol))
    equiv = np.sqrt(cv) * (1 + np.sqrt(tau * (nsteps + 1) * (1 + lam_max) ** 2))
    for r in ratios:
        assert r <= smax * equiv / np.sqrt(tau * cv) + 1e-9


# --- truncation -------------------------------------------------------------------


def test_truncation_check_passes():
    problem = _problem()
    u = random_smooth_control(problem, 1, amplitude=0.3)
    h = random_smooth_control(problem, 2, amplitude=1.0)
    report = check_truncation(problem, u, h, (2.0, 8.0, 32.0, 128.0),
                              EnsembleSpec(2, 9))
    assert report.passed
    diffs = report.measured["mean_differences"]
    assert diffs[-1] == 0.0


def test_truncation_check_negative_control():
    # top level below the curvature: the exact-zero clause cannot trigger,
    # and differences need not vanish
    problem = _problem()
    u = random_smooth_control(problem, 1, amplitude=0.3)
    h = random_smooth_control(problem, 2, amplitude=1.0)
    report = check_truncation(problem, u, h, (0.25, 0.5, 0.9),
                              EnsembleSpec(1, 9))
    assert not report.measured["top_level_dominates"]


# --- moment bounds ----------------------------------------------------------------


def test_moment_bounds_stable():
    problem = _problem()
    report = check_moment_bounds(problem, EnsembleSpec(3, 9),
                                 refinements=((1, 1), (2, 2)))
    assert report.passed
    levels = report.measured["levels"]
    assert len(levels) == 2
    assert all(np.isfinite(l["sup_h_12"]) for l in levels)


def test_moment_bounds_blowup_negative_control():
    problem = _problem(sigma=1e3, nsteps=10, blowup_threshold=1e6)
    es = EnsembleSpec(2, 9)
    report = check_moment_bounds(problem, es)
    assert not report.passed
    blow_up = report.measured["blow_up"]
    # the unrefined level blows up: the earliest step of the batch's sweep,
    # at that step the lowest blown-up path
    assert 0 <= blow_up["step"] < problem.params.timegrid.nsteps
    assert blow_up["seed"] in [es.path_seed(i) for i in range(es.npaths)]
    assert not np.isfinite(blow_up["max_abs"]) or blow_up["max_abs"] > 1e6


# --- backend consistency ------------------------------------------------------------


def test_backend_consistency_check():
    problem = _problem(noise="additive", t_final=0.05, nsteps=100)
    report = check_backend_consistency(problem, EnsembleSpec(2, 9),
                                       nsteps_list=(50, 100, 200, 400), seed=2)
    assert report.passed
    assert report.measured["empirical_order"] >= 0.8


def test_backend_consistency_rejects_multiplicative():
    problem = _problem(noise="multiplicative")
    with pytest.raises(ConfigurationError):
        check_backend_consistency(problem, EnsembleSpec(1, 9))


# --- determinism ---------------------------------------------------------------------


def test_reports_bitwise_deterministic():
    problem = _problem()
    es = EnsembleSpec(2, 9)
    u = random_smooth_control(problem, 1, amplitude=0.3)
    h = random_smooth_control(problem, 2, amplitude=1.0)

    def run():
        return [
            check_mass_conservation(problem, es).to_json(),
            check_gateaux(problem, u, h, path_seed=1, npaths=1).to_json(),
            check_duality(problem, es, npairs=2, seed=1).to_json(),
            check_truncation(problem, u, h, (2.0, 32.0), es).to_json(),
        ]

    assert run() == run()


def test_empirical_order_helper():
    eps = np.array([1e-1, 1e-2, 1e-3])
    errs = 3.0 * eps**1.5
    assert empirical_order(eps, errs) == pytest.approx(1.5, abs=1e-12)
    assert np.isnan(empirical_order(eps, np.zeros(3)))
