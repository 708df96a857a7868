"""Acceptance criteria at desk scale (1D, 64 points, 200 steps).

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them
inline. The checks' tolerances are constants of ``choc.verify``; each test
asserts that its report carries the tolerance its PASS line prints, so a
constant cannot loosen unnoticed.
"""

import numpy as np
import pytest

from choc import (
    EnsembleSpec,
    Grid,
    Problem,
    TimeGrid,
    double_well,
    gradient,
    mix_seed,
    multiplicative_noise,
    optimize,
    quadratic_potential,
    reduced_cost,
    sample_wiener_paths,
    solve_state,
)
from choc.config import build_problem, parse_config
from choc.control import l2q_inner
from choc.grid import low_pass_values
from choc.physics import additive_noise, no_noise
from choc.state import StateParams
from choc.verify import (
    check_backend_consistency,
    check_duality,
    check_gateaux,
    check_lipschitz,
    check_mass_conservation,
    check_truncation,
    random_smooth_control,
)

GRID = Grid((64,), (1.0,))
TIMEGRID = TimeGrid(0.05, 200)


def _params(noise="multiplicative", potential=None, sigma=0.1, s=2.0):
    if noise == "multiplicative":
        nm = multiplicative_noise(GRID, [sigma, sigma])
    elif noise == "additive":
        nm = additive_noise(GRID, [sigma, sigma])
    else:
        nm = no_noise(GRID)
    return StateParams(grid=GRID, timegrid=TIMEGRID,
                       potential=potential or double_well(), noise=nm,
                       stabilization=s)


def _problem(params, seed=5, alphas=(1.0, 1.0, 1e-2)):
    rng = np.random.default_rng(seed)
    y0 = low_pass_values(GRID, rng, 0.4)
    x_q = np.stack([low_pass_values(GRID, rng, 0.3)
                    for _ in range(TIMEGRID.nsteps)])
    x_t = low_pass_values(GRID, rng, 0.3)
    return Problem(params=params, y0=y0, alphas=alphas, x_q=x_q, x_t=x_t, c0=1.0)


def _report(num, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {num:2d}: {description} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_mass_conservation():
    problem = _problem(_params("multiplicative"))
    report = check_mass_conservation(problem, EnsembleSpec(16, 2024))
    assert report.tolerance == {"max_mass_drift": 1e-12}
    _report(1, "mass conservation over 16 multiplicative paths",
            report.passed,
            f"max drift {report.measured['max_mass_drift']:.3e} <= 1e-12")


def test_criterion_02_constant_fixed_point():
    params = _params("none")
    wp = sample_wiener_paths(params.noise, TIMEGRID, [0])
    traj = solve_state(np.full(GRID.shape, 0.3), None, wp, params)
    dev = float(np.max(np.abs(traj.ys - 0.3)))
    _report(2, "constant state is a fixed point of the deterministic flow",
            dev <= 1e-12, f"sup deviation {dev:.3e} <= 1e-12")


def test_criterion_03_energy_dissipation():
    params = _params("none", s=2.0)
    y0 = low_pass_values(GRID, np.random.default_rng(11), 0.4)
    wp = sample_wiener_paths(params.noise, TIMEGRID, [0])
    traj = solve_state(y0, None, wp, params)
    worst = float(np.max(np.diff(traj.energy[0])))
    _report(3, "deterministic energy dissipation at S = 2",
            worst <= 1e-10, f"max energy increment {worst:.3e} <= 1e-10")


def test_criterion_04_gateaux():
    problem = _problem(_params("multiplicative"))
    u = random_smooth_control(problem, 21, amplitude=0.4)
    h = random_smooth_control(problem, 22, amplitude=1.0)
    rep = check_gateaux(problem, u, h, eps_list=(1e-1, 1e-2, 1e-3, 1e-4),
                        path_seed=31, npaths=2)
    scale = 1.0 + rep.measured["linearized_norm"]
    assert rep.tolerance["empirical_order"] == 0.9
    assert rep.tolerance["min_error"] == 1e-4 * scale
    ok_order = rep.passed and rep.measured["empirical_order"] >= 0.9

    lin_problem = _problem(_params("additive", potential=quadratic_potential(1.0)))
    rep_lin = check_gateaux(lin_problem, u, h,
                            eps_list=(1e-1, 1e-2, 1e-3, 1e-4),
                            path_seed=31, npaths=2)
    lin_scale = 1.0 + rep_lin.measured["linearized_norm"]
    assert rep_lin.tolerance["exact_linearity_error"] == 1e-11 * lin_scale
    ok_exact = rep_lin.measured["max_error"] <= 1e-11 * lin_scale
    _report(4, "difference quotients converge to the linearized state",
            ok_order and ok_exact,
            f"order {rep.measured['empirical_order']:.2f} >= 0.9, "
            f"min error {rep.measured['min_error']:.2e} <= 1e-4 scaled; "
            f"quadratic-potential error {rep_lin.measured['max_error']:.2e} "
            f"<= 1e-11 scaled")


@pytest.mark.parametrize("noise", ["additive", "multiplicative"])
def test_criterion_05_duality(noise):
    problem = _problem(_params(noise))
    worst = 0.0
    for j in range(20):
        es = EnsembleSpec(1, mix_seed(4000, j))      # one path per pair
        rep = check_duality(problem, es, npairs=1, seed=mix_seed(5000, j))
        assert rep.tolerance == {"max_relative_residual": 1e-10}
        worst = max(worst, rep.measured["max_relative_residual"])
    _report(5, f"exact discrete duality, {noise} noise, 20 pairs",
            worst <= 1e-10, f"max residual {worst:.3e} <= 1e-10")


def test_criterion_06_backend_consistency():
    problem = _problem(_params("additive"))
    rep = check_backend_consistency(problem, EnsembleSpec(4, 6001),
                                    nsteps_list=(100, 200, 400, 800),
                                    seed=3)
    assert rep.tolerance == {"empirical_order": 0.8}
    _report(6, "continuous and transpose adjoints agree at order >= 0.8",
            rep.passed,
            f"empirical order {rep.measured['empirical_order']:.2f} over "
            f"tau in T/100..T/800")


def test_criterion_07_gradient_exactness():
    worst = 0.0
    for trial in range(10):
        seed = 700 + trial
        alphas = (1.0, 0.5 + 0.1 * trial, 10.0 ** (-2 - trial % 2))
        problem = _problem(_params("multiplicative"), seed=seed, alphas=alphas)
        es = EnsembleSpec(2, mix_seed(7100, trial))
        u = random_smooth_control(problem, seed + 1, amplitude=0.4)
        h = random_smooth_control(problem, seed + 2, amplitude=1.0)
        grad = gradient(u, es, problem)
        inner = l2q_inner(grad, h.values, TIMEGRID, GRID)
        eps = 1e-4
        jp, _ = reduced_cost(u.with_values(u.values + eps * h.values), es, problem)
        jm, _ = reduced_cost(u.with_values(u.values - eps * h.values), es, problem)
        fd = (jp - jm) / (2 * eps)
        rel = abs(inner - fd) / (abs(fd) + 1e-14)
        worst = max(worst, rel)
    _report(7, "adjoint gradient matches central differences on 10 problems",
            worst <= 1e-5, f"max relative error {worst:.3e} <= 1e-5")


def test_criterion_08_optimizer_synthetic_target():
    config = parse_config(
        "[ensemble]\nnpaths = 4\nbase_seed = 2024\n"
        "[cost]\nalpha3 = 0.001\nx_q = synthetic\nx_t = synthetic\n"
        "[optimizer]\ntol = 7e-7\nmax_iter = 300\n"
    )
    build = build_problem(config)
    result = optimize(build.u0, build.ensemble, build.problem, build.optimizer)
    costs = result.cost_history
    ratio = costs[0] / costs[-1]
    monotone = all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    norm_u = result.control.norm_l2q()
    rel_residual = result.projection_residual / (1.0 + norm_u)
    ok = ratio >= 10.0 and monotone and rel_residual <= 1e-3
    _report(8, "projected gradient descent on the synthetic target",
            ok,
            f"cost ratio {ratio:.1f} >= 10, residual {rel_residual:.2e} "
            f"<= 1e-3, monotone={monotone}, {result.n_iterations} iterations")


def test_criterion_09_truncation_convergence():
    # slow large-amplitude state: the curvature tail spans the dyadic levels,
    # so the clamp is genuinely active at the low levels and freezes on top
    params = _params("multiplicative")
    y0 = 1.2 * GRID.cosine_mode((1,))
    problem = Problem(params=params, y0=y0, alphas=(1.0, 1.0, 1e-2),
                      x_q=None, x_t=None, c0=1.0)
    u = random_smooth_control(problem, 91, amplitude=0.4)
    h = random_smooth_control(problem, 92, amplitude=1.0)
    rep = check_truncation(problem, u, h, (1.0, 2.0, 4.0, 8.0, 64.0),
                           EnsembleSpec(4, 9001))
    diffs = rep.measured["mean_differences"]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:]))
    active = diffs[0] > 0.0
    _report(9, "linearized solutions converge and freeze in the clamp level",
            rep.passed and nonincreasing and active and diffs[-1] == 0.0,
            f"differences {['%.2e' % d for d in diffs]}, "
            f"max curvature {rep.measured['max_curvature']:.2f}")


def test_criterion_10_lipschitz_probe():
    problem = _problem(_params("multiplicative"))
    rep = check_lipschitz(problem, EnsembleSpec(4, 10001), npairs=5, seed=7)
    assert rep.inputs["mesh_factor"] == 2
    assert rep.tolerance == {"stability_factor": 2.0}
    _report(10, "state/control difference ratios stable under 2x mesh refinement",
            rep.passed,
            f"coarse {rep.measured['max_ratio_coarse']:.3f}, "
            f"fine {rep.measured['max_ratio_fine']:.3f}, "
            f"drift {rep.measured['refinement_drift']:.3f} within factor 2")


def test_criterion_11_reproducibility():
    import json as _json

    from choc.verify import suite

    config = parse_config("[ensemble]\nnpaths = 4\nbase_seed = 2024\n")

    def run_once():
        build = build_problem(config)
        checks = suite(build.problem, build.ensemble, build.u0)
        return [check().to_json() for check in checks.values()]

    first = run_once()
    second = run_once()
    identical = first == second
    all_passed = all(_json.loads(r)["passed"] for r in first)
    _report(11, "two verify runs emit byte-identical passing reports",
            identical and all_passed,
            f"{len(first)} reports compared, identical={identical}, "
            f"all passed={all_passed}")
