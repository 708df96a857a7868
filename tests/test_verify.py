"""Check harness: positive runs, negative controls, bitwise determinism."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

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
from choc import state, verify
from choc.control import l2q_norm
from choc.errors import BlowUpError, ConfigurationError
from choc.grid import low_pass_values
from choc.physics import additive_noise, no_noise
from choc.sensitivity import duality_terms, solve_adjoint, solve_linearized
from choc.state import StateParams, mix_seed, solve_state
from choc.verify import (
    CheckReport,
    _duality_residual,
    check_backend_consistency,
    check_duality,
    check_gateaux,
    check_lipschitz,
    check_mass_conservation,
    check_moment_bounds,
    check_truncation,
    empirical_order,
    random_smooth_control,
)

from conftest import continuous_ptildes, heap_peak


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
    y0 = low_pass_values(g, rng, 0.4)
    x_q = np.stack([low_pass_values(g, rng, 0.3) for _ in range(nsteps)])
    x_t = low_pass_values(g, rng, 0.3)
    return Problem(params=params, y0=y0, alphas=alphas, x_q=x_q, x_t=x_t, c0=1.0)


def _budget(params, npaths, npairs):
    """The sweep budget that holds ``npairs`` pairs of ``npaths`` rows on
    ``params``: two sweep outputs per pair."""
    return npairs * 2 * npaths * (params.timegrid.nsteps + 1) * params.grid.size * 8


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


@pytest.mark.parametrize("eps_list", [(1e-1, -1e-2), (1e-1, 0.0), (np.inf, 1e-1)])
def test_gateaux_requires_finite_positive_eps(eps_list):
    # a difference quotient at eps <= 0 or at an infinite eps measures no order
    problem = _problem(grid_n=16, nsteps=10)
    u = problem.zero_control()
    with pytest.raises(ConfigurationError, match="eps_list must be finite and positive"):
        check_gateaux(problem, u, u, eps_list=eps_list)


# --- duality ---------------------------------------------------------------------


@pytest.mark.parametrize("noise", ["additive", "multiplicative"])
def test_duality_check_transpose(noise):
    problem = _problem(noise=noise)
    report = check_duality(problem, EnsembleSpec(2, 9), npairs=3, seed=1)
    assert report.passed
    assert report.measured["max_relative_residual"] <= 1e-10


def _serial_duality_rows(problem, es, pairs):
    """The report rows of a per-pair loop: one public state, linearized and
    adjoint solve of each pair, reduced by ``_duality_residual``."""
    paths = es.sample_paths(problem.params)
    rows = []
    for j, (u, h) in enumerate(pairs):
        traj = solve_state(problem.y0, u, paths, problem.params)
        lin = solve_linearized(traj, h)
        adj = solve_adjoint(traj, problem.x_q, problem.x_t, problem.alphas)
        lhs, rhs = duality_terms(traj, lin, adj, h, problem.x_q, problem.x_t,
                                 problem.alphas)
        res, lhs_mean, rhs_mean = _duality_residual(lhs, rhs)
        rows.append({"pair": j, "residual": res, "lhs": lhs_mean, "rhs": rhs_mean})
    return rows


@pytest.mark.parametrize("npairs", [3, 5])
@pytest.mark.parametrize("noise", ["additive", "multiplicative"])
@pytest.mark.parametrize("per_path_targets", [False, True])
def test_duality_chunks_equal_a_per_pair_loop(monkeypatch, npairs, noise,
                                              per_path_targets):
    # two pairs per sweep, and npairs is no multiple of the chunk, so the
    # last chunk is short
    problem = _problem(noise=noise)
    es = EnsembleSpec(3, 9)
    monkeypatch.setattr(verify, "_SWEEP_BYTES", _budget(problem.params, 3, 2))
    chunks = verify._pair_chunks(npairs, problem.params, es.npaths)
    assert len(chunks[0]) == 2 and npairs % len(chunks[0])
    if per_path_targets:
        rng = np.random.default_rng(4)
        problem = replace(problem,
                          x_q=problem.x_q + rng.standard_normal((3,) + problem.x_q.shape),
                          x_t=problem.x_t + rng.standard_normal((3,) + problem.x_t.shape))
    report = check_duality(problem, es, npairs=npairs, seed=1)
    pairs = [(random_smooth_control(problem, mix_seed(1, 2 * j), 0.5).values,
              random_smooth_control(problem, mix_seed(1, 2 * j + 1), 1.0).values)
             for j in range(npairs)]
    assert list(report.table) == _serial_duality_rows(problem, es, pairs)


def test_duality_blowup_names_the_path_in_the_ensemble(monkeypatch):
    # Only the second pair of a chunk blows up, on path 2 of 4: path 2 carries
    # strong noise and the second pair a strong control. The error names
    # that row's step, its seed and its index in the ensemble, as a solve of
    # the pair alone does.
    problem = _problem(noise="additive", blowup_threshold=0.8)
    monkeypatch.setattr(verify, "_SWEEP_BYTES", _budget(problem.params, 4, 2))
    assert [len(c) for c in verify._pair_chunks(2, problem.params, 4)] == [2]
    sample_paths = EnsembleSpec.sample_paths

    def loud_path_2(self, params):
        paths = sample_paths(self, params)
        loud = paths.increments.copy()
        loud[:, 2] *= 20.0
        return replace(paths, increments=loud)

    draw = verify.random_smooth_control

    def loud_second_pair(problem, seed, amplitude=1.0):
        u = draw(problem, seed, amplitude)
        return u.with_values(8.0 * u.values) if seed == mix_seed(1, 2) else u

    monkeypatch.setattr(EnsembleSpec, "sample_paths", loud_path_2)
    monkeypatch.setattr(verify, "random_smooth_control", loud_second_pair)
    es = EnsembleSpec(4, 9)
    paths = es.sample_paths(problem.params)
    first, second = (loud_second_pair(problem, mix_seed(1, 2 * j), 0.5) for j in (0, 1))
    solve_state(problem.y0, first.values, paths, problem.params)    # no blow-up
    with pytest.raises(BlowUpError) as alone:
        solve_state(problem.y0, second.values, paths, problem.params)
    with pytest.raises(BlowUpError) as chunked:
        check_duality(problem, es, npairs=2, seed=1)
    exc = chunked.value
    assert exc.path == 2 and es.path_seed(exc.path) == exc.seed
    assert ((exc.step, exc.max_abs, exc.seed, exc.path)
            == (alone.value.step, alone.value.max_abs, alone.value.seed,
                alone.value.path))


@pytest.mark.parametrize("noise", ["additive", "multiplicative"])
def test_duality_and_lipschitz_reports_do_not_depend_on_the_budget(monkeypatch,
                                                                   noise):
    # one pair per sweep; four pairs per sweep on the coarse grid and two on
    # Lipschitz's fine one, neither of which divides five; every pair in
    # one sweep
    problem = _problem(noise=noise)
    es = EnsembleSpec(3, 9)
    p = problem.params
    nsteps = p.timegrid.nsteps
    fine = verify._level(problem, es, verify._LIPSCHITZ_MESH_FACTOR, nsteps, nsteps)[0]

    def reports():
        return (check_duality(problem, es, npairs=5, seed=1).to_json(),
                check_lipschitz(problem, es, npairs=5, seed=1).to_json())

    reference = reports()
    for budget, sizes in ((1, [[1] * 5, [1] * 5]),
                          (_budget(p, 3, 4), [[4, 1], [2, 2, 1]]),
                          (1 << 62, [[5], [5]])):
        monkeypatch.setattr(verify, "_SWEEP_BYTES", budget)
        assert [[len(c) for c in verify._pair_chunks(5, q, 3)]
                for q in (p, fine)] == sizes
        assert reports() == reference, sizes


# Arrays of one block of steps, each at most state._BLOCK_BYTES, that the
# heap pins allow a check besides its sweep outputs: the block factors of a
# sweep, its step temporaries and the increments of the paths.
_BLOCK_TEMPORARIES = 16


def test_duality_heap_holds_two_sweep_outputs_of_a_chunk(monkeypatch):
    # two pairs per sweep on 12 paths: a chunk holds its states and one of
    # its adjoint and linearized sweeps, its controls, one block's
    # temporaries and a few rows; three outputs would not fit
    problem = _problem(grid_n=64, nsteps=200)
    p = problem.params
    monkeypatch.setattr(verify, "_SWEEP_BYTES", _budget(p, 12, 2))
    _, peak = heap_peak(check_duality, problem, EnsembleSpec(12, 9), npairs=2, seed=1)
    row = (p.timegrid.nsteps + 1) * p.grid.size * 8
    output = 2 * 12 * row
    controls = 2 * 2 * row
    block = _BLOCK_TEMPORARIES * state._BLOCK_BYTES
    assert 2 * output + controls + block + 4 * row < 3 * output
    assert peak <= 2 * output + controls + block + 4 * row


def test_backend_consistency_heap_holds_one_ptilde_batch():
    # at the finest level the check holds the states and the transpose
    # ptildes of its paths and one block's temporaries, and compares the
    # continuous ptilde node by node; a stored batch of it would not fit.
    # Its time-constant control and target are views of one field each, so
    # no series of them is held
    problem = _problem(grid_n=64, noise="additive")
    size = problem.params.grid.size
    _, peak = heap_peak(check_backend_consistency, problem, EnsembleSpec(8, 9),
                        nsteps_list=(100, 800), seed=0)
    batch = 8 * 801 * size * 8
    block = _BLOCK_TEMPORARIES * state._BLOCK_BYTES
    assert 2 * batch + block < 3 * batch
    assert peak <= 2 * batch + block


def _per_step_control(problem, seed, amplitude):
    """random_smooth_control as a loop of one draw and one inverse
    transform per step."""
    g, tg = problem.params.grid, problem.params.timegrid
    rng = np.random.default_rng(seed)
    if g.ndims == 1:
        k2 = (np.arange(g.npoints[0]) / 8) ** 2
    else:
        k2 = (np.arange(g.npoints[0])[:, None] ** 2
              + np.arange(g.npoints[1])[None, :] ** 2) / 8**2
    fields = []
    for _ in range(tg.nsteps):
        values = scipy.fft.idctn(rng.standard_normal(g.shape) * np.exp(-k2),
                                 type=2, norm="ortho")
        top = np.max(np.abs(values))
        if top > 0:
            values = values * (1.0 / top)
        fields.append(values)
    vals = np.stack(fields)
    norm = l2q_norm(vals, tg, g)
    if norm > 0:
        vals *= amplitude / norm
    return vals


@pytest.mark.parametrize("grid", [Grid((32,), (1.0,)), Grid((12, 10), (1.0, 1.5))])
def test_random_smooth_control_is_the_per_step_loop(grid):
    tg = TimeGrid(0.02, 40)
    params = StateParams(grid=grid, timegrid=tg, potential=double_well(),
                         noise=no_noise(grid))
    problem = Problem(params=params, y0=np.zeros(grid.shape), alphas=(1.0, 1.0, 1e-2))
    for seed in range(30):
        for amplitude in (0.5, 0.7, 1.0):
            u = random_smooth_control(problem, seed, amplitude)
            assert np.array_equal(u.values, _per_step_control(problem, seed, amplitude))


def test_duality_requires_a_pair():
    # no pair measures no residual, which must not read as a pass
    with pytest.raises(ConfigurationError, match="npairs must be at least 1, got 0"):
        check_duality(_problem(grid_n=16, nsteps=10), EnsembleSpec(2, 9), npairs=0)


def test_duality_fails_on_a_nan_residual(monkeypatch):
    # a NaN side of one pair must fail the report and read as its maximum,
    # not be passed over by a comparison that NaN never wins
    sides = verify._duality_sides

    def nan_middle_pair(*args):
        lhs, rhs = sides(*args)
        lhs[1, 0] = np.nan
        return lhs, rhs

    monkeypatch.setattr(verify, "_duality_sides", nan_middle_pair)
    report = check_duality(_problem(grid_n=16, nsteps=10), EnsembleSpec(2, 9),
                           npairs=3, seed=1)
    assert np.isnan(report.table[1]["residual"])
    assert not report.passed
    assert json.loads(report.to_json())["measured"]["max_relative_residual"] == "nan"


# --- Lipschitz -------------------------------------------------------------------


@pytest.mark.parametrize("kwargs, name", [({"npairs": 0}, "npairs")])
def test_lipschitz_requires_a_pair(kwargs, name):
    with pytest.raises(ConfigurationError, match=rf"{re.escape(name)} must be at least 1"):
        check_lipschitz(_problem(grid_n=16, nsteps=10), EnsembleSpec(2, 9), **kwargs)


def test_lipschitz_check_default():
    problem = _problem()
    report = check_lipschitz(problem, EnsembleSpec(2, 9), npairs=2, seed=4)
    assert report.passed
    assert report.measured["all_finite"]
    assert 0.5 <= report.measured["refinement_drift"] <= 2.0


def test_lipschitz_fails_when_the_state_does_not_see_the_control():
    # over a horizon of 1e-300 the controls move no state bit, so every
    # coarse ratio is 0: the drift is unbounded and the check fails
    problem = _problem(grid_n=16, nsteps=10, t_final=1e-300)
    report = check_lipschitz(problem, EnsembleSpec(2, 9), npairs=2, seed=4)
    assert report.measured["max_ratio_coarse"] == 0.0
    assert report.measured["refinement_drift"] == float("inf")
    assert not report.passed
    assert json.loads(report.to_json())["measured"]["refinement_drift"] == "inf"


def test_lipschitz_linear_map_ratio_independent_of_base():
    # quadratic potential, no noise: the control-to-state map is affine, so
    # the ratio depends only on the direction, not the base control
    # (the check's coarse level: its state sweep and its ratio of each pair)
    problem = _problem(noise="none", potential=quadratic_potential(1.0))
    p = problem.params
    d = random_smooth_control(problem, 11, amplitude=0.3).values
    bases = [random_smooth_control(problem, seed, amplitude=0.5).values
             for seed in (21, 22)]
    us = np.stack([u for base in bases for u in (base, base + d)])
    dus = [l2q_norm(u1 - u2, p.timegrid, p.grid) for u1, u2 in zip(us[::2], us[1::2])]
    ratios = verify._mean_ratios(problem.y0, us, EnsembleSpec(1, 9).sample_paths(p),
                                 p, dus)
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

    from choc.state import sample_wiener_paths, solve_state
    from choc.verify import _norm_c0h_l2z
    wp = sample_wiener_paths(problem.params.noise, tg, [0])
    base = solve_state(problem.y0, None, wp, problem.params)
    cols = np.zeros((nsteps + 1, npts, nsteps * npts))
    for col in range(nsteps * npts):
        d = np.zeros((nsteps, npts))
        d[col // npts, col % npts] = 1.0
        bumped = solve_state(problem.y0, d, wp, problem.params)
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
        bumped = solve_state(problem.y0, d.values, wp, problem.params)
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


def test_moment_bounds_rejects_non_dividing_ladder():
    # 2n steps do not aggregate from the finest 3n
    problem = _problem()
    with pytest.raises(ConfigurationError, match="must divide the finest"):
        check_moment_bounds(problem, EnsembleSpec(1, 9),
                            refinements=((1, 2), (1, 3)))


@pytest.mark.parametrize("refinements, what", [(((1, 1), (1, 0)), "step count"),
                                               (((1, 1), (0, 1)), "mesh factor")])
def test_moment_bounds_rejects_a_level_without_steps_or_points(refinements, what):
    problem = _problem(grid_n=16, nsteps=10)
    with pytest.raises(ConfigurationError, match=f"{what} must be at least 1"):
        check_moment_bounds(problem, EnsembleSpec(2, 9), refinements=refinements)


def test_backend_consistency_rejects_a_level_without_steps():
    problem = _problem(grid_n=16, nsteps=10)
    with pytest.raises(ConfigurationError, match="step count must be at least 1, got 0"):
        check_backend_consistency(problem, EnsembleSpec(2, 9), nsteps_list=(0, 10))


def _run_ladder(name, ladder):
    """The check that fits or compares along the ladder ``name``, on it."""
    problem = _problem(grid_n=16, nsteps=10)
    es = EnsembleSpec(2, 9)
    u = problem.zero_control()
    if name == "eps_list":
        return check_gateaux(problem, u, u, eps_list=ladder)
    if name == "nsteps_list":
        return check_backend_consistency(problem, es, nsteps_list=ladder)
    return check_moment_bounds(problem, es, refinements=ladder)


@pytest.mark.parametrize("name, ladder", [
    ("eps_list", ()), ("eps_list", (1e-2,)),
    ("nsteps_list", ()), ("nsteps_list", (10,)),
    ("refinements", ()), ("refinements", ((1, 1),)),
])
def test_ladders_need_two_entries(name, ladder):
    # an order or a ratio needs two levels to compare: a shorter ladder
    # measures nothing
    with pytest.raises(ConfigurationError,
                       match=f"need at least two {name}, got {len(ladder)}"):
        _run_ladder(name, ladder)


@pytest.mark.parametrize("name, ladder, order", [
    ("eps_list", (1e-2, 1e-2), "decreasing"),
    ("nsteps_list", (10, 20, 10), "increasing"),
    ("refinements", ((1, 1), (1, 1)), "increasing"),
    ("refinements", ((2, 2), (1, 1)), "increasing"),
    ("refinements", ((1, 2), (2, 1)), "increasing"),
])
def test_ladders_must_be_strictly_monotone(name, ladder, order):
    # a repeated level compares a level with itself; a refinement level
    # must be at least as fine as the last in both factors and finer in one
    with pytest.raises(ConfigurationError, match=f"{name} must be strictly {order}"):
        _run_ladder(name, ladder)


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
    assert es.path_seed(blow_up["path"]) == blow_up["seed"]
    assert not np.isfinite(blow_up["max_abs"]) or blow_up["max_abs"] > 1e6
    # the report is JSON, and the path survives the round trip
    assert json.loads(report.to_json())["measured"]["blow_up"]["path"] == blow_up["path"]


# --- backend consistency ------------------------------------------------------------


def test_backend_consistency_check():
    problem = _problem(noise="additive", t_final=0.05, nsteps=100)
    report = check_backend_consistency(problem, EnsembleSpec(2, 9),
                                       nsteps_list=(50, 100, 200, 400), seed=2)
    assert report.passed
    assert report.measured["empirical_order"] >= 0.8


def test_backend_consistency_measures_the_additive_variant():
    # the claim is about additive noise: a multiplicative problem is measured
    # on its additive variant with the same modes, and reports the same bytes
    problem = _problem(noise="multiplicative", nsteps=20)
    nm = problem.params.noise
    additive = replace(problem, params=replace(
        problem.params,
        noise=additive_noise(problem.params.grid, nm.sigmas, nm.mode_indices)))
    es = EnsembleSpec(2, 9)
    report = check_backend_consistency(problem, es, nsteps_list=(20, 40), seed=2)
    twin = check_backend_consistency(additive, es, nsteps_list=(20, 40), seed=2)
    assert report.to_json() == twin.to_json()


@pytest.mark.parametrize("shape", [(16,), (64,), (128,), (12, 10)])
def test_backend_consistency_gap_is_the_transpose_one_node_apart(shape):
    # for additive noise and alpha2 = 0 the continuous ptilde at node n is
    # the transpose ptilde at node n - 1: the two recursions are one, shifted
    # by a node, up to the order of one addition. So the check's gap is the
    # transpose costate's one-step increment (plus node 0). Multiplicative
    # noise parts them, which is why the check measures an additive twin
    g = Grid(shape)
    tg = TimeGrid(0.02, 100)
    rng = np.random.default_rng(3)
    y0 = low_pass_values(g, rng, 0.4)
    u = np.broadcast_to(low_pass_values(g, rng, 0.5), (tg.nsteps,) + shape)
    x_q = np.stack([low_pass_values(g, rng, 0.3) for _ in range(tg.nsteps)])
    for noise, bounds in ((additive_noise, (0.0, 1e-12)),
                          (multiplicative_noise, (1e-4, np.inf))):
        params = StateParams(grid=g, timegrid=tg, potential=double_well(),
                             noise=noise(g, [0.1, 0.1]))
        traj = solve_state(y0, u, state.sample_wiener_paths(params.noise, tg, [1, 2, 3]),
                           params)
        ptildes = solve_adjoint(traj, x_q, None, (1.0, 0.0, 0.0)).ptildes
        continuous = continuous_ptildes(traj, x_q, 1.0)
        apart = np.max(np.abs(continuous[:, 1:] - ptildes[:, : tg.nsteps - 1]))
        assert bounds[0] <= apart / np.max(np.abs(ptildes)) <= bounds[1], noise


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


def test_report_booleans_are_json_booleans():
    flags = {"py": True, "np": np.bool_(False), "count": 1, "index": np.int64(0)}
    report = CheckReport(name="flags", inputs=flags, measured={"nested": [flags]},
                         tolerance=flags, passed=True, table=(flags,))
    d = json.loads(report.to_json())
    for written in (d["inputs"], d["measured"]["nested"][0], d["tolerance"], d["table"][0]):
        assert written == flags
        assert {k: type(v) for k, v in written.items()} == {
            "py": bool, "np": bool, "count": int, "index": int}


def test_empirical_order_helper():
    eps = np.array([1e-1, 1e-2, 1e-3])
    errs = 3.0 * eps**1.5
    assert empirical_order(eps, errs) == pytest.approx(1.5, abs=1e-12)
    assert np.isnan(empirical_order(eps, np.zeros(3)))
