"""Executable structural checks: conservation, differentiability, duality,
continuous dependence, truncation convergence, and moment probes.

Every check is a pure function of its inputs and seeds and emits a
:class:`CheckReport` whose JSON form is byte-stable across runs. Each check
has a negative control exercised by the test suite, so a vacuous pass cannot
hide a wiring bug. A check sweeps its whole ensemble at once, with one
solve per control, level, time grid or backend, and sums per-path results
in path order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .control import ControlProcess, EnsembleSpec, Problem, l2q_norm
from .errors import BlowUpError, ConfigurationError, PreconditionError
from .grid import (
    Field,
    Grid,
    low_pass_field,
    norm_h_values,
    norm_v_values,
    norm_z_values,
    prolong,
)
from .physics import additive_noise, multiplicative_noise, no_noise
from .sensitivity import (
    convergence_in_truncation,
    duality_terms,
    solve_adjoint,
    solve_linearized,
)
from .state import (
    StateParams,
    TimeGrid,
    WienerPath,
    aggregate_increments,
    mix_seed,
    sample_wiener_path,
    series_l2h_norm,
    solve_state,
)

__all__ = [
    "CheckReport",
    "check_mass_conservation",
    "check_gateaux",
    "check_duality",
    "check_lipschitz",
    "check_truncation",
    "check_moment_bounds",
    "check_backend_consistency",
    "random_smooth_control",
    "empirical_order",
]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    return repr(obj)


@dataclass(frozen=True)
class CheckReport:
    """Machine-readable outcome of one structural check."""

    name: str
    inputs: dict
    measured: dict
    tolerance: dict
    passed: bool
    table: tuple = ()
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": _jsonable(self.inputs),
            "measured": _jsonable(self.measured),
            "tolerance": _jsonable(self.tolerance),
            "passed": bool(self.passed),
            "table": _jsonable(list(self.table)),
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def empirical_order(params: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares slope of log(error) against log(parameter)."""
    params = np.asarray(params, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 0
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(params[keep]), np.log(errors[keep]), 1)[0]
    return float(slope)


def random_smooth_control(problem: Problem, seed: int, amplitude: float = 1.0,
                          cutoff: int = 8) -> ControlProcess:
    """Spatially smooth, temporally white control with unit-scaled L2 norm."""
    g = problem.params.grid
    tg = problem.params.timegrid
    rng = np.random.default_rng(seed)
    vals = np.stack([
        low_pass_field(g, rng, 1.0, cutoff=cutoff).values for _ in range(tg.nsteps)
    ])
    norm = l2q_norm(vals, tg, g)
    if norm > 0:
        vals *= amplitude / norm
    return ControlProcess(g, tg, vals)


# ---------------------------------------------------------------------------
# Conservation


def check_mass_conservation(problem: Problem, es: EnsembleSpec,
                            u: ControlProcess | None = None,
                            tol: float = 1e-12) -> CheckReport:
    """Mass drift along stochastic trajectories must stay at rounding level.

    The Laplacian term is mean-free under Neumann conditions and so is any
    mean-free noise; a constant noise mode (negative control) shows up here
    as a macroscopic drift.
    """
    if u is None:
        u = problem.zero_control()
    traj = solve_state(problem.y0, u.values, es.sample_paths(problem.params),
                       problem.params)
    worst = float(np.max(np.abs(traj.mass - traj.mass[:, :1])))
    return CheckReport(
        name="mass_conservation",
        inputs={"npaths": es.npaths, "base_seed": es.base_seed,
                "noise_kind": problem.params.noise.kind,
                "nmodes": problem.params.noise.nmodes},
        measured={"max_mass_drift": worst},
        tolerance={"max_mass_drift": tol},
        passed=worst <= tol,
    )


# ---------------------------------------------------------------------------
# Differentiability


def check_gateaux(problem: Problem, u: ControlProcess, h: ControlProcess,
                  eps_list=(1e-1, 1e-2, 1e-3, 1e-4), path_seed: int = 0,
                  npaths: int = 2, order_tol: float = 0.9,
                  floor_factor: float = 1e-4,
                  exact_tol: float = 1e-11) -> CheckReport:
    """Difference quotients of the control-to-state map against the
    linearized solution, path by path with common noise.

    The error e(eps) must shrink linearly in eps; when the potential has
    constant curvature the dynamics are affine in the control and e(eps)
    sits at rounding level for every eps, which counts as a pass.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigurationError("eps_list must be strictly decreasing")
    p = problem.params
    tg = p.timegrid
    g = p.grid
    errors = np.zeros(len(eps_list))
    z_norm = 0.0
    paths = [sample_wiener_path(p.noise, tg, mix_seed(path_seed, i))
             for i in range(npaths)]
    traj = solve_state(problem.y0, u.values, paths, p)
    zs = solve_linearized(traj, h.values, problem.trunc).zs[:, : tg.nsteps]
    for z in zs:
        z_norm += series_l2h_norm(z, tg, g)
    for j, eps in enumerate(eps_list):
        bumped = solve_state(problem.y0, u.values + eps * h.values, paths, p)
        for i in range(npaths):
            quotient = (bumped.ys[i] - traj.ys[i]) / eps
            errors[j] += series_l2h_norm(quotient[: tg.nsteps] - zs[i], tg, g)
    errors /= npaths
    z_norm /= npaths

    order = empirical_order(np.asarray(eps_list), errors)
    exact = bool(np.max(errors) <= exact_tol * (1.0 + z_norm))
    floor_ok = bool(np.min(errors) <= floor_factor * (1.0 + z_norm))
    passed = exact or (math.isfinite(order) and order >= order_tol and floor_ok)
    table = tuple(
        {"eps": float(e), "error_l2h": float(err)}
        for e, err in zip(eps_list, errors)
    )
    return CheckReport(
        name="gateaux",
        inputs={"path_seed": path_seed, "npaths": npaths,
                "potential": p.potential.name, "noise_kind": p.noise.kind},
        measured={"empirical_order": order, "min_error": float(np.min(errors)),
                  "max_error": float(np.max(errors)),
                  "linearized_norm": z_norm, "exact_linearity": exact},
        tolerance={"empirical_order": order_tol,
                   "min_error": floor_factor * (1.0 + z_norm),
                   "exact_linearity_error": exact_tol * (1.0 + z_norm)},
        passed=passed,
        table=table,
        notes="error measured per path in the strong L2(0,T;H) distance",
    )


# ---------------------------------------------------------------------------
# Duality


def _duality_residual(problem: Problem, u: ControlProcess, h: ControlProcess,
                      paths: list[WienerPath], backend: str):
    """Ensemble duality residual over the given Wiener paths; both sides from
    independent code paths, one sweep each."""
    traj = solve_state(problem.y0, u.values, paths, problem.params)
    lin = solve_linearized(traj, h.values, problem.trunc)
    adj = solve_adjoint(traj, problem.x_q, problem.x_t, problem.alphas,
                        backend=backend, trunc=problem.trunc)
    lhs, rhs = duality_terms(traj, lin, adj, h.values, problem.x_q, problem.x_t,
                             problem.alphas)
    # a Python loop in path order: sum() compensates (Python >= 3.12) and
    # np.sum sums pairwise, and either would move the reports' bits
    lhs_total = 0.0
    rhs_total = 0.0
    for lhs_i, rhs_i in zip(lhs.tolist(), rhs.tolist()):
        lhs_total += lhs_i
        rhs_total += rhs_i
    lhs_total /= len(paths)
    rhs_total /= len(paths)
    scale = max(abs(lhs_total), abs(rhs_total), 1e-300)
    return abs(lhs_total - rhs_total) / scale, lhs_total, rhs_total


def check_duality(problem: Problem, es: EnsembleSpec,
                  u: ControlProcess | None = None,
                  h: ControlProcess | None = None,
                  backend: str = "discrete_transpose",
                  npairs: int = 1, seed: int = 0,
                  tol: float = 1e-10,
                  nsteps_list=None, order_tol: float = 0.8) -> CheckReport:
    """Cost-weighted linearized state against the adjoint paired with the
    control direction.

    With the transpose backend the identity is algebraic and must hold to
    rounding. With the continuous backend (additive noise) the residual is
    O(tau) and is reported as a dyadic convergence table instead.
    """
    if backend == "continuous":
        return _check_duality_continuous(problem, es, u, h, seed,
                                         nsteps_list, order_tol)
    pairs = []
    if u is not None and h is not None:
        pairs.append((u, h))
        npairs = 1
    else:
        for j in range(npairs):
            pairs.append((
                random_smooth_control(problem, mix_seed(seed, 2 * j), amplitude=0.5),
                random_smooth_control(problem, mix_seed(seed, 2 * j + 1), amplitude=1.0),
            ))
    paths = es.sample_paths(problem.params)
    rows = []
    worst = 0.0
    for j, (uj, hj) in enumerate(pairs):
        res, lhs, rhs = _duality_residual(problem, uj, hj, paths, backend)
        worst = max(worst, res)
        rows.append({"pair": j, "residual": res, "lhs": lhs, "rhs": rhs})
    return CheckReport(
        name="duality",
        inputs={"backend": backend, "npairs": npairs, "seed": seed,
                "npaths": es.npaths, "base_seed": es.base_seed,
                "noise_kind": problem.params.noise.kind},
        measured={"max_relative_residual": worst},
        tolerance={"max_relative_residual": tol},
        passed=worst <= tol,
        table=tuple(rows),
    )


def _resize_problem(problem: Problem, nsteps: int) -> Problem:
    """Same problem on a different time grid (targets must be resolvable)."""
    p = problem.params
    tg = TimeGrid(p.timegrid.t_final, nsteps)
    params = replace(p, timegrid=tg)
    x_q = problem.x_q
    if x_q is not None:
        x_q = np.asarray(x_q)
        if x_q.ndim == 1 + problem.params.grid.ndims:
            if x_q.shape[0] != nsteps:
                # constant-in-time targets resample trivially; anything else
                # cannot be transferred across time grids
                if (x_q == x_q[:1]).all():
                    x_q = np.repeat(x_q[:1], nsteps, axis=0)
                else:
                    raise ConfigurationError(
                        "cannot transfer a time-varying target across time grids"
                    )
        else:
            raise ConfigurationError(
                "per-path targets cannot be transferred across time grids"
            )
    return replace(problem, params=params, x_q=x_q)


def _check_duality_continuous(problem, es, u, h, seed, nsteps_list, order_tol):
    p = problem.params
    if p.noise.is_multiplicative:
        raise ConfigurationError(
            "the continuous-backend duality trend is defined for additive noise"
        )
    if nsteps_list is None:
        base = p.timegrid.nsteps
        nsteps_list = [base, 2 * base, 4 * base]
    nsteps_list = sorted(int(n) for n in nsteps_list)
    finest = nsteps_list[-1]
    if any(finest % n for n in nsteps_list):
        raise ConfigurationError("coarse step counts must divide the finest")

    # constant-in-time profiles and targets keep the sweep coherent across
    # time grids (random per-step targets have no finer-grid counterpart)
    rng = np.random.default_rng(seed)
    xq_profile = low_pass_field(p.grid, rng, 0.3)
    xt_profile = low_pass_field(p.grid, rng, 0.3)
    problem = replace(
        problem,
        x_q=np.repeat(xq_profile.values[None], p.timegrid.nsteps, axis=0),
        x_t=xt_profile.values,
    )
    if u is None:
        u_profile = low_pass_field(problem.params.grid, rng, 0.5)
    if h is None:
        h_profile = low_pass_field(problem.params.grid, rng, 1.0)

    taus = []
    residuals = []
    for nsteps in nsteps_list:
        prob_n = _resize_problem(problem, nsteps)
        tgn = prob_n.params.timegrid
        if u is None:
            u_n = ControlProcess(prob_n.params.grid, tgn,
                                 np.repeat(u_profile.values[None], nsteps, axis=0))
        else:
            u_n = _retime_control(u, prob_n)
        if h is None:
            h_n = ControlProcess(prob_n.params.grid, tgn,
                                 np.repeat(h_profile.values[None], nsteps, axis=0))
        else:
            h_n = _retime_control(h, prob_n)
        paths = _coupled_paths(prob_n.params.noise, tgn, finest, es)
        residual, _, _ = _duality_residual(prob_n, u_n, h_n, paths, "continuous")
        taus.append(tgn.tau)
        residuals.append(residual)
    order = empirical_order(np.asarray(taus), np.asarray(residuals))
    table = tuple({"tau": t, "residual": r} for t, r in zip(taus, residuals))
    return CheckReport(
        name="duality_continuous",
        inputs={"backend": "continuous", "nsteps_list": list(nsteps_list),
                "seed": seed, "npaths": es.npaths, "base_seed": es.base_seed},
        measured={"empirical_order": order,
                  "finest_residual": residuals[-1]},
        tolerance={"empirical_order": order_tol},
        passed=bool(math.isfinite(order) and order >= order_tol),
        table=table,
    )


def _coupled_paths(noise, tg: TimeGrid, finest: int,
                   es: EnsembleSpec) -> list[WienerPath]:
    """The ensemble's paths on ``tg``, sampled on the finest grid of a
    refinement sweep and aggregated, so every level sees the same Brownian
    motion."""
    fine = TimeGrid(tg.t_final, finest)
    return [aggregate_increments(sample_wiener_path(noise, fine, es.path_seed(i)),
                                 finest // tg.nsteps)
            for i in range(es.npaths)]


def _retime_control(u: ControlProcess, problem: Problem) -> ControlProcess:
    """Reuse a constant-in-time control on a different time grid."""
    tg = problem.params.timegrid
    if u.timegrid == tg:
        return u
    if not (u.values == u.values[:1]).all():
        raise ConfigurationError(
            "only constant-in-time controls transfer across time grids"
        )
    return ControlProcess(u.grid, tg, np.repeat(u.values[:1], tg.nsteps, axis=0))


# ---------------------------------------------------------------------------
# Continuous dependence


def _norm_c0h_l2z(series: np.ndarray, tg: TimeGrid, g: Grid) -> float:
    """max-in-time H norm plus L2-in-time Z norm of a field series."""
    sup_h = float(np.max(norm_h_values(g, series)))
    zsq = sum(float(z) ** 2 for z in norm_z_values(g, series[: tg.nsteps])) * tg.tau
    return float(sup_h + math.sqrt(zsq))


def _refine_params(params: StateParams, mesh_factor: int) -> StateParams:
    if mesh_factor == 1:
        return params
    g = params.grid
    fine = Grid(tuple(n * mesh_factor for n in g.npoints), g.lengths)
    nm = params.noise
    if nm.nmodes == 0:
        noise = no_noise(fine)
    elif nm.is_multiplicative:
        noise = multiplicative_noise(fine, nm.sigmas, nm.mode_indices,
                                     shape=nm.shape_name,
                                     allow_linear_shape=True)
    else:
        noise = additive_noise(fine, nm.sigmas, nm.mode_indices,
                               allow_nonzero_mean_modes=True)
    return replace(params, grid=fine, noise=noise)


def _mean_ratio(y0: Field, u1: np.ndarray, u2: np.ndarray,
                paths: list[WienerPath], params: StateParams, du: float) -> float:
    """Path mean of the state-difference norm over ``du``; one sweep per
    control."""
    t1 = solve_state(y0, u1, paths, params)
    t2 = solve_state(y0, u2, paths, params)
    total = 0.0
    for y1, y2 in zip(t1.ys, t2.ys):
        total += _norm_c0h_l2z(y1 - y2, params.timegrid, params.grid) / du
    return total / len(paths)


def check_lipschitz(problem: Problem, es: EnsembleSpec, npairs: int = 5,
                    seed: int = 0, mesh_factor: int = 2,
                    stability_factor: float = 2.0,
                    pairs=None) -> CheckReport:
    """State-difference to control-difference ratios at two mesh resolutions.

    The continuous theory makes the control-to-state map Lipschitz; the
    computable probe is that the ratios are finite and do not drift by more
    than a fixed factor under one mesh refinement.
    """
    p = problem.params
    tg = p.timegrid
    if pairs is None:
        pairs = []
        for j in range(npairs):
            u1 = random_smooth_control(problem, mix_seed(seed, 2 * j), amplitude=0.7)
            u2 = random_smooth_control(problem, mix_seed(seed, 2 * j + 1), amplitude=0.7)
            pairs.append((u1, u2))
    for u1, u2 in pairs:
        if np.array_equal(u1.values, u2.values):
            raise PreconditionError("control pairs must differ")

    fine_params = _refine_params(p, mesh_factor)
    fine_grid = fine_params.grid
    y0_fine = prolong(problem.y0, fine_grid)

    paths = es.sample_paths(p)
    fine_paths = es.sample_paths(fine_params)
    rows = []
    ratios = {"coarse": [], "fine": []}
    for j, (u1, u2) in enumerate(pairs):
        du = l2q_norm(u1.values - u2.values, tg, p.grid)
        u1f = np.stack([prolong(Field(p.grid, v), fine_grid).values for v in u1.values])
        u2f = np.stack([prolong(Field(p.grid, v), fine_grid).values for v in u2.values])
        r_coarse = _mean_ratio(problem.y0, u1.values, u2.values, paths, p, du)
        r_fine = _mean_ratio(y0_fine, u1f, u2f, fine_paths, fine_params, du)
        ratios["coarse"].append(r_coarse)
        ratios["fine"].append(r_fine)
        rows.append({"pair": j, "ratio_coarse": r_coarse, "ratio_fine": r_fine})

    all_vals = ratios["coarse"] + ratios["fine"]
    finite = all(math.isfinite(v) for v in all_vals)
    drift = max(ratios["fine"]) / max(ratios["coarse"]) if finite else float("inf")
    stable = finite and (1.0 / stability_factor <= drift <= stability_factor)
    return CheckReport(
        name="lipschitz",
        inputs={"npairs": len(pairs), "seed": seed, "npaths": es.npaths,
                "base_seed": es.base_seed, "mesh_factor": mesh_factor},
        measured={"max_ratio_coarse": max(ratios["coarse"]),
                  "max_ratio_fine": max(ratios["fine"]),
                  "refinement_drift": drift, "all_finite": finite},
        tolerance={"stability_factor": stability_factor},
        passed=stable,
        table=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Truncation


def check_truncation(problem: Problem, u: ControlProcess, h: ControlProcess,
                     levels, es: EnsembleSpec) -> CheckReport:
    """Linearized solutions across clamp levels, ensemble-wide.

    Differences between consecutive levels must be nonincreasing, and once
    the top level dominates the observed curvature the solutions must agree
    bit for bit.
    """
    if len(levels) < 2:
        raise ConfigurationError("need at least two truncation levels")
    p = problem.params
    per_level_diffs = None
    top_identical = True
    max_curv = 0.0
    traj = solve_state(problem.y0, u.values, es.sample_paths(p), p)
    for rows in convergence_in_truncation(traj, h.values, levels):
        path_curv = rows[0]["max_curvature"]
        max_curv = max(max_curv, path_curv)
        diffs = np.array([r["difference_l2h"] for r in rows])
        per_level_diffs = diffs if per_level_diffs is None else per_level_diffs + diffs
        if float(rows[-1]["level_high"]) >= path_curv:
            top_identical = top_identical and rows[-1]["identical"]
    per_level_diffs /= es.npaths
    nonincreasing = bool(np.all(np.diff(per_level_diffs) <= 1e-12 * (1 + per_level_diffs[:-1])))
    top_dominates = float(levels[-1]) >= max_curv
    final_zero = (not top_dominates) or (per_level_diffs[-1] == 0.0 and top_identical)
    table = tuple(
        {"level_low": float(a), "level_high": float(b), "mean_difference": float(d)}
        for a, b, d in zip(levels[:-1], levels[1:], per_level_diffs)
    )
    return CheckReport(
        name="truncation",
        inputs={"levels": [float(l) for l in levels], "npaths": es.npaths,
                "base_seed": es.base_seed},
        measured={"mean_differences": [float(d) for d in per_level_diffs],
                  "max_curvature": max_curv,
                  "top_level_dominates": top_dominates,
                  "top_identical": bool(top_identical)},
        tolerance={"monotone": True, "exact_zero_when_dominating": True},
        passed=bool(nonincreasing and final_zero),
        table=table,
    )


# ---------------------------------------------------------------------------
# Moment bounds


def check_moment_bounds(problem: Problem, es: EnsembleSpec,
                        refinements=((1, 1), (2, 2)),
                        stability_factor: float = 2.0) -> CheckReport:
    """Monte Carlo moment estimates under mesh/time refinement.

    Estimates E sup_n |y_n|_H^12, E sum_n tau |y_n|_Z^2, and
    E sup_n |y_n|_V^6 with Brownian paths coupled across refinement levels;
    the estimates must be finite and stable within a fixed factor. A
    blow-up on any path is recorded as a failure, never as NaN.
    """
    base = problem.params
    time_factors = [int(t) for _, t in refinements]
    finest_steps = base.timegrid.nsteps * max(time_factors)
    rows = []
    try:
        for mesh_f, time_f in refinements:
            params = _refine_params(base, int(mesh_f))
            tg = TimeGrid(base.timegrid.t_final, base.timegrid.nsteps * int(time_f))
            params = replace(params, timegrid=tg)
            y0 = prolong(problem.y0, params.grid) if int(mesh_f) != 1 else problem.y0
            m12 = zsq = v6 = 0.0
            paths = _coupled_paths(params.noise, tg, finest_steps, es)
            for ys in solve_state(y0, None, paths, params).ys:
                hs = norm_h_values(params.grid, ys)
                vs = norm_v_values(params.grid, ys)
                zs = norm_z_values(params.grid, ys[: tg.nsteps])
                m12 += float(np.max(hs)) ** 12
                v6 += float(np.max(vs)) ** 6
                zsq += float(np.sum(zs**2) * tg.tau)
            rows.append({
                "mesh_factor": int(mesh_f), "time_factor": int(time_f),
                "sup_h_12": m12 / es.npaths,
                "l2z_sq": zsq / es.npaths,
                "sup_v_6": v6 / es.npaths,
            })
    except BlowUpError as exc:
        return CheckReport(
            name="moment_bounds",
            inputs={"refinements": [list(r) for r in refinements],
                    "npaths": es.npaths, "base_seed": es.base_seed},
            measured={"blow_up": {"step": exc.step, "max_abs": exc.max_abs,
                                  "seed": exc.seed}},
            tolerance={"stability_factor": stability_factor},
            passed=False,
            notes="trajectory blow-up detected; estimates not available",
        )

    finite = all(math.isfinite(r[k]) for r in rows
                 for k in ("sup_h_12", "l2z_sq", "sup_v_6"))
    stable = finite
    for a, b in zip(rows, rows[1:]):
        for k in ("sup_h_12", "l2z_sq", "sup_v_6"):
            lo, hi = sorted((a[k], b[k]))
            if lo <= 0 or hi / lo > stability_factor:
                stable = False
    return CheckReport(
        name="moment_bounds",
        inputs={"refinements": [list(r) for r in refinements],
                "npaths": es.npaths, "base_seed": es.base_seed},
        measured={"levels": rows, "all_finite": finite},
        tolerance={"stability_factor": stability_factor},
        passed=bool(stable),
        table=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Backend consistency


def _backend_gap(y0: Field, u: np.ndarray, x_q: np.ndarray, alphas,
                 paths: list[WienerPath], params: StateParams) -> float:
    """Path mean of the L2(Q) gap between the two backends' ptilde; one
    state sweep and one adjoint sweep per backend, all freed on return."""
    tg = params.timegrid
    traj = solve_state(y0, u, paths, params)
    adj_t = solve_adjoint(traj, x_q, None, alphas, backend="discrete_transpose")
    adj_c = solve_adjoint(traj, x_q, None, alphas, backend="continuous")
    gap = 0.0
    for pt_t, pt_c in zip(adj_t.ptildes, adj_c.ptildes):
        gap += series_l2h_norm(pt_t[: tg.nsteps] - pt_c[: tg.nsteps], tg, params.grid)
    return gap / len(paths)


def check_backend_consistency(problem: Problem, es: EnsembleSpec,
                              nsteps_list=(100, 200, 400, 800), seed: int = 0,
                              order_tol: float = 0.8) -> CheckReport:
    """Continuous vs transpose adjoint agreement as the time step shrinks.

    Runs on additive noise (the continuous backend is unbiased there) with a
    shared Brownian path aggregated across the dyadic sweep; the L2(Q) gap
    between the two ptilde sequences must shrink with order about one.

    The scenario drives the adjoint by the distributed tracking term alone.
    A terminal datum excites a one-node layer in which the backends disagree
    per mode by an amount that saturates once tau*lambda^2 >> 1, polluting
    the observable rate with a square-root component; the interior
    consistency being probed here is the O(tau) statement.
    """
    p = problem.params
    if p.noise.is_multiplicative:
        raise ConfigurationError(
            "backend consistency is measured with additive noise; "
            "pass an additive variant of the problem"
        )
    nsteps_list = sorted(int(n) for n in nsteps_list)
    finest = nsteps_list[-1]
    if any(finest % n for n in nsteps_list):
        raise ConfigurationError("coarse step counts must divide the finest")

    rng = np.random.default_rng(seed)
    xq_field = low_pass_field(p.grid, rng, 0.3)
    u_field = low_pass_field(p.grid, rng, 0.5)
    a1 = problem.alphas[0] if problem.alphas[0] > 0 else 1.0
    alphas = (a1, 0.0, problem.alphas[2])

    taus = []
    gaps = []
    for nsteps in nsteps_list:
        tg = TimeGrid(p.timegrid.t_final, nsteps)
        params = replace(p, timegrid=tg)
        uvals = np.repeat(u_field.values[None], nsteps, axis=0)
        xq = np.repeat(xq_field.values[None], nsteps, axis=0)
        paths = _coupled_paths(params.noise, tg, finest, es)
        taus.append(tg.tau)
        gaps.append(_backend_gap(problem.y0, uvals, xq, alphas, paths, params))
    order = empirical_order(np.asarray(taus), np.asarray(gaps))
    table = tuple({"tau": t, "ptilde_gap_l2q": gv} for t, gv in zip(taus, gaps))
    return CheckReport(
        name="backend_consistency",
        inputs={"nsteps_list": list(nsteps_list), "seed": seed,
                "npaths": es.npaths, "base_seed": es.base_seed,
                "alphas": list(alphas)},
        measured={"empirical_order": order, "finest_gap": gaps[-1]},
        tolerance={"empirical_order": order_tol},
        passed=bool(math.isfinite(order) and order >= order_tol),
        table=table,
        notes="tracking-driven adjoint; terminal data excite a saturated "
              "one-node layer that hides the interior O(tau) rate",
    )
