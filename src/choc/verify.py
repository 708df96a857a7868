"""Executable structural checks: conservation, differentiability, duality,
continuous dependence, truncation convergence, moment probes, and the
consistency of the continuous adjoint with the transpose.

Every check is a pure function of its inputs and seeds and emits a
:class:`CheckReport` whose JSON form is byte-stable across runs. Each claim
has one check, and each check has a negative control exercised by the test
suite, so a vacuous pass cannot hide a wiring bug. A check sweeps its whole
ensemble at once and averages the per-path results. A check that
solves several controls on one ensemble sweeps them together, as rows
controls × paths: Gateaux its base and bumped controls in one sweep,
Lipschitz both controls of a pair per level, and duality its pairs in
chunks of :data:`_DUALITY_CHUNK`, whose size memory bounds. Every row is
bitwise its control's own sweep, so the reports do not depend on the
chunking. The refinement studies (Lipschitz, moment bounds, backend
consistency) build every level with :func:`_level`, so all levels of a
study see the same Brownian motion. The truncation study is the only code
that clamps the potential's curvature: it solves the state once and runs
the linearized sweep once per clamp level, on a potential whose psi'' is
clamped to that level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .control import ControlProcess, EnsembleSpec, Problem, l2q_norm
from .errors import BlowUpError, ConfigurationError, DomainError, PreconditionError
from .grid import (
    Field,
    Grid,
    _dct,
    _idct,
    lap_values,
    low_pass_field,
    low_pass_values,
    norm_h_values,
    norm_v_values,
    norm_z_sq_values,
    prolong,
    prolong_values,
)
from .physics import _build_modes, additive_noise
from .sensitivity import (
    _duality_values,
    _sweep_adjoint,
    _sweep_linearized,
    solve_adjoint,
)
from .state import (
    StateParams,
    TimeGrid,
    Trajectory,
    WienerPath,
    _blocks,
    _generator,
    _sweep_state,
    aggregate_increments,
    mix_seed,
    sample_wiener_path,
    series_l2h_norm,
    solve_state,
    target_values,
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


# The checks' pass criteria, each report's ``tolerance``. The acceptance
# tests pin them through the reports.
_MASS_DRIFT_TOL = 1e-12           # mass conservation: max drift
_GATEAUX_ORDER_TOL = 0.9          # Gateaux: least empirical order in eps
_GATEAUX_FLOOR_FACTOR = 1e-4      # Gateaux: least error, per 1 + |z|
_GATEAUX_EXACT_TOL = 1e-11        # Gateaux: affine dynamics, per 1 + |z|
_DUALITY_TOL = 1e-10              # duality: max relative residual
_LIPSCHITZ_MESH_FACTOR = 2        # Lipschitz: refinement of the fine level
_STABILITY_FACTOR = 2.0           # Lipschitz, moment bounds: drift under refinement
_BACKEND_ORDER_TOL = 0.8          # backend consistency: least order in tau

# Pairs per duality sweep: 16 rows on 8 paths. A 1D sweep is bound by
# dispatch, so more rows cost little time but hold more memory.
_DUALITY_CHUNK = 2


def _jsonable(obj):
    # before the numbers: bool is an int, and np.bool_ is neither
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
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
    if isinstance(obj, str) or obj is None:
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


def random_smooth_control(problem: Problem, seed: int,
                          amplitude: float = 1.0) -> ControlProcess:
    """Spatially smooth, temporally white control with unit-scaled L2 norm."""
    g = problem.params.grid
    tg = problem.params.timegrid
    vals = low_pass_values(g, _generator(seed), 1.0, (tg.nsteps,))
    norm = l2q_norm(vals, tg, g)
    if norm > 0:
        vals *= amplitude / norm
    return ControlProcess(g, tg, vals)


# ---------------------------------------------------------------------------
# Conservation


def check_mass_conservation(problem: Problem, es: EnsembleSpec,
                            u: ControlProcess | None = None) -> CheckReport:
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
        tolerance={"max_mass_drift": _MASS_DRIFT_TOL},
        passed=worst <= _MASS_DRIFT_TOL,
    )


# ---------------------------------------------------------------------------
# Differentiability


def check_gateaux(problem: Problem, u: ControlProcess, h: ControlProcess,
                  eps_list=(1e-1, 1e-2, 1e-3, 1e-4), path_seed: int = 0,
                  npaths: int = 2) -> CheckReport:
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
    paths = EnsembleSpec(npaths, path_seed).sample_paths(p)
    # one sweep of the base control and every bumped one
    controls = np.stack([u.values] + [u.values + eps * h.values for eps in eps_list])
    ys = _sweep_state(problem.y0.values, controls, paths, p)
    ys = ys.reshape((len(controls), npaths) + ys.shape[1:])
    base, bumped = ys[0], ys[1:]
    zs = _sweep_linearized(base, h.values[None], paths, p)[:, : tg.nsteps]
    for z in zs:
        z_norm += series_l2h_norm(z, tg, g)
    for j, eps in enumerate(eps_list):
        for i in range(npaths):
            quotient = (bumped[j, i] - base[i]) / eps
            errors[j] += series_l2h_norm(quotient[: tg.nsteps] - zs[i], tg, g)
    errors /= npaths
    z_norm /= npaths

    order = empirical_order(np.asarray(eps_list), errors)
    exact_bound = _GATEAUX_EXACT_TOL * (1.0 + z_norm)
    floor_bound = _GATEAUX_FLOOR_FACTOR * (1.0 + z_norm)
    exact = bool(np.max(errors) <= exact_bound)
    floor_ok = bool(np.min(errors) <= floor_bound)
    passed = exact or (math.isfinite(order) and order >= _GATEAUX_ORDER_TOL
                       and floor_ok)
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
        tolerance={"empirical_order": _GATEAUX_ORDER_TOL, "min_error": floor_bound,
                   "exact_linearity_error": exact_bound},
        passed=passed,
        table=table,
        notes="error measured per path in the strong L2(0,T;H) distance",
    )


# ---------------------------------------------------------------------------
# Duality


def _duality_residual(lhs: np.ndarray, rhs: np.ndarray):
    """The ensemble duality residual of one pair from both sides on each
    path, (npaths,) each: (relative residual, mean lhs, mean rhs)."""
    lhs_total = float(lhs.mean())
    rhs_total = float(rhs.mean())
    scale = max(abs(lhs_total), abs(rhs_total), 1e-300)
    return abs(lhs_total - rhs_total) / scale, lhs_total, rhs_total


def _duality_sides(problem: Problem, us: np.ndarray, hs: np.ndarray,
                   paths: list[WienerPath]) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the duality identity for the pairs (us[j], hs[j]) on
    every path, (npairs, npaths) each, from independent code paths: one
    state, linearized and adjoint sweep of the rows pairs × paths."""
    p = problem.params
    xq, xt = target_values(problem.x_q, problem.x_t, problem.alphas, p.timegrid,
                           p.grid, len(paths))
    ys = _sweep_state(problem.y0.values, us, paths, p)
    zs = _sweep_linearized(ys, hs, paths, p)
    pts = _sweep_adjoint(ys, paths, xq, xt, problem.alphas, p)
    lhs, rhs = _duality_values(ys, zs, pts, hs, xq, xt, problem.alphas, p)
    return lhs.reshape(len(us), -1), rhs.reshape(len(us), -1)


def check_duality(problem: Problem, es: EnsembleSpec,
                  u: ControlProcess | None = None,
                  h: ControlProcess | None = None,
                  npairs: int = 1, seed: int = 0) -> CheckReport:
    """Cost-weighted linearized state against the transpose adjoint paired
    with the control direction.

    The identity is algebraic and must hold to rounding on every pair: the
    given ``u`` and ``h``, or else ``npairs`` random smooth pairs drawn from
    ``seed``. The pairs are solved :data:`_DUALITY_CHUNK` at a time, and a
    chunk's controls are drawn when it runs. The continuous adjoint's O(tau)
    agreement with the transpose is measured by
    :func:`check_backend_consistency`.
    """
    if (u is None) != (h is None):
        raise ConfigurationError(
            "check_duality takes both a control u and a direction h, or neither"
        )
    if u is not None:
        npairs = 1

    def pair(j):
        """The j-th (u, h), drawn when its chunk runs."""
        if u is not None:
            return u.values, h.values
        return (random_smooth_control(problem, mix_seed(seed, 2 * j), 0.5).values,
                random_smooth_control(problem, mix_seed(seed, 2 * j + 1), 1.0).values)

    paths = es.sample_paths(problem.params)
    rows = []
    worst = 0.0
    for start in range(0, npairs, _DUALITY_CHUNK):
        chunk = range(start, min(start + _DUALITY_CHUNK, npairs))
        us, hs = (np.stack(c) for c in zip(*map(pair, chunk)))
        for j, lhs, rhs in zip(chunk, *_duality_sides(problem, us, hs, paths)):
            res, lhs_mean, rhs_mean = _duality_residual(lhs, rhs)
            worst = max(worst, res)
            rows.append({"pair": j, "residual": res, "lhs": lhs_mean, "rhs": rhs_mean})
    return CheckReport(
        name="duality",
        inputs={"backend": "discrete_transpose", "npairs": npairs, "seed": seed,
                "npaths": es.npaths, "base_seed": es.base_seed,
                "noise_kind": problem.params.noise.kind},
        measured={"max_relative_residual": worst},
        tolerance={"max_relative_residual": _DUALITY_TOL},
        passed=worst <= _DUALITY_TOL,
        table=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Refinement levels


def _level(problem: Problem, es: EnsembleSpec, mesh_factor: int, nsteps: int,
           finest: int) -> tuple[StateParams, Field, list[WienerPath]]:
    """One level of a refinement study: the state parameters on a grid
    refined ``mesh_factor`` times per axis with ``nsteps`` time steps, the
    initial datum on that grid, and the ensemble's paths, sampled on
    ``finest`` steps and aggregated, so every level sees the same Brownian
    motion."""
    if finest % nsteps:
        raise ConfigurationError("coarse step counts must divide the finest")
    p = problem.params
    grid, noise, y0 = p.grid, p.noise, problem.y0
    if mesh_factor != 1:
        grid = Grid(tuple(n * mesh_factor for n in grid.npoints), grid.lengths)
        noise = replace(noise, grid=grid, modes=_build_modes(grid, noise.mode_indices))
        y0 = prolong(y0, grid)
    params = replace(p, grid=grid, noise=noise,
                     timegrid=TimeGrid(p.timegrid.t_final, nsteps))
    fine = TimeGrid(p.timegrid.t_final, finest)
    paths = [aggregate_increments(sample_wiener_path(noise, fine, es.path_seed(i)),
                                  finest // nsteps)
             for i in range(es.npaths)]
    return params, y0, paths


# ---------------------------------------------------------------------------
# Continuous dependence


def _norm_c0h_l2z(series: np.ndarray, tg: TimeGrid, g: Grid) -> float:
    """max-in-time H norm plus L2-in-time Z norm of a field series."""
    sup_h = float(np.max(norm_h_values(g, series)))
    zsq = float(np.sum(norm_z_sq_values(g, series[: tg.nsteps]))) * tg.tau
    return float(sup_h + math.sqrt(zsq))


def _mean_ratio(y0: Field, us: np.ndarray, paths: list[WienerPath],
                params: StateParams, du: float) -> float:
    """Path mean of the state-difference norm of the two controls ``us``
    over ``du``; one sweep of both."""
    ys = _sweep_state(y0.values, us, paths, params)
    total = 0.0
    for y1, y2 in zip(ys[: len(paths)], ys[len(paths):]):
        total += _norm_c0h_l2z(y1 - y2, params.timegrid, params.grid) / du
    return total / len(paths)


def check_lipschitz(problem: Problem, es: EnsembleSpec, npairs: int = 5,
                    seed: int = 0, pairs=None) -> CheckReport:
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

    params, y0, paths = _level(problem, es, 1, tg.nsteps, tg.nsteps)
    fine_params, y0_fine, fine_paths = _level(problem, es, _LIPSCHITZ_MESH_FACTOR,
                                              tg.nsteps, tg.nsteps)
    fine_grid = fine_params.grid
    rows = []
    ratios = {"coarse": [], "fine": []}
    for j, (u1, u2) in enumerate(pairs):
        du = l2q_norm(u1.values - u2.values, tg, p.grid)
        us = np.stack([u1.values, u2.values])
        r_coarse = _mean_ratio(y0, us, paths, params, du)
        r_fine = _mean_ratio(y0_fine, prolong_values(p.grid, us, fine_grid),
                             fine_paths, fine_params, du)
        ratios["coarse"].append(r_coarse)
        ratios["fine"].append(r_fine)
        rows.append({"pair": j, "ratio_coarse": r_coarse, "ratio_fine": r_fine})

    all_vals = ratios["coarse"] + ratios["fine"]
    finite = all(math.isfinite(v) for v in all_vals)
    drift = max(ratios["fine"]) / max(ratios["coarse"]) if finite else float("inf")
    stable = finite and (1.0 / _STABILITY_FACTOR <= drift <= _STABILITY_FACTOR)
    return CheckReport(
        name="lipschitz",
        inputs={"npairs": len(pairs), "seed": seed, "npaths": es.npaths,
                "base_seed": es.base_seed, "mesh_factor": _LIPSCHITZ_MESH_FACTOR},
        measured={"max_ratio_coarse": max(ratios["coarse"]),
                  "max_ratio_fine": max(ratios["fine"]),
                  "refinement_drift": drift, "all_finite": finite},
        tolerance={"stability_factor": _STABILITY_FACTOR},
        passed=stable,
        table=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Truncation


def check_truncation(problem: Problem, u: ControlProcess, h: ControlProcess,
                     levels, es: EnsembleSpec) -> CheckReport:
    """Linearized solutions across curvature clamp levels, ensemble-wide.

    The state is solved once, and at each level L the linearized sweep runs
    on a potential whose psi'' is clamped to [-L, L]. Differences between
    consecutive levels must be nonincreasing, and once the top level
    dominates the observed curvature the solutions must agree bit for bit.
    """
    levels = [float(level) for level in levels]
    if len(levels) < 2:
        raise ConfigurationError("need at least two truncation levels")
    for level in levels:
        if not level > 0:
            raise DomainError(f"truncation level must be positive, got {level}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigurationError("truncation levels must be strictly increasing")
    p = problem.params
    paths = es.sample_paths(p)
    ys = solve_state(problem.y0, u.values, paths, p).ys
    psi_second = p.potential.psi_second

    def sweep(level):
        """The linearized sweep with psi'' clamped to [-level, level]."""
        clamped = replace(p.potential, psi_second=lambda r: np.clip(
            psi_second(r), -level, level))
        return _sweep_linearized(ys, h.values[None], paths,
                                 replace(p, potential=clamped))

    zs = [sweep(level) for level in levels]
    path_curv = [float(np.max(np.abs(psi_second(y)))) for y in ys]
    max_curv = max([0.0] + path_curv)
    per_level_diffs = np.zeros(len(levels) - 1)
    for i in range(es.npaths):
        per_level_diffs += [series_l2h_norm(zb[i, 1:] - za[i, 1:], p.timegrid, p.grid)
                            for za, zb in zip(zs, zs[1:])]
    per_level_diffs /= es.npaths
    top_identical = all(np.array_equal(zs[-2][i], zs[-1][i])
                        for i, curv in enumerate(path_curv) if levels[-1] >= curv)
    nonincreasing = bool(np.all(np.diff(per_level_diffs) <= 1e-12 * (1 + per_level_diffs[:-1])))
    top_dominates = levels[-1] >= max_curv
    final_zero = (not top_dominates) or (per_level_diffs[-1] == 0.0 and top_identical)
    table = tuple(
        {"level_low": a, "level_high": b, "mean_difference": float(d)}
        for a, b, d in zip(levels[:-1], levels[1:], per_level_diffs)
    )
    return CheckReport(
        name="truncation",
        inputs={"levels": levels, "npaths": es.npaths,
                "base_seed": es.base_seed},
        measured={"mean_differences": [float(d) for d in per_level_diffs],
                  "max_curvature": max_curv,
                  "top_level_dominates": top_dominates,
                  "top_identical": top_identical},
        tolerance={"monotone": True, "exact_zero_when_dominating": True},
        passed=bool(nonincreasing and final_zero),
        table=table,
    )


# ---------------------------------------------------------------------------
# Moment bounds


def check_moment_bounds(problem: Problem, es: EnsembleSpec,
                        refinements=((1, 1), (2, 2))) -> CheckReport:
    """Monte Carlo moment estimates under mesh/time refinement.

    Estimates E sup_n |y_n|_H^12, E sum_n tau |y_n|_Z^2, and
    E sup_n |y_n|_V^6 with Brownian paths coupled across refinement levels;
    the estimates must be finite and stable within a fixed factor. A
    blow-up on any path is recorded as a failure, never as NaN.
    """
    nsteps = problem.params.timegrid.nsteps
    finest = nsteps * max(int(t) for _, t in refinements)
    rows = []
    try:
        for mesh_f, time_f in refinements:
            params, y0, paths = _level(problem, es, int(mesh_f),
                                       nsteps * int(time_f), finest)
            tg = params.timegrid
            m12 = zsq = v6 = 0.0
            for ys in solve_state(y0, None, paths, params).ys:
                hs = norm_h_values(params.grid, ys)
                vs = norm_v_values(params.grid, ys)
                m12 += float(np.max(hs)) ** 12
                v6 += float(np.max(vs)) ** 6
                zsq += float(np.sum(norm_z_sq_values(params.grid, ys[: tg.nsteps]))
                             * tg.tau)
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
            tolerance={"stability_factor": _STABILITY_FACTOR},
            passed=False,
            notes="trajectory blow-up detected; estimates not available",
        )

    finite = all(math.isfinite(r[k]) for r in rows
                 for k in ("sup_h_12", "l2z_sq", "sup_v_6"))
    stable = finite
    for a, b in zip(rows, rows[1:]):
        for k in ("sup_h_12", "l2z_sq", "sup_v_6"):
            lo, hi = sorted((a[k], b[k]))
            if lo <= 0 or hi / lo > _STABILITY_FACTOR:
                stable = False
    return CheckReport(
        name="moment_bounds",
        inputs={"refinements": [list(r) for r in refinements],
                "npaths": es.npaths, "base_seed": es.base_seed},
        measured={"levels": rows, "all_finite": finite},
        tolerance={"stability_factor": _STABILITY_FACTOR},
        passed=bool(stable),
        table=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Backend consistency


def _continuous_ptildes(traj: Trajectory, x_q: np.ndarray, a1: float) -> np.ndarray:
    """ptilde at the step starts of every path, shape (npaths, nsteps,
    *grid.shape), from a direct backward discretization of the continuous
    adjoint equation with the martingale term dropped, driven by the shared
    tracking target ``x_q`` alone: from p_N = 0 and ptilde_N = 0,

        (I + tau*Lap^2 - tau*S*Lap) p_n
            = p_{n+1} - tau*(psi''(y_n) - S)*ptilde_{n+1} + tau*a1*(y_n - xQ_n),
        ptilde_n = -Lap p_n,

    For additive noise it differs from the transpose sweep by a one-step
    shift of coefficients, an O(tau) gap. It is the reference of
    :func:`check_backend_consistency` and nothing else.
    """
    p = traj.params
    g = p.grid
    axes = g.axes
    tau = p.timegrid.tau
    s = p.stabilization
    ys = np.moveaxis(traj.ys, 1, 0)
    ptildes = np.empty(traj.ys[:, :-1].shape)
    pts_n = np.moveaxis(ptildes, 1, 0)
    pv = pt = np.zeros(ys.shape[1:])
    for n0, n1 in reversed(_blocks(p.timegrid.nsteps, pv)):
        # the block's tau*(psi''(y_n) - S) and tau*a1*(y_n - xQ_n)
        coef = tau * (p.potential.psi_second(ys[n0:n1]) - s)
        forcing = tau * (a1 * (ys[n0:n1] - x_q[n0:n1, None]))
        for j in range(n1 - n0 - 1, -1, -1):
            rhs = pv - coef[j] * pt + forcing[j]
            pv = _idct(_dct(rhs, axes) / p.implicit_symbol, axes)
            pt = pts_n[n0 + j] = -lap_values(g, pv)
    return ptildes


def _adjoint_gap(y0: Field, u: np.ndarray, x_q: np.ndarray, alphas,
                 paths: list[WienerPath], params: StateParams) -> float:
    """Path mean of the L2(Q) gap between the transpose and the continuous
    ptilde; one state sweep and one sweep of each adjoint, all freed on
    return."""
    tg = params.timegrid
    traj = solve_state(y0, u, paths, params)
    adj = solve_adjoint(traj, x_q, None, alphas)
    gap = 0.0
    for pt_t, pt_c in zip(adj.ptildes, _continuous_ptildes(traj, x_q, alphas[0])):
        gap += series_l2h_norm(pt_t[: tg.nsteps] - pt_c, tg, params.grid)
    return gap / len(paths)


def check_backend_consistency(problem: Problem, es: EnsembleSpec,
                              nsteps_list=(100, 200, 400, 800),
                              seed: int = 0) -> CheckReport:
    """Continuous vs transpose adjoint agreement as the time step shrinks.

    The continuous adjoint is this check's private reference,
    :func:`_continuous_ptildes`. The claim is about additive noise, where
    the continuous scheme is unbiased, so a problem with multiplicative
    noise is measured on its additive variant, with the same modes and
    amplitudes. A shared Brownian path is aggregated across the dyadic
    sweep, and the L2(Q) gap between the two ptilde sequences must shrink
    with order about one.

    The scenario drives the adjoint by the distributed tracking term alone.
    A terminal datum excites a one-node layer in which the adjoints disagree
    per mode by an amount that saturates once tau*lambda^2 >> 1, polluting
    the observable rate with a square-root component; the interior
    consistency being probed here is the O(tau) statement.
    """
    p = problem.params
    nm = p.noise
    if nm.is_multiplicative:
        p = replace(p, noise=additive_noise(p.grid, nm.sigmas, nm.mode_indices))
        problem = replace(problem, params=p)
    nsteps_list = sorted(int(n) for n in nsteps_list)
    finest = nsteps_list[-1]

    rng = _generator(seed)
    xq_field = low_pass_field(p.grid, rng, 0.3)
    u_field = low_pass_field(p.grid, rng, 0.5)
    a1 = problem.alphas[0] if problem.alphas[0] > 0 else 1.0
    alphas = (a1, 0.0, problem.alphas[2])

    taus = []
    gaps = []
    for nsteps in nsteps_list:
        params, y0, paths = _level(problem, es, 1, nsteps, finest)
        uvals = np.repeat(u_field.values[None], nsteps, axis=0)
        xq = np.repeat(xq_field.values[None], nsteps, axis=0)
        taus.append(params.timegrid.tau)
        gaps.append(_adjoint_gap(y0, uvals, xq, alphas, paths, params))
    order = empirical_order(np.asarray(taus), np.asarray(gaps))
    table = tuple({"tau": t, "ptilde_gap_l2q": gv} for t, gv in zip(taus, gaps))
    return CheckReport(
        name="backend_consistency",
        inputs={"nsteps_list": list(nsteps_list), "seed": seed,
                "npaths": es.npaths, "base_seed": es.base_seed,
                "alphas": list(alphas)},
        measured={"empirical_order": order, "finest_gap": gaps[-1]},
        tolerance={"empirical_order": _BACKEND_ORDER_TOL},
        passed=bool(math.isfinite(order) and order >= _BACKEND_ORDER_TOL),
        table=table,
        notes="tracking-driven adjoint; terminal data excite a saturated "
              "one-node layer that hides the interior O(tau) rate",
    )
