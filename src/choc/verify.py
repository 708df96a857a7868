"""Executable structural checks of the identities behind the first-order
optimality conditions: mass conservation, Gateaux differentiability of the
control-to-state map, duality of the linearized and adjoint systems,
Lipschitz dependence on the control, convergence under a clamp of the
potential's curvature, moment bounds under refinement, and the agreement of
the transpose adjoint with a discretization of the continuous one.

Each check is a pure function of its inputs and seeds that returns a
:class:`CheckReport`, whose JSON form is byte-stable across runs, and has a
negative control in the test suite, so a vacuous pass cannot hide a wiring
bug. The Gateaux check's bump sizes and the moment bounds' refinement
levels are constants beside the tolerances; the ladders that stay
parameters are the truncation levels and the step counts of the backend
consistency check. A count or a ladder that a check cannot measure on is a
:class:`~choc.errors.ConfigurationError`. :func:`suite` is the one
definition of the suite that ``choc verify`` runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .control import ControlProcess, EnsembleSpec, Problem, l2q_norm
from .errors import BlowUpError, ConfigurationError
from .grid import (
    Grid,
    _node_map,
    low_pass_values,
    norm_h_values,
    norm_v_values,
    norm_z_sq_values,
    prolong_values,
)
from .physics import _build_modes, additive_noise
from .sensitivity import (
    _duality_lhs,
    _duality_rhs,
    _sweep_adjoint,
    _sweep_linearized,
    solve_adjoint,
)
from .state import (
    StateParams,
    TimeGrid,
    Trajectory,
    WienerPaths,
    _blocks,
    _generator,
    _sweep_state,
    aggregate_increments,
    mix_seed,
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
    "default_direction",
    "empirical_order",
    "suite",
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

# The ladders that ``choc verify`` measures along and no caller changes:
# the Gateaux check's bump sizes, and the moment bounds' refinement levels,
# each (mesh factor, time factor) of the problem's grid and step count.
_GATEAUX_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
_MOMENT_REFINEMENTS = ((1, 1), (2, 2))

# Byte budget of the sweep outputs a duality or Lipschitz check holds at
# once (see :func:`_pair_chunks`): 5 pairs of the default 1D problem's 8
# paths, one pair of a 64 x 64 grid's. A 1D sweep is bound by dispatch, so
# more rows per sweep cost little time but hold more memory.
_SWEEP_BYTES = 1 << 23


def _pair_chunks(npairs: int, params: StateParams, npaths: int) -> list[range]:
    """The chunks of pairs 0..npairs-1 in order, each as many pairs as the
    budget allows when a pair holds two sweep outputs of ``npaths`` rows.
    Every row of a sweep is bitwise its control's own sweep, so a report
    does not depend on the chunking."""
    pair_bytes = 2 * npaths * (params.timegrid.nsteps + 1) * params.grid.size * 8
    size = max(1, _SWEEP_BYTES // pair_bytes)
    return [range(j0, min(j0 + size, npairs)) for j0 in range(0, npairs, size)]


def _require_count(name: str, n: int) -> None:
    """Raise a :class:`ConfigurationError` naming ``name`` when the count
    ``n`` is below 1: a check that measures nothing cannot pass."""
    if n < 1:
        raise ConfigurationError(f"{name} must be at least 1, got {n}")


def _require_ladder(name: str, ladder: list) -> None:
    """Raise a :class:`ConfigurationError` naming ``name`` unless the
    ``ladder`` that a check fits an order or compares levels along has at
    least two entries, each positive, strictly increasing."""
    if len(ladder) < 2:
        raise ConfigurationError(f"need at least two {name}, got {len(ladder)}")
    if not all(entry > 0 for entry in ladder):
        raise ConfigurationError(f"{name} must be positive, got {ladder}")
    if not all(a < b for a, b in zip(ladder, ladder[1:])):
        raise ConfigurationError(f"{name} must be strictly increasing, got {ladder}")


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


def _drawn_pair(problem: Problem, seed: int, j: int, amplitudes) -> list[np.ndarray]:
    """The values of the j-th pair of random smooth controls that the
    duality and Lipschitz checks draw from ``seed``: the seeds
    ``mix_seed(seed, 2j)`` and ``mix_seed(seed, 2j + 1)``, at the two
    ``amplitudes``."""
    return [random_smooth_control(problem, mix_seed(seed, 2 * j + i), a).values
            for i, a in enumerate(amplitudes)]


def default_direction(problem: Problem, es: EnsembleSpec) -> ControlProcess:
    """The direction h of the suite's Gateaux and truncation checks and of
    ``choc linearize`` and ``choc adjoint``, drawn from the base seed."""
    return random_smooth_control(problem, es.base_seed ^ 0x5EED, amplitude=1.0)


def suite(problem: Problem, es: EnsembleSpec, u0: ControlProcess) -> dict:
    """``choc verify``'s suite on ``problem`` and ``es`` at the base control
    ``u0``: each check's name, in the command's order, mapped to a callable
    of no arguments that returns the check's report. An argument not given
    here is the check's default."""
    h = default_direction(problem, es)
    seed = es.base_seed
    return {
        "mass_conservation": lambda: check_mass_conservation(problem, es),
        "gateaux": lambda: check_gateaux(problem, u0, h, path_seed=seed,
                                         npaths=min(2, es.npaths)),
        "duality": lambda: check_duality(problem, es, npairs=20, seed=seed),
        "lipschitz": lambda: check_lipschitz(problem, es, seed=seed),
        "truncation": lambda: check_truncation(problem, u0, h,
                                               (2.0, 8.0, 32.0, 128.0), es),
        "moment_bounds": lambda: check_moment_bounds(problem, es),
        "backend_consistency": lambda: check_backend_consistency(problem, es, seed=seed),
    }


# ---------------------------------------------------------------------------
# Conservation


def check_mass_conservation(problem: Problem, es: EnsembleSpec) -> CheckReport:
    """Mass drift along uncontrolled stochastic paths must stay at rounding level.

    The Laplacian term is mean-free under Neumann conditions and so is any
    mean-free noise; a constant noise mode (negative control) shows up here
    as a macroscopic drift.
    """
    traj = solve_state(problem.y0, None, es.sample_paths(problem.params),
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
                  path_seed: int = 0, npaths: int = 2) -> CheckReport:
    """Difference quotients of the control-to-state map against the
    linearized solution, path by path with common noise, at the bump sizes
    eps of ``_GATEAUX_EPS``.

    The error e(eps) must shrink linearly in eps; when the potential has
    constant curvature the dynamics are affine in the control and e(eps)
    sits at rounding level for every eps, which counts as a pass.
    """
    p = problem.params
    tg = p.timegrid
    g = p.grid
    errors = np.zeros(len(_GATEAUX_EPS))
    z_norm = 0.0
    paths = EnsembleSpec(npaths, path_seed).sample_paths(p)
    # one sweep of the base control and every bumped one
    controls = np.stack([u.values] + [u.values + eps * h.values for eps in _GATEAUX_EPS])
    ys = _sweep_state(problem.y0, controls, paths, p)
    ys = ys.reshape((len(controls), npaths) + ys.shape[1:])
    base, bumped = ys[0], ys[1:]
    zs = _sweep_linearized(base, h.values[None], paths, p)[:, : tg.nsteps]
    for z in zs:
        z_norm += series_l2h_norm(z, tg, g)
    for j, eps in enumerate(_GATEAUX_EPS):
        for i in range(npaths):
            quotient = (bumped[j, i] - base[i]) / eps
            errors[j] += series_l2h_norm(quotient[: tg.nsteps] - zs[i], tg, g)
    errors /= npaths
    z_norm /= npaths

    order = empirical_order(np.asarray(_GATEAUX_EPS), errors)
    exact_bound = _GATEAUX_EXACT_TOL * (1.0 + z_norm)
    floor_bound = _GATEAUX_FLOOR_FACTOR * (1.0 + z_norm)
    exact = bool(np.max(errors) <= exact_bound)
    floor_ok = bool(np.min(errors) <= floor_bound)
    passed = exact or (math.isfinite(order) and order >= _GATEAUX_ORDER_TOL
                       and floor_ok)
    table = tuple(
        {"eps": float(e), "error_l2h": float(err)}
        for e, err in zip(_GATEAUX_EPS, errors)
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
                   paths: WienerPaths) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the duality identity for the pairs (us[j], hs[j]) on
    every path, (npairs, npaths) each, from independent code paths: one
    state, adjoint and linearized sweep of the rows pairs × paths, in that
    order. Each side is reduced before the next sweep, so the states and
    one other sweep output are held at a time."""
    p = problem.params
    alphas = problem.alphas
    xq, xt = target_values(problem.x_q, problem.x_t, alphas, p.timegrid,
                           p.grid, paths.npaths)
    ys = _sweep_state(problem.y0, us, paths, p)
    lhs = _duality_lhs(_sweep_adjoint(ys, paths, xq, xt, alphas, p), hs, p)
    rhs = _duality_rhs(ys, _sweep_linearized(ys, hs, paths, p), paths.npaths,
                       xq, xt, alphas, p)
    return lhs.reshape(len(us), -1), rhs.reshape(len(us), -1)


def check_duality(problem: Problem, es: EnsembleSpec, npairs: int = 1,
                  seed: int = 0) -> CheckReport:
    """Cost-weighted linearized state against the transpose adjoint paired
    with the control direction.

    The identity is algebraic and must hold to rounding on every one of
    ``npairs`` random smooth pairs drawn from ``seed``; a given pair's two
    sides are :func:`~choc.sensitivity.duality_terms`. The pairs are solved
    in the chunks of :func:`_pair_chunks`, and a chunk's controls are drawn
    when it runs. A NaN residual fails the check. The continuous adjoint's
    O(tau) agreement with the transpose is measured by
    :func:`check_backend_consistency`.
    """
    _require_count("npairs", npairs)
    paths = es.sample_paths(problem.params)
    rows = []
    for chunk in _pair_chunks(npairs, problem.params, paths.npaths):
        pairs = [_drawn_pair(problem, seed, j, (0.5, 1.0)) for j in chunk]
        us, hs = (np.stack(c) for c in zip(*pairs))
        for j, lhs, rhs in zip(chunk, *_duality_sides(problem, us, hs, paths)):
            res, lhs_mean, rhs_mean = _duality_residual(lhs, rhs)
            rows.append({"pair": j, "residual": res, "lhs": lhs_mean, "rhs": rhs_mean})
    # np.max, unlike max, keeps a NaN residual, which then fails the check
    worst = float(np.max([row["residual"] for row in rows]))
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
           finest: int) -> tuple[StateParams, np.ndarray, WienerPaths]:
    """One level of a refinement study: the state parameters on a grid
    refined ``mesh_factor`` times per axis with ``nsteps`` time steps, the
    initial datum on that grid, and the ensemble's paths, sampled on
    ``finest`` steps and aggregated, so every level sees the same Brownian
    motion. A study's levels are a constant ladder or pass
    :func:`_require_ladder` first."""
    if finest % nsteps:
        raise ConfigurationError("coarse step counts must divide the finest")
    p = problem.params
    grid, noise, y0 = p.grid, p.noise, problem.y0
    if mesh_factor != 1:
        grid = Grid(tuple(n * mesh_factor for n in grid.npoints), grid.lengths)
        noise = replace(noise, grid=grid, modes=_build_modes(grid, noise.mode_indices))
        y0 = prolong_values(p.grid, y0, grid)
    params = replace(p, grid=grid, noise=noise,
                     timegrid=TimeGrid(p.timegrid.t_final, nsteps))
    fine = TimeGrid(p.timegrid.t_final, finest)
    paths = aggregate_increments(es.sample_paths(replace(params, timegrid=fine)),
                                 finest // nsteps)
    return params, y0, paths


# ---------------------------------------------------------------------------
# Continuous dependence


def _norm_c0h_l2z(series: np.ndarray, tg: TimeGrid, g: Grid) -> float:
    """max-in-time H norm plus L2-in-time Z norm of a field series."""
    sup_h = float(np.max(norm_h_values(g, series)))
    zsq = float(np.sum(norm_z_sq_values(g, series[: tg.nsteps]))) * tg.tau
    return float(sup_h + math.sqrt(zsq))


def _mean_ratios(y0: np.ndarray, us: np.ndarray, paths: WienerPaths,
                 params: StateParams, dus) -> list[float]:
    """For each pair j of controls (us[2j], us[2j+1]), the path mean of
    their state-difference norm over ``dus[j]``; one sweep of all."""
    ys = _sweep_state(y0, us, paths, params)
    ratios = []
    for pair, du in zip(ys.reshape((len(dus), 2, paths.npaths) + ys.shape[1:]), dus):
        total = 0.0
        for y1, y2 in zip(*pair):
            total += _norm_c0h_l2z(y1 - y2, params.timegrid, params.grid) / du
        ratios.append(total / paths.npaths)
    return ratios


def check_lipschitz(problem: Problem, es: EnsembleSpec, npairs: int = 5,
                    seed: int = 0) -> CheckReport:
    """State-difference to control-difference ratios at two mesh resolutions.

    The continuous theory makes the control-to-state map Lipschitz; the
    computable probe is that the ratios of ``npairs`` random smooth pairs
    drawn from ``seed`` are finite and do not drift by more than a fixed
    factor under one mesh refinement. Each level sweeps the pairs in the
    chunks of :func:`_pair_chunks`, one level after the other.
    """
    _require_count("npairs", npairs)
    p = problem.params
    tg = p.timegrid
    pairs = [_drawn_pair(problem, seed, j, (0.7, 0.7)) for j in range(npairs)]
    dus = [l2q_norm(u1 - u2, tg, p.grid) for u1, u2 in pairs]
    ratios = {"coarse": [], "fine": []}
    for level, mesh_factor in (("coarse", 1), ("fine", _LIPSCHITZ_MESH_FACTOR)):
        params, y0, paths = _level(problem, es, mesh_factor, tg.nsteps, tg.nsteps)
        for chunk in _pair_chunks(npairs, params, paths.npaths):
            us = np.stack([u for j in chunk for u in pairs[j]])
            if mesh_factor != 1:
                us = prolong_values(p.grid, us, params.grid)
            ratios[level] += _mean_ratios(y0, us, paths, params,
                                          [dus[j] for j in chunk])
    rows = [{"pair": j, "ratio_coarse": r_coarse, "ratio_fine": r_fine}
            for j, (r_coarse, r_fine) in enumerate(zip(ratios["coarse"],
                                                       ratios["fine"]))]

    finite = all(math.isfinite(v) for v in ratios["coarse"] + ratios["fine"])
    # all-zero coarse ratios (a state that does not see the control) drift unboundedly
    coarse = max(ratios["coarse"])
    drift = max(ratios["fine"]) / coarse if finite and coarse > 0 else float("inf")
    stable = 1.0 / _STABILITY_FACTOR <= drift <= _STABILITY_FACTOR
    return CheckReport(
        name="lipschitz",
        inputs={"npairs": npairs, "seed": seed, "npaths": es.npaths,
                "base_seed": es.base_seed, "mesh_factor": _LIPSCHITZ_MESH_FACTOR},
        measured={"max_ratio_coarse": coarse,
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
    # an infinite level clamps nothing
    _require_ladder("truncation levels", levels)
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


def check_moment_bounds(problem: Problem, es: EnsembleSpec) -> CheckReport:
    """Monte Carlo moment estimates under the mesh/time refinements of
    ``_MOMENT_REFINEMENTS``.

    Estimates E sup_n |y_n|_H^12, E sum_n tau |y_n|_Z^2, and
    E sup_n |y_n|_V^6 with Brownian paths coupled across refinement levels;
    the estimates must be finite and stable within a fixed factor. A
    blow-up on any path is recorded as a failure, never as NaN.
    """
    nsteps = problem.params.timegrid.nsteps
    levels = [(mesh_f, nsteps * time_f) for mesh_f, time_f in _MOMENT_REFINEMENTS]
    report = partial(CheckReport, name="moment_bounds",
                     inputs={"refinements": [list(r) for r in _MOMENT_REFINEMENTS],
                             "npaths": es.npaths, "base_seed": es.base_seed},
                     tolerance={"stability_factor": _STABILITY_FACTOR})
    rows = []
    try:
        for mesh, steps in levels:
            params, y0, paths = _level(problem, es, mesh, steps, levels[-1][1])
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
                "mesh_factor": mesh, "time_factor": steps // nsteps,
                "sup_h_12": m12 / es.npaths,
                "l2z_sq": zsq / es.npaths,
                "sup_v_6": v6 / es.npaths,
            })
    except BlowUpError as exc:
        return report(
            measured={"blow_up": {"step": exc.step, "max_abs": exc.max_abs,
                                  "seed": exc.seed, "path": exc.path}},
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
    return report(
        measured={"levels": rows, "all_finite": finite},
        passed=bool(stable),
        table=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Backend consistency


def _continuous_gaps(traj: Trajectory, x_q: np.ndarray, a1: float,
                     ptildes: np.ndarray) -> np.ndarray:
    """Each path's squared H-norm gap, over the grid and without the cell
    volume, between the transpose ``ptildes`` of the trajectory's adjoint
    and the continuous ptilde at every step start: shape (npaths, nsteps),
    each entry bitwise the term of that path and step that
    :func:`~choc.state.series_l2h_norm` sums for the difference.

    The continuous ptilde comes from a direct backward discretization of the
    continuous adjoint equation with the martingale term dropped, driven by
    the shared tracking target ``x_q`` alone: from p_N = 0 and ptilde_N = 0,

        (I + tau*Lap^2 - tau*S*Lap) p_n
            = p_{n+1} - tau*(psi''(y_n) - S)*ptilde_{n+1} + tau*a1*(y_n - xQ_n),
        ptilde_n = -Lap p_n,

    and is compared as it is computed, so no batch of it is stored. A node
    runs the transpose sweep's node map (:func:`~choc.grid._node_map`) with
    the symbols 1/d and -lambda/d, which gives p_n and ptilde_n from the
    right-hand side at once.
    For additive noise and a tracking target alone it is the transpose
    recursion one node later, up to the order of one addition: the
    continuous ptilde at node n is the transpose ptilde at node n - 1. So
    the gap at a node n >= 1 is the transpose costate's one-step increment
    there, an O(tau) gap once the increment is resolved. It is the
    reference of :func:`check_backend_consistency` and nothing else.
    """
    p = traj.params
    g = p.grid
    axes = g.axes
    tau = p.timegrid.tau
    s = p.stabilization
    ys = np.moveaxis(traj.ys, 1, 0)
    pts_t = np.moveaxis(ptildes, 1, 0)
    gaps = np.empty(traj.ys.shape[:1] + (p.timegrid.nsteps,))
    # the workspace of a node, as in the transpose sweep: the right-hand
    # side is the input of one bound node map, whose outputs are p_n and
    # ptilde_n = -Lap p_n, zero until the first node
    rhs, (pv, pt), node = _node_map(g, ys.shape[1:], p.node_symbols)
    for n0, n1 in reversed(_blocks(p.timegrid.nsteps, rhs)):
        # the block's tau*(psi''(y_n) - S) and tau*a1*(y_n - xQ_n)
        coef = tau * (p.potential.psi_second(ys[n0:n1]) - s)
        forcing = tau * (a1 * (ys[n0:n1] - x_q[n0:n1, None]))
        for j in range(n1 - n0 - 1, -1, -1):
            np.multiply(coef[j], pt, out=rhs)
            np.subtract(pv, rhs, out=rhs)
            np.add(rhs, forcing[j], out=rhs)
            node()
            # the node has read rhs, which now holds the gap
            np.subtract(pts_t[n0 + j], pt, out=rhs)
            np.square(rhs, out=rhs)
            gaps[:, n0 + j] = np.sum(rhs, axis=axes)
    return gaps


def _adjoint_gap(y0: np.ndarray, u: np.ndarray, x_q: np.ndarray, alphas,
                 paths: WienerPaths, params: StateParams) -> float:
    """Path mean of the L2(Q) gap between the transpose and the continuous
    ptilde; one state sweep and one sweep of each adjoint, all freed on
    return."""
    tg = params.timegrid
    traj = solve_state(y0, u, paths, params)
    adj = solve_adjoint(traj, x_q, None, alphas)
    gap = 0.0
    for sq in _continuous_gaps(traj, x_q, alphas[0], adj.ptildes):
        # the sum series_l2h_norm makes of these terms
        gap += float(np.sqrt(np.sum(sq) * tg.tau * params.grid.cell_volume))
    return gap / paths.npaths


def check_backend_consistency(problem: Problem, es: EnsembleSpec,
                              nsteps_list=(100, 200, 400, 800),
                              seed: int = 0) -> CheckReport:
    """Continuous vs transpose adjoint agreement as the time step shrinks.

    The continuous adjoint is this check's private reference,
    :func:`_continuous_gaps`. The claim is about additive noise, where
    the continuous scheme is unbiased, so a problem with multiplicative
    noise is measured on its additive variant, with the same modes and
    amplitudes. A shared Brownian path is aggregated across the dyadic
    sweep, and the L2(Q) gap between the two ptilde sequences must shrink
    with order about one. That gap is the transpose costate's one-step
    increment in L2(Q), plus node 0 (:func:`_continuous_gaps`), so its
    fitted order stays pre-asymptotic while the drawn control and target
    excite modes with tau*lambda^2 >> 1.

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
    _require_ladder("nsteps_list", nsteps_list)
    finest = nsteps_list[-1]

    rng = _generator(seed)
    xq_field = low_pass_values(p.grid, rng, 0.3)
    u_field = low_pass_values(p.grid, rng, 0.5)
    a1 = problem.alphas[0] if problem.alphas[0] > 0 else 1.0
    alphas = (a1, 0.0, problem.alphas[2])

    taus = []
    gaps = []
    for nsteps in nsteps_list:
        params, y0, paths = _level(problem, es, 1, nsteps, finest)
        # the time-constant series as read-only views of one field each
        uvals = np.broadcast_to(u_field, (nsteps,) + p.grid.shape)
        xq = np.broadcast_to(xq_field, (nsteps,) + p.grid.shape)
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
