"""Cost functional, Monte Carlo reduced cost, adjoint gradient, and
projected gradient descent on the admissible ball.

Controls are deterministic time-space fields by default (one field per time
step). The reduced cost fixes the Wiener seeds once per ensemble, so for a
finite ensemble it is a smooth deterministic function of the control and the
transpose-backend adjoint supplies its exact gradient

    grad J(u) = mean over paths of ptilde + alpha3 * u.

The ensemble is solved in sweeps: one :func:`~choc.state.solve_state` call
integrates every path at once, on arrays with a leading path axis, and one
:func:`~choc.sensitivity.solve_adjoint` call runs every path's costate
backward. The adjoint runs along the state trajectories at u, so a caller
that has solved the ensemble at u passes that trajectory on
(``states=``) and no path is solved twice at one control. :func:`optimize`
runs one state sweep for the starting cost and one per line-search trial,
one adjoint sweep per iteration, and one adjoint sweep at the final control,
whose gradient also gives the optimality residual.

The admissible set is the L2 ball of radius :attr:`Problem.c0`; every
projection, the optimizer's and the optimality residual's, is onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUpError, ConfigurationError, DomainError
from .grid import Field, Grid
from .physics import NO_TRUNCATION, TruncationLevel
from .sensitivity import solve_adjoint
from .state import (
    StateParams,
    TimeGrid,
    Trajectory,
    WienerPath,
    _path_sums,
    control_values,
    mix_seed,
    sample_wiener_path,
    solve_state,
    target_values,
)

__all__ = [
    "ControlProcess",
    "EnsembleSpec",
    "Problem",
    "OptimizerOptions",
    "OptimizationResult",
    "l2q_norm",
    "l2q_inner",
    "evaluate_cost",
    "reduced_cost",
    "gradient",
    "project_admissible",
    "optimize",
    "optimality_residual",
]


@dataclass(frozen=True)
class ControlProcess:
    """Deterministic piecewise-constant-in-time control, one field per time
    step: ``values`` has shape (nsteps, *grid.shape). The admissible ball it
    is projected onto is the problem's (:attr:`Problem.c0`).
    """

    grid: Grid
    timegrid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        shape = (self.timegrid.nsteps,) + self.grid.shape
        if values.shape != shape:
            raise ConfigurationError(f"control values shape {values.shape} != {shape}")
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, grid: Grid, tg: TimeGrid) -> "ControlProcess":
        return cls(grid, tg, np.zeros((tg.nsteps,) + grid.shape))

    def with_values(self, values) -> "ControlProcess":
        return replace(self, values=np.asarray(values, dtype=float))

    def norm_l2q(self) -> float:
        return l2q_norm(self.values, self.timegrid, self.grid)


def l2q_norm(values: np.ndarray, tg: TimeGrid, grid: Grid) -> float:
    """Discrete L2 norm over the time-space cylinder."""
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(np.sum(values**2) * tg.tau * grid.cell_volume))


def l2q_inner(a: np.ndarray, b: np.ndarray, tg: TimeGrid, grid: Grid) -> float:
    return float(np.sum(np.asarray(a) * np.asarray(b)) * tg.tau * grid.cell_volume)


@dataclass(frozen=True)
class EnsembleSpec:
    """Monte Carlo ensemble: path count plus the base seed that fixes every
    per-path stream (common random numbers)."""

    npaths: int
    base_seed: int

    def __post_init__(self):
        if self.npaths < 1:
            raise DomainError(f"need at least one path, got {self.npaths}")

    def path_seed(self, i: int) -> int:
        return mix_seed(self.base_seed, i)

    def sample_paths(self, params: StateParams) -> list[WienerPath]:
        return [sample_wiener_path(params.noise, params.timegrid, self.path_seed(i))
                for i in range(self.npaths)]


@dataclass(frozen=True)
class Problem:
    """Tracking problem: dynamics, initial datum, targets, weights, and the
    admissible set, the L2 ball of radius ``c0`` that controls are projected
    onto.

    Targets may be shared across paths (shapes (nsteps, *grid) / (*grid)) or
    per path (leading npaths axis), as produced by the synthetic target
    generator.
    """

    params: StateParams
    y0: Field
    alphas: tuple[float, float, float]
    x_q: np.ndarray | None = None
    x_t: np.ndarray | None = None
    c0: float = 1.0
    trunc: TruncationLevel = NO_TRUNCATION
    backend: str = "discrete_transpose"

    def __post_init__(self):
        if self.c0 <= 0:
            raise DomainError(f"admissibility radius must be positive, got {self.c0}")
        if any(a < 0 for a in self.alphas):
            raise DomainError(f"cost weights must be nonnegative, got {self.alphas}")
        if self.y0.grid != self.params.grid:
            raise ConfigurationError("initial datum lives on a different grid")

    def target_q(self, i: int):
        if self.x_q is None:
            return None
        xq = np.asarray(self.x_q)
        base_ndim = 1 + self.params.grid.ndims
        return xq[i] if xq.ndim == base_ndim + 1 else xq

    def target_t(self, i: int):
        if self.x_t is None:
            return None
        xt = np.asarray(self.x_t)
        return xt[i] if xt.ndim == self.params.grid.ndims + 1 else xt

    def zero_control(self) -> ControlProcess:
        return ControlProcess.zeros(self.params.grid, self.params.timegrid)


def evaluate_cost(traj: Trajectory, u, x_q, x_t, alphas) -> np.ndarray:
    """Quadratic tracking cost of every path, shape (npaths,); ensemble
    averaging is the caller's.

    (a1/2) sum_n tau |y_n - xQ_n|_H^2 + (a2/2) |y_N - x_T|_H^2
    + (a3/2) sum_n tau |u_n|_H^2, with the distributed sums over the step
    starts n = 0..N-1. The control is shared by the paths; the targets are
    shared or given per path, with a leading npaths axis.
    """
    a1, a2, a3 = alphas
    tg = traj.timegrid
    g = traj.grid
    cv = g.cell_volume
    tau = tg.tau
    starts = traj.ys[:, : tg.nsteps]
    xq, xt = target_values(x_q, x_t, alphas, tg, g, traj.npaths)
    total = np.zeros(traj.npaths)
    if a1 != 0.0:
        total += 0.5 * a1 * tau * cv * _path_sums((starts - xq) ** 2)
    if a2 != 0.0:
        total += 0.5 * a2 * cv * _path_sums((traj.ys[:, tg.nsteps] - xt) ** 2)
    if a3 != 0.0:
        uvals = np.broadcast_to(control_values(u, tg, g), starts.shape)
        total += 0.5 * a3 * tau * cv * _path_sums(uvals**2)
    return total


def _solve_paths(u: ControlProcess, problem: Problem,
                 paths: list[WienerPath]) -> Trajectory:
    """The state trajectories of ``u`` on every path: one sweep."""
    return solve_state(problem.y0, u.values, paths, problem.params)


def reduced_cost(u: ControlProcess, es: EnsembleSpec, problem: Problem,
                 states: Trajectory | None = None) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the tracking cost.

    The Wiener paths are fixed by ``es`` independently of ``u``, so repeated
    evaluations are bitwise identical and the map u -> mean is smooth.
    ``states`` is u's trajectory on the paths of ``es``, which it carries;
    it is solved here when None.
    """
    if states is None:
        states = _solve_paths(u, problem, es.sample_paths(problem.params))
    costs = evaluate_cost(states, u.values, problem.x_q, problem.x_t, problem.alphas)
    mean = float(np.mean(costs))
    if len(costs) < 2:
        return mean, 0.0
    stderr = float(np.std(costs, ddof=1) / np.sqrt(len(costs)))
    return mean, stderr


def gradient(u: ControlProcess, es: EnsembleSpec, problem: Problem,
             states: Trajectory | None = None) -> np.ndarray:
    """Exact gradient of the finite-ensemble reduced cost at ``u``.

    Runs one transpose-adjoint sweep along the paths' state trajectories
    and averages ptilde; the control penalty contributes alpha3 * u.
    ``states`` are as for :func:`reduced_cost`.
    """
    if problem.backend != "discrete_transpose":
        raise ConfigurationError(
            "exact gradients require the discrete_transpose backend"
        )
    if states is None:
        states = _solve_paths(u, problem, es.sample_paths(problem.params))
    tg = problem.params.timegrid
    a3 = problem.alphas[2]
    adj = solve_adjoint(states, problem.x_q, problem.x_t, problem.alphas,
                        backend="discrete_transpose", trunc=problem.trunc)
    return adj.ptildes[:, : tg.nsteps].sum(axis=0) / adj.npaths + a3 * u.values


def project_admissible(u: ControlProcess, radius: float) -> ControlProcess:
    """Radial projection onto the closed L2 ball of ``radius``; idempotent."""
    radius = float(radius)
    if radius <= 0:
        raise DomainError(f"admissibility radius must be positive, got {radius}")
    norm = l2q_norm(u.values, u.timegrid, u.grid)
    if norm <= radius:
        return u
    scale = radius / norm
    values = u.values * scale
    # Rounding can leave the rescaled norm an ulp or two above the radius,
    # and projecting that again would move it; shrink the factor until the
    # result is inside, so a second projection returns it unchanged.
    while l2q_norm(values, u.timegrid, u.grid) > radius:
        scale = np.nextafter(scale, 0.0)
        values = u.values * scale
    return u.with_values(values)


@dataclass(frozen=True)
class OptimizerOptions:
    """Projected gradient settings: Armijo backtracking from an adaptive
    (Barzilai-Borwein) trial step, gradient-map termination."""

    tol: float = 1e-6
    max_iter: int = 200
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    max_backtracks: int = 40
    eta0: float = 1.0            # reference step for the termination metric
    eta_min: float = 1e-6
    eta_max: float = 1e8


@dataclass
class OptimizationResult:
    """Outcome of a projected gradient run."""

    control: ControlProcess
    cost_history: list[float]
    gradient_map_history: list[float]
    step_history: list[float]
    projection_residual: float
    termination: str
    n_iterations: int
    cost_stderr_history: list[float]   # Monte Carlo standard error of each cost
    blowup_rejections: int             # trials rejected because the state blew up

    def summary(self) -> dict:
        return {
            "iterations": self.n_iterations,
            "termination": self.termination,
            "initial_cost": self.cost_history[0],
            "final_cost": self.cost_history[-1],
            "final_gradient_map": (
                self.gradient_map_history[-1] if self.gradient_map_history else 0.0
            ),
            "projection_residual": self.projection_residual,
            "control_norm": self.control.norm_l2q(),
        }


def _gradient_map_norm(u: ControlProcess, grad: np.ndarray, eta0: float,
                       radius: float) -> float:
    trial = project_admissible(u.with_values(u.values - eta0 * grad), radius)
    return l2q_norm(u.values - trial.values, u.timegrid, u.grid) / eta0


def optimize(u0: ControlProcess, es: EnsembleSpec, problem: Problem,
             opts: OptimizerOptions = OptimizerOptions()) -> OptimizationResult:
    """Projected gradient descent with Armijo backtracking.

    Accepted steps never increase the cost; a trial step whose state solve
    blows up is rejected and shrunk like one that fails the Armijo test.
    Termination on the gradient-map norm at the fixed reference step, on the
    iteration budget, or on a stalled line search.

    Solve budget, in sweeps (one sweep solves every path of the ensemble in
    one call): one state sweep for the starting cost and one per line-search
    trial; one adjoint sweep per iteration, along the trajectories its
    accepted trial solved; one adjoint sweep at the final control, for the
    residual (on convergence or a stalled search this is the gradient the
    last iteration already took).
    """
    paths = es.sample_paths(problem.params)
    u = project_admissible(u0, problem.c0)
    # u's trajectories, kept from the cost to the next gradient only.
    states = _solve_paths(u, problem, paths)
    cost, stderr = reduced_cost(u, es, problem, states)
    cost_history = [cost]
    stderr_history = [stderr]
    gmap_history: list[float] = []
    step_history: list[float] = []
    blowup_rejections = 0
    termination = "max_iter"
    tg = u.timegrid

    eta = opts.eta0
    prev_u = None
    prev_grad = None
    it = 0
    while it < opts.max_iter:
        grad = gradient(u, es, problem, states)
        states = None
        gmap = _gradient_map_norm(u, grad, opts.eta0, problem.c0)
        gmap_history.append(gmap)
        if gmap <= opts.tol:
            termination = "converged"
            break

        # Barzilai-Borwein trial step from the last accepted move.
        if prev_u is not None:
            du = u.values - prev_u
            dg = grad - prev_grad
            denom = l2q_inner(du, dg, tg, u.grid)
            if denom > 0:
                eta = l2q_inner(du, du, tg, u.grid) / denom
        eta = float(np.clip(eta, opts.eta_min, opts.eta_max))

        accepted = False
        trial_eta = eta
        for _ in range(opts.max_backtracks):
            cand = project_admissible(u.with_values(u.values - trial_eta * grad),
                                      problem.c0)
            step_sq = l2q_norm(u.values - cand.values, tg, u.grid) ** 2
            cand_states = None    # drop a rejected trial's states before the next solve
            try:
                cand_states = _solve_paths(cand, problem, paths)
                cand_cost, cand_stderr = reduced_cost(cand, es, problem, cand_states)
            except BlowUpError:
                cand_cost = np.inf    # a blown-up trial is a rejected trial
                blowup_rejections += 1
            if cand_cost <= cost - (opts.armijo_c / trial_eta) * step_sq:
                accepted = True
                break
            trial_eta *= opts.armijo_shrink
        if not accepted:
            termination = "stalled"
            break

        prev_u = u.values
        prev_grad = grad
        u = cand
        states = cand_states
        cost = cand_cost
        cost_history.append(cost)
        stderr_history.append(cand_stderr)
        step_history.append(trial_eta)
        eta = trial_eta
        it += 1

    if termination == "max_iter":
        grad = gradient(u, es, problem, states)
    return OptimizationResult(
        control=u,
        cost_history=cost_history,
        gradient_map_history=gmap_history,
        step_history=step_history,
        projection_residual=_residual(u, grad, problem),
        termination=termination,
        n_iterations=it,
        cost_stderr_history=stderr_history,
        blowup_rejections=blowup_rejections,
    )


def optimality_residual(u: ControlProcess, es: EnsembleSpec, problem: Problem,
                        states: Trajectory | None = None) -> float:
    """Distance between u and the projected point -mean(ptilde)/alpha3.

    Vanishes exactly at a stationary point of the discrete problem when
    alpha3 > 0. For alpha3 = 0 the projection form degenerates; the most
    negative directional derivative over unit coordinate directions is
    reported instead. ``states`` are as for :func:`reduced_cost`.
    """
    return _residual(u, gradient(u, es, problem, states), problem)


def _residual(u: ControlProcess, grad: np.ndarray, problem: Problem) -> float:
    """:func:`optimality_residual` from the gradient at ``u``."""
    a3 = problem.alphas[2]
    tg = u.timegrid
    g = u.grid
    if a3 > 0:
        mean_ptilde = grad - a3 * u.values
        target = project_admissible(u.with_values(-mean_ptilde / a3), problem.c0)
        return l2q_norm(u.values - target.values, tg, g)
    unit = np.sqrt(tg.tau * g.cell_volume)
    return float(-np.max(np.abs(grad)) * unit)
