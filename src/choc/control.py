"""Cost functional, Monte Carlo reduced cost, adjoint gradient, and
projected gradient descent on the admissible ball.

A control is one deterministic field series (one field per time step),
shared by every path. The reduced cost fixes the Wiener seeds once per
ensemble, so for a finite ensemble it is a smooth deterministic function of
the control and the transpose adjoint supplies its exact gradient

    grad J(u) = mean over paths of ptilde + alpha3 * u.

The ensemble is solved in sweeps: one :func:`~choc.state.solve_state` call
integrates every path at once, on arrays with a leading path axis, and one
:func:`~choc.sensitivity.solve_adjoint` call runs every path's costate
backward. The adjoint runs along the state trajectories at u, so a caller
that has solved the ensemble at u passes that trajectory on
(``states=``) and no path is solved twice at one control. :func:`optimize`
runs one state sweep for the starting cost and sweeps only the line-search
trials whose outcome is not known without one, the backtracks two at a
time; it runs one adjoint sweep per iteration and one at the final
control, whose gradient also gives the optimality residual.

The admissible set is the L2 ball of radius :attr:`Problem.c0`; every
projection, the optimizer's and the optimality residual's, is onto it.
"""

import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .errors import BlowUpError, ConfigurationError, DomainError
from .grid import Grid, field_array
from .sensitivity import solve_adjoint
from .state import (
    StateParams,
    TimeGrid,
    Trajectory,
    WienerPaths,
    _sweep_state,
    control_values,
    mix_seed,
    sample_wiener_paths,
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


def _without_overflow(measure, values: np.ndarray) -> float:
    """``measure(values)`` for a measure that scales with its argument, such
    as a norm. When it is not finite and the values are, their squares
    overflowed, and it is measure(values / top) times top, the largest
    magnitude. Every finite plain result keeps its bits."""
    with np.errstate(over="ignore"):
        plain = measure(values)
        if math.isfinite(plain):
            return plain
        top = float(np.max(np.abs(values)))
        return top * measure(values / top) if math.isfinite(top) else plain


def l2q_norm(values: np.ndarray, tg: TimeGrid, grid: Grid) -> float:
    """Discrete L2 norm over the time-space cylinder; finite on finite
    values whose squares overflow (:func:`_without_overflow`)."""
    scale = tg.tau * grid.cell_volume
    return _without_overflow(lambda v: float(np.sqrt(np.sum(v**2) * scale)),
                             np.asarray(values, dtype=float))


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

    def sample_paths(self, params: StateParams) -> WienerPaths:
        """The ensemble's Brownian increments on the time grid and modes of
        ``params``, one batch."""
        return sample_wiener_paths(params.noise, params.timegrid,
                                   [self.path_seed(i) for i in range(self.npaths)])


@dataclass(frozen=True)
class Problem:
    """Tracking problem: dynamics, initial datum, targets, weights, and the
    admissible set, the L2 ball of radius ``c0`` that controls are projected
    onto.

    The initial datum is one field, an array of shape grid.shape whose
    values are finite. Targets may be shared across paths (shapes
    (nsteps, *grid) / (*grid)) or per path (leading npaths axis), as
    produced by the synthetic target generator; every reader takes them
    through :func:`~choc.state.target_values`, with a leading path axis.
    """

    params: StateParams
    y0: np.ndarray
    alphas: tuple[float, float, float]
    x_q: np.ndarray | None = None
    x_t: np.ndarray | None = None
    c0: float = 1.0

    def __post_init__(self):
        if self.c0 <= 0:
            raise DomainError(f"admissibility radius must be positive, got {self.c0}")
        if any(a < 0 for a in self.alphas):
            raise DomainError(f"cost weights must be nonnegative, got {self.alphas}")
        object.__setattr__(self, "y0", field_array(self.params.grid, self.y0,
                                                   "initial datum"))

    def zero_control(self) -> ControlProcess:
        return ControlProcess.zeros(self.params.grid, self.params.timegrid)


def _require_geometry(u: ControlProcess, problem: Problem) -> None:
    """Raise a :class:`ConfigurationError` naming both geometries unless
    ``u`` is built on the grid and time grid of ``problem``: its projection
    and norms measure with its own."""
    p = problem.params
    if (u.grid, u.timegrid) != (p.grid, p.timegrid):
        raise ConfigurationError(
            f"control on {u.grid} and {u.timegrid} is not on the problem's "
            f"{p.grid} and {p.timegrid}")


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
    xq, xt = target_values(x_q, x_t, alphas, tg, g, traj.npaths)
    total = np.zeros(traj.npaths)
    if a1 != 0.0:
        total += 0.5 * a1 * tau * cv * _misfit_sums(traj.ys[:, : tg.nsteps], xq)
    if a2 != 0.0:
        total += 0.5 * a2 * cv * _misfit_sums(traj.ys[:, tg.nsteps], xt)
    total += _penalty(u, a3, tg, g)
    return total


def _misfit_sums(states: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each path's sum of squared misfits, shape (npaths,), squared and
    summed one path at a time: a path's states are contiguous, so each sum
    is bitwise the axis sum of the whole squared array, which is never
    allocated."""
    return np.array([np.sum((s - x) ** 2) for s, x in zip(states, targets)])


def _penalty(u, a3: float, tg: TimeGrid, g: Grid) -> float:
    """The control penalty (a3/2) sum_n tau |u_n|_H^2 that every path's cost
    adds, 0.0 when a3 = 0. The shared control is summed once: bitwise each
    path's sum of its own copy, which is contiguous."""
    if a3 == 0.0:
        return 0.0
    return 0.5 * a3 * tg.tau * g.cell_volume * np.sum(control_values(u, tg, g) ** 2)


def _cost_bound(u, a3: float, tg: TimeGrid, g: Grid, npaths: int) -> float:
    """A lower bound, known before any sweep, on the mean cost of ``u`` over
    ``npaths`` paths, bit for bit: the mean of npaths copies of its penalty.
    Every path's cost is fl(x + penalty) with x >= 0 (:func:`evaluate_cost`),
    and rounding and the mean are monotone."""
    with np.errstate(over="ignore"):
        penalty = _penalty(u, a3, tg, g)
    return float(np.mean(np.full(npaths, penalty)))


def _solve_paths(u: ControlProcess, problem: Problem,
                 paths: WienerPaths) -> Trajectory:
    """The state trajectories of ``u`` on every path: one sweep."""
    return solve_state(problem.y0, u.values, paths, problem.params)


def _sweep_controls(controls: list[ControlProcess], problem: Problem,
                    paths: WienerPaths) -> list[Trajectory]:
    """The state trajectories of each control on every path, all in one
    sweep of the rows controls × paths; each control's are bitwise those of
    its own sweep (:func:`~choc.state._sweep_state`)."""
    ys = _sweep_state(problem.y0, np.stack([c.values for c in controls]), paths,
                      problem.params)
    n = paths.npaths
    return [Trajectory(problem.params, ys[k * n:(k + 1) * n], paths)
            for k in range(len(controls))]


def reduced_cost(u: ControlProcess, es: EnsembleSpec, problem: Problem,
                 states: Trajectory | None = None) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the tracking cost.

    The Wiener paths are fixed by ``es`` independently of ``u``, so repeated
    evaluations are bitwise identical and the map u -> mean is smooth.
    ``states`` is u's trajectory on the paths of ``es``, which it carries;
    it is solved here when None.
    """
    _require_geometry(u, problem)
    if states is None:
        states = _solve_paths(u, problem, es.sample_paths(problem.params))
    costs = evaluate_cost(states, u.values, problem.x_q, problem.x_t, problem.alphas)
    mean = float(np.mean(costs))
    if len(costs) < 2:
        return mean, 0.0
    stderr = _without_overflow(lambda c: float(np.std(c, ddof=1)), costs) / np.sqrt(len(costs))
    return mean, float(stderr)


def gradient(u: ControlProcess, es: EnsembleSpec, problem: Problem,
             states: Trajectory | None = None) -> np.ndarray:
    """Exact gradient of the finite-ensemble reduced cost at ``u``.

    Runs one transpose-adjoint sweep along the paths' state trajectories
    and averages ptilde; the control penalty contributes alpha3 * u.
    ``states`` are as for :func:`reduced_cost`.
    """
    _require_geometry(u, problem)
    if states is None:
        states = _solve_paths(u, problem, es.sample_paths(problem.params))
    tg = problem.params.timegrid
    a3 = problem.alphas[2]
    adj = solve_adjoint(states, problem.x_q, problem.x_t, problem.alphas)
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


# the Barzilai-Borwein trial step is clipped to [_ETA_MIN, _ETA_MAX]
_ETA_MIN = 1e-6
_ETA_MAX = 1e8
# Armijo backtracking: a trial step t is accepted when the cost falls by at
# least _ARMIJO_C / t times the squared step, else t shrinks by _ARMIJO_SHRINK,
# at most _MAX_BACKTRACKS times per iteration
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_MAX_BACKTRACKS = 40
# the trials after an iteration's first rejection are swept this many at a
# time. A larger batch holds more states at once and wastes more rows: on
# the default problem 4 ran no faster than 2 and raised the peak memory by
# about 2 MB, and 8 ran slower.
_BACKTRACK_BATCH = 2


@dataclass(frozen=True)
class OptimizerOptions:
    """Projected gradient settings, the ``[optimizer]`` block of a run
    configuration: Armijo backtracking from an adaptive (Barzilai-Borwein)
    trial step, stopped when the gradient map at the reference step ``eta0``
    falls to ``tol`` or after ``max_iter`` iterations. The config parser
    keys on these annotations, which this module does not postpone."""

    tol: float = 7e-7
    max_iter: int = 300
    eta0: float = 1.0            # reference step for the termination metric


def _require_eta0(opts: OptimizerOptions, c0: float) -> None:
    """Raise a :class:`ConfigurationError` unless ``_ETA_MIN <= eta0 < c0 /
    tol``. :func:`optimize` clips its first trial step, eta0, below at
    _ETA_MIN; and at the zero control the gradient map is min(|grad|,
    c0/eta0), which meets tol whatever the gradient once eta0 >= c0/tol."""
    limit = c0 / opts.tol if opts.tol > 0 else math.inf
    if not _ETA_MIN <= opts.eta0 < limit:
        raise ConfigurationError(
            f"optimizer.eta0 must be at least {_ETA_MIN} and below "
            f"control.c0 / optimizer.tol = {limit:.6g}, got {opts.eta0}")


@dataclass
class OptimizationResult:
    """Outcome of a projected gradient run.

    The run stops on the gradient map at ``eta0``, which ``gradient_map_history``
    holds for each control of ``cost_history``: n_iterations + 1 entries on
    every termination, the last at the final control. ``projection_residual``
    is :func:`optimality_residual` there, a different measure. Where neither
    the gradient step nor -mean(ptilde)/alpha3 leaves the ball, both are plain
    norms of the gradient: the residual is the final gradient map divided by
    alpha3, about ``tol / alpha3`` on a converged run, not ``tol``.
    """

    control: ControlProcess
    cost_history: list[float]
    gradient_map_history: list[float]
    step_history: list[float]
    projection_residual: float
    termination: str
    n_iterations: int
    cost_stderr_history: list[float]   # Monte Carlo standard error of each cost
    # trials rejected because their state sweep blew up, a trial that reuses
    # such an outcome included; a trial that the penalty bound rejects is not
    # swept and not counted
    blowup_rejections: int

    def summary(self) -> dict:
        return {
            "iterations": self.n_iterations,
            "termination": self.termination,
            "initial_cost": self.cost_history[0],
            "final_cost": self.cost_history[-1],
            "final_gradient_map": self.gradient_map_history[-1],
            "projection_residual": self.projection_residual,
            "control_norm": self.control.norm_l2q(),
        }


def _gradient_map_norm(u: ControlProcess, grad: np.ndarray, eta0: float,
                       radius: float) -> float:
    trial = project_admissible(u.with_values(u.values - eta0 * grad), radius)
    return l2q_norm(u.values - trial.values, u.timegrid, u.grid) / eta0


def _nonfinite_cost(u: ControlProcess, problem: Problem, states: Trajectory) -> DomainError:
    """The error of a starting cost at ``u`` that is not finite: it names
    the first path whose cost is not finite, or else says that the mean of
    the paths' finite costs overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        costs = evaluate_cost(states, u.values, problem.x_q, problem.x_t, problem.alphas)
    bad = np.flatnonzero(~np.isfinite(costs))
    if len(bad) == 0:
        return DomainError("the starting cost is not finite: the mean of the path "
                           f"costs overflows (largest {np.max(costs):.3e})")
    i = int(bad[0])
    return DomainError(f"the starting cost is not finite: ensemble path {i} "
                       f"(Wiener path seed {states.wiener.seeds[i]}) has cost {costs[i]}")


def _line_search(u: ControlProcess, grad: np.ndarray, eta: float, cost: float,
                 es: EnsembleSpec, problem: Problem, paths: WienerPaths):
    """Armijo backtracking from the trial step ``eta`` along -grad.

    Returns (found, blow-ups): found is (t, control, cost, stderr, states)
    of the first of at most _MAX_BACKTRACKS trials that passes, None when
    none does, and blow-ups counts the trials rejected for a blow-up. Trial
    k has the step eta * _ARMIJO_SHRINK**k and passes when its cost is at
    most cost - (_ARMIJO_C / t) * |step|^2, the Armijo threshold.

    A trial is not swept when its outcome is known without its states:
    - its control is bitwise the previous trial's, whose outcome it takes
      (with the same cost and step, the test cannot pass at a smaller step);
    - its penalty bound (:func:`_cost_bound`), below which its mean cost
      cannot fall, is above the threshold: the trial fails.
    The first trial is swept alone. After it fails, the trials that must be
    swept are swept _BACKTRACK_BATCH at a time, as the rows of one sweep,
    each bitwise its own; their costs are taken in order, up to the first
    that passes. A batch that blows up is swept again one trial at a time,
    so that each trial's outcome is its own sweep's.
    """
    tg, g = u.timegrid, u.grid
    a3 = problem.alphas[2]
    trials = []       # (step, control, threshold, how its outcome is found)
    batched = {}      # trial index -> states from a batch sweep, None if it blew up

    def trial(k: int):
        while len(trials) <= k:
            t = trials[-1][0] * _ARMIJO_SHRINK if trials else eta
            cand = project_admissible(u.with_values(u.values - t * grad), problem.c0)
            step_sq = l2q_norm(u.values - cand.values, tg, g) ** 2
            threshold = cost - (_ARMIJO_C / t) * step_sq
            if trials and np.array_equal(cand.values, trials[-1][1].values):
                how = "repeat"
            elif _cost_bound(cand.values, a3, tg, g, es.npaths) > threshold:
                how = "bound"
            else:
                how = "sweep"
            trials.append((t, cand, threshold, how))
        return trials[k]

    blowups = 0
    outcome = None    # (cost, stderr, blew up) of the last trial
    for k in range(_MAX_BACKTRACKS):
        t, cand, threshold, how = trial(k)
        states = None     # a rejected trial's states are dropped here
        if how == "bound":
            outcome = (math.inf, math.inf, False)
        elif how == "sweep":
            if k > 0 and k not in batched:
                later = (j for j in range(k + 1, _MAX_BACKTRACKS)
                         if trial(j)[3] == "sweep")
                batch = [k, *islice(later, _BACKTRACK_BATCH - 1)]
                if len(batch) > 1:
                    try:
                        batched.update(zip(batch, _sweep_controls(
                            [trials[j][1] for j in batch], problem, paths)))
                    except BlowUpError:
                        batched.update(dict.fromkeys(batch))
            try:
                states = batched.pop(k, None)
                if states is None:
                    states = _solve_paths(cand, problem, paths)
                outcome = (*reduced_cost(cand, es, problem, states), False)
            except BlowUpError:
                outcome = (math.inf, math.inf, True)
        blowups += outcome[2]
        if outcome[0] <= threshold:
            return (t, cand, *outcome[:2], states), blowups
    return None, blowups


def optimize(u0: ControlProcess, es: EnsembleSpec, problem: Problem,
             opts: OptimizerOptions = OptimizerOptions()) -> OptimizationResult:
    """Projected gradient descent with Armijo backtracking.

    Accepted steps never increase the cost; a trial step whose state solve
    blows up is rejected and shrunk like one that fails the Armijo test. A
    trial whose projected control is bitwise the last rejected one's takes
    that outcome without a state sweep: with the same cost and step, the test
    cannot pass at a smaller step either, and a reused blow-up counts as a
    blow-up rejection again. A trial whose control penalty alone puts its
    cost above the Armijo threshold is rejected without a sweep
    (:func:`_line_search`).
    Termination on the gradient-map norm at the fixed reference step, on the
    iteration budget, or on a stalled line search. A starting cost that is
    not finite raises :class:`DomainError`, naming the first path whose cost
    is not, before any gradient is taken.

    Solve budget, in sweeps (one sweep solves every path of the ensemble in
    one call, for one control or several): one state sweep for the starting
    cost; one for each iteration's first trial unless its penalty rejects
    it; after that trial fails, one per pair of the later trials that need
    a sweep (a new control that its penalty does not reject), the second of
    which is wasted when the first passes (a pair that blows up is swept
    again one trial at a time); one adjoint sweep per iteration, along the
    trajectories its accepted trial solved; one adjoint sweep at the final
    control, for the residual and the last gradient map (on convergence or a
    stalled search this is the gradient the last iteration already took).
    Every decision, and every bit of the result, is that of sweeping each
    trial alone in turn.
    An ``eta0`` outside the range of :func:`_require_eta0` or a ``u0`` off
    the problem's geometry raises :class:`ConfigurationError` before any
    sweep.
    """
    _require_eta0(opts, problem.c0)
    _require_geometry(u0, problem)
    paths = es.sample_paths(problem.params)
    u = project_admissible(u0, problem.c0)
    # u's trajectories, kept from the cost to the next gradient only.
    states = _solve_paths(u, problem, paths)
    # a starting cost past the float range is an error, before any gradient
    with np.errstate(over="ignore", invalid="ignore"):
        cost, stderr = reduced_cost(u, es, problem, states)
    if not math.isfinite(cost):
        raise _nonfinite_cost(u, problem, states)
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
        # a non-finite gradient projects to a zero map: it never converges
        if gmap <= opts.tol and np.all(np.isfinite(grad)):
            termination = "converged"
            break

        # Barzilai-Borwein trial step from the last accepted move.
        if prev_u is not None:
            du = u.values - prev_u
            dg = grad - prev_grad
            denom = l2q_inner(du, dg, tg, u.grid)
            if denom > 0:
                eta = l2q_inner(du, du, tg, u.grid) / denom
        eta = float(np.clip(eta, _ETA_MIN, _ETA_MAX))

        found, blowups = _line_search(u, grad, eta, cost, es, problem, paths)
        blowup_rejections += blowups
        if found is None:
            termination = "stalled"
            break

        prev_u = u.values
        prev_grad = grad
        eta, u, cost, stderr, states = found
        del found    # so that the gradient can drop the states
        cost_history.append(cost)
        stderr_history.append(stderr)
        step_history.append(eta)
        it += 1

    if termination == "max_iter":
        grad = gradient(u, es, problem, states)
        gmap_history.append(_gradient_map_norm(u, grad, opts.eta0, problem.c0))
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
    alpha3 > 0. Where the ball binds neither u - grad nor that point, it is
    |grad| / alpha3: the gradient map of :func:`optimize` divided by alpha3.
    For alpha3 = 0 the projection form degenerates; the most
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
        with np.errstate(over="ignore"):
            point = -mean_ptilde / a3
        if not np.all(np.isfinite(point)) and np.all(np.isfinite(mean_ptilde)):
            # beyond the float range, far outside the ball: project the
            # point of its ray at twice the radius instead
            point = mean_ptilde * (-2.0 * problem.c0 / l2q_norm(mean_ptilde, tg, g))
        target = project_admissible(u.with_values(point), problem.c0)
        return l2q_norm(u.values - target.values, tg, g)
    unit = np.sqrt(tg.tau * g.cell_volume)
    return float(-np.max(np.abs(grad)) * unit)
