"""Forward integration of the controlled stochastic Cahn-Hilliard system.

One Euler-Maruyama step treats the stiff fourth-order term implicitly and
the nonlinearity explicitly with a linear stabilization shift S:

    (I + tau*Lap^2 - tau*S*Lap) y_{n+1}
        = y_n + tau*Lap(psi'(y_n) - S*y_n - u_n) + B(y_n) dW_n,

where Lap is the (negative semi-definite) Neumann Laplacian. The implicit
operator is diagonal in the cosine basis and the step carries the cosine
coefficients of y, so a step makes three transforms (two without noise):
forward transforms of the explicit term and of the noise increment and an
inverse transform of y_{n+1}. The chemical potential is not part of the
step; a trajectory computes it when read. The linearized solver runs the
same step. The noise enters explicitly at the old iterate. Because
the zero mode of Lap vanishes and mean-free noise has no zero mode, the
spatial mean of y is conserved along every path.

:func:`solve_state` integrates a batch of paths in one sweep: the arrays of
a step carry a leading path axis, the transforms run over the grid axes
only, and the noise and the blow-up guard act path by path. Each path's
numbers are bitwise those of solving it alone; a single path is a batch of
one. The sweep itself is :func:`_sweep_state`, which also solves several
controls on one ensemble at once, as rows controls × paths, control-major;
each row is bitwise its control's own sweep.

Every sweep (state, linearized, adjoint and the continuous reference
adjoint of :mod:`choc.verify`) runs its steps in blocks whose length a
private byte budget sets (:func:`_blocks`). Before a block it computes, in
one call per factor, what its recursion does not enter: the increment
fields xi_n = sum_k sigma_k dW_k g_k and, in the linearized and adjoint
sweeps, psi''(y_n) and the tracking forcing. The state sweep guards the
states of a block after it. A step's factors are computed from that step's
data alone, so every block length gives the same bits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BlowUpError, ConfigurationError, DomainError, ShapeError
from .grid import (
    Field,
    Grid,
    _dct as _dct_values,
    _idct as _idct_values,
    grad_norm_sq_values,
    lap_values,
)
from .physics import NoiseModel, Potential, _mode_sum, b_increment_values

__all__ = [
    "TimeGrid",
    "WienerPath",
    "Trajectory",
    "StateParams",
    "mix_seed",
    "sample_wiener_path",
    "chemical_potential",
    "solve_state",
    "series_l2h_norm",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix_seed(base_seed: int, index: int) -> int:
    """Derive an independent 64-bit stream seed from a base seed and an index.

    splitmix64 finalizer applied to base + (index+1) * golden ratio; cheap,
    documented, and platform-independent, so per-path streams do not depend
    on scheduling order.
    """
    x = (int(base_seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T]."""

    t_final: float
    nsteps: int

    def __post_init__(self):
        if not self.t_final > 0:
            raise DomainError(f"final time must be positive, got {self.t_final}")
        if self.nsteps < 1:
            raise DomainError(f"need at least one step, got {self.nsteps}")

    @property
    def tau(self) -> float:
        return self.t_final / self.nsteps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.nsteps + 1)


@dataclass(frozen=True)
class WienerPath:
    """Brownian increments for K modes over a time grid, fixed by a seed."""

    timegrid: TimeGrid
    nmodes: int
    seed: int
    increments: np.ndarray   # (nsteps, K), i.i.d. N(0, tau)

    def __post_init__(self):
        if self.increments.shape != (self.timegrid.nsteps, self.nmodes):
            raise ShapeError(
                f"increment array shape {self.increments.shape} != "
                f"({self.timegrid.nsteps}, {self.nmodes})"
            )


def _generator(seed: int) -> np.random.Generator:
    """numpy's generator of ``seed`` reduced mod 2^64, so a negative seed
    draws a stream too and a nonnegative one keeps its bits."""
    return np.random.default_rng(int(seed) & _MASK64)


def sample_wiener_path(nm: NoiseModel, tg: TimeGrid, seed: int) -> WienerPath:
    """Draw the Brownian increments for one path; a pure function of the seed."""
    incr = _generator(seed).standard_normal((tg.nsteps, nm.nmodes)) * np.sqrt(tg.tau)
    return WienerPath(timegrid=tg, nmodes=nm.nmodes, seed=int(seed), increments=incr)


def aggregate_increments(wp: WienerPath, factor: int) -> WienerPath:
    """Sum groups of ``factor`` consecutive increments: the same Brownian path
    viewed on a coarser time grid. Used by the refinement studies."""
    if wp.timegrid.nsteps % factor != 0:
        raise ConfigurationError("aggregation factor must divide nsteps")
    coarse = TimeGrid(wp.timegrid.t_final, wp.timegrid.nsteps // factor)
    incr = wp.increments.reshape(coarse.nsteps, factor, wp.nmodes).sum(axis=1)
    return WienerPath(timegrid=coarse, nmodes=wp.nmodes, seed=wp.seed,
                      increments=incr)


@dataclass(frozen=True)
class StateParams:
    """Everything a trajectory solve needs besides data: spaces, physics,
    stabilization, and the blow-up guard."""

    grid: Grid
    timegrid: TimeGrid
    potential: Potential
    noise: NoiseModel
    stabilization: float = 2.0
    blowup_threshold: float = 1e10

    def __post_init__(self):
        if self.noise.grid != self.grid:
            raise ConfigurationError("noise model built for a different grid")
        if self.stabilization < self.potential.c1:
            raise ConfigurationError(
                f"stabilization S = {self.stabilization} must be >= c1 = "
                f"{self.potential.c1} for gradient stability"
            )

    @cached_property
    def implicit_symbol(self) -> np.ndarray:
        """Cosine-space symbol of I + tau*Lap^2 - tau*S*Lap (>= 1)."""
        lam = self.grid.lap_symbol
        tau = self.timegrid.tau
        return 1.0 + tau * lam**2 - tau * self.stabilization * lam

    @cached_property
    def tau_lap_symbol(self) -> np.ndarray:
        """Cosine-space symbol of tau*Lap."""
        return self.timegrid.tau * self.grid.lap_symbol


@dataclass(frozen=True)
class Trajectory:
    """States of a batch of noise paths; a single path is a batch of one.

    ``ys`` stacks the nsteps+1 state fields of every path behind a leading
    path axis. The control values, shared by the paths, and the Wiener
    paths that generated the trajectory are kept for the linearized and
    adjoint solvers. The chemical potentials ``ws`` at the
    step starts and the free-energy series are computed when first read.
    """

    params: StateParams
    ys: np.ndarray               # (npaths, nsteps+1, *grid.shape)
    control: np.ndarray          # (nsteps, *grid.shape)
    wiener: tuple[WienerPath, ...]
    mass: np.ndarray             # (npaths, nsteps+1)

    @property
    def grid(self) -> Grid:
        return self.params.grid

    @property
    def timegrid(self) -> TimeGrid:
        return self.params.timegrid

    @property
    def npaths(self) -> int:
        return len(self.wiener)

    @cached_property
    def ws(self) -> np.ndarray:
        """Chemical potential w_n = -Lap y_n + psi'(y_n) - u_n at every step
        start, shape (npaths, nsteps, *grid.shape)."""
        return _chemical_potential_values(self.grid, self.ys[:, :-1], self.control,
                                          self.params.potential)

    @cached_property
    def energy(self) -> np.ndarray:
        """Free energy of every state, shape (npaths, nsteps+1)."""
        return _energy_values(self.grid, self.ys, self.params.potential)


def control_values(u, tg: TimeGrid, grid: Grid) -> np.ndarray:
    """Normalize a control argument to a (nsteps, *grid.shape) array.

    Accepts None (zero control), an array, or any object with a ``values``
    array of the right shape.
    """
    return _series_array(u, (tg.nsteps,) + grid.shape, "control", None)


def target_values(x_q, x_t, alphas, tg: TimeGrid, grid: Grid, npaths: int):
    """Normalize the tracking targets the cost weights read.

    Returns (xQ, xT) as arrays of shapes (nsteps, *grid.shape) and
    grid.shape, or given per path with a leading npaths axis; None stands
    for a zero target. A target whose weight is zero is not read and comes
    back as None. A target of another shape is a
    :class:`ConfigurationError`.
    """
    a1, a2, _ = alphas
    xq = (_series_array(x_q, (tg.nsteps,) + grid.shape, "distributed target", npaths)
          if a1 != 0.0 else None)
    xt = (_series_array(x_t, grid.shape, "terminal target", npaths)
          if a2 != 0.0 else None)
    return xq, xt


def _series_array(x, shape, kind: str, npaths: int | None) -> np.ndarray:
    """``x`` as a float array of ``shape`` or, given ``npaths``, of
    (npaths, *shape); None is zero."""
    if x is None:
        return np.zeros(shape)
    values = np.asarray(getattr(x, "values", x), dtype=float)
    shapes = [shape] + ([(npaths,) + shape] if npaths else [])
    if values.shape not in shapes:
        wanted = " or ".join(str(s) for s in shapes)
        raise ConfigurationError(f"{kind} shape {values.shape} != {wanted}")
    return values


def _path_sums(a: np.ndarray) -> np.ndarray:
    """The sum of each path's entries of a contiguous (npaths, ...) array.

    The summed axes are trailing and contiguous, so each sum is bitwise the
    ``np.sum`` of that path's array alone.
    """
    return np.sum(a, axis=tuple(range(1, a.ndim)))


def chemical_potential(y: Field, u: Field, pot: Potential) -> Field:
    """w = -Lap y + psi'(y) - u."""
    if y.grid != u.grid:
        raise ConfigurationError("state and control live on different grids")
    return Field(y.grid, _chemical_potential_values(y.grid, y.values, u.values, pot))


def _chemical_potential_values(g: Grid, y: np.ndarray, u: np.ndarray,
                               pot: Potential) -> np.ndarray:
    """Array-level chemical potential; leading axes of ``y`` are a batch."""
    return -lap_values(g, y) + pot.psi_prime(y) - u


def _step_spectral(x: np.ndarray, x_hat: np.ndarray, reaction: np.ndarray,
                   source: np.ndarray, noise: np.ndarray | None, p: StateParams):
    """One step of the scheme, carrying the cosine coefficients of x.

    Solves (I + tau*Lap^2 - tau*S*Lap) x_next
        = x + tau*Lap(reaction - S*x - source) + noise,
    where ``x_hat`` is the transform of ``x`` and ``noise`` may be None.
    Returns (x_next, x_next_hat). The arrays may carry leading batch axes;
    the transforms run over the grid axes.
    """
    axes = p.grid.axes
    explicit = reaction - p.stabilization * x - source
    rhs_hat = x_hat + p.tau_lap_symbol * _dct_values(explicit, axes)
    if noise is not None:
        rhs_hat = rhs_hat + _dct_values(noise, axes)
    x_next_hat = rhs_hat / p.implicit_symbol
    return _idct_values(x_next_hat, axes), x_next_hat


# Byte budget of one array of a block of steps (see the module docstring):
# 16 steps of the default 1D problem's 8 paths, one step of a 64 x 64 grid's.
_BLOCK_BYTES = 1 << 16


def _blocks(nsteps: int, step: np.ndarray) -> list[tuple[int, int]]:
    """The blocks [n0, n1) of steps 0..nsteps-1 in order, each as long as
    the budget allows for arrays of one step shaped like ``step``."""
    size = max(1, _BLOCK_BYTES // step.nbytes)
    return [(n0, min(n0 + size, nsteps)) for n0 in range(0, nsteps, size)]


def _guard(states: np.ndarray, first: int, threshold: float, seeds) -> None:
    """Raise :class:`BlowUpError` when a row of a block of states is not
    finite or exceeds the threshold, naming the earliest such step and, at
    it, the lowest such row by its path: its seed and its index in
    ``seeds``.

    ``states`` has shape (nblock, ncontrols, npaths, *grid.shape) and holds
    the states after steps first, first+1, ...; rows are control-major, and
    row r runs the path of ``seeds[r % npaths]``.
    """
    top = np.max(np.abs(states))
    if np.isfinite(top) and top <= threshold:
        return
    tops = np.max(np.abs(states).reshape(states.shape[:3] + (-1,)), axis=3)
    bad = ~np.isfinite(tops) | (tops > threshold)
    k, c, i = (int(j) for j in np.unravel_index(np.argmax(bad), bad.shape))
    raise BlowUpError(first + k, float(tops[k, c, i]), seeds[i], i)


def _step_major(rows: np.ndarray, npaths: int) -> np.ndarray:
    """A view of a (ncontrols * npaths, nsteps+1, *grid.shape) row array,
    rows control-major, as (nsteps+1, ncontrols, npaths, *grid.shape)."""
    return np.moveaxis(rows.reshape((-1, npaths) + rows.shape[1:]), 2, 0)


def solve_state(y0: Field, u, paths: Sequence[WienerPath],
                params: StateParams) -> Trajectory:
    """Integrate the state system along a batch of noise paths in one sweep.

    ``paths`` is a sequence of :class:`WienerPath`; one path is the batch
    ``[path]``, and a bare path is a :class:`ConfigurationError`. The
    trajectory carries a leading path axis; ``u`` is one control of shape
    (nsteps, *grid.shape), shared by every path. Each path's result is
    bitwise that of solving it alone.

    Deterministic given (y0, control, paths); records the mass series.
    Raises :class:`BlowUpError` instead of clipping runaway states. It names
    the earliest step at which a path blew up and, at that step, the lowest
    blown-up path: its seed and its index in the batch.
    """
    g = params.grid
    tg = params.timegrid
    if isinstance(paths, WienerPath):
        raise ConfigurationError("solve_state takes a sequence of Wiener paths; "
                                 "pass one path as [path]")
    batch = tuple(paths)
    if y0.grid != g:
        raise ConfigurationError("initial datum lives on a different grid")
    if not batch:
        raise ConfigurationError("need at least one Wiener path")
    if any(wp.timegrid != tg for wp in batch):
        raise ConfigurationError("Wiener path sampled on a different time grid")
    if any(wp.nmodes != params.noise.nmodes for wp in batch):
        raise ConfigurationError("Wiener path has a different number of modes")
    uvals = control_values(u, tg, g)
    ys = _sweep_state(y0.values, uvals[None], batch, params)
    mass = ys.sum(axis=g.axes) / g.size
    return Trajectory(params=params, ys=ys, control=uvals, wiener=batch, mass=mass)


def _sweep_state(y0: np.ndarray, controls: np.ndarray, paths,
                 params: StateParams) -> np.ndarray:
    """The state sweep of the rows controls × paths, control-major: row r
    runs ``controls[r // npaths]`` on ``paths[r % npaths]`` from ``y0``.

    ``controls`` has shape (ncontrols, nsteps, *grid.shape); returns ys of
    shape (ncontrols * npaths, nsteps+1, *grid.shape). Each row is bitwise
    the sweep of its control and path alone. A blow-up names the earliest
    step and, at it, the lowest blown-up row by its path (see
    :func:`_guard`).

    The steps run in blocks (see :func:`_blocks`), and a block's states are
    guarded after it: steps past a blow-up inside a block run on without
    warnings, and the guard names the step at which it happened.
    """
    g = params.grid
    nsteps = params.timegrid.nsteps
    # Every array of a step carries the (control, path) axes; a control
    # broadcasts over the paths and an increment over the controls. The
    # *_n arrays are views indexed by step first.
    ncontrols = len(controls)
    ys = np.empty((ncontrols * len(paths), nsteps + 1) + g.shape)
    ys_n = _step_major(ys, len(paths))
    u_n = np.moveaxis(controls, 1, 0)[:, :, None]
    dw_n = _increments(paths)
    nm = params.noise
    noisy = nm.nmodes > 0
    psi_prime = params.potential.psi_prime
    seeds = [wp.seed for wp in paths]

    y = np.broadcast_to(y0, (ncontrols, len(paths)) + g.shape).copy()
    y_hat = _dct_values(y, g.axes)
    ys_n[0] = y
    for n0, n1 in _blocks(nsteps, y):
        xi = _mode_sum(nm, dw_n[n0:n1]) if noisy else None
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(n0, n1):
                noise = b_increment_values(nm, y, xi[n - n0]) if noisy else None
                y, y_hat = _step_spectral(y, y_hat, psi_prime(y), u_n[n], noise,
                                          params)
                ys_n[n + 1] = y
        _guard(ys_n[n0 + 1:n1 + 1], n0, params.blowup_threshold, seeds)
    return ys


def _increments(paths) -> np.ndarray:
    """The Brownian increments of a batch of paths, shape (nsteps, npaths, K)."""
    return np.stack([wp.increments for wp in paths], axis=1)


def _energy_values(g: Grid, values: np.ndarray, pot: Potential) -> np.ndarray:
    """Array-level free energy; leading axes of ``values`` are a batch."""
    return (0.5 * grad_norm_sq_values(g, values)
            + np.sum(pot.psi(values), axis=g.axes) * g.cell_volume)


def series_l2h_norm(values: np.ndarray, tg: TimeGrid, grid: Grid) -> float:
    """Discrete L2(0,T; H) norm of a time-indexed field series.

    Uses the left-endpoint rule over the first ``nsteps`` entries, matching
    the quadrature of the tracking cost.
    """
    vals = np.asarray(values)
    n = min(vals.shape[0], tg.nsteps)
    sq = np.sum(vals[:n] ** 2, axis=tuple(range(1, vals.ndim)))
    return float(np.sqrt(np.sum(sq) * tg.tau * grid.cell_volume))
