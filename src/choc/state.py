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
one.
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
from .physics import NoiseModel, Potential, b_increment_values

__all__ = [
    "TimeGrid",
    "WienerPath",
    "Trajectory",
    "StateParams",
    "mix_seed",
    "sample_wiener_path",
    "chemical_potential",
    "step_state",
    "solve_state",
    "energy",
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


def sample_wiener_path(nm: NoiseModel, tg: TimeGrid, seed: int) -> WienerPath:
    """Draw the Brownian increments for one path; a pure function of the seed."""
    rng = np.random.default_rng(int(seed) & _MASK64)
    incr = rng.standard_normal((tg.nsteps, nm.nmodes)) * np.sqrt(tg.tau)
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


@dataclass(frozen=True)
class Trajectory:
    """States of a batch of noise paths; a single path is a batch of one.

    ``ys`` stacks the nsteps+1 state fields of every path behind a leading
    path axis. The control values, shared by the paths, and the Wiener paths that generated the trajectory are kept for the
    linearized and adjoint solvers. The chemical potentials ``ws`` at the
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
    lam = p.grid.lap_symbol
    axes = p.grid.axes
    explicit = reaction - p.stabilization * x - source
    rhs_hat = x_hat + p.timegrid.tau * lam * _dct_values(explicit, axes)
    if noise is not None:
        rhs_hat = rhs_hat + _dct_values(noise, axes)
    x_next_hat = rhs_hat / p.implicit_symbol
    return _idct_values(x_next_hat, axes), x_next_hat


def step_state(y_n: Field, u_n: Field, dw_n, params: StateParams):
    """One stabilized Euler-Maruyama step; returns (y_{n+1}, w_n)."""
    if y_n.grid != params.grid or u_n.grid != params.grid:
        raise ConfigurationError("fields live on a different grid than the solver")
    dw_n = np.atleast_1d(np.asarray(dw_n, dtype=float))
    if dw_n.shape != (params.noise.nmodes,):
        raise ShapeError(
            f"expected {params.noise.nmodes} Brownian increments, got {dw_n.shape}"
        )
    y = y_n.values
    noise = b_increment_values(params.noise, y, dw_n) if params.noise.nmodes else None
    y_next, _ = _step_spectral(y, _dct_values(y), params.potential.psi_prime(y),
                               u_n.values, noise, params)
    try:
        _guard(y_next, 0, params.blowup_threshold, [None])
    except BlowUpError as exc:    # one field, not a path of an ensemble
        raise BlowUpError(exc.step, exc.max_abs) from None
    return Field(params.grid, y_next), chemical_potential(y_n, u_n, params.potential)


def _guard(values: np.ndarray, step: int, threshold: float, seeds) -> None:
    """Raise :class:`BlowUpError` when a path of ``values`` (one per seed)
    is not finite or exceeds the threshold, naming the lowest such path."""
    top = float(np.max(np.abs(values)))
    if np.isfinite(top) and top <= threshold:
        return
    rows = np.max(np.abs(values).reshape(len(seeds), -1), axis=1)
    i = int(np.argmax(~np.isfinite(rows) | (rows > threshold)))
    raise BlowUpError(step, float(rows[i]), seeds[i], i)


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

    # Every array of a step carries the leading path axis; the *_n arrays
    # are views indexed by step first.
    nsteps = tg.nsteps
    ys = np.empty((len(batch), nsteps + 1) + g.shape)
    ys_n = np.moveaxis(ys, 1, 0)
    dw_n = _increments(batch)
    nm = params.noise
    noisy = nm.nmodes > 0
    psi_prime = params.potential.psi_prime
    seeds = [wp.seed for wp in batch]

    y = np.repeat(y0.values[None], len(batch), axis=0)
    y_hat = _dct_values(y, g.axes)
    ys_n[0] = y
    for n in range(nsteps):
        noise = b_increment_values(nm, y, dw_n[n]) if noisy else None
        y, y_hat = _step_spectral(y, y_hat, psi_prime(y), uvals[n], noise, params)
        _guard(y, n, params.blowup_threshold, seeds)
        ys_n[n + 1] = y
    mass = ys.sum(axis=g.axes) / g.size
    return Trajectory(params=params, ys=ys, control=uvals, wiener=batch, mass=mass)


def _increments(paths) -> np.ndarray:
    """The Brownian increments of a batch of paths, shape (nsteps, npaths, K)."""
    return np.stack([wp.increments for wp in paths], axis=1)


def _energy_values(g: Grid, values: np.ndarray, pot: Potential) -> np.ndarray:
    """Array-level free energy; leading axes of ``values`` are a batch."""
    return (0.5 * grad_norm_sq_values(g, values)
            + np.sum(pot.psi(values), axis=g.axes) * g.cell_volume)


def energy(y: Field, pot: Potential) -> float:
    """Free energy: half the Dirichlet form plus the potential integral."""
    return float(_energy_values(y.grid, y.values, pot))


def series_l2h_norm(values: np.ndarray, tg: TimeGrid, grid: Grid) -> float:
    """Discrete L2(0,T; H) norm of a time-indexed field series.

    Uses the left-endpoint rule over the first ``nsteps`` entries, matching
    the quadrature of the tracking cost.
    """
    vals = np.asarray(values)
    n = min(vals.shape[0], tg.nsteps)
    sq = np.sum(vals[:n] ** 2, axis=tuple(range(1, vals.ndim)))
    return float(np.sqrt(np.sum(sq) * tg.tau * grid.cell_volume))
