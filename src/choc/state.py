"""Forward integration of the controlled stochastic Cahn-Hilliard system.

One Euler-Maruyama step treats the stiff fourth-order term implicitly and
the nonlinearity explicitly with a linear stabilization shift S:

    (I + tau*Lap^2 - tau*S*Lap) y_{n+1}
        = y_n + tau*Lap(psi'(y_n) - S*y_n - u_n) + B(y_n) dW_n,

where Lap is the (negative semi-definite) Neumann Laplacian. The implicit
operator is diagonal in the cosine basis and the step carries the cosine
coefficients of y, so a step makes four transforms (three without noise):
forward transforms of the explicit term and of the noise increment, inverse
transforms of y_{n+1} and of the chemical potential. The linearized solver
runs the same step. The noise enters explicitly at the old iterate. Because
the zero mode of Lap vanishes and mean-free noise has no zero mode, the
spatial mean of y is conserved along every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BlowUpError, ConfigurationError, DomainError, ShapeError
from .grid import (
    Field,
    Grid,
    _dct as _dct_values,
    _idct as _idct_values,
    grad_norm_sq,
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
    """States and chemical potentials for one noise path.

    ``ys`` stacks the nsteps+1 state fields, ``ws`` the nsteps chemical
    potentials evaluated at the step starts. The control values and the
    Wiener path that generated the trajectory are kept for the linearized
    and adjoint solvers. The free-energy series is computed when first read.
    """

    params: StateParams
    ys: np.ndarray               # (nsteps+1, *grid.shape)
    ws: np.ndarray               # (nsteps,   *grid.shape)
    control: np.ndarray          # (nsteps,   *grid.shape)
    wiener: WienerPath
    mass: np.ndarray             # (nsteps+1,)

    @property
    def grid(self) -> Grid:
        return self.params.grid

    @property
    def timegrid(self) -> TimeGrid:
        return self.params.timegrid

    @cached_property
    def energy(self) -> np.ndarray:
        """Free energy of every state, shape (nsteps+1,)."""
        pot = self.params.potential
        return np.array([_energy_values(self.grid, y, pot) for y in self.ys])

    def y(self, n: int) -> Field:
        return Field(self.grid, self.ys[n])

    def w(self, n: int) -> Field:
        return Field(self.grid, self.ws[n])


def control_values(u, tg: TimeGrid, grid: Grid) -> np.ndarray:
    """Normalize a control argument to a (nsteps, *grid.shape) array.

    Accepts None (zero control), an array, or any object with a ``values``
    array of the right shape.
    """
    if u is None:
        return np.zeros((tg.nsteps,) + grid.shape)
    values = getattr(u, "values", u)
    values = np.asarray(values, dtype=float)
    if values.shape != (tg.nsteps,) + grid.shape:
        raise ConfigurationError(
            f"control shape {values.shape} != {(tg.nsteps,) + grid.shape}"
        )
    return values


def target_values(x_q, x_t, alphas, tg: TimeGrid, grid: Grid):
    """Normalize the tracking targets the cost weights read.

    Returns (xQ, xT) as arrays of shapes (nsteps, *grid.shape) and
    grid.shape; None stands for a zero target. A target whose weight is zero
    is not read and comes back as None. A target of another shape is a
    :class:`ConfigurationError`.
    """
    a1, a2, _ = alphas
    xq = (_target_array(x_q, (tg.nsteps,) + grid.shape, "distributed")
          if a1 != 0.0 else None)
    xt = _target_array(x_t, grid.shape, "terminal") if a2 != 0.0 else None
    return xq, xt


def _target_array(x, shape, kind: str) -> np.ndarray:
    values = (np.zeros(shape) if x is None
              else np.asarray(getattr(x, "values", x), dtype=float))
    if values.shape != shape:
        raise ConfigurationError(f"{kind} target shape {values.shape} != {shape}")
    return values


def chemical_potential(y: Field, u: Field, pot: Potential) -> Field:
    """w = -Lap y + psi'(y) - u."""
    if y.grid != u.grid:
        raise ConfigurationError("state and control live on different grids")
    values = -lap_values(y.grid, y.values) + pot.psi_prime(y.values) - u.values
    return Field(y.grid, values)


def _step_spectral(x: np.ndarray, x_hat: np.ndarray, reaction: np.ndarray,
                   source: np.ndarray, noise: np.ndarray | None, p: StateParams):
    """One step of the scheme, carrying the cosine coefficients of x.

    Solves (I + tau*Lap^2 - tau*S*Lap) x_next
        = x + tau*Lap(reaction - S*x - source) + noise,
    where ``x_hat`` is the transform of ``x`` and ``noise`` may be None.
    Returns (x_next, x_next_hat, -Lap x + reaction - source).
    """
    lam = p.grid.lap_symbol
    explicit = reaction - p.stabilization * x - source
    rhs_hat = x_hat + p.timegrid.tau * lam * _dct_values(explicit)
    if noise is not None:
        rhs_hat = rhs_hat + _dct_values(noise)
    x_next_hat = rhs_hat / p.implicit_symbol
    x_next = _idct_values(x_next_hat)
    potential = _idct_values(-lam * x_hat) + reaction - source
    return x_next, x_next_hat, potential


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
    y_next, _, w_n = _step_spectral(y, _dct_values(y), params.potential.psi_prime(y),
                                    u_n.values, noise, params)
    _guard(y_next, 0, params.blowup_threshold)
    return Field(params.grid, y_next), Field(params.grid, w_n)


def _guard(values: np.ndarray, step: int, threshold: float, seed=None) -> None:
    top = float(np.max(np.abs(values)))
    if not np.isfinite(top) or top > threshold:
        raise BlowUpError(step, top, seed)


def solve_state(y0: Field, u, wp: WienerPath, params: StateParams) -> Trajectory:
    """Integrate the state system along one noise path.

    Deterministic given (y0, control, wp); records the mass series. Raises
    :class:`BlowUpError`, carrying the path's seed, instead of clipping
    runaway states.
    """
    g = params.grid
    tg = params.timegrid
    if y0.grid != g:
        raise ConfigurationError("initial datum lives on a different grid")
    if wp.timegrid != tg:
        raise ConfigurationError("Wiener path sampled on a different time grid")
    if wp.nmodes != params.noise.nmodes:
        raise ConfigurationError("Wiener path has a different number of modes")
    uvals = control_values(u, tg, g)

    nsteps = tg.nsteps
    ys = np.empty((nsteps + 1,) + g.shape)
    ws = np.empty((nsteps,) + g.shape)
    mass = np.empty(nsteps + 1)
    nm = params.noise
    noisy = nm.nmodes > 0
    psi_prime = params.potential.psi_prime

    y = y0.values.copy()
    y_hat = _dct_values(y)
    ys[0] = y
    mass[0] = np.mean(y)
    for n in range(nsteps):
        noise = b_increment_values(nm, y, wp.increments[n]) if noisy else None
        y, y_hat, ws[n] = _step_spectral(y, y_hat, psi_prime(y), uvals[n], noise,
                                         params)
        _guard(y, n, params.blowup_threshold, wp.seed)
        ys[n + 1] = y
        mass[n + 1] = np.mean(y)
    return Trajectory(params=params, ys=ys, ws=ws, control=uvals, wiener=wp,
                      mass=mass)


def _energy_values(g: Grid, values: np.ndarray, pot: Potential) -> float:
    f = Field(g, values)
    return 0.5 * grad_norm_sq(f) + float(np.sum(pot.psi(values)) * g.cell_volume)


def energy(y: Field, pot: Potential) -> float:
    """Free energy: half the Dirichlet form plus the potential integral."""
    return _energy_values(y.grid, y.values, pot)


def series_l2h_norm(values: np.ndarray, tg: TimeGrid, grid: Grid) -> float:
    """Discrete L2(0,T; H) norm of a time-indexed field series.

    Uses the left-endpoint rule over the first ``nsteps`` entries, matching
    the quadrature of the tracking cost.
    """
    vals = np.asarray(values)
    n = min(vals.shape[0], tg.nsteps)
    sq = np.sum(vals[:n] ** 2, axis=tuple(range(1, vals.ndim)))
    return float(np.sqrt(np.sum(sq) * tg.tau * grid.cell_volume))
