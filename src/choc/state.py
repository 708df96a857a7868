"""Forward integration of the controlled stochastic Cahn-Hilliard system.

One Euler-Maruyama step treats the stiff fourth-order term implicitly and
the nonlinearity explicitly with a linear stabilization shift S:

    (I + tau*Lap^2 - tau*S*Lap) y_{n+1}
        = y_n + tau*Lap(psi'(y_n) - S*y_n - u_n) + Pi B(y_n) dW_n,

where Lap is the (negative semi-definite) Neumann Laplacian and Pi removes
the grid mean of mean-free noise (multiplicative, or additive without a
constant mode) and is the identity otherwise. Both operators are diagonal
in the cosine basis, with symbols d and lambda, so the step runs on the
cosine coefficients of y:

    yhat_{n+1} = a yhat_n + b DCT(psi'(y_n) - u_n) + c DCT(B(y_n) dW_n),
    a = (1 - tau*S*lambda)/d,   b = tau*lambda/d,   c = 1/d,

where c's zero mode is 0 when the noise is mean-free: that zero is the
projection Pi (:attr:`StateParams.step_symbols`). As lambda_0 = 0 and
d_0 = 1, a's zero mode is 1 and b's is 0, so a step carries the zero
coefficient of y, its mean times sqrt(grid.size), bit for bit, and the
spatial mean of y is conserved along every path up to the rounding of the
inverse transform. The noise enters explicitly at the old iterate.

A step makes two transform calls, bound once per sweep: the step map
(:func:`~choc.grid._step_map`) takes the explicit term and the noise
increment (the explicit term alone without noise) forward and applies
(b, c), and the inverse step transform gives y_{n+1}. Which route a call
takes, products or the pocketfft kernel, with the symbols folded in or
not, is :mod:`choc.grid`'s rule alone, and every route keeps the bits of
the formulas. The linearized solver runs the same step.

The data are arrays: the initial datum is one field of shape grid.shape,
a control one field per step, and the noise of an ensemble one
:class:`WienerPaths` batch, whose increments of shape (nsteps, npaths, K)
are what the sweeps read, step by step, with no copy. The tracking
targets reach every reader in one shape, :func:`target_values`'s: with a
leading path axis, which a target shared by the paths has as a zero
stride.

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
sweeps, psi''(y_n), rho'(y_n) and the tracking forcing. The state sweep
guards the states of a block after it. A step's factors are computed from
that step's data alone, so every block length gives the same bits.

A sweep allocates the workspace of its steps once (:func:`_stepper` for
the state and linearized steps): the symbols are broadcast to the step
shape (ncontrols, npaths, *grid.shape), and every per-step ufunc, transform
and noise operator writes through ``out=`` into that workspace. The
working state is one of its arrays; each step's state is copied into the
stored trajectory. Before each block the sweep copies the block's controls
(or directions) to the step shape, so a step subtracts two arrays of one
shape. Every result has the bits of the formulas that allocate each array
and run the same maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BlowUpError, ConfigurationError, DomainError, ShapeError
from .grid import (
    Grid,
    _dct as _dct_values,
    _step_map,
    _step_transform,
    field_array,
    grad_norm_sq_values,
)
from .physics import NoiseModel, Potential, _mode_sum, b_increment_values

__all__ = [
    "TimeGrid",
    "WienerPaths",
    "Trajectory",
    "StateParams",
    "mix_seed",
    "sample_wiener_paths",
    "aggregate_increments",
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
class WienerPaths:
    """Brownian increments of K modes for a batch of paths over a time grid,
    each path fixed by its seed.

    ``increments[n, i]`` holds the K increments, i.i.d. N(0, tau), of step n
    on the path of ``seeds[i]``: the step-first layout the sweeps read.
    """

    timegrid: TimeGrid
    seeds: tuple[int, ...]
    increments: np.ndarray   # (nsteps, npaths, K)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ConfigurationError("need at least one Wiener path")
        shape = self.increments.shape
        if len(shape) != 3 or shape[:2] != (self.timegrid.nsteps, len(self.seeds)):
            raise ShapeError(f"increment array shape {shape} != "
                             f"({self.timegrid.nsteps}, {len(self.seeds)}, K)")

    @property
    def npaths(self) -> int:
        return self.increments.shape[1]

    @property
    def nmodes(self) -> int:
        return self.increments.shape[2]


def _generator(seed: int) -> np.random.Generator:
    """numpy's generator of ``seed`` reduced mod 2^64, so a negative seed
    draws a stream too and a nonnegative one keeps its bits."""
    return np.random.default_rng(int(seed) & _MASK64)


def sample_wiener_paths(nm: NoiseModel, tg: TimeGrid, seeds) -> WienerPaths:
    """Draw the Brownian increments of the paths of ``seeds``: path i is
    drawn from the generator of seeds[i] alone, so it is a pure function of
    its seed, whatever the batch."""
    seeds = tuple(seeds)
    shape = (tg.nsteps, nm.nmodes)
    incr = np.empty((tg.nsteps, len(seeds), nm.nmodes))
    for i, seed in enumerate(seeds):
        incr[:, i] = _generator(seed).standard_normal(shape) * np.sqrt(tg.tau)
    return WienerPaths(timegrid=tg, seeds=seeds, increments=incr)


def aggregate_increments(paths: WienerPaths, factor: int) -> WienerPaths:
    """Sum groups of ``factor`` consecutive increments: the same Brownian
    paths viewed on a coarser time grid. Used by the refinement studies.

    The sums run path-major, each path's over its own contiguous (coarse,
    factor, K) array, so each path's increments are bitwise those of
    aggregating it alone; a reduction over the step-first layout takes
    another order and, with one mode, other bits.
    """
    tg = paths.timegrid
    if tg.nsteps % factor != 0:
        raise ConfigurationError("aggregation factor must divide nsteps")
    coarse = TimeGrid(tg.t_final, tg.nsteps // factor)
    by_path = np.ascontiguousarray(np.moveaxis(paths.increments, 1, 0))
    sums = by_path.reshape(paths.npaths, coarse.nsteps, factor, paths.nmodes).sum(axis=2)
    return WienerPaths(timegrid=coarse, seeds=paths.seeds,
                       increments=np.ascontiguousarray(np.moveaxis(sums, 0, 1)))


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
        """Cosine-space symbol d of I + tau*Lap^2 - tau*S*Lap (>= 1)."""
        lam = self.grid.lap_symbol
        tau = self.timegrid.tau
        return 1.0 + tau * lam**2 - tau * self.stabilization * lam

    @cached_property
    def step_symbols(self) -> np.ndarray:
        """The cosine-space symbols (a, b, c) of a step (see the module
        docstring), stacked, shape (3, *grid.shape): a = (1 - tau*S*lambda)/d,
        b = tau*lambda/d and c = 1/d, whose zero mode is 0 when the noise
        is mean-free."""
        lam = self.grid.lap_symbol
        tau = self.timegrid.tau
        d = self.implicit_symbol
        c = 1.0 / d
        if self.noise.is_mean_free:
            c[(0,) * self.grid.ndims] = 0.0
        return np.stack([(1.0 - tau * self.stabilization * lam) / d, tau * lam / d, c])

    @cached_property
    def node_symbols(self) -> np.ndarray:
        """The cosine-space symbols (1/d, -lambda/d) of the transpose of a
        step's implicit solve, stacked, shape (2, *grid.shape): they map the
        coefficients of P_{n+1} to those of p_n and of ptilde_n = -Lap p_n
        (see :mod:`choc.sensitivity`)."""
        d = self.implicit_symbol
        return np.stack([1.0 / d, -self.grid.lap_symbol / d])


@dataclass(frozen=True)
class Trajectory:
    """States of a batch of noise paths; a single path is a batch of one.

    ``ys`` stacks the nsteps+1 state fields of every path behind a leading
    path axis. ``control`` holds the control values, shared by the paths,
    and ``wiener`` the Wiener paths that generated the trajectory; the
    linearized and adjoint solvers read ``params``, ``ys`` and ``wiener``,
    not the control. The mass and free-energy series are computed when
    first read.
    """

    params: StateParams
    ys: np.ndarray               # (npaths, nsteps+1, *grid.shape)
    control: np.ndarray          # (nsteps, *grid.shape)
    wiener: WienerPaths

    @property
    def grid(self) -> Grid:
        return self.params.grid

    @property
    def timegrid(self) -> TimeGrid:
        return self.params.timegrid

    @property
    def npaths(self) -> int:
        return self.wiener.npaths

    @cached_property
    def mass(self) -> np.ndarray:
        """Grid mean of every state, shape (npaths, nsteps+1)."""
        return self.ys.sum(axis=self.grid.axes) / self.grid.size

    @cached_property
    def energy(self) -> np.ndarray:
        """Free energy of every state, shape (npaths, nsteps+1)."""
        return _energy_values(self.grid, self.ys, self.params.potential)


def control_values(u, tg: TimeGrid, grid: Grid) -> np.ndarray:
    """Normalize a control argument, None (zero control) or an array, to a
    (nsteps, *grid.shape) array."""
    return _series_array(u, (tg.nsteps,) + grid.shape, "control", None)


def target_values(x_q, x_t, alphas, tg: TimeGrid, grid: Grid, npaths: int):
    """Normalize the tracking targets the cost weights read, to the one
    shape every reader takes.

    Returns (xQ, xT) with a leading path axis, of shapes (npaths, nsteps,
    *grid.shape) and (npaths, *grid.shape). A target given without that
    axis is shared by the paths and comes back as a read-only view of it
    with a zero stride; None stands for a zero target. A target whose weight
    is zero is not read and comes back as None. A target of another shape
    is a :class:`ConfigurationError`.
    """
    a1, a2, _ = alphas
    xq = (_series_array(x_q, (tg.nsteps,) + grid.shape, "distributed target", npaths)
          if a1 != 0.0 else None)
    xt = (_series_array(x_t, grid.shape, "terminal target", npaths)
          if a2 != 0.0 else None)
    return xq, xt


def _series_array(x, shape, kind: str, npaths: int | None) -> np.ndarray:
    """``x`` as a float array of ``shape``, None being zero; given
    ``npaths``, of (npaths, *shape), where an ``x`` of ``shape`` is
    broadcast over the paths."""
    values = np.zeros(shape) if x is None else np.asarray(x, dtype=float)
    shapes = [shape] + ([(npaths,) + shape] if npaths else [])
    if values.shape not in shapes:
        wanted = " or ".join(str(s) for s in shapes)
        raise ConfigurationError(f"{kind} shape {values.shape} != {wanted}")
    return np.broadcast_to(values, shapes[-1]) if values.shape != shapes[-1] else values


def _path_sums(a: np.ndarray) -> np.ndarray:
    """The sum of each path's entries of a contiguous (npaths, ...) array.

    The summed axes are trailing and contiguous, so each sum is bitwise the
    ``np.sum`` of that path's array alone.
    """
    return np.sum(a, axis=tuple(range(1, a.ndim)))


def _stepper(p: StateParams, x: np.ndarray, x_hat: np.ndarray, noisy: bool):
    """The step of the scheme on the working arrays ``x`` and ``x_hat``,
    with the workspace it runs in, allocated once for a sweep.

    Returns (noise, step). ``noise`` is the array into which a step writes
    its unprojected noise increment before it runs, or None when ``noisy``
    is false. step(reaction, source) solves

        (I + tau*Lap^2 - tau*S*Lap) x_next
            = x + tau*Lap(reaction - S*x - source) + Pi noise

    in coefficient space, x_hat <- a x_hat + b DCT(reaction - source)
    + c DCT(noise) with the symbols of :attr:`StateParams.step_symbols`,
    where ``x_hat`` holds the transform of ``x``, and overwrites ``x`` and
    ``x_hat`` with x_next and its coefficients. ``x`` and ``x_hat`` are
    contiguous float64 arrays of one shape, which may lead with batch axes,
    and ``reaction`` and ``source`` have that shape. The explicit term and
    the noise increment are the inputs of one bound step map
    (:func:`~choc.grid._step_map`), so a step makes one forward transform
    call, which applies (b, c), and one inverse call; without noise the map
    takes the explicit term alone.
    """
    inputs, update = _step_map(p.grid, x_hat, p.step_symbols[:3 if noisy else 2])
    explicit = inputs[0]
    inverse = _step_transform(p.grid, x_hat, x, inverse=True)

    def step(reaction, source):
        np.subtract(reaction, source, out=explicit)
        update()
        inverse()
    return (inputs[1] if noisy else None), step


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


def solve_state(y0, u, paths: WienerPaths, params: StateParams) -> Trajectory:
    """Integrate the state system along a batch of noise paths in one sweep.

    ``y0`` is one field of shape grid.shape, shared by every path, and
    ``u`` one control of shape (nsteps, *grid.shape); the trajectory carries
    the leading path axis of ``paths``. Each path's result is bitwise that
    of solving it alone.

    Deterministic given (y0, control, paths).
    Raises :class:`BlowUpError` instead of clipping runaway states. It names
    the earliest step at which a path blew up and, at that step, the lowest
    blown-up path: its seed and its index in the batch.
    """
    g = params.grid
    tg = params.timegrid
    y0 = field_array(g, y0, "initial datum")
    if paths.timegrid != tg:
        raise ConfigurationError("Wiener paths sampled on a different time grid")
    if paths.nmodes != params.noise.nmodes:
        raise ConfigurationError("Wiener paths have a different number of modes")
    uvals = control_values(u, tg, g)
    ys = _sweep_state(y0, uvals[None], paths, params)
    return Trajectory(params=params, ys=ys, control=uvals, wiener=paths)


def _sweep_state(y0: np.ndarray, controls: np.ndarray, paths: WienerPaths,
                 params: StateParams) -> np.ndarray:
    """The state sweep of the rows controls × paths, control-major: row r
    runs ``controls[r // npaths]`` on path ``r % npaths`` from ``y0``.

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
    npaths = paths.npaths
    ys = np.empty((ncontrols * npaths, nsteps + 1) + g.shape)
    ys_n = _step_major(ys, npaths)
    u_n = np.moveaxis(controls, 1, 0)[:, :, None]
    dw_n = paths.increments
    nm = params.noise
    noisy = nm.nmodes > 0
    psi_prime = params.potential.psi_prime

    # the working state and its coefficients are contiguous arrays that the
    # steps overwrite; each state is copied into ys
    y = np.broadcast_to(y0, (ncontrols, npaths) + g.shape).copy()
    y_hat = _dct_values(y, g.axes)
    ys_n[0] = y
    noise, step = _stepper(params, y, y_hat, noisy)
    blocks = _blocks(nsteps, y)
    sources = np.empty((blocks[0][1],) + y.shape)
    for n0, n1 in blocks:
        # the block's controls, copied to the step shape
        u_b = sources[:n1 - n0]
        np.copyto(u_b, u_n[n0:n1])
        xi = _mode_sum(nm, dw_n[n0:n1]) if noisy else None
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(n1 - n0):
                if noisy:
                    b_increment_values(nm, y, xi[j], out=noise)
                step(psi_prime(y), u_b[j])
                ys_n[n0 + j + 1] = y
        _guard(ys_n[n0 + 1:n1 + 1], n0, params.blowup_threshold, paths.seeds)
    return ys


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
