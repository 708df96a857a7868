"""Shared fixtures, dense-matrix oracles and per-step sweep oracles.

The dense oracles assemble the reflected-ghost Neumann stencil as ordinary
dense matrices and never touch the package's transform path, so every
spectral result is checked against an independent computation. The
per-step sweep oracles do transform: they pin the bits of the sweeps'
workspace to the step formulas written one allocated array at a time.
"""

import tracemalloc
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from choc import (
    BlowUpError,
    Grid,
    Potential,
    TimeGrid,
    WienerPaths,
    double_well,
    multiplicative_noise,
)
from choc.grid import (
    _dct,
    _idct,
    _node_map,
    _step_map,
    _step_transform,
    lap_values,
    low_pass_values,
)
from choc.physics import _mode_sum
from choc.state import StateParams


def dense_lap_1d(n: int, h: float) -> np.ndarray:
    """Second-difference matrix with reflected ghost cells."""
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] -= 2.0
        a[i, max(i - 1, 0)] += 1.0
        a[i, min(i + 1, n - 1)] += 1.0
    return a / h**2


def dense_neumann_laplacian(grid: Grid) -> np.ndarray:
    """Dense Laplacian acting on row-major flattened fields."""
    mats = [dense_lap_1d(n, h) for n, h in zip(grid.npoints, grid.spacings)]
    if grid.ndims == 1:
        return mats[0]
    ix = np.eye(grid.npoints[0])
    iy = np.eye(grid.npoints[1])
    return np.kron(mats[0], iy) + np.kron(ix, mats[1])


def apply_dense(mat: np.ndarray, field: np.ndarray) -> np.ndarray:
    return (mat @ field.ravel()).reshape(field.shape)


def inner_h(grid: Grid, x: np.ndarray, z: np.ndarray) -> float:
    """Discrete L2 inner product: the midpoint rule on the cell centers."""
    return float(np.sum(x * z) * grid.cell_volume)


def chemical_potential(grid: Grid, y: np.ndarray, u: np.ndarray,
                       pot: Potential) -> np.ndarray:
    """w = -Lap y + psi'(y) - u; leading axes of ``y`` are a batch."""
    return -lap_values(grid, y) + pot.psi_prime(y) - u


def step_potentials(traj) -> np.ndarray:
    """w_n = -Lap y_n + psi'(y_n) - u_n of a trajectory at every step start,
    shape (npaths, nsteps, *grid.shape)."""
    return chemical_potential(traj.grid, traj.ys[:, :-1], traj.control,
                              traj.params.potential)


def linearized_potential(lin) -> np.ndarray:
    """mu_n = -Lap z_n + C_n z_n - h_n of a linearized solution at every step
    start, shape (npaths, nsteps, *grid.shape), with C_n the curvature of
    its trajectory's potential."""
    z = lin.zs[:, :-1]
    curvature = lin.params.potential.psi_second(lin.traj.ys[:, :-1])
    return -lap_values(lin.grid, z) + curvature * z - lin.h


def zero_potential() -> Potential:
    """psi identically zero; reduces the dynamics to the bi-Laplacian flow."""
    return Potential(
        name="zero",
        psi=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        psi_prime=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        psi_second=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        c1=0.0,
    )


def clamped(params: StateParams, level: float) -> StateParams:
    """The same parameters with psi'' clamped to [-level, level], the
    curvature that check_truncation sweeps at a level; an infinite level
    clamps nothing."""
    pot = params.potential
    return replace(params, potential=replace(
        pot, psi_second=lambda r: np.clip(pot.psi_second(r), -level, level)))


def continuous_ptildes(traj, x_q: np.ndarray, a1: float) -> np.ndarray:
    """The continuous reference ptilde of check_backend_consistency at the
    step starts of every path, stored, shape (npaths, nsteps, *grid.shape):
    the recursion of ``verify._continuous_gaps``, one step at a time, from
    p_N = 0 and ptilde_N = 0."""
    p = traj.params
    g = p.grid
    tau = p.timegrid.tau
    ptildes = np.empty(traj.ys[:, :-1].shape)
    pv = pt = np.zeros(traj.ys[:, 0].shape)
    for n in range(p.timegrid.nsteps - 1, -1, -1):
        y_n = traj.ys[:, n]
        rhs = (pv - tau * (p.potential.psi_second(y_n) - p.stabilization) * pt
               + tau * (a1 * (y_n - x_q[n])))
        pv, pt = node_map(g, rhs, p.node_symbols)
        ptildes[:, n] = pt
    return ptildes


# The sweeps' steps as formulas that allocate every result. The sweeps run
# the rows controls × paths, control-major; the sweep oracles below run one
# step at a time over arrays shaped (ncontrols, npaths, *grid.shape), with
# the per-step formulas of a StepFormulas:
#
# - FORMULAS, the sweeps' formulas in coefficient space with the symbols of
#   StateParams.step_symbols, whose c drops the zero mode of mean-free noise,
#   and StateParams.node_symbols, through the maps the sweeps bind
#   (step_map, node_map, step_transform), on a short 1D axis with the
#   symbols folded into the cosine matrices: the sweeps must give their
#   bits;
# - REFERENCE_FORMULAS, the scheme as its equations read: the noise projected
#   to zero mean in physical space, the right-hand side x + tau*Lap(...) +
#   noise divided by the implicit symbol, and DB* with the mean of p summed
#   over the grid. The sweeps agree with them to rounding.


class StepFormulas(NamedTuple):
    """One step of each sweep: the noise increment B(y) dw and DB(y)[z] dw
    that a step takes, ``step`` (returns x_next and its coefficients), and
    an adjoint ``node`` (returns p_n, ptilde_n and Pi p_n, p_n less its
    grid mean)."""

    noise: Callable
    dnoise: Callable
    step: Callable
    node: Callable


def path_mean(g: Grid, x: np.ndarray) -> np.ndarray:
    """Grid mean of each row of ``x``, kept broadcastable against ``x``."""
    return x.sum(axis=g.axes, keepdims=True) / g.size


def projected_modes(nm, v: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """xi times v, projected to zero mean row by row."""
    col = xi * v
    return col - path_mean(nm.grid, col)


def _noise(nm, y, xi):
    if nm.nmodes == 0:
        return np.zeros(y.shape)
    if not nm.is_multiplicative:
        return xi
    return xi * np.tanh(y)


def _dnoise(nm, rho_prime_y, z, xi):
    if nm.nmodes == 0 or not nm.is_multiplicative:
        return np.zeros(z.shape)
    return xi * (rho_prime_y * z)


def step_transform(g: Grid, x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The transform a sweep's step makes, of ``x`` into a new array."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    _step_transform(g, x, out, inverse)()
    return out


def step_map(g: Grid, x_hat: np.ndarray, symbols: np.ndarray, inputs) -> np.ndarray:
    """The map a sweep's step applies, s_0 x_hat + sum_k s_k DCT(inputs[k]),
    into a new array."""
    out = np.array(x_hat, dtype=np.float64)
    arrays, run = _step_map(g, out, symbols)
    for array, x in zip(arrays, inputs, strict=True):
        np.copyto(array, x)
    run()
    return out


def node_map(g: Grid, x: np.ndarray, symbols: np.ndarray, project: bool = False):
    """The outputs of a sweep's node map of ``x``, IDCT(s_k DCT(x)) for each
    symbol and, when ``project``, the first less its grid mean, as new
    arrays."""
    array, outputs, run = _node_map(g, x.shape, symbols, project)
    np.copyto(array, x)
    run()
    return tuple(out.copy() for out in outputs)


def _step(x, x_hat, reaction, source, noise, p: StateParams):
    """x_hat <- a x_hat + b DCT(reaction - source) + c DCT(noise)."""
    inputs = [reaction - source] + ([] if noise is None else [noise])
    x_next_hat = step_map(p.grid, x_hat, p.step_symbols[:1 + len(inputs)], inputs)
    return step_transform(p.grid, x_next_hat, inverse=True), x_next_hat


def _node(costate, p: StateParams):
    """p_n, ptilde_n and Pi p_n from P_{n+1} by the symbols 1/d and
    -lambda/d, in one node map."""
    return node_map(p.grid, costate, p.node_symbols, project=True)


def _noise_reference(nm, y, xi):
    if nm.nmodes == 0:
        return np.zeros(y.shape)
    if not nm.is_multiplicative:
        return xi
    return projected_modes(nm, np.tanh(y), xi)


def _dnoise_reference(nm, rho_prime_y, z, xi):
    if nm.nmodes == 0 or not nm.is_multiplicative:
        return np.zeros(z.shape)
    return projected_modes(nm, rho_prime_y * z, xi)


def _step_reference(x, x_hat, reaction, source, noise, p: StateParams):
    """(I + tau*Lap^2 - tau*S*Lap) x_next
    = x + tau*Lap(reaction - S*x - source) + noise."""
    axes = p.grid.axes
    explicit = reaction - p.stabilization * x - source
    rhs_hat = x_hat + (p.timegrid.tau * p.grid.lap_symbol) * _dct(explicit, axes)
    if noise is not None:
        rhs_hat = rhs_hat + _dct(noise, axes)
    x_next_hat = rhs_hat / p.implicit_symbol
    return _idct(x_next_hat, axes), x_next_hat


def _node_reference(costate, p: StateParams):
    g = p.grid
    p_hat = _dct(costate, g.axes) / p.implicit_symbol
    p_n = _idct(p_hat, g.axes)
    return p_n, _idct(-g.lap_symbol * p_hat, g.axes), p_n - path_mean(g, p_n)


FORMULAS = StepFormulas(_noise, _dnoise, _step, _node)
REFERENCE_FORMULAS = StepFormulas(_noise_reference, _dnoise_reference,
                                  _step_reference, _node_reference)


def _rows(a: np.ndarray, npaths: int) -> np.ndarray:
    """A (ncontrols * npaths, ...) row array as (ncontrols, npaths, ...)."""
    return a.reshape((-1, npaths) + a.shape[1:])


def sweep_state_oracle(y0, controls, paths, p: StateParams,
                       formulas: StepFormulas = FORMULAS) -> np.ndarray:
    """The state sweep of ``_sweep_state`` on the batch ``paths``, guarded
    after every step: a blow-up names the step and, at it, the lowest row by
    its path."""
    nm = p.noise
    noisy = nm.nmodes > 0
    dw = paths.increments
    y = np.broadcast_to(y0, (len(controls), paths.npaths) + y0.shape).copy()
    y_hat = _dct(y, p.grid.axes)
    ys = [y]
    for n in range(p.timegrid.nsteps):
        with np.errstate(over="ignore", invalid="ignore"):
            noise = formulas.noise(nm, y, _mode_sum(nm, dw[n])) if noisy else None
            y, y_hat = formulas.step(y, y_hat, p.potential.psi_prime(y),
                                     controls[:, n, None], noise, p)
        tops = np.max(np.abs(y).reshape(y.shape[:2] + (-1,)), axis=2)
        bad = ~np.isfinite(tops) | (tops > p.blowup_threshold)
        if bad.any():
            c, i = np.argwhere(bad)[0]
            raise BlowUpError(n, float(tops[c, i]), paths.seeds[i], int(i))
        ys.append(y)
    return np.stack(ys, axis=2).reshape((-1, len(ys)) + y0.shape)


def sweep_linearized_oracle(ys, directions, paths, p: StateParams,
                            formulas: StepFormulas = FORMULAS) -> np.ndarray:
    """The linearized sweep of ``_sweep_linearized``."""
    nm = p.noise
    noisy = nm.is_multiplicative and nm.nmodes > 0
    dw = paths.increments
    rows = _rows(ys, paths.npaths)
    z = z_hat = np.zeros(rows[:, :, 0].shape)
    zs = [z]
    for n in range(p.timegrid.nsteps):
        y_n = rows[:, :, n]
        noise = (formulas.dnoise(nm, nm.rho_prime(y_n), z, _mode_sum(nm, dw[n]))
                 if noisy else None)
        z, z_hat = formulas.step(z, z_hat, p.potential.psi_second(y_n) * z,
                                 directions[:, n, None], noise, p)
        zs.append(z)
    return np.stack(zs, axis=2).reshape(ys.shape)


def sweep_adjoint_oracle(ys, paths, xq, xt, alphas, p: StateParams,
                         formulas: StepFormulas = FORMULAS) -> np.ndarray:
    """The transpose sweep of ``_sweep_adjoint``; the targets as
    ``target_values`` returns them."""
    g = p.grid
    tau = p.timegrid.tau
    nsteps = p.timegrid.nsteps
    nm = p.noise
    noisy = nm.is_multiplicative and nm.nmodes > 0
    a1, a2, _ = alphas
    dw = paths.increments
    rows = _rows(ys, paths.npaths)
    per_path_q = a1 != 0.0 and xq.ndim == g.ndims + 2
    zero = np.zeros(rows[:, :, 0].shape)
    costate = a2 * (rows[:, :, nsteps] - xt) if a2 != 0.0 else zero
    pts = np.empty(rows.shape)
    pts[:, :, nsteps] = -lap_values(g, costate)
    for n in range(nsteps - 1, -1, -1):
        y_n = rows[:, :, n]
        forcing = (tau * (a1 * (y_n - (xq[:, n] if per_path_q else xq[n])))
                   if a1 != 0.0 else zero)
        coef = tau * (p.potential.psi_second(y_n) - p.stabilization)
        p_n, pt_n, pi_p = formulas.node(costate, p)
        pts[:, :, n] = pt_n
        costate = forcing + p_n - coef * pt_n
        if noisy:
            rho_xi = nm.rho_prime(y_n) * _mode_sum(nm, dw[n])
            costate = costate + rho_xi * pi_p
    return pts.reshape(ys.shape)


def select_paths(paths: WienerPaths, indices) -> WienerPaths:
    """The batch of the paths ``indices`` of ``paths``, in that order."""
    indices = list(indices)
    return WienerPaths(paths.timegrid, [paths.seeds[i] for i in indices],
                       paths.increments[:, indices])


def each_path(paths: WienerPaths) -> list[WienerPaths]:
    """Every path of ``paths`` as a batch of one."""
    return [select_paths(paths, [i]) for i in range(paths.npaths)]


def heap_peak(fn, *args, **kwargs):
    """fn's result and the peak, in bytes, of the heap it allocated, by
    tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def random_field(grid: Grid, rng, smooth=False, amplitude=1.0) -> np.ndarray:
    """One random field on ``grid``: white noise, or smooth when ``smooth``."""
    if smooth:
        return low_pass_values(grid, rng, amplitude)
    return amplitude * rng.standard_normal(grid.shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def grid64():
    return Grid((64,), (1.0,))


@pytest.fixture
def grid2d():
    return Grid((16, 12), (1.0, 1.5))


@pytest.fixture
def small_params():
    """Cheap 1D setup used across the solver tests."""
    g = Grid((32,), (1.0,))
    tg = TimeGrid(0.02, 40)
    nm = multiplicative_noise(g, [0.1, 0.1])
    return StateParams(grid=g, timegrid=tg, potential=double_well(), noise=nm)
