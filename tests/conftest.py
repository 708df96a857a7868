"""Shared fixtures and dense-matrix oracles.

The oracles assemble the reflected-ghost Neumann stencil as ordinary dense
matrices and never touch the package's transform path, so every spectral
result is checked against an independent computation.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from choc import Field, Grid, Potential, TimeGrid, double_well, multiplicative_noise
from choc.grid import _dct, _idct, lap_values, low_pass_field
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


def apply_dense(mat: np.ndarray, field: Field) -> np.ndarray:
    return (mat @ field.values.ravel()).reshape(field.grid.shape)


def inner_h(x: Field, z: Field) -> float:
    """Discrete L2 inner product: the midpoint rule on the cell centers."""
    return float(np.sum(x.values * z.values) * x.grid.cell_volume)


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
        pv = _idct(_dct(rhs, g.axes) / p.implicit_symbol, g.axes)
        pt = ptildes[:, n] = -lap_values(g, pv)
    return ptildes


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


def random_field(grid: Grid, rng, smooth=False, amplitude=1.0) -> Field:
    if smooth:
        return low_pass_field(grid, rng, amplitude)
    return Field(grid, amplitude * rng.standard_normal(grid.shape))


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
