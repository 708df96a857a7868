"""Linearized and adjoint solvers along a fixed state trajectory.

The linearized sweep is the state step: with C_n = psi''(y_n) it runs the
state's step function with reaction C_n z_n, source h_n and noise
DB(y_n)[z_n] dW_n, that is

    (I + tau*Lap^2 - tau*S*Lap) z_{n+1}
        = z_n + tau*Lap(C_n z_n - S z_n - h_n) + DB(y_n)[z_n] dW_n,

from z_0 = 0, so the map h -> z is linear and is the exact derivative of
the discrete flow.

The adjoint is the algebraic transpose of this recursion. Writing one
forward step as z_{n+1} = M (E_n z_n - tau*Lap h_n) with M the inverse
implicit operator and E_n = I + tau*Lap(C_n - S) + DB_n, the costate sweep
is

    P_N = alpha2 (y_N - x_T),
    p_n = M P_{n+1},            ptilde_n = -Lap p_n,
    P_n = alpha1*tau*(y_n - xQ_n) + p_n - tau*(C_n - S)*ptilde_n
          + DB_n^T p_n,

One node makes three cosine transforms: the forward transform of P_{n+1},
divided by the implicit symbol, gives the coefficients of p_n, and inverse
transforms of those coefficients and of -Lap's symbol times them give p_n
and ptilde_n. ptilde satisfies, exactly in floating point up to rounding,

    sum_n tau <h_n, ptilde_n>_H
        = alpha1 sum_n tau <y_n - xQ_n, z_n>_H + alpha2 <y_N - x_T, z_N>_H

for every direction h. It is the only adjoint: a direct discretization of
the continuous adjoint equation is the private reference of
:func:`choc.verify.check_backend_consistency` and nothing else.

:func:`solve_adjoint` stores the ptilde_n it computes at every node and
does not keep p, which no reader uses. :func:`solve_linearized` and
:func:`solve_adjoint` sweep every path of a trajectory at once, on arrays
with a leading path axis; each path's sensitivity and costate are bitwise
those of its own sweep. Their sweeps are the private kernels
:func:`_sweep_linearized` and :func:`_sweep_adjoint`, which also run the
rows controls × paths of several controls on one ensemble, each row bitwise
its own sweep. Both run their steps in blocks, as the state sweep does:
before a block they compute its increment fields and C_n and, in the
adjoint, tau*(C_n - S) and tau*alpha1*(y_n - xQ_n), each in one call; the
noise operators take a step's increment field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Grid, _dct, _idct, lap_values
from .physics import _mode_sum, db_adjoint_scaled_values, db_increment_values
from .state import (
    StateParams,
    Trajectory,
    _blocks,
    _increments,
    _path_sums,
    _step_major,
    _step_spectral,
    control_values,
    target_values,
)

__all__ = [
    "LinearizedSolution",
    "AdjointSolution",
    "solve_linearized",
    "solve_adjoint",
    "duality_terms",
]


@dataclass(frozen=True)
class LinearizedSolution:
    """Directional state sensitivity z along a trajectory's paths.

    ``zs`` stacks the nsteps+1 sensitivities from z_0 = 0 in the direction
    ``h``, which the paths share, behind the trajectory's leading path axis.
    The linearized potential mu_n = -Lap z_n + C_n z_n - h_n at the step
    starts is computed when first read.
    """

    traj: Trajectory
    h: np.ndarray                # (nsteps, *grid.shape)
    zs: np.ndarray               # (npaths, nsteps+1, *grid.shape), zs[:, 0] = 0

    @property
    def params(self) -> StateParams:
        return self.traj.params

    @property
    def grid(self) -> Grid:
        return self.params.grid

    @property
    def npaths(self) -> int:
        return self.traj.npaths

    @cached_property
    def mus(self) -> np.ndarray:
        """mu_n at every step start, shape (npaths, nsteps, *grid.shape)."""
        z = self.zs[:, :-1]
        curvature = self.params.potential.psi_second(self.traj.ys[:, :-1])
        return -lap_values(self.grid, z) + curvature * z - self.h


@dataclass(frozen=True)
class AdjointSolution:
    """Costate ptilde = -Lap p per time node.

    Only ptilde enters gradients and optimality conditions, so the sweep
    stores the ptilde it computes and does not keep p, whose gauge is fixed
    by propagating the terminal mean backward. The solution carries the
    trajectory's leading path axis.
    """

    params: StateParams
    ptildes: np.ndarray          # (npaths, nsteps+1, *grid.shape)

    @property
    def grid(self) -> Grid:
        return self.params.grid

    @property
    def npaths(self) -> int:
        return self.ptildes.shape[0]


def solve_linearized(traj: Trajectory, h) -> LinearizedSolution:
    """Integrate the linearized system along every noise path of the
    trajectory at once.

    Runs the state's step function on the trajectory's stored Wiener
    increments and stabilization, so the scheme is the exact differential of
    the state stepper. The direction ``h`` is shared by the paths.
    """
    p = traj.params
    hvals = control_values(h, p.timegrid, p.grid)
    zs = _sweep_linearized(traj.ys, hvals[None], traj.wiener, p)
    return LinearizedSolution(traj=traj, h=hvals, zs=zs)


def _sweep_linearized(ys: np.ndarray, directions: np.ndarray, paths,
                      p: StateParams) -> np.ndarray:
    """The linearized sweep of the rows directions × paths, direction-major,
    along the states ``ys`` of those rows (see :func:`~choc.state._sweep_state`).

    ``directions`` has shape (ndirections, nsteps, *grid.shape); returns zs
    of the shape of ``ys``. Each row is bitwise its own sweep.
    """
    nm = p.noise
    noisy = nm.is_multiplicative and nm.nmodes > 0
    # arrays indexed by step first, as in the state sweep
    ys_n = _step_major(ys, len(paths))
    h_n = np.moveaxis(directions, 1, 0)[:, :, None]
    if noisy:
        dw_n = _increments(paths)

    zs = np.zeros(ys.shape)
    zs_n = _step_major(zs, len(paths))
    z = np.zeros(ys_n.shape[1:])
    z_hat = np.zeros(ys_n.shape[1:])
    for n0, n1 in _blocks(p.timegrid.nsteps, z):
        # the block's coefficients C_n and increment fields
        y_b = ys_n[n0:n1]
        c_b = p.potential.psi_second(y_b)
        xi = _mode_sum(nm, dw_n[n0:n1]) if noisy else None
        for j in range(n1 - n0):
            noise = db_increment_values(nm, y_b[j], z, xi[j]) if noisy else None
            z, z_hat = _step_spectral(z, z_hat, c_b[j] * z, h_n[n0 + j], noise, p)
            zs_n[n0 + j + 1] = z
    return zs


def solve_adjoint(traj: Trajectory, x_q, x_t, alphas) -> AdjointSolution:
    """Backward transpose sweep along every path of the trajectory at once.

    It is the transpose of the linearization, so the costate gives the exact
    gradient. Each target is shared by the paths or given per path, with a
    leading npaths axis, and the solution carries the path axis.
    """
    p = traj.params
    xq, xt = target_values(x_q, x_t, alphas, p.timegrid, p.grid, traj.npaths)
    ptildes = _sweep_adjoint(traj.ys, traj.wiener, xq, xt, alphas, p)
    return AdjointSolution(params=p, ptildes=ptildes)


def _sweep_adjoint(ys: np.ndarray, paths, xq, xt, alphas,
                   p: StateParams) -> np.ndarray:
    """The transpose sweep of the rows controls × paths, control-major,
    along their states ``ys``; returns ptildes of the shape of ``ys``.

    ``xq`` and ``xt`` are as :func:`~choc.state.target_values` returns them,
    shared by the rows or given per path, and each row is bitwise its own
    sweep.
    """
    g = p.grid
    tg = p.timegrid
    a1, a2, _ = alphas
    # arrays indexed by step first, as in the state sweep
    nsteps = tg.nsteps
    ys_n = _step_major(ys, len(paths))
    if a1 != 0.0:
        # xQ_n with the (control, path) axes of a step, so that a block of
        # targets broadcasts against a block of states
        if xq.ndim == g.ndims + 2:                   # per-path target
            xq_n = np.moveaxis(xq, 1, 0)[:, None]
        else:
            xq_n = xq[:, None, None]
    zero = np.zeros(ys_n.shape[1:])
    axes = g.axes
    tau = tg.tau
    sym = p.implicit_symbol
    nm = p.noise
    s = p.stabilization
    noisy = nm.is_multiplicative and nm.nmodes > 0
    if noisy:
        dw_n = _increments(paths)

    costate = a2 * (ys_n[nsteps] - xt) if a2 != 0.0 else zero    # P_N
    ptildes = np.empty(ys.shape)
    pts_n = _step_major(ptildes, len(paths))
    pts_n[nsteps] = -lap_values(g, costate)
    neg_lam = -g.lap_symbol
    for n0, n1 in reversed(_blocks(nsteps, zero)):
        # the block's tracking forcing tau*alpha1*(y_n - xQ_n), reaction
        # coefficients tau*(C_n - S) and increment fields
        y_b = ys_n[n0:n1]
        forcing = (tau * (a1 * (y_b - xq_n[n0:n1])) if a1 != 0.0
                   else np.broadcast_to(zero, y_b.shape))
        coef = tau * (p.potential.psi_second(y_b) - s)
        xi = _mode_sum(nm, dw_n[n0:n1]) if noisy else None
        for j in range(n1 - n0 - 1, -1, -1):
            # p_n and ptilde_n = -Lap p_n from the one set of coefficients of p_n
            p_hat = _dct(costate, axes) / sym
            p_n = _idct(p_hat, axes)
            pt_n = pts_n[n0 + j] = _idct(neg_lam * p_hat, axes)
            costate = forcing[j] + p_n - coef[j] * pt_n
            if noisy:
                costate = costate + db_adjoint_scaled_values(nm, y_b[j], p_n, xi[j])
    return ptildes


def duality_terms(traj: Trajectory, lin: LinearizedSolution, adj: AdjointSolution,
                  h, x_q, x_t, alphas) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the duality identity on every path, computed from
    independent data; two arrays of shape (npaths,).

    Left: the control direction paired with ptilde over the cylinder.
    Right: the cost-weighted linearized state. The two are computed from the
    backward and forward solves respectively.
    """
    p = traj.params
    hvals = control_values(h, p.timegrid, p.grid)
    xq, xt = target_values(x_q, x_t, alphas, p.timegrid, p.grid, traj.npaths)
    return _duality_values(traj.ys, lin.zs, adj.ptildes, hvals[None], xq, xt,
                           alphas, p)


def _duality_values(ys, zs, ptildes, directions, xq, xt, alphas,
                    p: StateParams) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the duality identity on the rows directions × paths,
    direction-major: two arrays of shape (nrows,), each entry bitwise that
    of its row alone.

    ``ys``, ``zs`` and ``ptildes`` are the rows' sweeps, ``directions`` has
    shape (ndirections, nsteps, *grid.shape), and the targets are as
    :func:`~choc.state.target_values` returns them.
    """
    g = p.grid
    cv = g.cell_volume
    tau = p.timegrid.tau
    nsteps = p.timegrid.nsteps
    a1, a2, _ = alphas
    # (direction, path) axes in front, so a direction broadcasts over the
    # paths and a per-path target over the directions
    ys, zs, ptildes = (a.reshape((len(directions), -1) + a.shape[1:])
                       for a in (ys, zs, ptildes))

    def row_sums(a):
        return _path_sums(a.reshape((-1,) + a.shape[2:]))

    lhs = tau * cv * row_sums(directions[:, None] * ptildes[:, :, :nsteps])
    dist = (a1 * (ys[:, :, :nsteps] - xq) if a1 != 0.0
            else np.zeros((nsteps,) + g.shape))
    terminal = a2 * (ys[:, :, nsteps] - xt) if a2 != 0.0 else np.zeros(g.shape)
    rhs = tau * cv * row_sums(dist * zs[:, :, :nsteps])
    rhs += cv * row_sums(terminal * zs[:, :, nsteps])
    return lhs, rhs
