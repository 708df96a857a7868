"""Linearized and adjoint solvers along a fixed state trajectory.

The linearized sweep is the state step: with C_n = psi''(y_n) it runs the
state's step function with reaction C_n z_n, source h_n and noise
DB(y_n)[z_n] dW_n, that is

    (I + tau*Lap^2 - tau*S*Lap) z_{n+1}
        = z_n + tau*Lap(C_n z_n - S z_n - h_n) + Pi DB(y_n)[z_n] dW_n,

from z_0 = 0, so the map h -> z is linear and is the exact derivative of
the discrete flow. In coefficient space it is zhat_{n+1} = a zhat_n +
b DCT(C_n z_n - h_n) + c DCT(DB(y_n)[z_n] dW_n) with the state step's
symbols (:attr:`~choc.state.StateParams.step_symbols`), whose c drops the
zero mode of mean-free noise: that is the projection Pi.

The adjoint is the algebraic transpose of this recursion. Writing one
forward step as z_{n+1} = M (E_n z_n - tau*Lap h_n) with M the inverse
implicit operator and E_n = I + tau*Lap(C_n - S) + Pi DB_n, the costate
sweep is

    P_N = alpha2 (y_N - x_T),
    p_n = M P_{n+1},            ptilde_n = -Lap p_n,
    P_n = alpha1*tau*(y_n - xQ_n) + p_n - tau*(C_n - S)*ptilde_n
          + DB_n^T Pi p_n,

A node maps P_{n+1} to p_n and ptilde_n through the symbols 1/d and
-lambda/d (:attr:`~choc.state.StateParams.node_symbols`) with one node map
(:func:`~choc.grid._node_map`), bound once per sweep. With multiplicative
noise the map also gives Pi p_n, p_n without its zero coefficient, the one
the forward step's c drops; so DB_n^T Pi is the exact transpose of the
forward step's Pi DB_n. How the map computes, with one product or with
transforms and multiplies, is :mod:`choc.grid`'s rule alone. The
targets xQ and x_T arrive as :func:`~choc.state.target_values` gives them,
with a leading path axis. ptilde satisfies, exactly in floating point up
to rounding,

    sum_n tau <h_n, ptilde_n>_H
        = alpha1 sum_n tau <y_n - xQ_n, z_n>_H + alpha2 <y_N - x_T, z_N>_H

for every direction h. It is the only adjoint: a direct discretization of
the continuous adjoint equation is the private reference of
:func:`choc.verify.check_backend_consistency` and nothing else.

DB_n is zero for additive noise and for noise without modes. The two
sweeps, and not the noise operators, decide that: each tests
``nm.is_multiplicative and nm.nmodes > 0`` once and calls DB or DB*, which
are the multiplicative formulas alone, only when it holds; otherwise it
steps without a noise term.

:func:`solve_linearized` returns the z_n of every node and
:func:`solve_adjoint` the ptilde_n, not p, which no reader uses; each
solution carries the trajectory's parameters. :func:`solve_linearized` and
:func:`solve_adjoint` sweep every path of a trajectory at once, on arrays
with a leading path axis, and read the increments of the trajectory's
:class:`~choc.state.WienerPaths` batch in place; each path's sensitivity
and costate are bitwise those of its own sweep. Their sweeps are the private kernels
:func:`_sweep_linearized` and :func:`_sweep_adjoint`, which also run the
rows controls × paths of several controls on one ensemble, each row bitwise
its own sweep; the linearized sweep also runs several directions along the
states of one control. Both run their steps in blocks, as the state sweep
does: before a block they compute, each in one call, C_n and, with
multiplicative noise, rho'(y_n) and the increment fields xi_n in the
linearized sweep, and tau*(C_n - S), tau*alpha1*(y_n - xQ_n) and rho'(y_n)
xi_n in the adjoint.
The noise operators take a step's slice of them. Like the state sweep, both
run in a workspace allocated once per sweep, with their maps bound to it,
and write every per-step result through ``out=``; the linearized sweep
runs the state's step kernel and copies each block's directions to the
step shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import _node_map, lap_values
from .physics import _mode_sum, db_adjoint_scaled_values, db_increment_values
from .state import (
    StateParams,
    Trajectory,
    WienerPaths,
    _blocks,
    _step_major,
    _stepper,
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

    ``zs`` stacks the nsteps+1 sensitivities from z_0 = 0 in a direction
    that the paths share, behind the trajectory's leading path axis.
    """

    params: StateParams
    zs: np.ndarray               # (npaths, nsteps+1, *grid.shape), zs[:, 0] = 0

    @property
    def npaths(self) -> int:
        return self.zs.shape[0]


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
    return LinearizedSolution(params=p, zs=zs)


def _sweep_linearized(ys: np.ndarray, directions: np.ndarray, paths: WienerPaths,
                      p: StateParams) -> np.ndarray:
    """The linearized sweep of the rows directions × paths, direction-major,
    along the states ``ys`` (see :func:`~choc.state._sweep_state`): those
    of the rows, or those of one control's paths, which every direction
    then reads.

    ``directions`` has shape (ndirections, nsteps, *grid.shape); returns zs
    of shape (ndirections * npaths, nsteps+1, *grid.shape). Each row is
    bitwise its own sweep.
    """
    nm = p.noise
    noisy = nm.is_multiplicative and nm.nmodes > 0
    # arrays indexed by step first, as in the state sweep; states of one
    # control broadcast over the directions
    ys_n = _step_major(ys, paths.npaths)
    h_n = np.moveaxis(directions, 1, 0)[:, :, None]
    dw_n = paths.increments

    zs = np.zeros((len(directions) * paths.npaths,) + ys.shape[1:])
    zs_n = _step_major(zs, paths.npaths)
    # working arrays as in the state sweep
    z = np.zeros(zs_n.shape[1:])
    z_hat = np.zeros(z.shape)
    reaction = np.empty(z.shape)
    noise, step = _stepper(p, z, z_hat, noisy)
    blocks = _blocks(p.timegrid.nsteps, z)
    sources = np.empty((blocks[0][1],) + z.shape)
    for n0, n1 in blocks:
        # the block's directions, copied to the step shape, and its
        # coefficients C_n, rho'(y_n) and increment fields
        h_b = sources[:n1 - n0]
        np.copyto(h_b, h_n[n0:n1])
        y_b = ys_n[n0:n1]
        c_b = p.potential.psi_second(y_b)
        if noisy:
            rho_b = nm.rho_prime(y_b)
            xi = _mode_sum(nm, dw_n[n0:n1])
        for j in range(n1 - n0):
            if noisy:
                db_increment_values(rho_b[j], z, xi[j], noise)
            np.multiply(c_b[j], z, out=reaction)
            step(reaction, h_b[j])
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


def _sweep_adjoint(ys: np.ndarray, paths: WienerPaths, xq, xt, alphas,
                   p: StateParams) -> np.ndarray:
    """The transpose sweep of the rows controls × paths, control-major,
    along their states ``ys``; returns ptildes of the shape of ``ys``.

    ``xq`` and ``xt`` are as :func:`~choc.state.target_values` returns them,
    with a leading path axis, and each row is bitwise its own sweep.
    """
    g = p.grid
    tg = p.timegrid
    a1, a2, _ = alphas
    # arrays indexed by step first, as in the state sweep
    nsteps = tg.nsteps
    ys_n = _step_major(ys, paths.npaths)
    if a1 != 0.0:
        # xQ_n with the (control, path) axes of a step, so that a block of
        # targets broadcasts against a block of states
        xq_n = np.moveaxis(xq, 1, 0)[:, None]
    shape = ys_n.shape[1:]
    zero = np.zeros(shape)
    tau = tg.tau
    nm = p.noise
    s = p.stabilization
    noisy = nm.is_multiplicative and nm.nmodes > 0
    dw_n = paths.increments

    # A node's workspace: the costate P_{n+1}, which each node overwrites
    # with P_n, is the input of one bound node map, whose outputs are p_n,
    # ptilde_n = -Lap p_n and, with multiplicative noise, Pi p_n
    costate, outputs, node = _node_map(g, shape, p.node_symbols, project=noisy)
    p_n, pt_n = outputs[:2]
    pi_p = outputs[2] if noisy else None
    work = np.empty(shape)
    if a2 != 0.0:
        np.multiply(a2, ys_n[nsteps] - xt, out=costate)
    ptildes = np.empty(ys.shape)
    pts_n = _step_major(ptildes, paths.npaths)
    pts_n[nsteps] = -lap_values(g, costate)
    for n0, n1 in reversed(_blocks(nsteps, zero)):
        # the block's tracking forcing tau*alpha1*(y_n - xQ_n), reaction
        # coefficients tau*(C_n - S) and rho'(y_n) xi_n, an increment field
        # broadcast over the controls
        y_b = ys_n[n0:n1]
        forcing = (tau * (a1 * (y_b - xq_n[n0:n1])) if a1 != 0.0
                   else np.broadcast_to(zero, y_b.shape))
        coef = tau * (p.potential.psi_second(y_b) - s)
        if noisy:
            rho_xi = nm.rho_prime(y_b) * _mode_sum(nm, dw_n[n0:n1])[:, None]
        for j in range(n1 - n0 - 1, -1, -1):
            node()
            pts_n[n0 + j] = pt_n
            np.add(forcing[j], p_n, out=costate)
            np.multiply(coef[j], pt_n, out=work)
            np.subtract(costate, work, out=costate)
            if noisy:
                db_adjoint_scaled_values(rho_xi[j], pi_p, work)
                np.add(costate, work, out=costate)
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
    return (_duality_lhs(adj.ptildes, hvals[None], p),
            _duality_rhs(traj.ys, lin.zs, traj.npaths, xq, xt, alphas, p))


# The two sides reduce one row at a time, so neither holds a temporary
# larger than one row's sweep. A row's sum runs over the trailing, contiguous
# axes of its product, which makes it bitwise the sum of that row alone.


def _duality_lhs(ptildes: np.ndarray, directions: np.ndarray,
                 p: StateParams) -> np.ndarray:
    """The left side sum_n tau <h_n, ptilde_n>_H on the rows directions ×
    paths, direction-major, shape (nrows,), from the rows' adjoint sweep
    ``ptildes``; ``directions`` has shape (ndirections, nsteps, *grid.shape).
    """
    nsteps = p.timegrid.nsteps
    npaths = len(ptildes) // len(directions)
    scale = p.timegrid.tau * p.grid.cell_volume
    return np.array([scale * np.sum(directions[r // npaths] * ptildes[r, :nsteps])
                     for r in range(len(ptildes))])


def _duality_rhs(ys: np.ndarray, zs: np.ndarray, npaths: int, xq, xt, alphas,
                 p: StateParams) -> np.ndarray:
    """The right side alpha1 sum_n tau <y_n - xQ_n, z_n>_H + alpha2 <y_N -
    x_T, z_N>_H on rows of ``npaths`` paths each, shape (nrows,), from the
    rows' linearized sweep ``zs`` and their states ``ys``, of which row r
    reads row r % len(ys): the rows' own, or those of one control's paths.
    The targets are as :func:`~choc.state.target_values` returns them.
    """
    g = p.grid
    cv = g.cell_volume
    tau = p.timegrid.tau
    nsteps = p.timegrid.nsteps
    a1, a2, _ = alphas

    no_dist = np.zeros((nsteps,) + g.shape)
    no_terminal = np.zeros(g.shape)
    rhs = np.empty(len(zs))
    for r, z in enumerate(zs):
        i = r % npaths
        y = ys[r % len(ys)]
        dist = a1 * (y[:nsteps] - xq[i]) if a1 != 0.0 else no_dist
        terminal = a2 * (y[nsteps] - xt[i]) if a2 != 0.0 else no_terminal
        rhs[r] = tau * cv * np.sum(dist * z[:nsteps]) + cv * np.sum(terminal * z[nsteps])
    return rhs
