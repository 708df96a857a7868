"""Linearized and adjoint solvers along a fixed state trajectory.

The linearized sweep is the state step: with C_n = clamp(psi''(y_n)) it
runs the state's step function with reaction C_n z_n, source h_n and noise
DB(y_n)[z_n] dW_n, that is

    (I + tau*Lap^2 - tau*S*Lap) z_{n+1}
        = z_n + tau*Lap(C_n z_n - S z_n - h_n) + DB(y_n)[z_n] dW_n,

from z_0 = 0, so the map h -> z is linear and, at infinite truncation, is
the exact derivative of the discrete flow.

The default adjoint backend ("discrete_transpose") is the algebraic
transpose of that recursion. Writing one forward step as
z_{n+1} = M (E_n z_n - tau*Lap h_n) with M the inverse implicit operator and
E_n = I + tau*Lap(C_n - S) + DB_n, the costate sweep is

    P_N = alpha2 (y_N - x_T),
    p_n = M P_{n+1},            ptilde_n = -Lap p_n,
    P_n = alpha1*tau*(y_n - xQ_n) + p_n - tau*(C_n - S)*ptilde_n
          + DB_n^T p_n,

and ptilde satisfies, exactly in floating point up to rounding,

    sum_n tau <h_n, ptilde_n>_H
        = alpha1 sum_n tau <y_n - xQ_n, z_n>_H + alpha2 <y_N - x_T, z_N>_H

for every direction h. The "continuous" backend discretizes the backward
equation directly with the martingale term dropped; for additive noise the
two differ by a one-step shift of coefficients, an O(tau) gap.

:func:`solve_adjoint` stores the ptilde_n it computes at every node and
does not keep p, which no reader uses. :func:`solve_linearized` and
:func:`solve_adjoint` sweep every path of a batched trajectory at once, on
arrays with a leading path axis; each path's sensitivity and costate are
bitwise those of its own sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .grid import Field, Grid, _dct, _idct, lap_values
from .physics import (
    NO_TRUNCATION,
    TruncationLevel,
    db_adjoint_scaled_values,
    db_increment_values,
)
from .state import (
    StateParams,
    Trajectory,
    _by_step,
    _increments,
    _starts,
    _step_spectral,
    control_values,
    series_l2h_norm,
    target_values,
)

__all__ = [
    "LinearizedSolution",
    "AdjointSolution",
    "BACKENDS",
    "solve_linearized",
    "solve_adjoint",
    "convergence_in_truncation",
    "max_curvature",
    "duality_terms",
]

BACKENDS = ("discrete_transpose", "continuous")


@dataclass(frozen=True)
class LinearizedSolution:
    """Directional state sensitivity z along a trajectory's paths.

    ``zs`` stacks the nsteps+1 sensitivities from z_0 = 0 in the direction
    ``h``, which the paths share. The solution of a batched trajectory
    carries its leading path axis, and :meth:`path` gives one path's
    solution as views. The linearized potential
    mu_n = -Lap z_n + C_n z_n - h_n at the step starts is computed when
    first read.
    """

    traj: Trajectory
    h: np.ndarray                # (nsteps, *grid.shape)
    zs: np.ndarray               # ([npaths,] nsteps+1, *grid.shape), zs[0] = 0
    trunc: TruncationLevel

    @property
    def params(self) -> StateParams:
        return self.traj.params

    @property
    def grid(self) -> Grid:
        return self.params.grid

    @property
    def npaths(self) -> int | None:
        """Number of paths in a batch; None for a single-path solution."""
        return self.traj.npaths

    def path(self, i: int) -> "LinearizedSolution":
        """Path ``i`` of a batch; its ``zs`` is a view into the batch's."""
        return LinearizedSolution(traj=self.traj.path(i), h=self.h,
                                  zs=self.zs[i], trunc=self.trunc)

    @cached_property
    def mus(self) -> np.ndarray:
        """mu_n at every step start, shape ([npaths,] nsteps, *grid.shape)."""
        batched = self.npaths is not None
        z = _starts(self.zs, batched)
        curvature = self.trunc.clamp(self.params.potential.psi_second(
            _starts(self.traj.ys, batched)))
        return -lap_values(self.grid, z) + curvature * z - self.h

    def z(self, n: int) -> Field:
        return Field(self.grid, self.zs[n])


@dataclass(frozen=True)
class AdjointSolution:
    """Costate ptilde = -Lap p per time node.

    Only ptilde enters gradients and optimality conditions, so the sweep
    stores the ptilde it computes and does not keep p, whose gauge is fixed
    by propagating the terminal mean backward. The solution of a batched
    trajectory carries its leading path axis, and :meth:`path` gives one
    path's solution.
    """

    params: StateParams
    ptildes: np.ndarray          # ([npaths,] nsteps+1, *grid.shape)
    backend: str
    trunc: TruncationLevel
    warning: str | None = None

    @property
    def grid(self) -> Grid:
        return self.params.grid

    @property
    def npaths(self) -> int | None:
        """Number of paths in a batch; None for a single-path solution."""
        batched = self.ptildes.ndim == self.grid.ndims + 2
        return self.ptildes.shape[0] if batched else None

    def path(self, i: int) -> "AdjointSolution":
        """Path ``i`` of a batch; its ``ptildes`` is a view into the batch's."""
        if self.npaths is None:
            raise ConfigurationError("a single-path solution has no path axis")
        return AdjointSolution(params=self.params, ptildes=self.ptildes[i],
                               backend=self.backend, trunc=self.trunc,
                               warning=self.warning)

    def ptilde(self, n: int) -> Field:
        return Field(self.grid, self.ptildes[n])


def solve_linearized(traj: Trajectory, h, trunc=NO_TRUNCATION) -> LinearizedSolution:
    """Integrate the linearized system along the trajectory's noise path, or
    along every path of a batched trajectory at once.

    Runs the state's step function on the trajectory's stored Wiener
    increments and stabilization, so the scheme is the exact differential of
    the state stepper when the curvature clamp is inactive. The direction
    ``h`` is shared by the paths of a batch.
    """
    p = traj.params
    g = p.grid
    tg = p.timegrid
    trunc = TruncationLevel.coerce(trunc)
    hvals = control_values(h, tg, g)
    nm = p.noise
    noisy = nm.is_multiplicative and nm.nmodes > 0
    batched = traj.npaths is not None
    # arrays indexed by step first, as in the state sweep
    ys = _by_step(traj.ys, batched)
    if noisy:
        dw_n = _increments(traj.wiener) if batched else traj.wiener.increments

    zs = np.zeros(traj.ys.shape)
    zs_n = _by_step(zs, batched)
    z = np.zeros(ys.shape[1:])
    z_hat = np.zeros(ys.shape[1:])
    for n in range(tg.nsteps):
        noise = db_increment_values(nm, ys[n], z, dw_n[n]) if noisy else None
        reaction = trunc.clamp(p.potential.psi_second(ys[n])) * z
        z, z_hat = _step_spectral(z, z_hat, reaction, hvals[n], noise, p)
        zs_n[n + 1] = z
    return LinearizedSolution(traj=traj, h=hvals, zs=zs, trunc=trunc)


def _tracking_sources(traj: Trajectory, x_q, x_t, alphas):
    """Returns (alpha1*(y_n - xQ_n))_n and alpha2*(y_N - x_T) along one path."""
    a1, a2, _ = alphas
    tg = traj.timegrid
    g = traj.grid
    xq, xt = target_values(x_q, x_t, alphas, tg, g)
    dist = (a1 * (traj.ys[: tg.nsteps] - xq) if a1 != 0.0
            else np.zeros((tg.nsteps,) + g.shape))
    terminal = a2 * (traj.ys[tg.nsteps] - xt) if a2 != 0.0 else np.zeros(g.shape)
    return dist, terminal


def solve_adjoint(traj: Trajectory, x_q, x_t, alphas, backend: str = "discrete_transpose",
                  trunc=NO_TRUNCATION) -> AdjointSolution:
    """Backward costate sweep along one path, or along every path of a
    batched trajectory at once.

    For a batch each target is shared by the paths or given per path, with
    a leading npaths axis, and the solution carries the path axis.
    ``backend`` selects the exact transpose of the linearized recursion or a
    direct backward discretization of the continuous adjoint equation. The
    continuous backend drops the martingale term; with multiplicative noise
    that omission biases the result and is flagged in ``warning``.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown adjoint backend {backend!r}")
    p = traj.params
    g = p.grid
    tg = p.timegrid
    trunc = TruncationLevel.coerce(trunc)
    a1, a2, _ = alphas
    batched = traj.npaths is not None
    xq, xt = target_values(x_q, x_t, alphas, tg, g, traj.npaths)
    # arrays indexed by step first, as in the state sweep
    nsteps = tg.nsteps
    ys = _by_step(traj.ys, batched)
    if xq is not None:
        xq = _by_step(xq, xq.ndim == g.ndims + 2)    # per-path target
    zero = np.zeros(ys.shape[1:])
    axes = g.transform_axes(zero)
    tau = tg.tau
    sym = p.implicit_symbol
    nm = p.noise
    s = p.stabilization
    noisy = nm.is_multiplicative and nm.nmodes > 0
    if noisy:
        dw_n = _increments(traj.wiener) if batched else traj.wiener.increments

    def dist(n):
        """alpha1 * (y_n - xQ_n)."""
        return a1 * (ys[n] - xq[n]) if a1 != 0.0 else zero

    terminal = a2 * (ys[nsteps] - xt) if a2 != 0.0 else zero
    ptildes = np.empty(traj.ys.shape)
    pts_n = _by_step(ptildes, batched)
    pts_n[nsteps] = -lap_values(g, terminal)
    warning = None

    if backend == "discrete_transpose":
        costate = terminal                     # P_N
        for n in range(nsteps - 1, -1, -1):
            p_n = _idct(_dct(costate, axes) / sym, axes)
            pt_n = pts_n[n] = -lap_values(g, p_n)
            c_n = trunc.clamp(p.potential.psi_second(ys[n]))
            costate = tau * dist(n) + p_n - tau * (c_n - s) * pt_n
            if noisy:
                costate = costate + db_adjoint_scaled_values(nm, ys[n], p_n, dw_n[n])
    else:
        if noisy:
            warning = (
                "continuous backend drops the martingale and noise-derivative "
                "terms; biased for multiplicative noise"
            )
        pv = terminal
        pt = pts_n[nsteps]
        for n in range(nsteps - 1, -1, -1):
            c_n = trunc.clamp(p.potential.psi_second(ys[n]))
            rhs = pv - tau * (c_n - s) * pt + tau * dist(n)
            pv = _idct(_dct(rhs, axes) / sym, axes)
            pt = pts_n[n] = -lap_values(g, pv)

    return AdjointSolution(params=p, ptildes=ptildes, backend=backend, trunc=trunc,
                           warning=warning)


def duality_terms(traj: Trajectory, lin: LinearizedSolution, adj: AdjointSolution,
                  h, x_q, x_t, alphas) -> tuple[float, float]:
    """Both sides of the duality identity, computed from independent data.

    Left: the control direction paired with ptilde over the cylinder.
    Right: the cost-weighted linearized state. The two are computed from the
    backward and forward solves respectively.
    """
    p = traj.params
    tg = p.timegrid
    g = p.grid
    cv = g.cell_volume
    tau = tg.tau
    a1, a2, _ = alphas
    hvals = control_values(h, tg, g)

    lhs = tau * cv * float(np.sum(hvals * adj.ptildes[: tg.nsteps]))

    dist, terminal = _tracking_sources(traj, x_q, x_t, (a1, a2, 0.0))
    rhs = tau * cv * float(np.sum(dist * lin.zs[: tg.nsteps]))
    rhs += cv * float(np.sum(terminal * lin.zs[tg.nsteps]))
    return lhs, rhs


def convergence_in_truncation(traj: Trajectory, h, levels) -> list:
    """Distance between linearized solutions at consecutive clamp levels.

    Once a level exceeds the largest curvature seen along the trajectory the
    clamp is inactive and successive solutions coincide bit for bit. A
    batched trajectory is solved once per level for all its paths and gives
    one table per path.
    """
    levels = [TruncationLevel.coerce(lv) for lv in levels]
    if any(b.level <= a.level for a, b in zip(levels, levels[1:])):
        raise ConfigurationError("truncation levels must be strictly increasing")
    sols = [solve_linearized(traj, h, lv) for lv in levels]
    if traj.npaths is None:
        return _truncation_table(traj, levels, sols)
    return [_truncation_table(traj.path(i), levels, [s.path(i) for s in sols])
            for i in range(traj.npaths)]


def _truncation_table(traj: Trajectory, levels, sols) -> list[dict]:
    """Rows of :func:`convergence_in_truncation` along one path."""
    tg = traj.timegrid
    g = traj.grid
    max_curv = max_curvature(traj)
    rows = []
    for (la, sa), (lb, sb) in zip(zip(levels, sols), zip(levels[1:], sols[1:])):
        diff = series_l2h_norm(sb.zs[1:] - sa.zs[1:], tg, g)
        rows.append({
            "level_low": la.level,
            "level_high": lb.level,
            "difference_l2h": diff,
            "identical": bool(np.array_equal(sa.zs, sb.zs)),
            "max_curvature": max_curv,
        })
    return rows


def max_curvature(traj: Trajectory) -> float:
    """Largest |psi''(y)| observed along the trajectory."""
    return float(np.max(np.abs(traj.params.potential.psi_second(traj.ys))))
