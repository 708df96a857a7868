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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Directional state sensitivity z and its potential mu along one path."""

    params: StateParams
    zs: np.ndarray               # (nsteps+1, *grid.shape), zs[0] = 0
    mus: np.ndarray              # (nsteps,   *grid.shape)
    trunc: TruncationLevel

    @property
    def grid(self) -> Grid:
        return self.params.grid

    def z(self, n: int) -> Field:
        return Field(self.grid, self.zs[n])

    def mu(self, n: int) -> Field:
        return Field(self.grid, self.mus[n])


@dataclass(frozen=True)
class AdjointSolution:
    """Costate pair (p, ptilde) per time node; ptilde = -Lap p throughout.

    Only ptilde enters gradients and optimality conditions; p carries a
    gauge fixed by propagating the terminal mean backward.
    """

    params: StateParams
    ps: np.ndarray               # (nsteps+1, *grid.shape)
    ptildes: np.ndarray          # (nsteps+1, *grid.shape)
    backend: str
    trunc: TruncationLevel
    warning: str | None = None

    @property
    def grid(self) -> Grid:
        return self.params.grid

    def p(self, n: int) -> Field:
        return Field(self.grid, self.ps[n])

    def ptilde(self, n: int) -> Field:
        return Field(self.grid, self.ptildes[n])


def solve_linearized(traj: Trajectory, h, trunc=NO_TRUNCATION) -> LinearizedSolution:
    """Integrate the linearized system along the trajectory's noise path.

    Runs the state's step function on the trajectory's stored Wiener
    increments and stabilization, so the scheme is the exact differential of
    the state stepper when the curvature clamp is inactive.
    """
    p = traj.params
    g = p.grid
    tg = p.timegrid
    trunc = TruncationLevel.coerce(trunc)
    hvals = control_values(h, tg, g)
    nm = p.noise
    noisy = nm.is_multiplicative and nm.nmodes > 0

    zs = np.zeros((tg.nsteps + 1,) + g.shape)
    mus = np.zeros((tg.nsteps,) + g.shape)
    z = np.zeros(g.shape)
    z_hat = np.zeros(g.shape)
    for n in range(tg.nsteps):
        y_n = traj.ys[n]
        noise = (db_increment_values(nm, y_n, z, traj.wiener.increments[n])
                 if noisy else None)
        reaction = trunc.clamp(p.potential.psi_second(y_n)) * z
        z, z_hat, mus[n] = _step_spectral(z, z_hat, reaction, hvals[n], noise, p)
        zs[n + 1] = z
    return LinearizedSolution(params=p, zs=zs, mus=mus, trunc=trunc)


def _tracking_sources(traj: Trajectory, x_q, x_t, alphas):
    """Returns (alpha1*(y_n - xQ_n))_n and alpha2*(y_N - x_T)."""
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
    """Backward costate sweep along one path.

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
    dist, terminal = _tracking_sources(traj, x_q, x_t, alphas)
    tau = tg.tau
    sym = p.implicit_symbol
    nm = p.noise
    s = p.stabilization

    ps = np.zeros((tg.nsteps + 1,) + g.shape)
    pts = np.zeros((tg.nsteps + 1,) + g.shape)
    warning = None

    if backend == "discrete_transpose":
        costate = terminal.copy()              # P_N
        ps[tg.nsteps] = costate
        pts[tg.nsteps] = -lap_values(g, costate)
        for n in range(tg.nsteps - 1, -1, -1):
            p_n = _idct(_dct(costate) / sym)
            pt_n = -lap_values(g, p_n)
            ps[n] = p_n
            pts[n] = pt_n
            c_n = trunc.clamp(p.potential.psi_second(traj.ys[n]))
            costate = tau * dist[n] + p_n - tau * (c_n - s) * pt_n
            if nm.is_multiplicative and nm.nmodes:
                costate = costate + db_adjoint_scaled_values(
                    nm, traj.ys[n], p_n, traj.wiener.increments[n]
                )
    else:
        if nm.is_multiplicative and nm.nmodes:
            warning = (
                "continuous backend drops the martingale and noise-derivative "
                "terms; biased for multiplicative noise"
            )
        pv = terminal.copy()
        ps[tg.nsteps] = pv
        pts[tg.nsteps] = -lap_values(g, pv)
        for n in range(tg.nsteps - 1, -1, -1):
            c_n = trunc.clamp(p.potential.psi_second(traj.ys[n]))
            rhs = pv - tau * (c_n - s) * pts[n + 1] + tau * dist[n]
            pv = _idct(_dct(rhs) / sym)
            ps[n] = pv
            pts[n] = -lap_values(g, pv)

    return AdjointSolution(params=p, ps=ps, ptildes=pts, backend=backend,
                           trunc=trunc, warning=warning)


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


def convergence_in_truncation(traj: Trajectory, h, levels) -> list[dict]:
    """Distance between linearized solutions at consecutive clamp levels.

    Once a level exceeds the largest curvature seen along the trajectory the
    clamp is inactive and successive solutions coincide bit for bit.
    """
    levels = [TruncationLevel.coerce(lv) for lv in levels]
    if any(b.level <= a.level for a, b in zip(levels, levels[1:])):
        raise ConfigurationError("truncation levels must be strictly increasing")
    tg = traj.timegrid
    g = traj.grid
    sols = [solve_linearized(traj, h, lv) for lv in levels]
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
