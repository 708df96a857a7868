"""Double-well potential and finite-rank noise operator.

The potential is a nonnegative C^2 function whose curvature is bounded below
by -c1, a constant its formula fixes. The noise operator maps a vector of
Brownian increments to a field increment through K smooth cosine modes;
multiplicative noise modulates the modes by tanh of the state, bounded and
Lipschitz, and is projected to zero mean, which is what conserves mass along
stochastic trajectories.

The projection removes one cosine coefficient, the zero mode, so it lives
in the time steppers rather than here: a step maps the noise increment to
coefficient space through a symbol whose zero mode is 0 whenever the noise
is mean-free (:attr:`NoiseModel.is_mean_free`; see :mod:`choc.state`). B
returns the unprojected increment, xi for additive noise and xi tanh(y) for
multiplicative noise. DB and DB* are the multiplicative formulas alone:
DB returns the unprojected xi rho'(y) z, and DB* takes the projected Pi p
that its caller's node computes without the zero coefficient, so the step's
projected DB and DB* stay exact transposes. Additive noise and noise
without modes have DB = 0; the sweeps decide which noise enters a step, and
call DB and DB* only for multiplicative noise with modes, B only when there
are modes.

The operators B, DB and DB* take the increment field xi = sum_k sigma_k
dW_k g_k rather than the increments dW. xi does not depend on the state, so
the solvers compute it for a block of steps with one :func:`_mode_sum` and
call the operators once per step. Nor does rho'(y_n) along a linearized or
adjoint sweep, whose states are fixed: DB takes rho'(y) and DB* the product
rho'(y) xi, which the sweeps compute for a block of steps at once. Each
operator writes into the ``out`` array it is given, so a sweep reuses one
buffer for every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError
from .grid import Grid

__all__ = [
    "Potential",
    "double_well",
    "quadratic_potential",
    "NoiseModel",
    "additive_noise",
    "multiplicative_noise",
    "default_mode_indices",
]


@dataclass(frozen=True)
class Potential:
    """Scalar potential with its first and second derivatives.

    ``c1`` bounds the second derivative from below, psi'' >= -c1; each
    built-in potential sets the value its formula fixes.
    """

    name: str
    psi: Callable[[np.ndarray], np.ndarray]
    psi_prime: Callable[[np.ndarray], np.ndarray]
    psi_second: Callable[[np.ndarray], np.ndarray]
    c1: float


def _double_well_prime(r):
    """psi'(r) = r^3 - r, by products rather than libm's pow."""
    r = np.asarray(r, dtype=float)
    return r * r * r - r


def double_well() -> Potential:
    """Classical double well psi(r) = (r^2 - 1)^2 / 4 with minima at +-1;
    psi'' = 3 r^2 - 1 >= -1, so c1 = 1."""
    return Potential(
        name="double_well",
        psi=lambda r: 0.25 * (np.asarray(r, dtype=float) ** 2 - 1.0) ** 2,
        psi_prime=_double_well_prime,
        psi_second=lambda r: 3.0 * np.asarray(r, dtype=float) ** 2 - 1.0,
        c1=1.0,
    )


def quadratic_potential(curvature: float = 1.0) -> Potential:
    """Convex quadratic psi(r) = a r^2 / 2; makes the state dynamics linear.
    psi'' = a >= 0, so c1 = 0."""
    a = float(curvature)
    if a < 0:
        raise DomainError("quadratic potential needs nonnegative curvature")
    return Potential(
        name="quadratic",
        psi=lambda r: 0.5 * a * np.asarray(r, dtype=float) ** 2,
        psi_prime=lambda r: a * np.asarray(r, dtype=float),
        psi_second=lambda r: np.full_like(np.asarray(r, dtype=float), a),
        c1=0.0,
    )


# ---------------------------------------------------------------------------
# Noise operator


def default_mode_indices(ndims: int, nmodes: int) -> list:
    """Lowest nonconstant cosine modes, ordered by total wavenumber."""
    if ndims == 1:
        return [(m,) for m in range(1, nmodes + 1)]
    pairs = []
    level = 1
    while len(pairs) < nmodes:
        for mx in range(level + 1):
            my = level - mx
            pairs.append((mx, my))
            if len(pairs) == nmodes:
                break
        level += 1
    return pairs


@dataclass(frozen=True)
class NoiseModel:
    """Finite-rank noise operator over K independent scalar Brownian motions.

    Each mode is a smooth cosine profile ``g_k`` with amplitude ``sigma_k``.
    Additive noise adds ``sum_k sigma_k g_k dW_k``; multiplicative noise
    modulates the modes by rho = tanh of the state, and the time steppers
    remove the grid mean of the modulated mode sum, which by linearity is
    the sum of the modes' projections.
    """

    grid: Grid
    kind: str
    sigmas: np.ndarray
    modes: np.ndarray            # (K, *grid.shape)
    mode_indices: tuple

    @cached_property
    def nmodes(self) -> int:
        return int(self.sigmas.shape[0])

    @cached_property
    def is_multiplicative(self) -> bool:
        return self.kind == "multiplicative"

    @cached_property
    def is_mean_free(self) -> bool:
        """True when the steps project the increments to zero mean:
        multiplicative noise, or additive noise without a constant mode."""
        return self.is_multiplicative or all(any(ix) for ix in self.mode_indices)

    @staticmethod
    def rho_prime(values):
        """The derivative of the modulation rho = tanh."""
        return 1.0 / np.cosh(values) ** 2


def _build_modes(grid: Grid, indices) -> np.ndarray:
    mats = [grid.cosine_mode(ix) for ix in indices]
    if mats:
        return np.stack(mats)
    return np.zeros((0,) + grid.shape)


def _normalize_indices(grid: Grid, mode_indices, nmodes):
    if mode_indices is None:
        mode_indices = default_mode_indices(grid.ndims, nmodes)
    out = []
    for ix in mode_indices:
        ix = tuple(int(i) for i in np.atleast_1d(ix))
        if len(ix) != grid.ndims:
            raise ShapeError(f"mode index {ix} does not match grid dimension")
        out.append(ix)
    return tuple(out)


def _amplitudes_and_indices(grid: Grid, sigmas, mode_indices):
    """The checked amplitudes and mode indices of a noise constructor."""
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if np.any(sigmas < 0):
        raise DomainError("noise amplitudes must be nonnegative")
    indices = _normalize_indices(grid, mode_indices, len(sigmas))
    if len(indices) != len(sigmas):
        raise ShapeError("number of mode indices must match number of amplitudes")
    return sigmas, indices


def additive_noise(grid: Grid, sigmas, mode_indices=None,
                   allow_nonzero_mean_modes: bool = False) -> NoiseModel:
    """State-independent noise on smooth cosine modes.

    Modes must be mean-free (all indices nonzero) unless explicitly
    overridden; a constant mode injects mass and is only useful as a
    negative control for the conservation checks.
    """
    sigmas, indices = _amplitudes_and_indices(grid, sigmas, mode_indices)
    if not allow_nonzero_mean_modes:
        for ix in indices:
            if all(m == 0 for m in ix):
                raise ConfigurationError(
                    "constant noise mode breaks mass conservation; "
                    "pass allow_nonzero_mean_modes=True to force it"
                )
    return NoiseModel(
        grid=grid, kind="additive", sigmas=sigmas,
        modes=_build_modes(grid, indices), mode_indices=indices,
    )


def multiplicative_noise(grid: Grid, sigmas, mode_indices=None) -> NoiseModel:
    """State-modulated noise: the mode sum times tanh of the state, projected
    to zero mean once."""
    sigmas, indices = _amplitudes_and_indices(grid, sigmas, mode_indices)
    return NoiseModel(
        grid=grid, kind="multiplicative", sigmas=sigmas,
        modes=_build_modes(grid, indices), mode_indices=indices,
    )


def no_noise(grid: Grid) -> NoiseModel:
    """K = 0: the deterministic equation."""
    return NoiseModel(grid=grid, kind="additive", sigmas=np.zeros(0),
                      modes=np.zeros((0,) + grid.shape), mode_indices=())


# The array-level operators below are the hot path of the solvers. Their
# field arguments may carry leading batch axes (one row per path), with
# ``xi`` the increment field of each row. Each operator writes its result
# into ``out``, an array of the result's shape that overlaps none of its
# arguments, and returns it. Which noise enters a step is the sweeps' rule.


def _mode_sum(nm: NoiseModel, dw: np.ndarray) -> np.ndarray:
    """The increment field xi = sum_k sigma_k dw_k g_k of each row of ``dw``,
    shape (*dw.shape[:-1], *grid.shape).

    Each row is one 1 x K product with the K x size mode matrix, so a row is
    bitwise the same whatever the leading axes of ``dw`` are.
    """
    flat = (nm.sigmas * dw)[..., None, :] @ nm.modes.reshape(nm.nmodes, nm.grid.size)
    return flat.reshape(dw.shape[:-1] + nm.grid.shape)


def b_increment_values(nm: NoiseModel, y: np.ndarray, xi: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Array-level noise increment B(y) dw of the increment field ``xi``,
    of the shape of ``y``, before the step's projection.

    Additive noise is xi itself; multiplicative noise is xi * tanh(y) =
    sum_k sigma_k dw_k g_k tanh(y), and the step drops its zero mode.
    """
    if not nm.is_multiplicative:
        np.copyto(out, xi)
    else:
        np.tanh(y, out=out)
        np.multiply(xi, out, out=out)
    return out


def db_increment_values(rho_prime_y: np.ndarray, z: np.ndarray, xi: np.ndarray,
                        out: np.ndarray) -> np.ndarray:
    """Derivative of the multiplicative noise operator in the state y,
    applied to z, for the increment field ``xi``, before the step's
    projection; ``rho_prime_y`` is rho'(y). It is xi * (rho'(y) * z), of
    the shape of ``z``."""
    np.multiply(rho_prime_y, z, out=out)
    return np.multiply(xi, out, out=out)


def db_adjoint_scaled_values(rho_prime_xi: np.ndarray, p_projected: np.ndarray,
                             out: np.ndarray) -> np.ndarray:
    """Adjoint of the projected z -> DB(y)[z] dw of multiplicative noise
    applied to p, where ``rho_prime_xi`` is rho'(y) times the increment
    field xi of dw and ``p_projected`` is Pi p, p less its grid mean:
    rho'(y) xi Pi p, of the shape of ``p_projected``.

    With Pi the projection to zero mean it satisfies the exact discrete
    identity <Pi DB(y)[z] dw, p>_H = <z, out>_H. The adjoint sweep takes
    Pi p from its node map, which drops the zero coefficient of p, the one
    the state step's projection drops.
    """
    return np.multiply(rho_prime_xi, p_projected, out=out)
