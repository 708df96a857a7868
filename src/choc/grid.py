"""Spatial discretization: uniform Neumann box, fields, and spectral calculus.

The domain is an axis-aligned box in one or two dimensions with homogeneous
Neumann boundary conditions. Fields live at cell centers and all quadrature
is the midpoint rule, so the discrete L2 inner product is the plain dot
product weighted by the cell volume.

The Neumann Laplacian is the standard second-order central-difference stencil
with reflected ghost points. On a cell-centered grid that operator is
diagonalized exactly by the type-II discrete cosine transform: the basis
vector cos(k*pi*(i+1/2)/n) has eigenvalue

    lambda_k = -(2/h^2) * (1 - cos(k*pi/n)),   k = 0..n-1,

which is what makes the fourth-order implicit solves used by the time
steppers a single diagonal division in coefficient space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _fft

from .errors import ConfigurationError, DomainError, PreconditionError, ShapeError

__all__ = [
    "Grid",
    "Field",
    "laplacian",
    "inverse_neumann_laplacian",
    "mean",
    "inner_h",
    "norm_h",
    "grad_norm_sq",
    "norm_v",
    "norm_z",
    "norm_vstar",
    "check_compactness_inequality",
    "prolong",
]


def _dct(values: np.ndarray, axes=None) -> np.ndarray:
    """Orthonormal cosine transform over ``axes`` (all axes when None); the
    zero coefficient is the grid mean times sqrt(total point count)."""
    return _fft.dctn(values, type=2, norm="ortho", axes=axes)


def _idct(coeffs: np.ndarray, axes=None) -> np.ndarray:
    return _fft.idctn(coeffs, type=2, norm="ortho", axes=axes)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a Neumann box.

    Parameters
    ----------
    npoints : tuple of int
        Number of cells per axis (one or two axes, each >= 4).
    lengths : tuple of float
        Side lengths of the box per axis.
    """

    npoints: tuple[int, ...]
    lengths: tuple[float, ...]

    def __init__(self, npoints, lengths=None):
        counts = np.atleast_1d(npoints)
        if not all(float(n).is_integer() for n in counts):
            raise ConfigurationError(
                f"point counts must be integers, got {counts.tolist()}")
        npoints = tuple(int(n) for n in counts)
        if lengths is None:
            lengths = (1.0,) * len(npoints)
        lengths = tuple(float(l) for l in np.atleast_1d(lengths))
        if len(npoints) not in (1, 2):
            raise ConfigurationError(f"grid must be 1D or 2D, got {len(npoints)} axes")
        if len(lengths) != len(npoints):
            raise ConfigurationError("npoints and lengths must have the same number of axes")
        if any(n < 4 for n in npoints):
            raise ConfigurationError(f"need at least 4 points per axis, got {npoints}")
        if any(l <= 0.0 for l in lengths):
            raise ConfigurationError(f"side lengths must be positive, got {lengths}")
        object.__setattr__(self, "npoints", npoints)
        object.__setattr__(self, "lengths", lengths)

    @property
    def ndims(self) -> int:
        return len(self.npoints)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.npoints

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.npoints))

    @cached_property
    def axes(self) -> tuple[int, ...]:
        """The trailing array axes a field occupies; leading axes (time,
        paths) are batch axes of the transforms and means."""
        return tuple(range(-self.ndims, 0))

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.npoints))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        n = self.npoints[axis]
        h = self.spacings[axis]
        return (np.arange(n) + 0.5) * h

    def coords(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, broadcastable to ``shape``."""
        axes = [self.axis_coords(a) for a in range(self.ndims)]
        if self.ndims == 1:
            return (axes[0],)
        return tuple(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def axis_eigenvalues(self) -> tuple[np.ndarray, ...]:
        """Per-axis cosine-basis eigenvalues of the Neumann Laplacian (<= 0)."""
        out = []
        for n, h in zip(self.npoints, self.spacings):
            k = np.arange(n)
            out.append(-(2.0 / h**2) * (1.0 - np.cos(np.pi * k / n)))
        return tuple(out)

    @cached_property
    def lap_symbol(self) -> np.ndarray:
        """Full Laplacian symbol on the tensor grid of wavenumbers (<= 0)."""
        axes = self.axis_eigenvalues
        if self.ndims == 1:
            return axes[0].copy()
        return axes[0][:, None] + axes[1][None, :]

    def cosine_mode(self, index) -> np.ndarray:
        """Values of the cosine eigenfunction with the given per-axis index."""
        index = tuple(int(i) for i in np.atleast_1d(index))
        if len(index) != self.ndims:
            raise ShapeError(f"mode index {index} does not match grid dimension {self.ndims}")
        out = np.ones(self.shape)
        coords = self.coords()
        for axis, m in enumerate(index):
            if not 0 <= m < self.npoints[axis]:
                raise DomainError(f"mode index {m} out of range for axis {axis}")
            out = out * np.cos(m * np.pi * coords[axis] / self.lengths[axis])
        return out


@dataclass(frozen=True)
class Field:
    """Scalar field sampled at the cell centers of a grid."""

    grid: Grid
    values: np.ndarray

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ShapeError(f"field values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise DomainError("field values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    def __add__(self, other: "Field") -> "Field":
        _same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


def _same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ConfigurationError("operands live on different grids")


def laplacian(x: Field) -> Field:
    """Discrete Neumann Laplacian (negative semi-definite, zero-mean output)."""
    return Field(x.grid, lap_values(x.grid, x.values))


def lap_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Array-level Laplacian used by the time steppers; leading axes of
    ``values`` are a batch."""
    return _idct(grid.lap_symbol * _dct(values, grid.axes), grid.axes)


def mean(x: Field) -> float:
    """Volume-weighted average; on a uniform grid this is the plain mean."""
    return float(np.mean(x.values))


def inner_h(x: Field, z: Field) -> float:
    _same_grid(x, z)
    return float(np.sum(x.values * z.values) * x.grid.cell_volume)


def norm_h(x: Field) -> float:
    return float(norm_h_values(x.grid, x.values))


def grad_norm_sq(x: Field) -> float:
    """Squared L2 norm of the discrete gradient, via the Dirichlet form.

    Defined as the quadratic form of minus the Laplacian so that discrete
    integration by parts is exact.
    """
    return float(grad_norm_sq_values(x.grid, x.values))


def norm_v(x: Field) -> float:
    return float(norm_v_values(x.grid, x.values))


def norm_z(x: Field) -> float:
    return float(norm_z_values(x.grid, x.values))


# Array-level norms: leading axes of ``values`` are a batch, and each field
# of the batch gets the bits of its field-level norm. A norm built on
# another one squares it with np.float_power, which calls the C library's
# pow as Python's float ** does; np.square rounds differently in about one
# case in a thousand.


def norm_h_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(values**2, axis=grid.axes) * grid.cell_volume)


def grad_norm_sq_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    coeffs = _dct(values, grid.axes)
    return np.sum((-grid.lap_symbol) * coeffs**2, axis=grid.axes) * grid.cell_volume


def norm_v_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.float_power(norm_h_values(grid, values), 2)
                   + grad_norm_sq_values(grid, values))


def norm_z_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.float_power(norm_v_values(grid, values), 2)
                   + np.float_power(norm_h_values(grid, lap_values(grid, values)), 2))


def inverse_neumann_laplacian(x: Field, mean_tol: float = 1e-10) -> Field:
    """Inverse of minus the Laplacian on the zero-mean subspace.

    The input must have zero grid mean (within ``mean_tol``); the output has
    zero mean and satisfies laplacian(out) == -x.
    """
    m = mean(x)
    if abs(m) > mean_tol:
        raise PreconditionError(
            f"inverse Laplacian requires a zero-mean field, got mean {m:.3e}", value=m
        )
    g = x.grid
    coeffs = _dct(x.values)
    nu = -g.lap_symbol  # positive except the zero mode
    flat = nu.reshape(-1)
    out = coeffs.reshape(-1).copy()
    out[1:] = out[1:] / flat[1:]
    out[0] = 0.0
    return Field(g, _idct(out.reshape(g.shape)))


def norm_vstar(x: Field) -> float:
    """Dual-space norm: gradient norm of the inverse Laplacian of the
    mean-free part, plus the absolute grid mean."""
    g = x.grid
    m = mean(x)
    coeffs = _dct(x.values).reshape(-1)
    nu = (-g.lap_symbol).reshape(-1)
    # ||grad N(x - mean)||^2 = sum_k coeff_k^2 / nu_k over nonzero modes
    seminorm_sq = float(np.sum(coeffs[1:] ** 2 / nu[1:]) * g.cell_volume)
    return float(np.sqrt(seminorm_sq) + abs(m))


def compactness_constant(grid: Grid, sigma: float) -> float:
    """Best constant C such that |x|_H^2 <= sigma |grad x|^2 + C |x|_*^2
    on zero-mean fields, computed from the discrete spectrum."""
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    nu = (-grid.lap_symbol).reshape(-1)[1:]
    c = np.max((1.0 - sigma * nu) * nu)
    return float(max(c, 0.0))


def check_compactness_inequality(x: Field, sigma: float, mean_tol: float = 1e-10):
    """Evaluate both sides of the interpolation inequality on a zero-mean field.

    Returns ``(lhs, rhs)`` with lhs = |x|_H^2 and
    rhs = sigma * |grad x|_H^2 + C_sigma * |x|_*^2. The inequality holds by
    construction of C_sigma; a failure beyond rounding is an internal error.
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    m = mean(x)
    if abs(m) > mean_tol:
        raise PreconditionError(
            f"compactness inequality is stated on zero-mean fields, got mean {m:.3e}",
            value=m,
        )
    c = compactness_constant(x.grid, sigma)
    lhs = norm_h(x) ** 2
    rhs = sigma * grad_norm_sq(x) + c * norm_vstar(x) ** 2
    if lhs > rhs + 1e-9 * (1.0 + abs(rhs)):
        raise AssertionError(
            f"compactness inequality violated beyond rounding: lhs={lhs!r} rhs={rhs!r}"
        )
    return lhs, rhs


def prolong(x: Field, fine: Grid) -> Field:
    """Transfer a field to a finer grid by exact cosine-series resampling.

    Requires the fine grid to have at least as many points per axis and the
    same side lengths. Mean and low modes are preserved exactly.
    """
    g = x.grid
    if fine.ndims != g.ndims:
        raise ConfigurationError("prolongation requires grids of equal dimension")
    if fine.lengths != g.lengths:
        raise ConfigurationError("prolongation requires identical domain lengths")
    if any(nf < nc for nf, nc in zip(fine.npoints, g.npoints)):
        raise ConfigurationError("target grid must be at least as fine per axis")
    coeffs = _dct(x.values)
    out = np.zeros(fine.shape)
    sl = tuple(slice(0, n) for n in g.shape)
    scale = 1.0
    for nf, nc in zip(fine.npoints, g.npoints):
        scale *= np.sqrt(nf / nc)
    out[sl] = coeffs * scale
    return Field(fine, _idct(out))


def low_pass_field(grid: Grid, rng: np.random.Generator, amplitude: float,
                   cutoff: int = 8) -> Field:
    """Smooth random field: white noise damped beyond the cutoff wavenumber,
    rescaled to the requested sup amplitude. Used for initial data."""
    coeffs = rng.standard_normal(grid.shape)
    if grid.ndims == 1:
        k2 = (np.arange(grid.npoints[0]) / cutoff) ** 2
    else:
        kx = np.arange(grid.npoints[0])[:, None]
        ky = np.arange(grid.npoints[1])[None, :]
        k2 = (kx**2 + ky**2) / cutoff**2
    values = _idct(coeffs * np.exp(-k2))
    top = np.max(np.abs(values))
    if top > 0:
        values = values * (amplitude / top)
    return Field(grid, values)
