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

Every cosine transform goes through :func:`_dct`/:func:`_idct`. In 1D most
of the time of ``scipy.fft.dctn`` is Python dispatch around its pocketfft
kernel, so the two call that kernel directly, with the arguments ``dctn``
and ``idctn`` pass it, when both of these hold:

- an import-time probe found the kernel bitwise equal to ``dctn``/``idctn``,
  forward and inverse, on a 1D, a 2D and a batched array. The kernel is a
  private scipy name, and a scipy release may rename it or change what it
  computes; then every transform takes the public path, with the same bits.
- ``scipy.fft.dctn`` (for :func:`_idct`, ``idctn``) is still the function
  scipy shipped. Code that interposes on the public name, such as a trace
  that counts transforms, then sees every one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _fft

from .errors import ConfigurationError, DomainError, ShapeError

__all__ = [
    "Grid",
    "Field",
    "laplacian",
    "mean",
    "norm_h",
    "grad_norm_sq",
    "norm_v",
    "norm_z",
    "prolong",
]


try:
    from scipy.fft._pocketfft.pypocketfft import dct as _pocketfft_dct
except ImportError:
    _pocketfft_dct = None

# The public transforms as scipy shipped them. Once the benchmark's trace
# counts transforms at _dct/_idct instead of at scipy.fft.dctn/idctn, the
# identity test against these in _dct/_idct is deleted.
_DCTN, _IDCTN = _fft.dctn, _fft.idctn


def _kernel(values, kind: int, axes) -> np.ndarray:
    """Orthonormal pocketfft cosine transform of type ``kind`` (2 forward,
    3 inverse) on a float64 copy or view of ``values``. The kernel takes
    negative axes and None (all axes) as ``dctn`` does."""
    return _pocketfft_dct(np.asarray(values, dtype=np.float64), kind, axes, 1, None, 1, True)


def _kernel_is_bitwise() -> bool:
    """True when the kernel gives the bits of ``dctn``/``idctn`` on a 1D, a
    2D and two batched arrays, forward and inverse."""
    if _pocketfft_dct is None:
        return False
    rng = np.random.default_rng(0)
    cases = [((16,), None), ((6, 8), None), ((3, 16), (-1,)), ((3, 6, 8), (-2, -1))]
    try:
        for shape, axes in cases:
            x = rng.standard_normal(shape)
            for kind, public in ((2, _DCTN), (3, _IDCTN)):
                fast = _kernel(x, kind, axes)
                slow = public(x, type=2, norm="ortho", axes=axes)
                if fast.dtype != slow.dtype or fast.tobytes() != slow.tobytes():
                    return False
    except (TypeError, ValueError, RuntimeError):
        return False
    return True


_KERNEL_BITWISE = _kernel_is_bitwise()


def _dct(values: np.ndarray, axes=None) -> np.ndarray:
    """Orthonormal cosine transform over ``axes`` (all axes when None); the
    zero coefficient is the grid mean times sqrt(total point count)."""
    if _KERNEL_BITWISE and _fft.dctn is _DCTN:
        return _kernel(values, 2, axes)
    return _fft.dctn(values, type=2, norm="ortho", axes=axes)


def _idct(coeffs: np.ndarray, axes=None) -> np.ndarray:
    if _KERNEL_BITWISE and _fft.idctn is _IDCTN:
        return _kernel(coeffs, 3, axes)
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
        # the Laplacian symbol reaches 4/h^2: h^2 must neither overflow nor underflow to 0
        if not all(0.0 < h * h < math.inf and 4.0 / (h * h) < math.inf for h in self.spacings):
            raise ConfigurationError(
                f"side lengths {lengths} give a Laplacian symbol that is not finite")

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


def prolong(x: Field, fine: Grid) -> Field:
    """Transfer a field to a finer grid by exact cosine-series resampling.

    Requires the fine grid to have at least as many points per axis and the
    same side lengths. Mean and low modes are preserved exactly.
    """
    return Field(fine, prolong_values(x.grid, x.values, fine))


def prolong_values(grid: Grid, values: np.ndarray, fine: Grid) -> np.ndarray:
    """Array-level :func:`prolong`: leading axes of ``values`` are a batch,
    and each field of it gets the bits of its field-level prolongation."""
    if fine.ndims != grid.ndims:
        raise ConfigurationError("prolongation requires grids of equal dimension")
    if fine.lengths != grid.lengths:
        raise ConfigurationError("prolongation requires identical domain lengths")
    if any(nf < nc for nf, nc in zip(fine.npoints, grid.npoints)):
        raise ConfigurationError("target grid must be at least as fine per axis")
    coeffs = _dct(values, grid.axes)
    out = np.zeros(values.shape[: values.ndim - grid.ndims] + fine.shape)
    sl = (...,) + tuple(slice(0, n) for n in grid.shape)
    scale = 1.0
    for nf, nc in zip(fine.npoints, grid.npoints):
        scale *= np.sqrt(nf / nc)
    out[sl] = coeffs * scale
    return _idct(out, fine.axes)


# the wavenumber beyond which low_pass_field damps its white noise
_CUTOFF = 8


def low_pass_field(grid: Grid, rng: np.random.Generator, amplitude: float) -> Field:
    """Smooth random field: white noise damped beyond the wavenumber
    ``_CUTOFF``, rescaled to the requested sup amplitude. Used for initial
    data."""
    return Field(grid, low_pass_values(grid, rng, amplitude))


def low_pass_values(grid: Grid, rng: np.random.Generator, amplitude: float,
                    batch: tuple[int, ...] = ()) -> np.ndarray:
    """Array-level :func:`low_pass_field`: a ``batch`` of smooth random
    fields from one draw, each rescaled to the sup amplitude on its own.
    The fields are bitwise those of as many :func:`low_pass_field` calls
    on the same generator."""
    coeffs = rng.standard_normal(batch + grid.shape)
    if grid.ndims == 1:
        k2 = (np.arange(grid.npoints[0]) / _CUTOFF) ** 2
    else:
        kx = np.arange(grid.npoints[0])[:, None]
        ky = np.arange(grid.npoints[1])[None, :]
        k2 = (kx**2 + ky**2) / _CUTOFF**2
    values = _idct(coeffs * np.exp(-k2), grid.axes)
    top = np.max(np.abs(values), axis=grid.axes, keepdims=True)
    scale = np.divide(amplitude, top, out=np.ones(top.shape), where=top > 0)
    return values * scale
