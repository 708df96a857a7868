"""Spatial discretization: uniform Neumann box and spectral calculus.

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

A field is a float64 array of shape ``grid.shape``; data enters through
:func:`field_array`, which checks the shape and that every value is finite.
The operators below (the Laplacian, the norms, prolongation and the random
initial data) take arrays whose leading axes are a batch (time steps,
paths). The time steppers transform through maps they bind once per sweep
to a workspace: :func:`_step_transform`, :func:`_step_map` (a step's
forward half, which multiplies by the step's cosine-space symbols) and
:func:`_node_map` (an adjoint node).

The module keeps these invariants:

- Each field of a batch gets the bits of its own operation, whatever else
  shares the batch.
- The zero coefficient is carried exactly: where a step's symbol has a zero
  mode of 0, the coefficient it gives there is exactly 0.
- Every rule that picks a route is stated here once:
  :func:`_cosine` takes the pocketfft kernel when an import-time probe
  found it bitwise equal to ``scipy.fft.dctn``/``idctn`` and scipy's public
  transform otherwise; :func:`_takes_products` gives a step products with
  cached cosine matrices when every axis has at most ``_PRODUCT_POINTS``
  points and the kernel on all axes otherwise; :func:`_folds` folds the
  step's symbols into those matrices on a 1D grid; :func:`_factor` is the
  one cache of product factors; and :func:`_rows_product` is the one
  binder of a product, in which BLAS never sees a single row and always
  writes whole column panels.
- A transform stays visible to code that interposes on scipy's public
  names, such as a trace that counts transforms: while ``scipy.fft.dctn``
  or ``idctn`` is not scipy's own, the operators call that name, and a
  bound map calls it inside ``scipy.fft.set_backend`` with a
  :class:`_StepBackend` that runs the same plan, so the bits do not move.

Why two routes: in 1D most of the time of a transform call is Python
dispatch, which the bound products skip. The operators keep the kernel for
accuracy. A product leaves the coefficients of a constant that should be 0
at rounding level, and the Laplacian scales them by up to 4/h^2: through
products, the Laplacian of the constant 3.7 on 64 points reads 8.2e-11
where the kernel gives 0. Inside a step every product output is scaled by
a bounded symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial

import numpy as np
from scipy import fft as _fft

from .errors import ConfigurationError, DomainError, ShapeError

__all__ = [
    "Grid",
    "field_array",
    "lap_values",
    "norm_h_values",
    "norm_v_values",
    "norm_z_sq_values",
    "prolong_values",
    "low_pass_values",
]


try:
    from scipy.fft._pocketfft.pypocketfft import dct as _pocketfft_dct
except ImportError:
    _pocketfft_dct = None

# The public transforms as scipy shipped them. While scipy.fft.dctn/idctn
# are these, _dct/_idct take _cosine and a bound step transform runs its
# plan directly; otherwise both call the public name, which an interposer
# (a trace that counts transforms) wraps, and a step transform runs its
# plan inside that call through _StepBackend.
_DCTN, _IDCTN = _fft.dctn, _fft.idctn


def _kernel(values, kind: int, axes, out=None) -> np.ndarray:
    """Orthonormal pocketfft cosine transform of type ``kind`` (2 forward,
    3 inverse) on a float64 copy or view of ``values``, into ``out`` when it
    is given. The kernel takes negative axes and None (all axes) as ``dctn``
    does."""
    return _pocketfft_dct(np.asarray(values, dtype=np.float64), kind, axes, 1, out, 1, True)


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


def _cosine(x, kind: int, axes, out=None) -> np.ndarray:
    """The orthonormal cosine transform of type ``kind`` (2 forward, 3
    inverse) over ``axes`` of ``x``: the pocketfft kernel when the probe
    accepted it, scipy's own public transform otherwise (inside a public
    call of a bound map, its :class:`_StepBackend` declines this call).
    The kernel is a private scipy name that a release may rename or change;
    then every transform takes the public path, with the same bits. The
    result goes into ``out`` when it is given, with the same bits."""
    if _KERNEL_BITWISE:
        return _kernel(x, kind, axes, out)
    result = (_DCTN if kind == 2 else _IDCTN)(x, type=2, norm="ortho", axes=axes)
    if out is None:
        return result
    out[...] = result
    return out


def _dct(values: np.ndarray, axes=None) -> np.ndarray:
    """Orthonormal cosine transform over ``axes`` (all axes when None); the
    zero coefficient is the grid mean times sqrt(total point count). It is
    :func:`_cosine` while ``scipy.fft.dctn`` is scipy's own, and a call of
    that public name otherwise."""
    if _fft.dctn is _DCTN:
        return _cosine(values, 2, axes)
    return _fft.dctn(values, type=2, norm="ortho", axes=axes)


def _idct(coeffs: np.ndarray, axes=None) -> np.ndarray:
    """Inverse of :func:`_dct`, through ``scipy.fft.idctn`` likewise."""
    if _fft.idctn is _IDCTN:
        return _cosine(coeffs, 3, axes)
    return _fft.idctn(coeffs, type=2, norm="ortho", axes=axes)


def _interposed() -> bool:
    """True while ``scipy.fft.dctn`` or ``idctn`` is not scipy's own: code
    interposes on the public transforms, such as a trace that counts
    them."""
    return _fft.dctn is not _DCTN or _fft.idctn is not _IDCTN


# Axes of at most this many points are transformed by the time steppers as
# products with a cached cosine matrix; the kernel wins from 128 points.
_PRODUCT_POINTS = 64
# BLAS writes a product's columns in panels of this many. OpenBLAS' dgemm
# takes the columns in panels of 8 (Haswell kernels), and a short last panel
# makes a row's bits depend on how many rows share the call; with full
# panels they do not, as the tests check.
_PANEL = 8


def _takes_products(shape) -> bool:
    """True when the steps transform fields of ``shape`` by products, every
    axis having at most ``_PRODUCT_POINTS`` points; otherwise they take the
    kernel (:func:`_cosine`) on all axes."""
    return all(n <= _PRODUCT_POINTS for n in shape)


def _folds(grid: Grid) -> bool:
    """True when the steps fold their cosine-space symbols into the cached
    matrices: on a 1D grid that takes products. Elsewhere they transform,
    then multiply (:func:`_step_map`, :func:`_node_map`); the rule is here
    alone."""
    return grid.ndims == 1 and _takes_products(grid.shape)


def _panels(n: int) -> int:
    """``n`` columns rounded up to whole panels."""
    return -(-n // _PANEL) * _PANEL


@cache
def _cosine_matrix(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix of ``n`` points, C[k, i] =
    s_k cos(pi k (2i + 1) / 2n) with s_0 = sqrt(1/n), s_k = sqrt(2/n); the
    angle is reduced mod 2 pi in integers before it is rounded."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    c = math.sqrt(2.0 / n) * np.cos((np.pi / (2 * n)) * ((k * (2 * i + 1)) % (4 * n)))
    c[0] = math.sqrt(1.0 / n)
    return c


@lru_cache(maxsize=32)
def _factor(n: int, kind: int | str, symbols: bytes | None = None) -> np.ndarray:
    """The factor that rows multiply along an axis of ``n`` points, with
    whole panels of columns, from the ``symbols``, the bytes of a (k, n)
    float64 array, one symbol s per row; None is the one symbol 1, which a
    plain transform uses (c.T * 1.0 is bitwise c.T):

    - ``kind`` 2 (forward): the blocks C^T diag(s) stacked as rows, (k n,
      panels): a row [x_1 | ... | x_k] times it is sum_k s_k DCT(x_k), and
      its column 0 is exactly 0 when every s_0 is;
    - ``kind`` 3 (inverse): the blocks diag(s) C, the transposes of the
      forward ones, stacked as rows: sum_k IDCT(s_k x_k);
    - ``kind`` "node": the blocks C^T diag(s) C side by side, each starting
      a panel, (n, k panels): a row x times it holds IDCT(s_k DCT(x)) in
      block k. They are summed by einsum, not BLAS, so their bits do not
      depend on BLAS threads.
    """
    syms = np.ones((1, n)) if symbols is None else np.frombuffer(symbols).reshape(-1, n)
    c = _cosine_matrix(n)
    width = _panels(n)
    if kind == "node":
        out = np.zeros((n, len(syms) * width))
        for k, s in enumerate(syms):
            out[:, k * width:k * width + n] = np.einsum("ji,j,jl->il", c, s, c)
    else:
        out = np.zeros((len(syms) * n, width))
        for k, s in enumerate(syms):
            block = c.T * s
            out[k * n:(k + 1) * n, :n] = block if kind == 2 else block.T
    out.flags.writeable = False
    return out


def _rows_product(factor: np.ndarray, rows: np.ndarray, out: np.ndarray):
    """rows times ``factor`` into ``out``, bound: a function of no
    arguments. ``rows`` is (r, K), ``factor`` (K, W) with W whole panels,
    and ``out`` (r, m) with m <= W receives the first m columns.

    Each row gets the bits of its own product: BLAS never sees a single row,
    which is multiplied as the first of two (numpy hands a single row to
    gemv, whose bits differ from the same row inside a gemm), and always
    writes whole panels, into ``out`` itself when it has all W columns."""
    if len(rows) > 1 and out.shape[1] == factor.shape[1]:
        return partial(np.matmul, rows, factor, out=out)
    src = rows if len(rows) > 1 else np.zeros((2, rows.shape[1]))
    product = np.empty((len(src), factor.shape[1]))
    top = product[:len(rows), :out.shape[1]]

    def run():
        if src is not rows:
            src[0] = rows[0]
        np.matmul(src, factor, out=product)
        np.copyto(out, top)
    return run


def _last_axis(x: np.ndarray, kind: int, out: np.ndarray):
    """The product of ``kind`` along the last axis of the contiguous ``x``
    into ``out``, bound."""
    n = x.shape[-1]
    return _rows_product(_factor(n, kind), x.reshape(-1, n), out.reshape(-1, n))


def _first_axis(x: np.ndarray, kind: int, out: np.ndarray):
    """The product of ``kind`` along axis -2 of the contiguous ``x`` into
    ``out``, bound: one product per field, by the transpose of the last
    axis' factor (C forward, C^T inverse)."""
    n, m = x.shape[-2:]
    left = np.ascontiguousarray(_factor(n, kind)[:, :n].T)
    return partial(np.matmul, left, x.reshape(-1, n, m), out=out.reshape(-1, n, m))


def _bound_product(x: np.ndarray, out: np.ndarray, kind: int, ndims: int):
    """The step transform of ``kind`` over the ``ndims`` trailing axes of
    ``x`` into ``out``, bound to those arrays (see
    :func:`_step_transform`); both of its routes run this. Products where
    the axes are short (:func:`_takes_products`), the last axis first; the
    kernel on all of them otherwise."""
    if not _takes_products(x.shape[-ndims:]):
        return partial(_cosine, x, kind, tuple(range(-ndims, 0)), out)
    if ndims == 1:
        return _last_axis(x, kind, out)
    work = np.empty(x.shape)
    last = _last_axis(x, kind, work)
    first = _first_axis(work, kind, out)

    def run():
        last()
        first()
    return run


def _block(buf: np.ndarray, start: int, n: int, shape) -> np.ndarray:
    """Columns start..start+n of ``buf``, as a view of ``shape``."""
    view = buf[:, start:start + n].view()
    view.shape = shape          # raises rather than copy
    return view


def _folded(grid: Grid, shape, symbols: np.ndarray, node: bool):
    """One product with the factor :func:`_factor` builds from the k
    ``symbols`` for a step (kind 2) or a ``node``, bound to arrays it
    allocates: the inputs (k for a step, 1 for a node) are the column blocks
    of one array, and the outputs (1 for a step, k for a node), zero until
    it first runs, the column blocks of another, each starting a panel; all
    are views of ``shape``. Returns (inputs, outputs, run), one transform
    call a run."""
    n = shape[-1]
    nrows = math.prod(shape[:-1])
    factor = _factor(n, "node" if node else 2, np.ascontiguousarray(symbols).tobytes())
    ninputs, noutputs = (1, len(symbols)) if node else (len(symbols), 1)
    src = np.zeros((nrows, ninputs * n))
    dst = np.zeros((nrows, factor.shape[1]))
    inputs = tuple(_block(src, j * n, n, shape) for j in range(ninputs))
    outputs = tuple(_block(dst, k * _panels(n), n, shape) for k in range(noutputs))
    return inputs, outputs, _bound("dctn", src, dst, partial(_rows_product, factor),
                                   grid.axes)


class _StepBackend:
    """The scipy.fft backend a bound map sets around its public call when
    scipy.fft.dctn/idctn are interposed. It runs the map's bound ``run``,
    which transforms the map's own arrays, and returns its output array; it
    declines any other call and its own nested calls, which fall through to
    scipy."""

    __ua_domain__ = "numpy.scipy.fft"

    def __init__(self, method, run, out):
        self._method, self._run, self._out = method, run, out
        self._busy = False

    def __ua_function__(self, method, args, kwargs):
        if method is not self._method or self._busy:
            return NotImplemented
        self._busy = True
        try:
            self._run()
        finally:
            self._busy = False
        return self._out


def _bound(name: str, x: np.ndarray, out: np.ndarray, plan, axes):
    """``run = plan(x, out)``, a function of no arguments that maps what
    ``x`` holds into ``out``, while scipy.fft's public ``name`` ("dctn" or
    "idctn") is scipy's own. Otherwise each call goes through that public
    name on ``x``, inside ``scipy.fft.set_backend`` with a
    :class:`_StepBackend` that runs ``run``: an interposer sees one
    transform per call, and the bits are the direct route's."""
    method = _DCTN if name == "dctn" else _IDCTN
    run = plan(x, out)
    if getattr(_fft, name) is method:
        return run
    backend = _StepBackend(method, run, out)

    def interposed():
        with _fft.set_backend(backend):
            getattr(_fft, name)(x, type=2, norm="ortho", axes=axes)
    return interposed


def _step_transform(grid: Grid, x: np.ndarray, out: np.ndarray, inverse: bool = False):
    """The orthonormal cosine transform (its inverse when ``inverse``) over
    the grid axes of ``x`` into ``out``, bound once for a sweep: returns a
    function of no arguments that transforms what ``x`` holds when it is
    called.

    ``x`` and ``out`` are distinct C-contiguous float64 arrays of one shape,
    (..., *grid.shape). It is a product per axis with the cached cosine
    matrices when every axis is short, the pocketfft kernel otherwise
    (:func:`_bound_product`). Leading axes are a batch, and each field of
    it gets the bits of its own transform. When the public
    transform is not scipy's own at binding, each call goes through it
    (:func:`_bound`), with the same bits.
    """
    for a in (x, out):
        if a.dtype != np.float64 or not a.flags.c_contiguous:
            raise ValueError("a step transform runs on contiguous float64 arrays")
    kind = 3 if inverse else 2
    return _bound("idctn" if inverse else "dctn", x, out,
                  partial(_bound_product, kind=kind, ndims=grid.ndims), grid.axes)


def _step_map(grid: Grid, x_hat: np.ndarray, symbols: np.ndarray):
    """x_hat <- s_0 x_hat + sum_k s_k DCT(input_k), bound once for a sweep.

    ``x_hat`` is a contiguous float64 array (..., *grid.shape) of
    coefficients and ``symbols`` the cosine-space symbols (s_0, s_1, ...),
    stacked, (1 + k, *grid.shape). The map allocates its k inputs, arrays of
    the shape of ``x_hat``. Returns (inputs, run); run() applies the map to
    what ``x_hat`` and the inputs hold, with one transform call.

    On a folded grid (:func:`_folds`) the inputs are column blocks of one
    (rows, k n) array, and one product with the stacked C^T diag(s_k) gives
    G = sum_k s_k DCT(input_k); then x_hat <- s_0 x_hat + G. Elsewhere the
    inputs are stacked, transformed in one call and multiplied by their
    symbols, and each is added to s_0 x_hat in turn.
    """
    shape = x_hat.shape
    k = len(symbols) - 1
    scale = np.broadcast_to(symbols[0], shape).copy()
    if _folds(grid):
        inputs, (total,), product = _folded(grid, shape, symbols[1:], False)

        def run():
            product()
            np.multiply(scale, x_hat, out=x_hat)
            np.add(x_hat, total, out=x_hat)
        return inputs, run
    stack = np.empty((k,) + shape)
    stack_hat = np.empty(stack.shape)
    terms = tuple(stack_hat)
    weights = np.stack([np.broadcast_to(s, shape) for s in symbols[1:]])
    forward = _step_transform(grid, stack, stack_hat)

    def run():
        forward()
        np.multiply(weights, stack_hat, out=stack_hat)
        np.multiply(scale, x_hat, out=x_hat)
        for term in terms:
            np.add(x_hat, term, out=x_hat)
    return tuple(stack), run


def _node_map(grid: Grid, shape, symbols: np.ndarray, project: bool = False):
    """x -> IDCT(s_k DCT(x)) for each of the k stacked ``symbols``,
    (k, *grid.shape), and, when ``project``, the first of these less its
    grid mean; bound once for a sweep on arrays of ``shape``, (...,
    *grid.shape), that it allocates.

    Returns (x, outputs, run): run() maps what ``x`` holds into the
    ``outputs``, zero until it first runs, with one transform call on a
    folded grid (:func:`_folds`) and two elsewhere. Folded, the outputs are
    column blocks of one product with the side-by-side C^T diag(s_k) C, and
    the projection is one more block, of s_0 with its zero mode 0.
    Elsewhere x is transformed, multiplied by each symbol and the stack
    inverted in one call; the projection subtracts from the first output
    the zero coefficient of its coefficients over sqrt(grid.size).
    """
    if _folds(grid):
        if project:
            projected = symbols[0].copy()
            projected[0] = 0.0
            symbols = np.concatenate([symbols, projected[None]])
        (x,), outputs, run = _folded(grid, shape, symbols, True)
        return x, outputs, run
    x = np.zeros(shape)
    x_hat = np.empty(shape)
    stack_hat = np.empty((len(symbols),) + tuple(shape))
    stack = np.zeros(stack_hat.shape)
    weights = [np.broadcast_to(s, shape).copy() for s in symbols]
    pairs = tuple(zip(weights, stack_hat))
    forward = _step_transform(grid, x, x_hat)
    inverse = _step_transform(grid, stack_hat, stack, inverse=True)
    outputs = tuple(stack)
    if project:
        zero = stack_hat[0][(Ellipsis,) + (slice(0, 1),) * grid.ndims]
        mean = np.empty(zero.shape)
        root = math.sqrt(grid.size)
        outputs += (np.zeros(shape),)

    def run():
        forward()
        for weight, out in pairs:
            np.multiply(weight, x_hat, out=out)
        inverse()
        if project:
            np.divide(zero, root, out=mean)
            np.subtract(outputs[0], mean, out=outputs[-1])
    return x, outputs, run


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
        return math.prod(self.npoints)

    @cached_property
    def axes(self) -> tuple[int, ...]:
        """The trailing array axes a field occupies; leading axes (time,
        paths) are batch axes of the transforms and means."""
        return tuple(range(-self.ndims, 0))

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.npoints))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @cached_property
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


def field_array(grid: Grid, values, what: str = "field") -> np.ndarray:
    """``values`` as a float64 array of one field on ``grid``, checked where
    data enters: a :class:`ShapeError` when its shape is not grid.shape, a
    :class:`DomainError` when a value is not finite. ``what`` names the data
    in the message."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise ShapeError(f"{what} shape {values.shape} != grid shape {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} values must be finite")
    return values


def lap_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Discrete Neumann Laplacian (negative semi-definite, zero-mean
    output); leading axes of ``values`` are a batch."""
    return _idct(grid.lap_symbol * _dct(values, grid.axes), grid.axes)


# The norms: leading axes of ``values`` are a batch, and each field of the
# batch gets the bits of its own norm.


def _norm_h_sq_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.sum(values**2, axis=grid.axes) * grid.cell_volume


def norm_h_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.sqrt(_norm_h_sq_values(grid, values))


def grad_norm_sq_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Squared L2 norm of the discrete gradient, via the Dirichlet form: the
    quadratic form of minus the Laplacian, so that discrete integration by
    parts is exact."""
    return _dirichlet_sq(grid, _dct(values, grid.axes))


def _dirichlet_sq(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """The Dirichlet form -<Lap y, y>_H from the coefficients of y."""
    return np.sum((-grid.lap_symbol) * coeffs**2, axis=grid.axes) * grid.cell_volume


def _norm_v_sq_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return _norm_h_sq_values(grid, values) + grad_norm_sq_values(grid, values)


def norm_v_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.sqrt(_norm_v_sq_values(grid, values))


def norm_z_sq_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """|y|_H^2 + |grad y|^2 + |Lap y|_H^2 from one transform: the transform
    is orthonormal, so |Lap y|_H^2 is the sum of (lambda c)^2 over the
    coefficients c of y, times the cell volume (Parseval)."""
    coeffs = _dct(values, grid.axes)
    lap_sq = np.sum((grid.lap_symbol * coeffs) ** 2, axis=grid.axes) * grid.cell_volume
    return _norm_h_sq_values(grid, values) + _dirichlet_sq(grid, coeffs) + lap_sq


def prolong_values(grid: Grid, values: np.ndarray, fine: Grid) -> np.ndarray:
    """Transfer fields to a finer grid by exact cosine-series resampling.

    Requires the fine grid to have at least as many points per axis and the
    same side lengths. Mean and low modes are preserved exactly. Leading
    axes of ``values`` are a batch, and each field of it gets the bits of its
    own prolongation.
    """
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


# the wavenumber beyond which low_pass_values damps its white noise
_CUTOFF = 8


def low_pass_values(grid: Grid, rng: np.random.Generator, amplitude: float,
                    batch: tuple[int, ...] = ()) -> np.ndarray:
    """A ``batch`` of smooth random fields from one draw: white noise damped
    beyond the wavenumber ``_CUTOFF``, each field rescaled to the sup
    ``amplitude`` on its own. The fields are bitwise those of as many calls
    without a batch on the same generator. Used for initial data and
    random controls."""
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
