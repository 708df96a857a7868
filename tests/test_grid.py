"""Spatial discretization against dense-matrix and analytic oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from choc import grid as grid_module
from choc import (
    ConfigurationError,
    DomainError,
    Grid,
    ShapeError,
)
from choc.grid import (
    _PRODUCT_POINTS,
    _dct,
    _idct,
    _node_map,
    _step_map,
    _step_transform,
    field_array,
    grad_norm_sq_values,
    lap_values,
    norm_h_values,
    norm_v_values,
    norm_z_sq_values,
    prolong_values,
)

from conftest import (
    apply_dense,
    dense_neumann_laplacian,
    inner_h,
    random_field,
    step_transform,
)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid((3,), (1.0,))
    with pytest.raises(ConfigurationError):
        Grid((8,), (-1.0,))
    with pytest.raises(ConfigurationError):
        Grid((8, 8, 8), (1.0, 1.0, 1.0))
    # h^2 underflows to 0, or overflows (where 2/h^2 = 0 would pass a
    # finiteness test of the symbol alone)
    for extreme in (1e-300, 1e300):
        with pytest.raises(ConfigurationError, match="Laplacian symbol"):
            Grid((8,), (extreme,))
        with pytest.raises(ConfigurationError, match="Laplacian symbol"):
            Grid((8, 8), (1.0, extreme))
    g = Grid((8, 10), (2.0, 1.0))
    assert g.cell_volume == pytest.approx(0.25 * 0.1)
    assert g.volume == pytest.approx(2.0)


def test_grid_rejects_non_integral_point_counts():
    with pytest.raises(ConfigurationError, match="integers"):
        Grid(64.7)
    with pytest.raises(ConfigurationError, match="integers"):
        Grid([16.2, 12.9])
    assert Grid(64.0).npoints == (64,)
    assert Grid([16.0, 12]).npoints == (16, 12)


def test_grid_size_is_exact():
    # the point count is a Python int: an int64 product of 2^32 x 2^32
    # wraps to 0, and every mean divides by the size
    assert Grid((2**32, 2**32)).size == 2**64
    assert Grid((2**62,)).size == 2**62
    assert Grid((16, 12)).size == 192


def test_field_validation(grid64, grid2d):
    # where data enters, a field is an array of the grid's shape whose
    # values are finite
    assert field_array(grid64, [1] * 64).dtype == np.float64
    for values in (np.full(grid64.shape, np.nan), np.full(grid64.shape, -np.inf)):
        with pytest.raises(DomainError, match="field values must be finite"):
            field_array(grid64, values)
    for g, values in ((grid64, np.zeros(12)), (grid64, np.zeros((1, 64))),
                      (grid2d, np.zeros(grid2d.shape[::-1]))):
        with pytest.raises(ShapeError, match="initial datum shape"):
            field_array(g, values, "initial datum")


# --- laplacian -------------------------------------------------------------


def test_laplacian_constant_is_zero(grid64):
    out = lap_values(grid64, np.full(grid64.shape, 3.7))
    assert np.max(np.abs(out)) <= 1e-11


@pytest.mark.parametrize("k", [1, 2, 5, 11])
def test_laplacian_eigenfield_1d(grid64, k):
    # oracle: dense second-difference matrix with reflected ghosts,
    # diagonalized numerically
    mat = dense_neumann_laplacian(grid64)
    x = grid64.cosine_mode((k,))
    dense_out = apply_dense(mat, x)
    spectral_out = lap_values(grid64, x)
    n = grid64.npoints[0]
    h = grid64.spacings[0]
    lam_analytic = -(2.0 / h**2) * (1.0 - np.cos(k * np.pi / n))
    scale = abs(lam_analytic)
    assert np.max(np.abs(spectral_out - dense_out)) <= 1e-11 * scale
    assert np.max(np.abs(spectral_out - lam_analytic * x)) <= 1e-11 * scale
    # dense diagonalization reproduces the same eigenvalue
    evals = np.sort(np.linalg.eigvalsh(mat))
    assert np.min(np.abs(evals - lam_analytic)) <= 1e-8 * scale


def test_laplacian_matches_dense_random(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        mat = dense_neumann_laplacian(g)
        for _ in range(5):
            x = random_field(g, rng)
            assert np.allclose(lap_values(g, x), apply_dense(mat, x),
                               rtol=1e-12, atol=1e-9)


def test_laplacian_output_zero_mean(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        x = random_field(g, rng)
        assert abs(np.mean(lap_values(g, x))) <= 1e-12 * np.max(np.abs(x))


def test_laplacian_symmetry(grid64, grid2d, rng):
    # smooth fields meet the stated rounding tolerance; rough white-noise
    # fields sit at the float64 envelope eps*|lambda|_max
    for g in (grid64, grid2d):
        for _ in range(10):
            x = random_field(g, rng, smooth=True)
            z = random_field(g, rng, smooth=True)
            a = inner_h(g, lap_values(g, x), z)
            b = inner_h(g, x, lap_values(g, z))
            assert abs(a - b) <= 1e-12 * norm_h_values(g, x) * norm_h_values(g, z)
        lam_max = float(np.max(-g.lap_symbol))
        for _ in range(10):
            x = random_field(g, rng)
            z = random_field(g, rng)
            a = inner_h(g, lap_values(g, x), z)
            b = inner_h(g, x, lap_values(g, z))
            assert abs(a - b) <= (32 * np.finfo(float).eps * lam_max
                                  * norm_h_values(g, x) * norm_h_values(g, z))


def test_laplacian_negative_semidefinite(grid64, rng):
    for _ in range(10):
        x = random_field(grid64, rng)
        assert inner_h(grid64, lap_values(grid64, x), x) <= 1e-10


# --- spectral round trip ---------------------------------------------------


def test_spectral_roundtrip_identity(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        x = random_field(g, rng)
        back = _idct(_dct(x))
        assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))


def test_spectral_zero_coefficient_is_mean(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        x = random_field(g, rng)
        coeffs = _dct(x)
        c0 = coeffs.ravel()[0]
        assert c0 == pytest.approx(np.mean(x) * np.sqrt(g.size), rel=1e-12, abs=1e-14)


def _entered(call) -> set:
    """Names of the Python functions that ``call`` enters."""
    names = set()

    def profile(frame, event, arg):
        if event == "call":
            names.add(frame.f_code.co_name)
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return names


def test_transforms_call_the_pocketfft_kernel(rng):
    # A scipy release that renames or changes the private kernel makes the
    # probe refuse it: every result keeps its bits, and only this test
    # shows that the transforms lost their fast path.
    assert grid_module._KERNEL_BITWISE
    dispatch = {"_r2rn", "_init_nd_shape_and_axes", "__ua_function__", "_asfarray"}
    for shape, axes in (((64,), None), ((8, 64), (-1,)), ((3, 8, 8), (-2, -1))):
        x = rng.standard_normal(shape)
        assert not dispatch & _entered(lambda: _idct(_dct(x, axes), axes))
        assert dispatch <= _entered(
            lambda: scipy.fft.dctn(x, type=2, norm="ortho", axes=axes))


# --- step transform ----------------------------------------------------------


def _public(x, axes, inverse):
    public = scipy.fft.idctn if inverse else scipy.fft.dctn
    return public(x, type=2, norm="ortho", axes=axes)


@pytest.mark.parametrize("inverse", [False, True])
def test_step_transform_is_near_scipy_on_short_axes(rng, inverse):
    # a product sums n terms: it stays within n ulps of the largest input of
    # dctn/idctn on every axis length it takes (measured: within 0.4 of that)
    eps = np.finfo(float).eps
    for n in range(4, _PRODUCT_POINTS + 1):
        x = rng.standard_normal((5, n))
        err = np.max(np.abs(step_transform(Grid((n,)), x, inverse)
                            - _public(x, (-1,), inverse)))
        assert err <= n * eps * np.max(np.abs(x)), n
    for shape in ((8, 6), (16, 12), (64, 64), (8, 70)):
        x = rng.standard_normal((3,) + shape)
        err = np.max(np.abs(step_transform(Grid(shape), x, inverse)
                            - _public(x, (-2, -1), inverse)))
        assert err <= sum(shape) * eps * np.max(np.abs(x)), shape


@pytest.mark.parametrize("shape", [(_PRODUCT_POINTS + 1,), (65, 66), (128,), (8, 70), (70, 8)])
@pytest.mark.parametrize("refused", [False, True])
def test_step_transform_keeps_scipy_bits_on_long_axes(rng, monkeypatch, shape, refused):
    # on the kernel and, when the probe refuses it, on scipy's public path;
    # a grid with one long axis takes the kernel on both
    if refused:
        monkeypatch.setattr(grid_module, "_KERNEL_BITWISE", False)
    g = Grid(shape)
    x = rng.standard_normal((3,) + shape)
    for inverse in (False, True):
        out = step_transform(g, x, inverse)
        assert out.tobytes() == _public(x, g.axes, inverse).tobytes()


def _bound_maps(g, x, symbols):
    """Every map a sweep binds on ``g``, bound to new arrays that hold
    ``x``: the two step transforms, the step map and the node map with its
    projection. Returns (runs, results): runs[i]() writes results[i]."""
    runs, results = [], []
    for inverse in (False, True):
        out = np.empty(x.shape)
        runs.append(_step_transform(g, x, out, inverse))
        results.append((out,))
    x_hat = np.empty(x.shape)
    inputs, update = _step_map(g, x_hat, symbols)

    def step_map():
        np.copyto(x_hat, x)
        for array in inputs:
            np.copyto(array, x)
        update()
    runs.append(step_map)
    results.append((x_hat,))
    source, outputs, node = _node_map(g, x.shape, symbols[:2], project=True)
    np.copyto(source, x)
    runs.append(node)
    results.append(outputs)
    return runs, results


def _direct_bits(g, x, symbols):
    runs, results = _bound_maps(g, x, symbols)
    for run in runs:
        run()
    return [[out.tobytes() for out in outs] for outs in results]


@pytest.mark.parametrize("shape", [(64,), (19,), (8, 6), (17, 19), (8, 70), (128,)])
@pytest.mark.parametrize("refused", [False, True])
def test_step_transform_interposed_is_bitwise_direct(rng, monkeypatch, shape, refused):
    # with the public names wrapped, as a trace wraps them, every call of a
    # bound transform or map goes through them, once per transform call (a
    # folded map is one), and gives the direct route's bits, also where a
    # long axis falls back to scipy's public path
    if refused:
        monkeypatch.setattr(grid_module, "_KERNEL_BITWISE", False)
    g = Grid(shape)
    x = rng.standard_normal((2, 3) + shape)
    symbols = rng.uniform(-1.0, 1.0, (3,) + shape)
    direct = _direct_bits(g, x, symbols)
    calls = []
    for name in ("dctn", "idctn"):
        def counted(*args, _name=name, _original=getattr(scipy.fft, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    runs, results = _bound_maps(g, x, symbols)
    node_calls = ["dctn"] if grid_module._folds(g) else ["dctn", "idctn"]
    for run, outs, expected, made in zip(runs, results, direct,
                                         (["dctn"], ["idctn"], ["dctn"], node_calls)):
        for _ in range(2):
            del calls[:]
            run()
            assert calls == made
            assert [out.tobytes() for out in outs] == expected


def test_step_transform_takes_contiguous_float_arrays():
    g = Grid((16,))
    x = np.zeros((4, 16))
    with pytest.raises(ValueError):
        _step_transform(g, x[::2], np.empty((2, 16)))
    with pytest.raises(ValueError):
        _step_transform(g, x, np.empty((4, 16), dtype=np.float32))


_THREAD_PROBE = """
import hashlib, numpy as np
from choc.grid import Grid, _node_map, _step_map, _step_transform
rng = np.random.default_rng(3)
digest = hashlib.sha256()
for shape, rows in ([((n,), 40) for n in range(4, 65)]
                    + [((n,), 1) for n in (17, 18, 19, 57, 64)]
                    + [((64,), 400), ((64, 64), 16), ((12, 10), 5)]):
    g = Grid(shape)
    x = rng.standard_normal((rows,) + shape)
    symbols = rng.uniform(-1.0, 1.0, (3,) + shape)
    for inverse in (False, True):
        out = np.empty(x.shape)
        _step_transform(g, x, out, inverse)()
        digest.update(out.tobytes())
    x_hat = x.copy()
    inputs, update = _step_map(g, x_hat, symbols)
    for array, values in zip(inputs, rng.standard_normal((2,) + x.shape)):
        array[...] = values
    update()
    digest.update(x_hat.tobytes())
    source, outputs, node = _node_map(g, x.shape, symbols[:2], project=True)
    source[...] = x
    node()
    for out in outputs:
        digest.update(out.tobytes())
print(digest.hexdigest())
"""


def test_step_transform_bits_do_not_depend_on_blas_threads():
    # BLAS may split a product over threads; the bits must not move, in the
    # step transforms or in the maps that fold the symbols into them
    src = str(Path(grid_module.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


# --- norms -----------------------------------------------------------------


def test_mean_and_norms_constant(grid64):
    c = np.full(grid64.shape, -2.5)
    assert np.mean(c) == pytest.approx(-2.5)
    assert norm_h_values(grid64, c) == pytest.approx(2.5 * np.sqrt(grid64.volume), rel=1e-13)


def test_eigenfield_mean_zero(grid64):
    x = grid64.cosine_mode((1,))
    assert abs(np.mean(x)) <= 1e-14


def test_norm_v_matches_dense_quadratic_form(grid64, grid2d, rng):
    for g in (grid64, grid2d):
        mat = dense_neumann_laplacian(g)
        for _ in range(5):
            x = random_field(g, rng)
            v = x.ravel()
            dirichlet = float(v @ (-mat @ v)) * g.cell_volume
            oracle = np.sqrt(norm_h_values(g, x) ** 2 + dirichlet)
            assert norm_v_values(g, x) == pytest.approx(oracle, rel=1e-11)


def test_norm_z_matches_dense(grid64, rng):
    mat = dense_neumann_laplacian(grid64)
    x = random_field(grid64, rng)
    lap = apply_dense(mat, x)
    oracle = np.sqrt(norm_v_values(grid64, x) ** 2
                     + np.sum(lap**2) * grid64.cell_volume)
    assert np.sqrt(norm_z_sq_values(grid64, x)) == pytest.approx(oracle, rel=1e-9)


def test_array_norms_are_roots_of_sums_of_squares(rng):
    # a norm built on others adds their squares as sums, before the one
    # square root: no norm is squared back from a rounded square root, and
    # the squared Z norm that the checks sum over time is one of these sums
    g = Grid((4,), (1.0,))
    values = rng.standard_normal((20000,) + g.shape)
    h_sq = np.sum(values**2, axis=-1) * g.cell_volume
    v_sq = h_sq + grad_norm_sq_values(g, values)
    # |Lap y|_H^2 by Parseval, from the coefficients the Dirichlet form takes
    lap_sq = np.sum((g.lap_symbol * _dct(values, g.axes)) ** 2, axis=-1) * g.cell_volume
    physical = np.sum(lap_values(g, values) ** 2, axis=-1) * g.cell_volume
    assert np.allclose(lap_sq, physical, rtol=1e-13, atol=0.0)
    assert np.array_equal(norm_h_values(g, values), np.sqrt(h_sq))
    assert np.array_equal(norm_v_values(g, values), np.sqrt(v_sq))
    assert np.array_equal(norm_z_sq_values(g, values), v_sq + lap_sq)


# --- prolongation ----------------------------------------------------------


def test_prolong_preserves_modes_and_mean(grid64, rng):
    fine = Grid((128,), (1.0,))
    x = random_field(grid64, rng, smooth=True)
    out = prolong_values(grid64, x, fine)
    assert np.mean(out) == pytest.approx(np.mean(x), rel=1e-12, abs=1e-14)
    # cosine modes resample exactly
    mode = grid64.cosine_mode((3,))
    up = prolong_values(grid64, mode, fine)
    assert np.allclose(up, fine.cosine_mode((3,)), atol=1e-12)


@pytest.mark.parametrize("coarse, fine", [(Grid((16,), (1.0,)), Grid((32,), (1.0,))),
                                          (Grid((6, 8), (1.0, 2.0)),
                                           Grid((12, 8), (1.0, 2.0)))])
def test_prolong_values_is_the_field_level_prolong(coarse, fine, rng):
    # a batch of fields prolongs in one transform pair, each field with the
    # bits of its own prolongation
    values = rng.standard_normal((3, 5) + coarse.shape)
    out = prolong_values(coarse, values, fine)
    assert out.shape == (3, 5) + fine.shape
    for ix in np.ndindex(3, 5):
        assert np.array_equal(out[ix], prolong_values(coarse, values[ix], fine))
