"""Property tests: the structural identities on randomly drawn problems.

Each example draws a 1D or 2D grid, a noise kind with a set of cosine modes,
and a potential, then checks one identity of the discrete system: duality
to rounding, per-path mass conservation, idempotent projection, the
Laplacian and norms of a batch against those of each field, the cosine
transforms against scipy's public ones, and a sweep of a batch of paths, or
of rows controls × paths, against a sweep of each path alone, bit for bit.
"""

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from choc import (
    ControlProcess,
    Grid,
    TimeGrid,
    additive_noise,
    double_well,
    duality_terms,
    evaluate_cost,
    mix_seed,
    multiplicative_noise,
    project_admissible,
    quadratic_potential,
    sample_wiener_paths,
    solve_adjoint,
    solve_linearized,
    solve_state,
)
from choc import grid as grid_module
from choc.grid import (
    _dct,
    _idct,
    grad_norm_sq_values,
    lap_values,
    low_pass_values,
    norm_h_values,
    norm_v_values,
    norm_z_sq_values,
)
from choc.physics import no_noise
from choc.sensitivity import _duality_lhs, _duality_rhs, _sweep_adjoint, _sweep_linearized
from choc.state import StateParams, _path_sums, _sweep_state, target_values
from choc.verify import _continuous_gaps

from conftest import (
    clamped,
    each_path,
    linearized_potential,
    node_map,
    step_map,
    step_potentials,
    step_transform,
    zero_potential,
)

# A fixed example sequence and no example database: the suite gives the same
# verdict on every run and writes no files.
PROPERTIES = settings(max_examples=30, deadline=None, derandomize=True,
                      database=None)

lengths = st.floats(0.5, 2.0)
grids = st.one_of(
    st.builds(lambda n, a: Grid((n,), (a,)), st.integers(4, 40), lengths),
    st.builds(lambda n, m, a, b: Grid((n, m), (a, b)),
              st.integers(4, 12), st.integers(4, 12), lengths, lengths),
)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def state_params(draw):
    g = draw(grids)
    # nonconstant cosine modes of wavenumber below 4 per axis
    candidates = [ix for ix in np.ndindex(*(min(4, n) for n in g.npoints)) if any(ix)]
    modes = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3,
                          unique=True))
    sigmas = draw(st.lists(st.floats(0.0, 0.5), min_size=len(modes),
                           max_size=len(modes)))
    kind = draw(st.sampled_from(["none", "additive", "multiplicative"]))
    if kind == "none":
        noise = no_noise(g)
    elif kind == "additive":
        noise = additive_noise(g, sigmas, modes)
    else:
        noise = multiplicative_noise(g, sigmas, modes)
    potential = draw(st.one_of(
        st.just(double_well()),
        st.just(zero_potential()),
        st.builds(quadratic_potential, st.floats(0.0, 2.0)),
    ))
    tg = TimeGrid(draw(st.floats(0.005, 0.05)), draw(st.integers(2, 8)))
    return StateParams(grid=g, timegrid=tg, potential=potential, noise=noise)


def _smooth_series(params, rng, amplitude):
    return np.stack([low_pass_values(params.grid, rng, amplitude)
                     for _ in range(params.timegrid.nsteps)])


@PROPERTIES
@given(params=state_params(), seed=seeds,
       alphas=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)))
def test_duality_to_rounding(params, seed, alphas):
    rng = np.random.default_rng(seed)
    alphas = alphas + (0.0,)
    y0 = low_pass_values(params.grid, rng, 0.4)
    u = _smooth_series(params, rng, 0.5)
    h = _smooth_series(params, rng, 1.0)
    x_q = _smooth_series(params, rng, 0.3)
    x_t = low_pass_values(params.grid, rng, 0.3)
    wp = sample_wiener_paths(params.noise, params.timegrid, [seed])
    traj = solve_state(y0, u, wp, params)
    lin = solve_linearized(traj, h)
    adj = solve_adjoint(traj, x_q, x_t, alphas)
    (lhs,), (rhs,) = duality_terms(traj, lin, adj, h, x_q, x_t, alphas)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


@PROPERTIES
@given(params=state_params(), seed=seeds)
def test_mass_conserved_per_path(params, seed):
    rng = np.random.default_rng(seed)
    y0 = low_pass_values(params.grid, rng, 0.4)
    u = _smooth_series(params, rng, 0.5)
    for i in range(2):
        wp = sample_wiener_paths(params.noise, params.timegrid, [mix_seed(seed, i)])
        traj = solve_state(y0, u, wp, params)
        assert np.max(np.abs(traj.mass[0] - traj.mass[0, 0])) <= 1e-12


@PROPERTIES
@given(g=grids, nsteps=st.integers(1, 6), amplitude=st.floats(0.0, 10.0),
       radius=st.floats(0.01, 5.0), seed=seeds)
def test_projection_idempotent(g, nsteps, amplitude, radius, seed):
    tg = TimeGrid(0.05, nsteps)
    values = amplitude * np.random.default_rng(seed).standard_normal((nsteps,) + g.shape)
    u = ControlProcess(g, tg, values)
    once = project_admissible(u, radius)
    twice = project_admissible(once, radius)
    assert np.array_equal(twice.values, once.values)
    assert once.norm_l2q() <= radius * (1.0 + 1e-12)


@PROPERTIES
@given(g=grids, batch=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       seed=seeds)
def test_lap_values_of_a_batch_is_per_field(g, batch, seed):
    values = np.random.default_rng(seed).standard_normal(tuple(batch) + g.shape)
    batched = lap_values(g, values)
    for ix in np.ndindex(*batch):
        assert np.array_equal(batched[ix], lap_values(g, values[ix]))


def _bits(a: np.ndarray):
    return a.dtype, a.shape, a.tobytes()


@PROPERTIES
@given(shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
       axes=st.sampled_from([None, (-1,), (-2, -1), (0,)]),
       integer=st.booleans(),
       view=st.sampled_from(["contiguous", "strided", "reversed", "fortran"]),
       seed=seeds)
def test_transforms_are_scipy_bitwise(shape, axes, integer, view, seed):
    # on the kernel path and on the public path the probe falls back to
    assume(axes is None or len(axes) <= len(shape))
    rng = np.random.default_rng(seed)
    full = tuple(2 * n for n in shape) if view == "strided" else tuple(shape)
    x = rng.integers(-99, 100, full) if integer else rng.standard_normal(full)
    if view == "strided":
        x = x[(slice(None, None, 2),) * x.ndim]
    elif view == "reversed":
        x = x[(slice(None, None, -1),) * x.ndim]
    elif view == "fortran":
        x = np.asfortranarray(x)
    forward = scipy.fft.dctn(x, type=2, norm="ortho", axes=axes)
    inverse = scipy.fft.idctn(x, type=2, norm="ortho", axes=axes)
    for refused in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if refused:
                mp.setattr(grid_module, "_KERNEL_BITWISE", False)
            assert _bits(_dct(x, axes)) == _bits(forward)
            assert _bits(_idct(x, axes)) == _bits(inverse)


@PROPERTIES
@given(g=grids, batch=st.lists(st.integers(1, 3), max_size=2), seed=seeds)
def test_transforms_of_a_stacked_pair_keep_their_bits(g, batch, seed):
    # each half of a stacked pair has the bits of its own transform, on the
    # kernel path and, with the public names interposed, on the public path
    pair = np.random.default_rng(seed).standard_normal((2,) + tuple(batch) + g.shape)
    for public in (False, True):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            if public:
                for name in ("dctn", "idctn"):
                    def interposed(*args, _original=getattr(scipy.fft, name), **kwargs):
                        calls.append(1)
                        return _original(*args, **kwargs)
                    mp.setattr(scipy.fft, name, interposed)
            for transform in (_dct, _idct):
                for half, x in zip(transform(pair, g.axes), pair):
                    assert _bits(half) == _bits(transform(x, g.axes))
        assert bool(calls) == public


def random_symbols(g: Grid, rng, k: int) -> np.ndarray:
    """``k`` cosine-space symbols on ``g``, stacked; the last has its zero
    mode 0, as the steps' c has for mean-free noise."""
    symbols = rng.uniform(-1.0, 1.0, (k,) + g.shape)
    symbols[(-1,) + (0,) * g.ndims] = 0.0
    return symbols


@PROPERTIES
@given(n=st.integers(4, 64), m=st.integers(4, 12), two_d=st.booleans(),
       nrows=st.integers(2, 40), inverse=st.booleans(), seed=seeds)
@example(n=17, m=4, two_d=False, nrows=3, inverse=False, seed=1)
@example(n=18, m=4, two_d=False, nrows=40, inverse=True, seed=2)
@example(n=19, m=4, two_d=False, nrows=9, inverse=False, seed=3)
@example(n=57, m=4, two_d=False, nrows=24, inverse=True, seed=4)
def test_step_transform_row_is_its_row_in_a_batch(n, m, two_d, nrows, inverse, seed):
    # a field's bits do not depend on how many fields share the products:
    # one field alone (a single row, which BLAS never sees alone) and every
    # field of a batch are bitwise their own transforms, and so are they
    # through the step and node maps, whose products fold the symbols in on
    # a short 1D axis
    g = Grid((n, m) if two_d else (n,))
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((nrows,) + g.shape)
    inputs = rng.standard_normal((2, nrows) + g.shape)
    step_symbols, node_symbols = random_symbols(g, rng, 3), random_symbols(g, rng, 2)

    def maps(rows):
        return ((step_transform(g, batch[rows], inverse),
                 step_map(g, batch[rows], step_symbols, inputs[:, rows]))
                + node_map(g, batch[rows], node_symbols, project=True))
    whole = maps(slice(None))
    for r in (0, nrows // 2, nrows - 1):
        for out, alone, single in zip(whole, maps(r), maps(slice(r, r + 1))):
            assert out[r].tobytes() == alone.tobytes() == single[0].tobytes()


@PROPERTIES
@given(g=grids, batch=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       seed=seeds)
def test_norms_are_norm_values(g, batch, seed):
    values = np.random.default_rng(seed).standard_normal(tuple(batch) + g.shape)
    for norm_values in (norm_h_values, grad_norm_sq_values, norm_v_values,
                        norm_z_sq_values):
        batched = norm_values(g, values)
        assert batched.shape == tuple(batch)
        for ix in np.ndindex(*batch):
            assert batched[ix] == norm_values(g, values[ix])


@PROPERTIES
@given(g=grids, npaths=st.integers(1, 8), nsteps=st.integers(1, 300), seed=seeds)
def test_path_sums_are_per_path_sums(g, npaths, nsteps, seed):
    # the loop over paths is the reference: each row sum is bitwise the
    # np.sum of that path's array alone
    a = np.random.default_rng(seed).standard_normal((npaths, nsteps) + g.shape)
    sums = _path_sums(a)
    assert sums.shape == (npaths,)
    assert all(sums[i] == np.sum(a[i]) for i in range(npaths))


@PROPERTIES
@given(params=state_params(), seed=seeds, npaths=st.integers(1, 4),
       per_path_targets=st.booleans(),
       trunc=st.one_of(st.just(np.inf), st.floats(0.1, 3.0)))
def test_batch_is_serial(params, seed, npaths, per_path_targets, trunc):
    # a batch of npaths paths is bitwise npaths batches of one, and so are
    # the rows of the continuous adjoint that check_backend_consistency
    # measures the transpose against, on a shared target; psi'' is clamped
    # at the drawn level, as check_truncation clamps it (inf clamps nothing)
    params = clamped(params, trunc)
    rng = np.random.default_rng(seed)
    alphas = (0.7, 1.3, 0.0)
    cost_alphas = (0.7, 1.3, 0.2)
    y0 = low_pass_values(params.grid, rng, 0.4)

    def per_path(draw, flag):
        return np.stack([draw() for _ in range(npaths)]) if flag else draw()

    u = _smooth_series(params, rng, 0.5)
    x_q = per_path(lambda: _smooth_series(params, rng, 0.3), per_path_targets)
    x_t = per_path(lambda: low_pass_values(params.grid, rng, 0.3),
                   per_path_targets)
    paths = sample_wiener_paths(params.noise, params.timegrid,
                                [mix_seed(seed, i) for i in range(npaths)])
    h = _smooth_series(params, rng, 1.0)
    batch = solve_state(y0, u, paths, params)
    lin = solve_linearized(batch, h)
    adj = solve_adjoint(batch, x_q, x_t, alphas)
    xq_shared = x_q[0] if per_path_targets else x_q
    continuous = _continuous_gaps(batch, xq_shared, alphas[0], adj.ptildes)
    cost = evaluate_cost(batch, u, x_q, x_t, cost_alphas)
    lhs, rhs = duality_terms(batch, lin, adj, h, x_q, x_t, alphas)
    assert batch.npaths == lin.npaths == adj.npaths == npaths
    assert batch.wiener is paths
    for i, wp in enumerate(each_path(paths)):
        def pick(x, flag):
            return x[i] if flag else x
        xq_i, xt_i = pick(x_q, per_path_targets), pick(x_t, per_path_targets)
        traj = solve_state(y0, u, wp, params)
        assert traj.npaths == 1 and traj.wiener.seeds == (paths.seeds[i],)
        assert np.array_equal(batch.ys[i], traj.ys[0])
        assert np.array_equal(step_potentials(batch)[i], step_potentials(traj)[0])
        assert np.array_equal(batch.mass[i], traj.mass[0])
        assert np.array_equal(batch.energy[i], traj.energy[0])
        assert np.array_equal(batch.control, traj.control)
        alone_lin = solve_linearized(traj, h)
        assert np.array_equal(lin.zs[i], alone_lin.zs[0])
        assert np.array_equal(linearized_potential(lin)[i],
                              linearized_potential(alone_lin)[0])
        alone = solve_adjoint(traj, xq_i, xt_i, alphas)
        assert np.array_equal(adj.ptildes[i], alone.ptildes[0])
        assert np.array_equal(continuous[i], _continuous_gaps(
            traj, xq_shared, alphas[0], alone.ptildes)[0])
        assert cost[i] == evaluate_cost(traj, u, xq_i, xt_i, cost_alphas)[0]
        alone_lhs, alone_rhs = duality_terms(traj, alone_lin, alone, h, xq_i, xt_i,
                                             alphas)
        assert (lhs[i], rhs[i]) == (alone_lhs[0], alone_rhs[0])


@PROPERTIES
@given(params=state_params(), seed=seeds, ncontrols=st.integers(1, 3),
       npaths=st.integers(1, 3), per_path_targets=st.booleans(),
       trunc=st.one_of(st.just(np.inf), st.floats(0.1, 3.0)))
def test_rows_are_serial(params, seed, ncontrols, npaths, per_path_targets, trunc):
    # the rows controls × paths, each with its own control and direction,
    # are bitwise each row's own public sweeps, with psi'' clamped at the
    # drawn level as check_truncation clamps it (inf clamps nothing)
    params = clamped(params, trunc)
    rng = np.random.default_rng(seed)
    alphas = (0.7, 1.3, 0.0)
    y0 = low_pass_values(params.grid, rng, 0.4)
    us = np.stack([_smooth_series(params, rng, 0.5) for _ in range(ncontrols)])
    hs = np.stack([_smooth_series(params, rng, 1.0) for _ in range(ncontrols)])
    if per_path_targets:
        x_q = np.stack([_smooth_series(params, rng, 0.3) for _ in range(npaths)])
        x_t = np.stack([low_pass_values(params.grid, rng, 0.3)
                        for _ in range(npaths)])
    else:
        x_q = _smooth_series(params, rng, 0.3)
        x_t = low_pass_values(params.grid, rng, 0.3)
    paths = sample_wiener_paths(params.noise, params.timegrid,
                                [mix_seed(seed, i) for i in range(npaths)])
    xq, xt = target_values(x_q, x_t, alphas, params.timegrid, params.grid, npaths)
    ys = _sweep_state(y0, us, paths, params)
    zs = _sweep_linearized(ys, hs, paths, params)
    ptildes = _sweep_adjoint(ys, paths, xq, xt, alphas, params)
    lhs = _duality_lhs(ptildes, hs, params)
    rhs = _duality_rhs(ys, zs, npaths, xq, xt, alphas, params)
    assert ys.shape == zs.shape == ptildes.shape
    assert ys.shape[0] == lhs.shape[0] == ncontrols * npaths
    for row in range(ncontrols * npaths):
        c, i = divmod(row, npaths)
        xq_i, xt_i = (x_q[i], x_t[i]) if per_path_targets else (x_q, x_t)
        traj = solve_state(y0, us[c], each_path(paths)[i], params)
        lin = solve_linearized(traj, hs[c])
        adj = solve_adjoint(traj, xq_i, xt_i, alphas)
        assert np.array_equal(ys[row], traj.ys[0])
        assert np.array_equal(zs[row], lin.zs[0])
        assert np.array_equal(ptildes[row], adj.ptildes[0])
        alone_lhs, alone_rhs = duality_terms(traj, lin, adj, hs[c], xq_i, xt_i, alphas)
        assert (lhs[row], rhs[row]) == (alone_lhs[0], alone_rhs[0])
