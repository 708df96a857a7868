"""Every route of the transforms and the sweeps keeps its bits.

A step transforms through products with cached cosine matrices where every
axis is short and through the pocketfft kernel elsewhere, folds its symbols
into those matrices on a short 1D grid, and reads targets that the paths
share or that each path has of its own. The operators (the Laplacian and
the plain transforms) take the kernel. Each test below hashes, on one grid
and one noise kind, what every route computes: the state, linearized and
adjoint sweeps, the costs and both sides of the duality identity with 1
and 3 paths and with shared and per-path targets, and the plain transforms
and Laplacian of a batch. A refactor of a route leaves these digests as
they are.

The digests depend on the BLAS kernels that numpy's matmul runs (OpenBLAS
picks them by CPU), as the report hashes of
``test_config_io.py::test_cli_verify_full_suite_small`` do: a machine with
other kernels computes other digests.
"""

import hashlib

import numpy as np
import pytest

from choc import (
    Grid,
    StateParams,
    TimeGrid,
    additive_noise,
    double_well,
    duality_terms,
    evaluate_cost,
    mix_seed,
    multiplicative_noise,
    sample_wiener_paths,
    solve_adjoint,
    solve_linearized,
    solve_state,
)
from choc.grid import _dct, _idct, lap_values, low_pass_values

ALPHAS = (0.7, 1.3, 0.01)

DIGESTS = {
    ((16,), "multiplicative"):
        "2f446bd08b239dd38a116b4bd27776165b9fd0bd5e486aa5fc86034ea6293881",
    ((16,), "additive"):
        "71e9803960fd3c2d2c999bf9b16516a990e0df339391f4072e67254118af5297",
    ((19,), "multiplicative"):
        "2bbc09221c92df8e9e3009dfc2faf76e175773ff628b7d7bc298097d6fc527f4",
    ((19,), "additive"):
        "4c6ef4faf72bf895267f9c8e1088eb1974984fae383206ba7daaa15bf4aa31c9",
    ((64,), "multiplicative"):
        "95837586088b7691debb47de417eb090299baa0d14c7a2af361b3d6946ce1104",
    ((64,), "additive"):
        "9018715073ed35c376e4c8e0bace8515d72a5473f32519d468da5b8ebaa1f31a",
    ((128,), "multiplicative"):
        "627674a6758350059123616f1481c41f329f1eb9b859326a5fdcb8c66f60fc6d",
    ((128,), "additive"):
        "570d8c2df401cb9f39fbf89c67953db226548f2fb0b3cb02d37f46e7ae0833a4",
    ((16, 12), "multiplicative"):
        "28f7d2ecee967a1ed2e02b454bfb10f51de2c9724473c807d41be90f57595ccf",
    ((16, 12), "additive"):
        "c840572f2aaaf3cc163486d4cc6c31308d4db5467a6d5792568a32f6d2f49fcb",
    ((64, 64), "multiplicative"):
        "6f41c6ca8b433f4303baccc2b56b7771c3bd8f5f235fd2acbc098a0dd2870c42",
    ((64, 64), "additive"):
        "94c931af317fef12689fe277dcfede8abe6d542e7fcfb7cd49ea20459b943ed1",
}


def _series(g, rng, nsteps, amplitude, batch=()):
    return low_pass_values(g, rng, amplitude, batch + (nsteps,))


def _route_digest(shape, kind):
    g = Grid(shape)
    tg = TimeGrid(0.01, 6)
    modes = [(1,) * g.ndims, (3,) + (0,) * (g.ndims - 1)]
    noise = (multiplicative_noise if kind == "multiplicative" else additive_noise)(
        g, [0.3, 0.2], modes)
    params = StateParams(grid=g, timegrid=tg, potential=double_well(), noise=noise)
    rng = np.random.default_rng(11)
    digest = hashlib.sha256()
    batch = rng.standard_normal((3,) + shape)
    for values in (_dct(batch, g.axes), _idct(batch, g.axes), lap_values(g, batch)):
        digest.update(values.tobytes())
    y0 = low_pass_values(g, rng, 0.4)
    u = _series(g, rng, tg.nsteps, 0.5)
    h = _series(g, rng, tg.nsteps, 1.0)
    for npaths in (1, 3):
        paths = sample_wiener_paths(noise, tg, [mix_seed(7, i) for i in range(npaths)])
        traj = solve_state(y0, u, paths, params)
        lin = solve_linearized(traj, h)
        for per_path in (False, True):
            batch = (npaths,) if per_path else ()
            x_q = _series(g, rng, tg.nsteps, 0.3, batch)
            x_t = low_pass_values(g, rng, 0.3, batch)
            adj = solve_adjoint(traj, x_q, x_t, ALPHAS)
            cost = evaluate_cost(traj, u, x_q, x_t, ALPHAS)
            lhs, rhs = duality_terms(traj, lin, adj, h, x_q, x_t, ALPHAS)
            for values in (traj.ys, lin.zs, adj.ptildes, cost, lhs, rhs):
                digest.update(values.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", ["multiplicative", "additive"])
@pytest.mark.parametrize("shape", [(16,), (19,), (64,), (128,), (16, 12), (64, 64)])
def test_every_route_keeps_its_bits(shape, kind):
    assert _route_digest(shape, kind) == DIGESTS[shape, kind]
