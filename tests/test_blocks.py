"""The sweeps run their time steps in blocks.

Before each block the state, linearized, adjoint and continuous sweeps
compute what their recursion does not enter (the increment fields, psi''
and the tracking forcing) for the whole block, and the state sweep guards a
block of states at once. The block length comes from a byte budget. These
tests set the budget so that blocks are one step long, seven steps long
(seven does not divide the step count) or the whole sweep, and require the
same bits and the same blow-up report from each.
"""

import warnings

import numpy as np
import pytest

from choc import (
    BlowUpError,
    Grid,
    TimeGrid,
    additive_noise,
    double_well,
    multiplicative_noise,
    sample_wiener_paths,
    solve_state,
)
from choc import state as state_module
from choc.grid import low_pass_values
from choc.physics import no_noise
from choc.sensitivity import _sweep_adjoint, _sweep_linearized
from choc.state import StateParams, _sweep_state, target_values
from choc.verify import _continuous_gaps

NSTEPS = 20
NCONTROLS = 2
SEEDS = (3, 5, 11)


def make_params(ndims: int, kind: str) -> StateParams:
    if ndims == 1:
        g, modes = Grid((24,), (1.0,)), [(1,), (2,), (3,)]
    else:
        g, modes = Grid((8, 6), (1.0, 1.5)), [(1, 0), (0, 1), (1, 1)]
    sigmas = [0.3, 0.2, 0.1]
    noise = {"none": no_noise(g),
             "additive": additive_noise(g, sigmas, modes),
             "multiplicative": multiplicative_noise(g, sigmas, modes)}[kind]
    return StateParams(grid=g, timegrid=TimeGrid(0.05, NSTEPS),
                       potential=double_well(), noise=noise)


def all_sweeps(p: StateParams, alphas) -> dict:
    """Each sweep on fixed data, rows NCONTROLS × paths, with per-path
    targets for the adjoint."""
    g = p.grid
    rng = np.random.default_rng(2024)
    y0 = low_pass_values(g, rng, 0.6)
    controls = np.stack([np.stack([low_pass_values(g, rng, 0.8)
                                   for _ in range(NSTEPS)])
                         for _ in range(NCONTROLS)])
    directions = rng.standard_normal((NCONTROLS, NSTEPS) + g.shape)
    x_q = rng.standard_normal((len(SEEDS), NSTEPS) + g.shape)
    x_t = rng.standard_normal((len(SEEDS),) + g.shape)
    paths = sample_wiener_paths(p.noise, p.timegrid, SEEDS)
    ys = _sweep_state(y0, controls, paths, p)
    xq, xt = target_values(x_q, x_t, alphas, p.timegrid, g, paths.npaths)
    traj = solve_state(y0, controls[0], paths, p)
    ptildes = _sweep_adjoint(ys, paths, xq, xt, alphas, p)
    return {
        "state": ys,
        "linearized": _sweep_linearized(ys, directions, paths, p),
        "adjoint": ptildes,
        # against the transpose ptildes of the first control's rows
        "continuous": _continuous_gaps(traj, x_q[0], alphas[0], ptildes[:len(SEEDS)]),
    }


def budgets(p: StateParams) -> dict:
    """Block budgets: one step, seven steps of the rows NCONTROLS × paths
    (the continuous sweep, with one control, gets fourteen) and one block."""
    step = NCONTROLS * len(SEEDS) * p.grid.size * 8
    return {"one step": 1, "seven steps": 7 * step, "one block": 1 << 62}


@pytest.mark.parametrize("alphas", [(1.0, 0.7, 0.0), (0.0, 0.7, 0.0), (1.0, 0.0, 0.0)],
                         ids=["both", "alpha1=0", "alpha2=0"])
@pytest.mark.parametrize("kind", ["none", "additive", "multiplicative"])
@pytest.mark.parametrize("ndims", [1, 2])
def test_sweeps_are_bitwise_the_same_for_every_block_length(monkeypatch, ndims, kind,
                                                            alphas):
    p = make_params(ndims, kind)
    reference = all_sweeps(p, alphas)
    assert all(np.all(np.isfinite(a)) for a in reference.values())
    for name, budget in budgets(p).items():
        monkeypatch.setattr(state_module, "_BLOCK_BYTES", budget)
        for sweep, out in all_sweeps(p, alphas).items():
            assert np.array_equal(out, reference[sweep]), (name, sweep)


def test_blocks_cover_every_step_once(monkeypatch):
    step = np.zeros((2, 3, 5))
    for budget, size in ((1, 1), (7 * step.nbytes, 7), (7 * step.nbytes + 1, 7),
                         (1 << 62, NSTEPS)):
        monkeypatch.setattr(state_module, "_BLOCK_BYTES", budget)
        blocks = state_module._blocks(NSTEPS, step)
        assert [n for n0, n1 in blocks for n in range(n0, n1)] == list(range(NSTEPS))
        assert max(n1 - n0 for n0, n1 in blocks) == size


def per_step_blowup(ys: np.ndarray, npaths: int, threshold: float, seeds):
    """(step, max_abs, seed, path) of the first state that is not finite or
    exceeds the threshold, scanning step by step and, at a step, row by row;
    None when no state does."""
    for n in range(ys.shape[1] - 1):
        for r in range(ys.shape[0]):
            top = float(np.max(np.abs(ys[r, n + 1])))
            if not (np.isfinite(top) and top <= threshold):
                return n, top, seeds[r % npaths], r % npaths
    return None


def test_blowup_inside_a_block_names_the_step_a_per_step_scan_names(monkeypatch):
    # strong additive noise blows the states up to inf and nan; with blocks
    # of ten steps the blow-up falls inside a block, whose later steps
    # overflow, and no warning may escape
    g = Grid((16,), (1.0,))
    nsteps = 40
    p = StateParams(grid=g, timegrid=TimeGrid(0.05, nsteps), potential=double_well(),
                    noise=additive_noise(g, [200.0, 200.0], [(1,), (2,)]))
    rng = np.random.default_rng(8)
    y0 = low_pass_values(g, rng, 0.4)
    controls = np.stack([np.zeros((nsteps,) + g.shape),
                         np.stack([low_pass_values(g, rng, 2.0)
                                   for _ in range(nsteps)])])
    paths = sample_wiener_paths(p.noise, p.timegrid, (1, 2, 3, 4))
    seeds = paths.seeds

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with monkeypatch.context() as m:
            m.setattr(state_module, "_guard", lambda *args: None)
            unguarded = _sweep_state(y0, controls, paths, p)
        expected = per_step_blowup(unguarded, paths.npaths, p.blowup_threshold, seeds)
        assert expected is not None
        step = expected[0]
        ten = 10 * controls.shape[0] * paths.npaths * g.size * 8
        assert step % 10 != 0
        block_end = (step // 10 + 1) * 10
        assert not np.all(np.isfinite(unguarded[:, step + 2:block_end + 1]))
        for budget in (1, ten, 1 << 62):
            monkeypatch.setattr(state_module, "_BLOCK_BYTES", budget)
            with pytest.raises(BlowUpError) as err:
                _sweep_state(y0, controls, paths, p)
            got = err.value
            assert (got.step, got.max_abs, got.seed, got.path) == expected, budget
