"""Print how long ``optimize`` takes to reach its tolerance, per base seed.

Usage: python tools/time_to_tol.py [SEED ...]   (default: 2024 and 1-10)

Runs ``choc.control.optimize`` on the default configuration with its base
seed replaced, to its own ``tol`` and ``max_iter``. Prints one line per seed:
the iterations, the termination, the final cost's hex, the state sweeps and
the rows they solved (a row is one control on every path; a sweep solves one
or more), and the CPU time of the call (``time.process_time``). The first
seed's time includes the set-up that later calls reuse.
"""

import argparse
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import choc.control
import choc.state
from choc.config import build_problem, default_config

SEEDS = [2024] + list(range(1, 11))


@contextmanager
def _counted_sweeps():
    """Count the state sweeps and their rows in ``counts`` while active:
    ``solve_state`` and the line search's batches both call
    ``choc.state._sweep_state``, which each module binds."""
    counts = {"sweeps": 0, "rows": 0}
    sweep = choc.state._sweep_state

    def counted(y0, controls, *args):
        counts["sweeps"] += 1
        counts["rows"] += len(controls)
        return sweep(y0, controls, *args)

    modules = (choc.state, choc.control)
    for module in modules:
        module._sweep_state = counted
    try:
        yield counts
    finally:
        for module in modules:
            module._sweep_state = sweep


def time_to_tol(config, seeds) -> list[str]:
    """The printed line of each base seed in ``seeds`` on ``config``."""
    lines = []
    for seed in seeds:
        build = build_problem(replace(
            config, ensemble=replace(config.ensemble, base_seed=seed)))
        with _counted_sweeps() as counts:
            start = time.process_time()
            res = choc.control.optimize(build.u0, build.ensemble, build.problem,
                                        build.optimizer)
            cpu = time.process_time() - start
        lines.append(f"seed={seed} iterations={res.n_iterations} "
                     f"termination={res.termination} "
                     f"final_cost={res.cost_history[-1].hex()} "
                     f"sweeps={counts['sweeps']} rows={counts['rows']} cpu_s={cpu:.3f}")
    return lines


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=SEEDS,
                        help="base seeds (default: 2024 and 1-10)")
    args = parser.parse_args(argv)
    for line in time_to_tol(default_config(), args.seeds):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
