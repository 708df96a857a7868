"""Record the values the benchmark checks results against.

    python3 perfbench/record.py --seeds 0-39

Runs the job of ``opt1d`` and ``grad2d`` once per seed and stores its values
in ``perfbench/reference.json``: the cost history of the optimizer, and the
reduced cost and the gradient's inner product with a fixed direction.
``run.py`` compares every later job on a recorded seed with them to a
relative 1e-9. ``verify1d`` records nothing: its gate is the checks themselves
(see README.md). A seed whose job fails is reported and not recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, import_choc, setup
from suite import seed_list

RECORDED = ("opt1d", "grad2d")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-39")
    args = parser.parse_args(argv)
    choc = import_choc()
    if choc is None:
        print("error: no choc sources in this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    path = HERE / "reference.json"
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    for name in RECORDED:
        workload = WORKLOADS[name]
        table = recorded.setdefault(name, {})
        for seed in seed_list(args.seeds):
            build, _ = setup(choc, workload, seed)
            outcome = workload.run(build, workload.prepare(build, seed))
            if outcome.failed:
                print(f"{name} seed {seed}: not recorded: {outcome.notes}")
                continue
            table[str(seed)] = outcome.values
            print(f"{name} seed {seed}: {outcome.values}", flush=True)
        recorded[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
