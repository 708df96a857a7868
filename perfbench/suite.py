"""The benchmark's own check, and its baseline.

    python3 perfbench/suite.py                         # seed 1, second seed 2
    python3 perfbench/suite.py --seed 7 --second-seed 8
    python3 perfbench/suite.py --baseline --seeds 1-10  # writes baseline.json

Both modes run the workloads of BENCHMARK.json and ``grad2d``.

Check mode runs every workload, each run in a fresh process: untraced on the
seed and on a second seed, so a claim can be confirmed on a seed its author
did not tune against, and traced twice on the seed. It prints every metric
with its unit, fails when a run is not correct or when a traced count differs
between the two traced processes, and writes the results beside the
environment to ``perfbench/out/suite-seed<S>.json``.

Baseline mode runs every workload untraced once per seed, interleaving the
workloads so that slow spells of the machine spread over all of them, and
records the median and quartiles of every end-to-end metric with the
environment in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, TIME_UNITS

# Run by this script but not listed in BENCHMARK.json: its job time spread by
# over a quarter of its median over ten seeds on a shared 2-core machine, more
# than any bound BENCHMARK.json may set (see README.md).
UNGATED_WORKLOADS = ("grad2d",)


def run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    env = next((json.loads(line[len("# environment "):]) for line in lines
                if line.startswith("# environment ")), None)
    for line in lines[:-1]:
        if line.startswith("# FAILED") or line.startswith("# error_rate"):
            print(f"  {workload} seed {seed} trace {trace}: {line[2:]}")
    return json.loads(lines[-1]), env


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def baseline(spec: dict, workloads: list[str], seeds: list[int]) -> int:
    values = {w: {} for w in workloads}
    tallies = {w: {"attempted": 0, "failed": 0, "incorrect_seeds": []}
               for w in workloads}
    env = None
    for seed in seeds:
        for w in workloads:
            result, env = run(w, seed, spec["run_seconds"], 0)
            tally = tallies[w]
            tally["attempted"] += result["attempted"]
            tally["failed"] += result["failed"]
            if not result["correct"]:
                tally["incorrect_seeds"].append(seed)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.6g} {m['unit']}"
                for k, m in result["metrics"].items()), flush=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {"seeds": seeds, "run_seconds": spec["run_seconds"], "environment": env,
           "workloads": {}}
    for w in workloads:
        rows = {}
        for name, vals in values[w].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "n": len(vals)}
            print(f"{w:9s} {name:12s} median {med:.6g} {units[name]}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / med:.3f}")
        tally = tallies[w]
        tally["error_rate"] = tally["failed"] / tally["attempted"]
        out["workloads"][w] = {"metrics": rows, **tally}
        print(f"{w:9s} error_rate {tally['error_rate']:.4g} "
              f"({tally['failed']} of {tally['attempted']}); incorrect seeds "
              f"{tally['incorrect_seeds']}")
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


def check(spec: dict, workloads: list[str], seed: int, second: int) -> int:
    problems = []
    results = {}
    env = None
    for w in workloads:
        runs = {}
        for label, s, trace in (("untraced", seed, 0), ("second_seed", second, 0),
                                ("traced", seed, 1), ("traced_again", seed, 1)):
            result, env = run(w, s, spec["run_seconds"], trace)
            runs[label] = result
            if not result["correct"]:
                problems.append(f"{w} {label} (seed {s}): {result['failed']} of "
                                f"{result['attempted']} operations failed")
        first, again = runs["traced"]["metrics"], runs["traced_again"]["metrics"]
        for name, m in first.items():
            if m["unit"] not in TIME_UNITS and m["value"] != again[name]["value"]:
                problems.append(f"{w}: {name} {m['value']} then "
                                f"{again[name]['value']} in two traced runs")
        results[w] = runs
        print(f"\n{w}  (seed {seed}; second seed {second})")
        for label in ("untraced", "second_seed", "traced"):
            r = runs[label]
            print(f"  {label}: correct {r['correct']}, error_rate "
                  f"{r['failed'] / r['attempted']:.4g} "
                  f"({r['failed']} of {r['attempted']})")
            for name, m in r["metrics"].items():
                print(f"    {name:36s} {m['value']:>14.6g} {m['unit']}")
        sys.stdout.flush()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"suite-seed{seed}.json"
    path.write_text(json.dumps({"seed": seed, "second_seed": second,
                                "environment": env, "results": results,
                                "problems": problems}, indent=2) + "\n")
    print(f"\nresults written to {path.relative_to(ROOT)}")
    for p in problems:
        print(f"FAILED {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--second-seed", type=int, default=2)
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--seeds", default="1-10", help="baseline seeds, e.g. 1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] + list(UNGATED_WORKLOADS)
    if args.baseline:
        return baseline(spec, workloads, seed_list(args.seeds))
    return check(spec, workloads, args.seed, args.second_seed)


if __name__ == "__main__":
    sys.exit(main())
