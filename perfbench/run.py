"""Run one choc benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload opt1d --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; choc is imported from ``src/`` of that
checkout and nowhere else. With ``--trace 0`` the run sets up and runs jobs
until ``--seconds`` have passed and reports the end-to-end metrics of
BENCHMARK.json: medians of the run's wall times, scaled by the machine's
speed as a calibration loop measures it. With ``--trace 1`` it alternates
traced and untraced jobs for ``--seconds`` (at least one of each), requires
every traced count to repeat exactly, and reports the per-layer metrics,
including the tracing overhead.

Every job's results are checked: against the values recorded in
``reference.json`` when the seed has them (to a relative 1e-9), against the
first job of the run bit for bit, and by the workload's own checks. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans and counts of a traced run
are written to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin one compute thread before numpy is imported: BLAS and OpenMP pools, and
# choc's own path-level threading.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CHOC_THREADS", None)

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 16
# Time of calibrate() on a quiet machine, to which run times are scaled.
CALIBRATION_S = 0.05
REL_TOL = 1e-9
TIME_UNITS = ("s", "us")


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.machine()        # platform.processor() would start `uname -p`
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
            "choc_threads": os.environ.get("CHOC_THREADS")}


def import_choc():
    """Import choc from this checkout's ``src``; None when it is not there."""
    src = ROOT / "src"
    if not (src / "choc" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import choc
    if Path(choc.__file__).resolve().parent != (src / "choc").resolve():
        return None
    return choc


def calibrate() -> float:
    """Time a fixed loop of 64-point transforms and array arithmetic.

    It does not use choc, so a change to choc cannot move it: it measures how
    fast the machine is at the moment.
    """
    import numpy as np
    from scipy import fft
    x = np.linspace(0.1, 1.0, 64)
    t0 = time.perf_counter()
    for _ in range(2000):
        y = fft.idctn(fft.dctn(x, type=2, norm="ortho"), type=2, norm="ortho")
        x = np.clip(0.5 * x + 0.25 * y + 0.25 * y**3, 0.1, 1.0)
    return time.perf_counter() - t0


def setup(choc, workload, seed: int):
    """Parse the workload's configuration and build the problem, timed."""
    t0 = time.perf_counter()
    build = choc.build_problem(choc.parse_config(workload.config_text(seed)))
    return build, time.perf_counter() - t0


def same(a, b, rel: float = 0.0) -> bool:
    if a is None or b is None or isinstance(a, bool):
        return a == b
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def check(outcomes, reference, notes) -> int:
    """Failed operations after checking every job; appends to ``notes``."""
    failed = 0
    first = outcomes[0].values
    for k, out in enumerate(outcomes):
        failed += out.failed
        notes.extend(f"job {k}: {n}" for n in out.notes)
        if k == 0:
            for finding in out.findings:
                print(f"# finding: {finding}")
        wrong = out.failed == 0 and (
            len(out.values) != len(first)
            or not all(same(a, b) for a, b in zip(out.values, first))
            or (reference is not None and (
                len(out.values) != len(reference)
                or not all(same(a, b, REL_TOL) for a, b in zip(out.values, reference)))))
        if wrong:
            failed += 1
            notes.append(f"job {k}: values {out.values} differ from the first job "
                         f"{first} or the recorded {reference}")
    return failed


def run_untraced(choc, workload, seed: int, seconds: float, reference):
    # Set-ups are spread over the run: half of them come before the first
    # job, and before each later job the run catches up to the share of the
    # rest that its elapsed time is of ``seconds``. After the last job it
    # completes the SETUP_REPS, so a run of a single long job sets up half
    # before and half after it. Each job works on the build of the set-up
    # just before it. A job starts only if a job as fast as the fastest so
    # far would end by the deadline; the first job always runs. A
    # calibration follows every set-up and every job.
    setups, outcomes, walls, calibrations = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        elapsed = (time.perf_counter() - start) / seconds
        due = math.ceil(SETUP_REPS * (1 + elapsed) / 2)
        while len(setups) < min(due, SETUP_REPS):
            build = inputs = None   # the previous build is not part of the peak
            build, seconds_taken = setup(choc, workload, seed)
            setups.append(seconds_taken)
            calibrations.append(calibrate())
        if walls and time.perf_counter() + min(walls) > deadline:
            break
        inputs = workload.prepare(build, seed)
        t0 = time.perf_counter()
        outcomes.append(workload.run(build, inputs))
        walls.append(time.perf_counter() - t0)
        calibrations.append(calibrate())
    while len(setups) < SETUP_REPS:
        build, seconds_taken = setup(choc, workload, seed)
        setups.append(seconds_taken)
        calibrations.append(calibrate())
    notes = []
    failed = check(outcomes, reference, notes)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Other tenants of a shared machine slow it for stretches of seconds,
    # which medians over the run leave out, and of minutes, which take in
    # whole runs. For those, times are scaled to a machine on which the
    # median calibration of the run takes CALIBRATION_S.
    scale = CALIBRATION_S / statistics.median(calibrations)
    values = {
        "setup_s": statistics.median(setups) * scale,
        "wall_s": statistics.median(walls) * scale,
        "ops_per_s": statistics.median(o.ops / (w * scale)
                                       for o, w in zip(outcomes, walls)),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    print(f"# {workload.name}: {len(walls)} jobs of "
          f"{[round(w, 4) for w in walls]} s; setups "
          f"{[round(t, 4) for t in setups]} s; calibrations "
          f"{[round(c, 4) for c in calibrations]} s; times scaled by "
          f"{scale:.4f}; one op = {workload.op}")
    attempted = sum(o.attempted for o in outcomes)
    return values, attempted, failed, notes


def run_traced(choc, workload, seed: int, seconds: float, names, reference):
    import tracing

    build, _ = setup(choc, workload, seed)
    inputs = workload.prepare(build, seed)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    with tracer.span("config.parse_config"):
        config = choc.parse_config(workload.config_text(seed))
    with tracer.span("config.build_problem"):
        traced_build = choc.build_problem(config)
    build_s = tracer.spans[1][2] - tracer.spans[1][1]
    traced_build = tracing.wrap_potential(traced_build, tracer)
    traced_inputs = workload.prepare(traced_build, seed)
    uninstall()

    # Traced and untraced jobs alternate, so a drift in machine speed falls on
    # both; at least one of each.
    outcomes, traced, untraced = [], [], []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        if len(traced) == len(untraced):
            uninstall = tracing.install(tracer)
            tracer.reset()
            t0 = time.perf_counter()
            with tracer.span("job"):
                outcomes.append(workload.run(traced_build, traced_inputs, tracer.span))
            wall = time.perf_counter() - t0
            uninstall()
            traced.append((wall, tracing.layer_metrics(tracer, names),
                           dict(tracer.counts), list(tracer.spans)))
        else:
            t0 = time.perf_counter()
            outcomes.append(workload.run(build, inputs))
            untraced.append(time.perf_counter() - t0)

    notes = []
    failed = check(outcomes, reference, notes)

    def exact(traced_pass) -> dict:
        """Everything a traced pass counted, which must repeat exactly."""
        _, metrics, counts, _ = traced_pass
        return {**counts, **{n: v for n, v in metrics.items()
                             if names[n] not in TIME_UNITS}}

    _, first, counts, spans = traced[0]
    for k, other in enumerate(traced[1:], start=1):
        a, b = exact(traced[0]), exact(other)
        differ = {key: (a.get(key), b.get(key))
                  for key in a.keys() | b.keys() if a.get(key) != b.get(key)}
        if differ:
            failed += 1
            notes.append(f"traced pass {k}: counts differ from the first pass: {differ}")
    values = {}
    for name, unit in names.items():
        if name in first:
            values[name] = (statistics.mean(t[1][name] for t in traced)
                            if unit in TIME_UNITS else first[name])
    values["config.build_s"] = build_s
    traced_walls = [t[0] for t in traced]
    values["trace.overhead_s"] = statistics.mean(traced_walls) - statistics.mean(untraced)
    print(f"# {workload.name}: traced jobs {[round(w, 4) for w in traced_walls]} s, "
          f"untraced jobs {[round(w, 4) for w in untraced]} s")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "environment": environment(),
        "counts": counts, "metrics": values,
        "spans": [{"name": n, "start": s, "end": e, "parent": p}
                  for n, s, e, p in spans],
    }) + "\n")
    print(f"# spans and counts written to {trace_file.relative_to(ROOT)}")
    attempted = sum(o.attempted for o in outcomes)
    return values, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec_file = ROOT / "BENCHMARK.json"
    choc = import_choc()
    if choc is None or not spec_file.is_file():
        print(f"error: no choc sources under {ROOT / 'src'} or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    ref_file = HERE / "reference.json"
    recorded = json.loads(ref_file.read_text()) if ref_file.is_file() else {}
    reference = recorded.get(workload.name, {}).get(str(args.seed))

    print("# environment " + json.dumps(environment(), sort_keys=True))
    print(f"# {workload.name} seed {args.seed}: "
          + ("checked against recorded values" if reference is not None
             else "no recorded values for this seed; checked for repeatability "
                  "and by the workload's own checks"))
    if args.trace:
        values, attempted, failed, notes = run_traced(
            choc, workload, args.seed, args.seconds, declared, reference)
    else:
        values, attempted, failed, notes = run_untraced(
            choc, workload, args.seed, args.seconds, reference)
    if set(values) != set(declared):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares "
              f"{sorted(declared)}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"# FAILED {note}")
    print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    metrics = {name: {"value": values[name], "unit": declared[name]}
               for name in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
