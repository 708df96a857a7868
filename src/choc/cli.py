"""Command-line interface.

Subcommands: simulate, linearize, adjoint, optimize, verify, info. Every run
writes a JSON manifest with the config digest, seeds, tool version, output
digests, and wall time (the timing lives in its own field and is excluded
from the digest, so identical configurations produce identical artifacts).

Exit codes: 0 success, 1 check failure, 2 usage or configuration error,
3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import (
    BuildResult,
    build_problem,
    config_digest,
    default_config,
    parse_config_file,
    serialize_config,
)
from .control import optimize
from .errors import BlowUpError, ChocError, ConfigurationError
from .sensitivity import duality_terms, solve_adjoint, solve_linearized
from .snapshots import write_series_csv, write_snapshot
from .state import sample_wiener_paths, solve_state, target_values
from .verify import (
    _duality_residual,
    check_backend_consistency,
    check_duality,
    check_gateaux,
    check_lipschitz,
    check_mass_conservation,
    check_moment_bounds,
    check_truncation,
    random_smooth_control,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, command: str, build: BuildResult,
                    outputs: list[Path], extra: dict, wall_seconds: float) -> Path:
    deterministic = {
        "tool": "choc",
        "version": __version__,
        "command": command,
        "config_digest": config_digest(build.config),
        "base_seed": build.ensemble.base_seed,
        "npaths": build.ensemble.npaths,
        "path_seeds": [build.ensemble.path_seed(i)
                       for i in range(build.ensemble.npaths)],
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
        **extra,
    }
    digest = hashlib.sha256(
        json.dumps(deterministic, sort_keys=True).encode()
    ).hexdigest()
    manifest = {
        "deterministic": deterministic,
        "manifest_digest": digest,
        "timing": {"wall_seconds": wall_seconds},
    }
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _load(args) -> BuildResult:
    if args.config:
        config = parse_config_file(args.config)
        base_dir = Path(args.config).parent
    else:
        config = default_config()
        base_dir = Path(".")
    return build_problem(config, base_dir)


def _output_path(args) -> Path:
    """The output directory a command will write, checked before its work:
    the nearest existing path on the way to it must be a directory."""
    path = Path(args.out or os.environ.get("CHOC_OUTPUT_DIR") or "choc-out")
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigurationError(f"cannot make output directory {str(path)!r}: "
                                 f"{str(existing)!r} is not a directory")
    return path


def _outdir(args) -> Path:
    """The output directory, created here: a command calls this once its
    work has succeeded, so a failed run leaves no directory behind."""
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _write_snapshots(outdir: Path, prefix: str, series,
                     every: int | None) -> list[Path]:
    """Snapshots ``PREFIX_NNNNNN.chs`` of every ``every``-th row of
    ``series`` (about ten rows by default) and of its last row."""
    last = len(series) - 1
    steps = list(range(0, last + 1, every or max(1, last // 10)))
    if steps[-1] != last:
        steps.append(last)
    outputs = []
    for n in steps:
        path = outdir / f"{prefix}_{n:06d}.chs"
        write_snapshot(series[n], path)
        outputs.append(path)
    return outputs


def _solve_path(build: BuildResult, path_index: int):
    """The trajectory of u0 on one path of the ensemble, a batch of one; a
    blow-up names the path by its index in the ensemble."""
    npaths = build.ensemble.npaths
    if not 0 <= path_index < npaths:
        raise ConfigurationError(f"--path-index {path_index} is outside the "
                                 f"ensemble's paths 0..{npaths - 1}")
    problem = build.problem
    path = sample_wiener_paths(problem.params.noise, problem.params.timegrid,
                               [build.ensemble.path_seed(path_index)])
    try:
        return solve_state(problem.y0, build.u0.values, path, problem.params)
    except BlowUpError as exc:
        raise BlowUpError(exc.step, exc.max_abs, exc.seed, path_index) from None


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    build = _load(args)
    problem = build.problem
    traj = _solve_path(build, args.path_index)
    outdir = _outdir(args)
    outputs = _write_snapshots(outdir, "state", traj.ys[0], args.snapshot_every)
    series = outdir / "series.csv"
    times = problem.params.timegrid.times()
    write_series_csv(series, ["time", "mass", "energy"],
                     zip(times, traj.mass[0], traj.energy[0]))
    outputs.append(series)
    _write_manifest(outdir, "simulate", build, outputs,
                    {"path_index": args.path_index},
                    time.perf_counter() - t0)
    print(f"simulate: wrote {len(outputs)} artifacts to {outdir}")
    return EXIT_OK


def _default_direction(build: BuildResult):
    return random_smooth_control(build.problem, build.ensemble.base_seed ^ 0x5EED,
                                 amplitude=1.0)


def _duality_summary(build: BuildResult, path_index: int) -> dict:
    problem = build.problem
    traj = _solve_path(build, path_index)
    h = _default_direction(build)
    p = problem.params
    # the path's slice of the targets, in the shape every reader takes
    targets = target_values(problem.x_q, problem.x_t, problem.alphas, p.timegrid,
                            p.grid, build.ensemble.npaths)
    x_q, x_t = (None if x is None else x[path_index:path_index + 1] for x in targets)
    lin = solve_linearized(traj, h.values)
    adj = solve_adjoint(traj, x_q, x_t, problem.alphas)
    lhs, rhs = duality_terms(traj, lin, adj, h.values, x_q, x_t, problem.alphas)
    return {
        "traj": traj, "lin": lin, "adj": adj,
        "summary": {"lhs": float(lhs[0]), "rhs": float(rhs[0]),
                    "relative_residual": _duality_residual(lhs, rhs)[0],
                    "backend": "discrete_transpose"},
    }


# subcommand -> (snapshot file prefix, the one path's series in the duality data)
_SENSITIVITY_SNAPSHOTS = {
    "linearize": ("linearized", lambda data: data["lin"].zs[0]),
    "adjoint": ("adjoint", lambda data: data["adj"].ptildes[0]),
}


def _cmd_sensitivity(args) -> int:
    """``linearize`` or ``adjoint``: snapshots of z or ptilde plus the
    duality summary of one path."""
    t0 = time.perf_counter()
    build = _load(args)
    data = _duality_summary(build, args.path_index)
    outdir = _outdir(args)
    prefix, series_of = _SENSITIVITY_SNAPSHOTS[args.command]
    outputs = _write_snapshots(outdir, prefix, series_of(data), args.snapshot_every)
    summary = outdir / "duality.json"
    summary.write_text(json.dumps(data["summary"], sort_keys=True, indent=2) + "\n")
    outputs.append(summary)
    _write_manifest(outdir, args.command, build, outputs,
                    {"path_index": args.path_index}, time.perf_counter() - t0)
    print(f"{args.command}: duality residual "
          f"{data['summary']['relative_residual']:.3e}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    t0 = time.perf_counter()
    build = _load(args)
    result = optimize(build.u0, build.ensemble, build.problem, build.optimizer)
    outdir = _outdir(args)
    history = outdir / "cost_history.csv"
    steps = [float("nan")] + result.step_history    # no step led to the first control
    write_series_csv(history, ["iteration", "cost", "gradient_map", "step"],
                     zip(range(len(steps)), result.cost_history,
                         result.gradient_map_history, steps))
    outputs = [history]
    outputs += _write_snapshots(outdir, "control", result.control.values,
                                args.snapshot_every)
    _write_manifest(outdir, "optimize", build, outputs,
                    {"optimization": result.summary()}, time.perf_counter() - t0)
    s = result.summary()
    print(f"optimize: {s['termination']} after {s['iterations']} iterations; "
          f"cost {s['initial_cost']:.6e} -> {s['final_cost']:.6e}; "
          f"gradient map {s['final_gradient_map']:.3e}; "
          f"projection residual {s['projection_residual']:.3e}")
    return EXIT_OK


def _run_verify_suite(build: BuildResult, names=None) -> list:
    problem, es = build.problem, build.ensemble
    u0 = build.u0
    h = _default_direction(build)
    seed = es.base_seed
    available = {
        "mass_conservation": lambda: check_mass_conservation(problem, es),
        "gateaux": lambda: check_gateaux(problem, u0, h, path_seed=seed,
                                         npaths=min(2, es.npaths)),
        "duality": lambda: check_duality(problem, es, npairs=20, seed=seed),
        "lipschitz": lambda: check_lipschitz(problem, es, npairs=5, seed=seed),
        "truncation": lambda: check_truncation(problem, u0, h,
                                               (2.0, 8.0, 32.0, 128.0), es),
        "moment_bounds": lambda: check_moment_bounds(problem, es),
        "backend_consistency": lambda: check_backend_consistency(
            problem, es, nsteps_list=(100, 200, 400, 800), seed=seed),
    }
    names = names or list(available)
    unknown = [n for n in names if n not in available]
    if unknown:
        raise ConfigurationError(f"unknown checks: {', '.join(unknown)}")
    return [available[n]() for n in names]


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    build = _load(args)
    reports = _run_verify_suite(build, args.check or None)
    outdir = _outdir(args)
    outputs = []
    all_passed = True
    for report in reports:
        path = outdir / f"check_{report.name}.json"
        path.write_text(report.to_json() + "\n")
        outputs.append(path)
        all_passed = all_passed and report.passed
        status = "PASS" if report.passed else "FAIL"
        print(f"{status}  {report.name}: {_one_line(report)}")
    _write_manifest(outdir, "verify", build, outputs,
                    {"checks": {r.name: bool(r.passed) for r in reports}},
                    time.perf_counter() - t0)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _one_line(report) -> str:
    pairs = ", ".join(
        f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
        for k, v in list(report.measured.items())[:3]
    )
    return pairs


def _cmd_info(args) -> int:
    build = _load(args)
    sys.stdout.write(serialize_config(build.config))
    print(f"# config digest: {config_digest(build.config)}")
    return EXIT_OK


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choc",
        description="Stochastic Cahn-Hilliard optimal control toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="run configuration file")
        p.add_argument("--out", help="output directory (or CHOC_OUTPUT_DIR)")

    p = sub.add_parser("simulate", help="integrate the state system on one path")
    common(p)
    p.add_argument("--path-index", type=int, default=0)
    p.add_argument("--snapshot-every", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    for name, system in (("linearize", "linearized"), ("adjoint", "adjoint")):
        p = sub.add_parser(name, help=f"solve the {system} system")
        common(p)
        p.add_argument("--path-index", type=int, default=0)
        p.add_argument("--snapshot-every", type=int, default=None)
        p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("optimize", help="projected gradient descent")
    common(p)
    p.add_argument("--snapshot-every", type=int, default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="run the structural check suite")
    common(p)
    p.add_argument("--check", action="append",
                   help="run only the named check (repeatable)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("info", help="echo the resolved configuration")
    common(p)
    p.set_defaults(func=_cmd_info)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        every = getattr(args, "snapshot_every", None)
        if every is not None and every < 1:
            raise ConfigurationError(f"--snapshot-every {every} must be at least 1")
        if args.func is not _cmd_info:
            args.out = _output_path(args)
        return args.func(args)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ChocError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
