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
from dataclasses import replace
from pathlib import Path

import numpy as np

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
from .grid import Field
from .physics import additive_noise
from .sensitivity import duality_terms, solve_adjoint, solve_linearized
from .snapshots import write_series_csv, write_snapshot
from .state import sample_wiener_path, solve_state
from .verify import (
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


def _outdir(args) -> Path:
    out = args.out or os.environ.get("CHOC_OUTPUT_DIR") or "choc-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _snapshot_steps(nsteps: int, every: int | None) -> list[int]:
    every = every or max(1, nsteps // 10)
    steps = list(range(0, nsteps + 1, every))
    if steps[-1] != nsteps:
        steps.append(nsteps)
    return steps


def _solve_path(build: BuildResult, path_index: int):
    """The trajectory of u0 on one path of the ensemble, a batch of one; a
    blow-up names the path by its index in the ensemble."""
    problem = build.problem
    wp = sample_wiener_path(problem.params.noise, problem.params.timegrid,
                            build.ensemble.path_seed(path_index))
    try:
        return solve_state(problem.y0, build.u0.values, [wp], problem.params)
    except BlowUpError as exc:
        raise BlowUpError(exc.step, exc.max_abs, exc.seed, path_index) from None


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    build = _load(args)
    outdir = _outdir(args)
    problem = build.problem
    traj = _solve_path(build, args.path_index)
    outputs = []
    for n in _snapshot_steps(problem.params.timegrid.nsteps, args.snapshot_every):
        path = outdir / f"state_{n:06d}.chs"
        write_snapshot(Field(problem.params.grid, traj.ys[0, n]), path)
        outputs.append(path)
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
    h = _default_direction(build)
    x_q, x_t = problem.target_q(path_index), problem.target_t(path_index)
    traj = _solve_path(build, path_index)
    lin = solve_linearized(traj, h.values, problem.trunc)
    adj = solve_adjoint(traj, x_q, x_t, problem.alphas,
                        backend=problem.backend, trunc=problem.trunc)
    lhs, rhs = duality_terms(traj, lin, adj, h.values, x_q, x_t, problem.alphas)
    lhs, rhs = float(lhs[0]), float(rhs[0])
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return {
        "traj": traj, "lin": lin, "adj": adj,
        "summary": {"lhs": lhs, "rhs": rhs,
                    "relative_residual": abs(lhs - rhs) / scale,
                    "backend": problem.backend},
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
    outdir = _outdir(args)
    data = _duality_summary(build, args.path_index)
    prefix, series_of = _SENSITIVITY_SNAPSHOTS[args.command]
    series = series_of(data)
    grid = build.problem.params.grid
    nsteps = build.problem.params.timegrid.nsteps
    outputs = []
    for n in _snapshot_steps(nsteps, args.snapshot_every):
        path = outdir / f"{prefix}_{n:06d}.chs"
        write_snapshot(Field(grid, series[n]), path)
        outputs.append(path)
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
    outdir = _outdir(args)
    result = optimize(build.u0, build.ensemble, build.problem, build.optimizer)
    outputs = []
    history = outdir / "cost_history.csv"
    rows = []
    for i, cost in enumerate(result.cost_history):
        gmap = result.gradient_map_history[i] if i < len(result.gradient_map_history) else float("nan")
        step = result.step_history[i - 1] if 0 < i <= len(result.step_history) else float("nan")
        rows.append((i, cost, gmap, step))
    write_series_csv(history, ["iteration", "cost", "gradient_map", "step"], rows)
    outputs.append(history)
    for n in _snapshot_steps(build.problem.params.timegrid.nsteps - 1,
                             args.snapshot_every):
        path = outdir / f"control_{n:06d}.chs"
        write_snapshot(Field(build.problem.params.grid, result.control.values[n]),
                       path)
        outputs.append(path)
    _write_manifest(outdir, "optimize", build, outputs,
                    {"optimization": result.summary()}, time.perf_counter() - t0)
    s = result.summary()
    print(f"optimize: {s['termination']} after {s['iterations']} iterations; "
          f"cost {s['initial_cost']:.6e} -> {s['final_cost']:.6e}; "
          f"projection residual {s['projection_residual']:.3e}")
    return EXIT_OK


def _additive_twin(build: BuildResult) -> BuildResult:
    """Additive-noise variant of the problem for the backend checks."""
    problem = build.problem
    nm = problem.params.noise
    if not nm.is_multiplicative:
        return build
    twin_noise = additive_noise(problem.params.grid, nm.sigmas, nm.mode_indices)
    params = replace(problem.params, noise=twin_noise)
    return replace(build, problem=replace(problem, params=params))


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
            _additive_twin(build).problem, es, nsteps_list=(100, 200, 400, 800),
            seed=seed),
    }
    names = names or list(available)
    unknown = [n for n in names if n not in available]
    if unknown:
        raise ConfigurationError(f"unknown checks: {', '.join(unknown)}")
    return [available[n]() for n in names]


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    build = _load(args)
    outdir = _outdir(args)
    reports = _run_verify_suite(build, args.check or None)
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
        return args.func(args)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ChocError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


cli_main = main


if __name__ == "__main__":
    sys.exit(main())
