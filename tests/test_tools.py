"""The repository's tools run as their docstrings say."""

import re
import runpy
import subprocess
import sys
from pathlib import Path

import choc.control
import choc.state
from choc import build_problem, optimize
from choc.config import parse_config

ROOT = Path(__file__).resolve().parent.parent


def test_code_lines_lists_every_module_and_counts_its_lines():
    package = ROOT / "src" / "choc"
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"),
                          str(package)], capture_output=True, text=True, check=True)
    header, *rows, total = out.stdout.splitlines()
    assert header.split() == ["module", "lines", "code"]
    counts = {name: (int(lines), int(code)) for name, lines, code in map(str.split, rows)}
    files = {str(p.relative_to(package)): p for p in package.rglob("*.py")}
    assert sorted(counts) == sorted(files)
    for name, path in files.items():
        lines, code = counts[name]
        assert lines == len(path.read_text().splitlines())
        assert 0 < code < lines
    assert total.split() == ["total", str(sum(n for n, _ in counts.values())),
                             str(sum(c for _, c in counts.values()))]


def test_artifact_digests_do_not_depend_on_the_output_directory(tmp_path):
    run_digests = runpy.run_path(str(ROOT / "tools" / "artifact_digests.py"))["run_digests"]
    config = parse_config("[grid]\nnpoints = 16\n[time]\nnsteps = 10\n[ensemble]\n"
                          "npaths = 2\n[optimizer]\nmax_iter = 3\n")
    runs = []
    for out in ("a", "b"):
        (tmp_path / out).mkdir()
        runs.append(run_digests(tmp_path / out, config))
    assert runs[0] == runs[1]
    lines = runs[0]
    # a check may fail on so coarse a problem; every command runs
    assert sum(line.startswith(("exit=0", "exit=1")) for line in lines) == 7
    labels = [line.split()[1] for line in lines]
    assert len(set(labels)) == len(labels)
    for command in ("verify/seed1", "verify/seed2", "verify/seed1234", "simulate/seed1",
                    "linearize/seed1", "adjoint/seed1", "optimize/seed1"):
        assert f"{command}/stdout" in labels
        assert f"{command}/manifest.deterministic" in labels
    assert "verify/seed1/check_duality.json" in labels
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[0])
               for line in lines if not line.startswith("exit="))


def test_time_to_tol_prints_each_seed_run_to_its_tolerance():
    time_to_tol = runpy.run_path(str(ROOT / "tools" / "time_to_tol.py"))["time_to_tol"]
    text = ("[grid]\nnpoints = 16\n[time]\nnsteps = 20\n[ensemble]\nnpaths = 2\n"
            "[optimizer]\nmax_iter = 40\n")
    sweep = choc.state._sweep_state
    lines = time_to_tol(parse_config(text), [3, 1])
    assert choc.state._sweep_state is choc.control._sweep_state is sweep
    assert len(lines) == 2
    for seed, line in zip([3, 1], lines):
        fields = dict(item.split("=") for item in line.split())
        assert list(fields) == ["seed", "iterations", "termination", "final_cost",
                                "sweeps", "rows", "cpu_s"]
        config = parse_config(text.replace("npaths = 2\n", f"npaths = 2\nbase_seed = {seed}\n"))
        build = build_problem(config)
        res = optimize(build.u0, build.ensemble, build.problem, build.optimizer)
        assert fields["seed"] == str(seed)
        assert fields["iterations"] == str(res.n_iterations)
        assert fields["termination"] == res.termination
        assert fields["final_cost"] == res.cost_history[-1].hex()
        # the starting cost and at least one trial per iteration, each row
        # swept once
        sweeps, rows = int(fields["sweeps"]), int(fields["rows"])
        assert 1 + res.n_iterations <= sweeps <= rows
        assert float(fields["cpu_s"]) > 0.0
