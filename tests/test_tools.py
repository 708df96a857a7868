"""The repository's tools run as their docstrings say."""

import re
import runpy
import subprocess
import sys
from pathlib import Path

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
