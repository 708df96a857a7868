"""The repository's tools run as their docstrings say."""

import subprocess
import sys
from pathlib import Path

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
