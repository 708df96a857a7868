"""Print the digests of the artifacts that the choc commands write, so two
trees can be compared bit for bit.

Usage: python tools/artifact_digests.py [OUTDIR]

Runs ``choc verify`` with base seeds 1, 2 and 1234, and ``choc simulate``,
``linearize``, ``adjoint`` and ``optimize`` with base seed 1, on the default
configuration with its base seed replaced. Each run writes into
its own directory under OUTDIR (a temporary directory, removed afterwards,
when none is given). Prints one line per run with its exit code, then one
sha256 per artifact file, per run's stdout and per manifest's
``deterministic`` block, each followed by its label; the artifacts are
the files that the manifest lists. Output paths enter no digest: a run's
stdout is hashed with its output directory replaced by ``OUT``, and the
manifest's timing is not hashed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from choc.cli import main
from choc.config import default_config, serialize_config

# (command, base seed) of every run, in the order printed
RUNS = [("verify", 1), ("verify", 2), ("verify", 1234), ("simulate", 1),
        ("linearize", 1), ("adjoint", 1), ("optimize", 1)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(outdir: Path, config) -> list[str]:
    """The printed lines of every run in ``RUNS`` of ``config``, writing
    under ``outdir``."""
    lines = []
    for command, seed in RUNS:
        label = f"{command}/seed{seed}"
        cfg = outdir / f"seed{seed}.cfg"
        cfg.write_text(serialize_config(replace(
            config, ensemble=replace(config.ensemble, base_seed=seed))))
        out = outdir / f"{command}-seed{seed}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--config", str(cfg), "--out", str(out)])
        lines.append(f"exit={code}  {label}")
        text = stdout.getvalue().replace(str(out), "OUT")
        lines.append(f"{_sha256(text.encode())}  {label}/stdout")
        block = json.loads((out / "manifest.json").read_text())["deterministic"]
        data = json.dumps(block, sort_keys=True).encode()
        lines.append(f"{_sha256(data)}  {label}/manifest.deterministic")
        for name in sorted(block["outputs"]):
            lines.append(f"{_sha256((out / name).read_bytes())}  {label}/{name}")
    return lines


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", help="directory for the runs' artifacts")
    args = parser.parse_args(argv)
    if args.outdir:
        Path(args.outdir).mkdir(parents=True, exist_ok=True)
        lines = run_digests(Path(args.outdir), default_config())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = run_digests(Path(tmp), default_config())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
