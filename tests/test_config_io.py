"""Config parsing, snapshot format, manifests, and the CLI."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import choc.config
from choc import Field, Grid, read_snapshot, solve_state, write_snapshot
from choc.cli import main
from choc.config import (
    build_problem,
    config_digest,
    default_config,
    parse_config,
    serialize_config,
)
from choc.errors import ConfigParseError, ConfigurationError, SnapshotFormatError

from conftest import random_field

REPO = Path(__file__).resolve().parent.parent


# --- config parsing ----------------------------------------------------------


def test_empty_config_gives_defaults():
    config = parse_config("")
    assert config == default_config()
    assert config.grid.npoints == (64,)
    assert config.time.nsteps == 200
    assert config.noise.kind == "multiplicative"


def test_negative_alpha3_names_nonnegativity():
    with pytest.raises(ConfigurationError) as err:
        parse_config("[cost]\nalpha3 = -1\n")
    assert "nonnegativity" in str(err.value)


@pytest.mark.parametrize("setting, name", [
    ("max_backtracks = 0", "max_backtracks"), ("max_backtracks = -3", "max_backtracks"),
    ("armijo_c = 0", "armijo_c"), ("armijo_c = -1", "armijo_c"),
    ("armijo_c = 1", "armijo_c"), ("armijo_c = 5", "armijo_c"),
])
def test_line_search_settings_validated(setting, name):
    # each would stop the optimizer without a trial step or void the
    # sufficient-decrease test
    with pytest.raises(ConfigurationError) as err:
        parse_config(f"[optimizer]\n{setting}\n")
    assert f"optimizer.{name}" in str(err.value)


def test_unknown_key_carries_line_number():
    text = "[grid]\nndims = 1\nwidgets = 4\n"
    with pytest.raises(ConfigParseError) as err:
        parse_config(text)
    assert "line 3" in str(err.value)
    assert "widgets" in str(err.value)


def test_unknown_section_carries_line_number():
    with pytest.raises(ConfigParseError) as err:
        parse_config("\n[warp]\nfactor = 9\n")
    assert "line 2" in str(err.value)


def test_type_error_carries_line_number():
    with pytest.raises(ConfigParseError) as err:
        parse_config("[time]\nnsteps = soon\n")
    assert "line 2" in str(err.value)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigParseError):
        parse_config("nsteps = 10\n")


def test_example_config_roundtrip():
    text = (REPO / "configs" / "example.cfg").read_text()
    config = parse_config(text)
    serialized = serialize_config(config)
    assert parse_config(serialized) == config
    # serialization is a fixed point
    assert serialize_config(parse_config(serialized)) == serialized


def test_default_roundtrip_and_digest_stability():
    config = default_config()
    assert parse_config(serialize_config(config)) == config
    assert config_digest(config) == config_digest(parse_config(serialize_config(config)))


def test_2d_config_broadcast():
    config = parse_config("[grid]\nndims = 2\nnpoints = 16\nlengths = 1.0 2.0\n")
    build = build_problem(config)
    assert build.problem.params.grid.npoints == (16, 16)
    assert build.problem.params.grid.lengths == (1.0, 2.0)


def test_comments_and_blank_lines():
    text = "# leading comment\n[time]\n\nnsteps = 7   # trailing comment\n"
    assert parse_config(text).time.nsteps == 7


# --- snapshots -----------------------------------------------------------------


def test_snapshot_roundtrip_zero(tmp_path, grid64):
    f = Field.zeros(grid64)
    p = tmp_path / "zero.chs"
    write_snapshot(f, p)
    back = read_snapshot(p, grid64)
    assert np.array_equal(back.values, f.values)


def test_snapshot_roundtrip_random_bitwise(tmp_path, grid2d, rng):
    f = random_field(grid2d, rng)
    p = tmp_path / "field.chs"
    write_snapshot(f, p)
    back = read_snapshot(p, grid2d)
    assert np.array_equal(back.values, f.values)
    # writing the read-back field reproduces the file byte for byte
    q = tmp_path / "copy.chs"
    write_snapshot(back, q)
    assert p.read_bytes() == q.read_bytes()


def test_snapshot_bad_magic(tmp_path, grid64, rng):
    p = tmp_path / "field.chs"
    write_snapshot(random_field(grid64, rng), p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"JUNK"
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(p)


def test_snapshot_truncated_payload(tmp_path, grid64, rng):
    p = tmp_path / "field.chs"
    write_snapshot(random_field(grid64, rng), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(SnapshotFormatError):
        read_snapshot(p)


def test_snapshot_version_guard(tmp_path, grid64, rng):
    p = tmp_path / "field.chs"
    write_snapshot(random_field(grid64, rng), p)
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(p)


def test_snapshot_grid_mismatch(tmp_path, grid64, rng):
    p = tmp_path / "field.chs"
    write_snapshot(random_field(grid64, rng), p)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(p, Grid((32,), (1.0,)))


# --- CLI -----------------------------------------------------------------------


TINY = """
[grid]
npoints = 16
[time]
t_final = 0.01
nsteps = 10
[noise]
kind = none
nmodes = 0
[cost]
alpha3 = 0.001
[ensemble]
npaths = 2
[optimizer]
tol = 1e-4
max_iter = 15
"""


def _write_tiny(tmp_path, extra=""):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY + extra)
    return cfg


def test_cli_info(tmp_path, capsys):
    cfg = _write_tiny(tmp_path)
    assert main(["info", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "[grid]" in out and "npoints = 16" in out
    assert "config digest" in out


def test_cli_simulate_deterministic(tmp_path):
    cfg = _write_tiny(tmp_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0

    def digests(d):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(d).iterdir()) if p.suffix in (".chs", ".csv")
        }

    assert digests(out1) == digests(out2)
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["deterministic"] == m2["deterministic"]
    assert m1["manifest_digest"] == m2["manifest_digest"]


def test_cli_linearize_and_adjoint(tmp_path):
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "lin"
    assert main(["linearize", "--config", str(cfg), "--out", str(out)]) == 0
    duality = json.loads((out / "duality.json").read_text())
    assert duality["relative_residual"] <= 1e-10
    out2 = tmp_path / "adj"
    assert main(["adjoint", "--config", str(cfg), "--out", str(out2)]) == 0
    # every ptilde snapshot, the terminal node included, and the duality
    # summary keep their bits
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out2.iterdir()) if p.name != "manifest.json"}
    assert digests == {
        "adjoint_000000.chs":
            "9a74d47af8780c54f9ccbc12e7933488181e57bb3ba4e6507ba8c671b590e184",
        "adjoint_000001.chs":
            "9f4e02d22f86ee10c1276b65a948e314da8f81cc34505e12533deca80507fc29",
        "adjoint_000002.chs":
            "082f4bc9ae87c9372ed80d88f36acbfb3e8a43705776d719c5ec5d7766374c05",
        "adjoint_000003.chs":
            "1de83d476b56d29a16911ae7e8d1e440afcaf2516bb11d52036c8096eac752d5",
        "adjoint_000004.chs":
            "10b19d11583e81cc9007c00e57d194b2c5415cd73e7268831a6a845df9292d8e",
        "adjoint_000005.chs":
            "9850cb8d92cfced6433de05a73e645e9c079e71ad4752ceef3d84384f60073f3",
        "adjoint_000006.chs":
            "be1295c2348427872b66c6bae5c13e415304bbb73d41f699570edb57566d4267",
        "adjoint_000007.chs":
            "d8b4e4ac7d847afcaadfd8c3881cd6d06d6197ea4bd46124630c309b0333568e",
        "adjoint_000008.chs":
            "16c9ad573f032182c0f41e5d91772f139344d397d60968d3b0fdccc5205df66b",
        "adjoint_000009.chs":
            "f897b8057707261c1579cb87a8f72ad0ad10954c2cf2284dfd7fa6247db02f8a",
        "adjoint_000010.chs":
            "60727896755f9ac78d3f296c080d1fc673f26ad6e25b34662b3bf6ccf9d16b9c",
        "duality.json":
            "ca2fa446b492c2abd15748cb85808d8db0530af9ae62661d68376c14cc9ad2ad",
    }


def test_cli_optimize_monotone_manifest(tmp_path):
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    summary = manifest["deterministic"]["optimization"]
    assert summary["final_cost"] <= summary["initial_cost"]
    rows = (out / "cost_history.csv").read_text().strip().splitlines()[1:]
    costs = [float(r.split(",")[1]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def test_cli_verify_tiny_subset(tmp_path):
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "ver"
    code = main(["verify", "--config", str(cfg), "--out", str(out),
                 "--check", "mass_conservation", "--check", "duality"])
    assert code == 0
    report = json.loads((out / "check_mass_conservation.json").read_text())
    assert report["passed"] is True


def test_cli_verify_full_suite_small(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "[grid]\nnpoints = 16\n"
        "[time]\nt_final = 0.02\nnsteps = 40\n"
        "[noise]\nkind = multiplicative\nnmodes = 2\nsigmas = 0.1\n"
        "[ensemble]\nnpaths = 2\n"
    )
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    reports = sorted(out.glob("check_*.json"))
    assert len(reports) == 7
    assert all(json.loads(p.read_text())["passed"] for p in reports)


def test_cli_verify_detects_failure(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY + "\n[noise]\nkind = additive\nnmodes = 1\n"
                          "mode_indices = 0\nallow_nonzero_mean_modes = true\n"
                          "sigmas = 0.2\n")
    out = tmp_path / "ver"
    code = main(["verify", "--config", str(cfg), "--out", str(out),
                 "--check", "mass_conservation"])
    assert code == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("[cost]\nalpha3 = -2\n")
    assert main(["info", "--config", str(cfg)]) == 2
    assert "nonnegativity" in capsys.readouterr().err


def test_cli_unknown_check_exit_code(tmp_path):
    cfg = _write_tiny(tmp_path)
    assert main(["verify", "--config", str(cfg), "--check", "nope"]) == 2


def test_cli_blowup_exit_code(tmp_path, capsys):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(
        "[grid]\nnpoints = 16\n"
        "[time]\nt_final = 0.01\nnsteps = 10\n"
        "[noise]\nkind = additive\nnmodes = 1\nsigmas = 1e6\n"
        "[cost]\nalpha1 = 0\nalpha2 = 0\n"
        "[solver]\nblowup_threshold = 1e4\n"
        "[ensemble]\nnpaths = 1\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 3
    assert "blow-up" in capsys.readouterr().err
    # the one path a run solves is named by its index in the ensemble
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--path-index", "2"]) == 3
    assert "ensemble path 2" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path):
    assert main(["info", "--config", str(tmp_path / "absent.cfg")]) == 2


# --- synthetic build ------------------------------------------------------------


def test_build_problem_synthetic_targets_shapes(monkeypatch):
    # the reference control is simulated in one batched sweep whose targets
    # are bitwise those of path-by-path solves
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_state(*args, **kwargs)
    monkeypatch.setattr(choc.config, "solve_state", counted)
    config = parse_config(TINY)
    build = build_problem(config)
    assert len(calls) == 1
    es = build.ensemble
    params = build.problem.params
    tg = params.timegrid
    g = params.grid
    assert build.problem.x_q.shape == (es.npaths, tg.nsteps) + g.shape
    assert build.problem.x_t.shape == (es.npaths,) + g.shape
    assert build.reference_control is not None
    assert build.reference_control.norm_l2q() <= build.problem.c0
    for i, wp in enumerate(es.sample_paths(params)):
        traj = solve_state(build.problem.y0, build.reference_control.values, [wp],
                           params)
        assert np.array_equal(build.problem.x_q[i], traj.ys[0, : tg.nsteps])
        assert np.array_equal(build.problem.x_t[i], traj.ys[0, tg.nsteps])
