"""Config parsing, snapshot format, manifests, and the CLI."""

import hashlib
import json
import re
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np
import pytest

import choc.cli
import choc.config
from choc import Grid, read_snapshot, solve_state, verify, write_snapshot
from choc.cli import EXIT_BLOWUP, EXIT_USAGE, main
from choc.config import (
    ControlConfig,
    CostConfig,
    EnsembleConfig,
    GridConfig,
    NoiseConfig,
    PotentialConfig,
    RunConfig,
    SolverConfig,
    TimeConfig,
    build_problem,
    config_digest,
    default_config,
    parse_config,
    serialize_config,
)
from choc.control import OptimizerOptions
from choc.errors import (
    ConfigParseError,
    ConfigurationError,
    DomainError,
    ShapeError,
    SnapshotFormatError,
)

from conftest import each_path, random_field

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
    ("tol = 0", "tol"), ("max_iter = -1", "max_iter"), ("eta0 = 0", "eta0"),
    ("armijo_c = -1", "armijo_c"), ("armijo_c = 0", "armijo_c"),
    ("armijo_c = 1", "armijo_c"), ("armijo_c = 5", "armijo_c"),
    ("max_backtracks = -3", "max_backtracks"),
    ("max_backtracks = 0", "max_backtracks"),
])
def test_line_search_settings_validated(setting, name):
    # tol = 0 asks for an exact stationary point, max_iter = -1 for no
    # iteration at all, and eta0 = 0 divides the gradient map by zero; the
    # Armijo constants are fixed, so any value for them is refused
    with pytest.raises(ConfigurationError) as err:
        parse_config(f"[optimizer]\n{setting}\n")
    if name in ("armijo_c", "max_backtracks"):
        assert f"unknown key {name!r} in section [optimizer]" in str(err.value)
    else:
        assert f"optimizer.{name}" in str(err.value)


@pytest.mark.parametrize("section, key, value", [
    ("solver", "stabilization", "nan"), ("solver", "stabilization", "inf"),
    ("time", "t_final", "inf"), ("time", "t_final", "nan"),
    ("grid", "lengths", "inf"), ("potential", "curvature", "nan"),
    ("noise", "sigmas", "inf"), ("cost", "synthetic_amplitude", "inf"),
    ("control", "c0", "inf"), ("cost", "alpha1", "inf"),
    ("optimizer", "eta0", "inf"),
])
def test_non_finite_settings_validated(tmp_path, capsys, section, key, value):
    # each would reach the solver and end as a blow-up at step 0, or pass
    # unnoticed into the cost or the optimizer
    with pytest.raises(ConfigurationError) as err:
        parse_config(f"[{section}]\n{key} = {value}\n")
    assert f"{section}.{key}" in str(err.value)
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["info", "--config", str(cfg)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_unknown_key_carries_line_number():
    text = "[grid]\nndims = 1\nwidgets = 4\n"
    with pytest.raises(ConfigParseError) as err:
        parse_config(text)
    assert "line 3" in str(err.value)
    assert "widgets" in str(err.value)


@pytest.mark.parametrize("section, key", [
    ("solver", "backend"),       # the transpose sweep is the one adjoint
    ("solver", "truncation"),    # only the truncation study clamps psi''
    ("potential", "c1"),         # the potential's formula fixes its constants
    ("potential", "c2"),
    ("optimizer", "armijo_c"),   # the Armijo search is fixed
    ("optimizer", "armijo_shrink"),
    ("optimizer", "max_backtracks"),
    ("noise", "shape"),          # multiplicative noise is tanh-shaped
    ("noise", "allow_linear_shape"),
])
def test_removed_key_is_unknown(section, key):
    with pytest.raises(ConfigParseError) as err:
        parse_config(f"# removed\n[{section}]\n{key} = 1\n")
    assert "line 3" in str(err.value)
    assert f"unknown key {key!r}" in str(err.value)


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


def _schema_keys():
    defaults = default_config()
    return {(block.name, key.name) for block in dc_fields(defaults)
            for key in dc_fields(getattr(defaults, block.name))}


def test_every_key_roundtrips():
    # every field of every block away from its default, so each key's
    # parser and its serialized form meet
    config = RunConfig(
        grid=GridConfig(ndims=2, npoints=(16, 8), lengths=(1.5, 2.0)),
        time=TimeConfig(t_final=0.125, nsteps=17),
        potential=PotentialConfig(kind="quadratic", curvature=2.0),
        noise=NoiseConfig(kind="additive", nmodes=3, sigmas=(0.1, 0.2, 0.3),
                          mode_indices=((1, 0), (0, 1), (1, 1)),
                          allow_nonzero_mean_modes=True),
        control=ControlConfig(c0=2.0, init="file:u0.chs"),
        cost=CostConfig(alpha1=0.5, alpha2=0.0, alpha3=0.01, x_q="constant:0.25",
                        x_t="file:xt.chs", synthetic_amplitude=0.75),
        ensemble=EnsembleConfig(npaths=3, base_seed=7),
        solver=SolverConfig(stabilization=3.0, blowup_threshold=1e6,
                            y0="constant:0.1"),
        optimizer=OptimizerOptions(tol=1e-5, max_iter=20, eta0=0.5),
    )
    defaults = default_config()
    same = [(section, key) for section, key in sorted(_schema_keys())
            if getattr(getattr(config, section), key)
            == getattr(getattr(defaults, section), key)]
    assert same == []
    assert parse_config(serialize_config(config)) == config


def test_example_and_readme_name_every_key():
    schema = _schema_keys()
    section = None
    example = []
    for line in (REPO / "configs" / "example.cfg").read_text().splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            example.append((section, line.partition("=")[0].strip()))
    assert sorted(example) == sorted(schema)
    # the README's configuration table: one row per section, whose keys are
    # the backquoted names outside the parenthesized defaults
    readme = []
    for section, cell in re.findall(r"^\| `\[(\w+)\]` \| (.*) \|$",
                                    (REPO / "README.md").read_text(), re.M):
        keys = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell))
        readme.extend((section, key) for key in keys)
    assert sorted(readme) == sorted(schema)


@pytest.mark.parametrize("indices", ["1,2", "1 2,0"])
def test_mode_index_of_the_wrong_dimension(indices):
    # a 2D mode index on the default 1D grid names the key
    config = parse_config(f"[noise]\nnmodes = 2\nmode_indices = {indices}\n")
    with pytest.raises(ConfigurationError, match="noise.mode_indices"):
        build_problem(config)


@pytest.mark.parametrize("indices", ["1 1", "1 2 1"])
def test_mode_index_named_twice(tmp_path, capsys, indices):
    # two Brownian motions on one mode would be one mode at a larger amplitude
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(f"[noise]\nnmodes = {len(indices.split())}\n"
                   f"mode_indices = {indices}\n")
    assert main(["info", "--config", str(cfg)]) == 2
    assert "noise.mode_indices" in capsys.readouterr().err


@pytest.mark.parametrize("nmodes", ["65", str(2**62), str(2**63)])
def test_more_modes_than_grid_points(tmp_path, capsys, nmodes):
    # refused before a sigma is broadcast to nmodes entries: a tuple of 2^62
    # entries exhausts memory, and 2^63 does not fit an index
    cfg = tmp_path / "modes.cfg"
    cfg.write_text(f"[noise]\nnmodes = {nmodes}\n")
    with pytest.raises(ConfigurationError, match="noise.nmodes"):
        build_problem(parse_config(cfg.read_text()))
    assert main(["info", "--config", str(cfg)]) == 2
    assert "noise.nmodes" in capsys.readouterr().err


@pytest.mark.parametrize("key, section", [
    ("grid.npoints", f"[grid]\nnpoints = {2**62}\n"),
    ("grid.npoints", f"[grid]\nnpoints = {2**64}\n"),
    ("grid.npoints", f"[grid]\nndims = 2\nnpoints = {2**32}\n"),
    ("time.nsteps", f"[time]\nnsteps = {2**62}\n"),
    ("time.nsteps", f"[time]\nnsteps = {2**64}\n"),
    ("ensemble.npaths", f"[ensemble]\nnpaths = {2**56}\n"),
    ("ensemble.npaths", f"[ensemble]\nnpaths = {2**62}\n"),
])
def test_sizes_numpy_cannot_allocate(tmp_path, capsys, key, section):
    # refused before an array is made: numpy raises "array is too big" on
    # 2^62 values and "Maximum allowed dimension exceeded" on 2^64, and a
    # 2D grid of 2^32 x 2^32 points has 2^64. An ensemble of 2^56 paths of
    # 11 steps on 16 points does not fit either, and drawing its Wiener
    # paths one by one would run until killed. The appended section's keys
    # override the base config's.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[grid]\nnpoints = 16\n[time]\nnsteps = 10\n[ensemble]\nnpaths = 2\n"
                   + section)
    with pytest.raises(ConfigurationError, match=key):
        build_problem(parse_config(cfg.read_text()))
    assert main(["info", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


# --- snapshots -----------------------------------------------------------------


def test_snapshot_roundtrip_zero(tmp_path, grid64):
    f = np.zeros(grid64.shape)
    p = tmp_path / "zero.chs"
    write_snapshot(f, p)
    back = read_snapshot(p, grid64)
    assert np.array_equal(back, f)


def test_snapshot_roundtrip_random_bitwise(tmp_path, grid2d, rng):
    f = random_field(grid2d, rng)
    p = tmp_path / "field.chs"
    write_snapshot(f, p)
    back = read_snapshot(p, grid2d)
    assert back.dtype == np.float64 and np.array_equal(back, f)
    assert np.array_equal(read_snapshot(p), f)
    # writing the read-back field reproduces the file byte for byte
    q = tmp_path / "copy.chs"
    write_snapshot(back, q)
    assert p.read_bytes() == q.read_bytes()


def test_snapshot_holds_a_field_of_one_or_two_axes(tmp_path):
    for values in (np.zeros(()), np.zeros((4, 4, 4))):
        with pytest.raises(ShapeError):
            write_snapshot(values, tmp_path / "bad.chs")
    assert not (tmp_path / "bad.chs").exists()


def test_snapshot_non_finite_payload(tmp_path, grid64, rng):
    # a snapshot is data entering the program: its values must be finite
    f = random_field(grid64, rng)
    f[7] = np.nan
    p = tmp_path / "field.chs"
    write_snapshot(f, p)
    for grid in (grid64, None):
        with pytest.raises(DomainError, match="field values must be finite"):
            read_snapshot(p, grid)


@pytest.mark.parametrize("key, section", [("y0", "solver"), ("init", "control"),
                                          ("x_q", "cost"), ("x_t", "cost")])
@pytest.mark.parametrize("bad", ["nan", "dims"])
def test_cli_bad_snapshot_source_exit_code(tmp_path, capsys, key, section, bad):
    # a file source with a non-finite value or the wrong dims is a usage
    # error that leaves no output directory
    values = np.zeros(16 if bad == "nan" else 12)
    if bad == "nan":
        values[3] = np.nan
    write_snapshot(values, tmp_path / "src.chs")
    cfg = _write_tiny(tmp_path, f"[{section}]\n{key} = file:src.chs\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("field values must be finite" if bad == "nan" else "do not match grid") in err
    assert not out.exists()


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


# every float or float-tuple key of the one schema
_FLOAT_KEYS = [(block.name, key.name) for block in dc_fields(RunConfig)
               for key in dc_fields(block.type)
               if key.type in (float, tuple[float, ...])]


@pytest.mark.parametrize("value", ["0", "-1", "1e-300", "1e300", "nan", "inf"])
@pytest.mark.parametrize("section, key", _FLOAT_KEYS,
                         ids=[f"{s}.{k}" for s, k in _FLOAT_KEYS])
def test_cli_info_float_edge_values(tmp_path, section, key, value):
    # an edge value of any float key is accepted, refused as a configuration
    # error or ends as a blow-up; it never escapes as a traceback
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("[grid]\nnpoints = 16\n[time]\nnsteps = 10\n"
                   f"[ensemble]\nnpaths = 2\n[{section}]\n{key} = {value}\n")
    assert main(["info", "--config", str(cfg)]) in (0, 2, 3)


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
            "603a26d538361170e0611eb40b340bb80ad69c5da90c6131e114747603cf121b",
        "adjoint_000001.chs":
            "61090e3135eb7a1c85a2cb06c8ac52199bcdaa28bb7922644d371df9ac185c3a",
        "adjoint_000002.chs":
            "6a9d2e37954a5cef328f8992df13211942dd751e618775040a7460a35bc2f52c",
        "adjoint_000003.chs":
            "f129172bb5137363e4af1791bf91b26b34237bc8a613fa55dd86746b94469184",
        "adjoint_000004.chs":
            "c241f113374270e85e3379059a5e239a38f8fefc2b018b5fa6965ae785723f45",
        "adjoint_000005.chs":
            "741b50f4c883dbe0d8724ea70b225f3cb228e94db80a32fa80ad799bef785a38",
        "adjoint_000006.chs":
            "5042b46563e1e451cd3ab196cdd47479aaa620c8be4a6bdae115ed445b11f738",
        "adjoint_000007.chs":
            "fed52998950551346e4cfad819c1475761e26196efc622868661ba2fd067f97b",
        "adjoint_000008.chs":
            "59d56e22973e5477a4fd7b18c36d40e73a4c15540b3968d3acb8664064e16cf6",
        "adjoint_000009.chs":
            "7514eaa73c5362e39ede3aad1504a3e803e69f6bc9460ec75f64d3159c5a20c9",
        "adjoint_000010.chs":
            "5e6b8d11360030fbff49b3cbfe89c635c5d2486bc1a60ff1524526dbf2f1cc1f",
        "duality.json":
            "5094ef55cd3cc8386c5dd24dbc05a9014fed0db460a01b0dcf7cc6f0e409ed33",
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


def test_cli_optimize_without_iterations_reports_its_gradient_map(tmp_path):
    # max_iter = 0 still measures the gradient map at the starting control
    cfg = _write_tiny(tmp_path, "\n[optimizer]\nmax_iter = 0\n")
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    final = manifest["deterministic"]["optimization"]["final_gradient_map"]
    (row,) = (out / "cost_history.csv").read_text().strip().splitlines()[1:]
    assert float(row.split(",")[2]) == final > 0.0


@pytest.mark.parametrize("eta0", ["1e-300", "1e7", "1e300"])
def test_cli_optimize_refuses_an_eta0_that_fakes_convergence(tmp_path, capsys, eta0):
    # at the zero control the gradient map is min(|grad|, c0/eta0), below
    # tol for any gradient once eta0 >= c0/tol (1.43e6 here), and at 1e-300
    # the step's squares underflow: each run once "converged after 0
    # iterations" with a projection residual of 1
    cfg = tmp_path / "eta0.cfg"
    cfg.write_text("[grid]\nnpoints = 16\n[time]\nnsteps = 10\n[ensemble]\nnpaths = 2\n"
                   f"[optimizer]\nmax_iter = 2\neta0 = {eta0}\n")
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert "optimizer.eta0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("weight", ["alpha1 = 1e160", "alpha1 = 1e308", "alpha2 = 1e300"])
def test_cli_optimize_never_converges_on_an_overflowing_norm(tmp_path, capsys, weight):
    # weights that put the gradient's squares past the float range once made
    # its norm inf: the projection scaled by radius/inf = 0, the gradient map
    # read 0, and the run "converged" after 0 iterations. Each run now ends
    # in a named error or with finite, nonzero gradient maps, warning-free.
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text(TINY.replace("[cost]\n", f"[cost]\n{weight}\n"))
    out = tmp_path / "opt"
    code = main(["optimize", "--config", str(cfg), "--out", str(out)])
    if code != 0:
        assert code in (EXIT_BLOWUP, EXIT_USAGE)
        assert capsys.readouterr().err.startswith("error: ")
        return
    summary = json.loads((out / "manifest.json").read_text())["deterministic"]["optimization"]
    rows = (out / "cost_history.csv").read_text().strip().splitlines()[1:]
    gmaps = [float(r.split(",")[2]) for r in rows] + [summary["final_gradient_map"]]
    assert all(0.0 < gm < np.inf for gm in gmaps)
    assert np.isfinite(summary["projection_residual"])


def test_cli_optimize_refuses_a_starting_cost_that_is_not_finite(tmp_path, capsys):
    # the run once exited 0 with "cost inf -> inf; gradient map nan" and a
    # manifest of Infinity and NaN; now it is a usage error that writes nothing
    cfg = tmp_path / "heavy.cfg"
    cfg.write_text(TINY.replace("[cost]\n", "[cost]\nalpha2 = 1e308\nx_t = constant:100\n"))
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: the starting cost is not finite: ensemble path 0 ")
    assert not out.exists()


def test_cli_verify_tiny_subset(tmp_path):
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "ver"
    code = main(["verify", "--config", str(cfg), "--out", str(out),
                 "--check", "mass_conservation", "--check", "duality"])
    assert code == 0
    report = json.loads((out / "check_mass_conservation.json").read_text())
    assert report["passed"] is True


def test_cli_verify_full_suite_small(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "[grid]\nnpoints = 16\n"
        "[time]\nt_final = 0.02\nnsteps = 40\n"
        "[noise]\nkind = multiplicative\nnmodes = 2\nsigmas = 0.1\n"
        "[ensemble]\nnpaths = 2\n"
    )
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    # without --check, the command runs the one suite, in its order
    build = build_problem(parse_config(cfg.read_text()))
    names = list(verify.suite(build.problem, build.ensemble, build.u0))
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1].rstrip(":") for line in lines] == names
    reports = sorted(out.glob("check_*.json"))
    assert sorted(p.name for p in reports) == sorted(f"check_{n}.json" for n in names)
    assert len(reports) == 7
    assert all(json.loads(p.read_text())["passed"] for p in reports)
    # every report keeps its bits
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in reports}
    assert digests == {
        "check_backend_consistency.json":
            "e0c2fb0761159d626a3b2e847c83f86daafb020f04be6c06278ebaac6d891050",
        "check_duality.json":
            "1f8c7bfb343248a8095e7c55a43e0431ecc692718570ab5e212ea7a4624c9be7",
        "check_gateaux.json":
            "da5edb94b6f33486ec904a2c764987c5f7978cf7da1005adb5611da1f98a9669",
        "check_lipschitz.json":
            "b80865660a851980ed2e98d2cc86f491659fe86abac3d579971d70fa8f2818ee",
        "check_mass_conservation.json":
            "e686b4bf0a09059d90971bfb2b44bf7fba4c0e1db6c2a3982943299064083afc",
        "check_moment_bounds.json":
            "00bd216a6de438ef1c604fcbfc0db555e77b853b3276ed6d55ac4cdeda4a5cdc",
        "check_truncation.json":
            "848afd13be442f31ab9dbc0a18ffd2cafa8d8d879e31e33631a5802702deb7e7",
    }


def test_cli_verify_negative_base_seed(tmp_path):
    # a seed is reduced mod 2^64 wherever numpy draws from it, so every check
    # runs, and the ensemble's paths are those of the reduced seed
    cfg = tmp_path / "negative.cfg"
    cfg.write_text("[grid]\nnpoints = 16\n[time]\nnsteps = 10\n"
                   "[ensemble]\nnpaths = 2\nbase_seed = -1\n")
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    reports = [json.loads(p.read_text()) for p in sorted(out.glob("check_*.json"))]
    assert len(reports) == 7 and all(r["passed"] for r in reports)


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


@pytest.mark.parametrize("section, key, value", [
    ("control", "init", "constant:abc"),
    ("control", "init", "constant:inf"),
    ("control", "init", "constant:"),
    ("cost", "x_q", "constant:abc"),
    ("cost", "x_t", "constant:nan"),
    ("solver", "y0", "smooth_random:oops"),
    ("solver", "y0", "smooth_random:"),
    ("solver", "y0", "constant:-inf"),
    ("cost", "x_q", "synthetic:1"),
    ("control", "init", "zero:0"),
    ("cost", "x_q", "missing:0"),
    ("cost", "x_t", "file:missing.chs"),
    # a zero-weight target's source is read all the same
    ("cost", "x_q", "garbage\nalpha1 = 0"),
    ("cost", "x_t", "constant:nan\nalpha2 = 0"),
    ("cost", "x_t", "file:missing.chs\nalpha2 = 0"),
])
def test_cli_malformed_source_value_exit_code(tmp_path, capsys, section, key, value):
    # a source's V or AMP is a finite number, given, zero and synthetic take
    # none, and a file exists: anything else is a configuration error naming
    # the key, never a traceback or a default
    cfg = tmp_path / "source.cfg"
    cfg.write_text("[grid]\nnpoints = 16\n[time]\nt_final = 0.01\nnsteps = 10\n"
                   "[noise]\nkind = none\nnmodes = 0\n"
                   f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigurationError, match=f"{section}.{key}"):
        build_problem(parse_config(cfg.read_text()))
    assert main(["info", "--config", str(cfg)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "linearize", "adjoint"])
@pytest.mark.parametrize("index", ["2", "-1"])
def test_cli_path_index_outside_the_ensemble(tmp_path, capsys, command, index):
    # the tiny ensemble has paths 0 and 1; any other index names no path
    cfg = _write_tiny(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--path-index", index]) == 2
    assert f"--path-index {index}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_cli_false_potential_constant_exit_code(tmp_path, capsys):
    # psi'' = -1 at r = 0 for the double well, so its c1 is 1 and a
    # stabilization below it is a configuration error
    cfg = _write_tiny(tmp_path, "[solver]\nstabilization = 0.5\n")
    with pytest.raises(ConfigurationError, match="c1 = 1"):
        build_problem(parse_config(cfg.read_text()))
    assert main(["info", "--config", str(cfg)]) == 2
    assert "c1 = 1" in capsys.readouterr().err


def test_cli_verify_lipschitz_fails_when_the_state_does_not_see_the_control(
        tmp_path, capsys):
    # every coarse Lipschitz ratio is 0 over a horizon of 1e-300: a FAIL
    # line and exit 1, not a division by zero
    cfg = tmp_path / "instant.cfg"
    cfg.write_text("[grid]\nnpoints = 16\n[time]\nt_final = 1e-300\nnsteps = 10\n"
                   "[ensemble]\nnpaths = 2\n")
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--check", "lipschitz"]) == 1
    assert capsys.readouterr().out.startswith("FAIL  lipschitz: ")
    report = json.loads((out / "check_lipschitz.json").read_text())
    assert report["measured"]["refinement_drift"] == "inf"


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
        "[ensemble]\nnpaths = 3\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out",
                 str(tmp_path / "out")]) == 3
    assert "blow-up" in capsys.readouterr().err
    # the one path a run solves is named by its index in the ensemble
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--path-index", "2"]) == 3
    assert "ensemble path 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "adjoint", "optimize"])
@pytest.mark.parametrize("every", ["0", "-1"])
def test_cli_snapshot_every_below_one(tmp_path, capsys, monkeypatch, command, every):
    # a usage error before any solve, with no output directory
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")
    monkeypatch.setattr(choc.cli, "solve_state", no_solve)
    monkeypatch.setattr(choc.cli, "optimize", no_solve)
    out = tmp_path / "out"
    assert main([command, "--config", str(_write_tiny(tmp_path)), "--out", str(out),
                 "--snapshot-every", every]) == 2
    assert f"--snapshot-every {every}" in capsys.readouterr().err
    assert not out.exists()


# noise that blows up on the first step; no tracking term, so building the
# problem solves nothing
EXPLODING = ("[noise]\nkind = additive\nnmodes = 1\nsigmas = 1e6\n"
             "[cost]\nalpha1 = 0\nalpha2 = 0\n"
             "[solver]\nblowup_threshold = 1e4\n")


@pytest.mark.parametrize("args, extra, code", [
    (["simulate", "--path-index", "5"], "", 2),
    (["linearize", "--path-index", "5"], "", 2),
    (["verify", "--check", "nope"], "", 2),
    (["simulate"], EXPLODING, 3),
    (["adjoint"], EXPLODING, 3),
    (["optimize"], EXPLODING, 3),
    (["verify", "--check", "gateaux"], EXPLODING, 3),
], ids=["simulate-path", "linearize-path", "verify-check", "simulate-blowup",
        "adjoint-blowup", "optimize-blowup", "verify-blowup"])
def test_cli_failed_run_leaves_no_directory(tmp_path, monkeypatch, args, extra, code):
    # the output directory is made only once a command's work succeeded,
    # whether --out names it or it is the default in the working directory
    cfg = _write_tiny(tmp_path, extra)
    out = tmp_path / "out"
    assert main(args + ["--config", str(cfg), "--out", str(out)]) == code
    assert not out.exists()
    monkeypatch.chdir(tmp_path)
    assert main(args + ["--config", str(cfg)]) == code
    assert not (tmp_path / "choc-out").exists()


@pytest.mark.parametrize("command", ["simulate", "adjoint", "optimize", "verify"])
@pytest.mark.parametrize("where", ["out", "env", "parent"])
def test_cli_out_names_a_file(tmp_path, capsys, monkeypatch, command, where):
    # a configuration error before any solve, the file left as it was
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output directory was checked")
    monkeypatch.setattr(choc.config, "solve_state", no_solve)
    monkeypatch.setattr(choc.cli, "solve_state", no_solve)
    monkeypatch.setattr(choc.cli, "optimize", no_solve)
    afile = tmp_path / "afile"
    afile.write_text("keep")
    args = [command, "--config", str(_write_tiny(tmp_path))]
    if where == "env":
        monkeypatch.setenv("CHOC_OUTPUT_DIR", str(afile))
    else:
        args += ["--out", str(afile if where == "out" else afile / "sub")]
    assert main(args) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert afile.read_text() == "keep"


def test_cli_missing_config_file(tmp_path):
    assert main(["info", "--config", str(tmp_path / "absent.cfg")]) == 2


# --- synthetic build ------------------------------------------------------------


def test_synthetic_kind_is_case_insensitive():
    # x_q alone synthetic: the kind is matched as every source kind is
    def build(kind):
        return build_problem(parse_config(TINY + f"[cost]\nx_q = {kind}\n"
                                                 "x_t = constant:0\n")).problem
    expected = build("synthetic")
    for kind in ("Synthetic", " SYNTHETIC "):
        problem = build(kind)
        assert np.array_equal(problem.x_q, expected.x_q)
        assert np.array_equal(problem.x_t, np.zeros(problem.params.grid.shape))


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
    for i, wp in enumerate(each_path(es.sample_paths(params))):
        traj = solve_state(build.problem.y0, build.reference_control.values, wp,
                           params)
        assert np.array_equal(build.problem.x_q[i], traj.ys[0, : tg.nsteps])
        assert np.array_equal(build.problem.x_t[i], traj.ys[0, tg.nsteps])
