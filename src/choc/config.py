"""Run configuration: a line-based ``key = value`` format with sections.

Unknown sections or keys are rejected with the offending line number, every
value is type-checked, and serialization round-trips: parsing the serialized
form reproduces an equal configuration. Defaults implement the desk-scale
setup (1D, 64 points, unit box, T = 0.05 over 200 steps, two noise modes of
amplitude 0.1).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from pathlib import Path

import numpy as np

from .control import ControlProcess, EnsembleSpec, OptimizerOptions, Problem, l2q_norm
from .errors import ConfigParseError, ConfigurationError
from .grid import Field, Grid, low_pass_field
from .physics import (
    TruncationLevel,
    additive_noise,
    double_well,
    multiplicative_noise,
    no_noise,
    quadratic_potential,
)
from .snapshots import read_snapshot
from .state import StateParams, TimeGrid, mix_seed, solve_state

__all__ = [
    "RunConfig",
    "parse_config",
    "parse_config_file",
    "serialize_config",
    "config_digest",
    "default_config",
    "build_problem",
    "BuildResult",
]


# --- typed blocks ---------------------------------------------------------


@dataclass(frozen=True)
class GridConfig:
    ndims: int = 1
    npoints: tuple = (64,)
    lengths: tuple = (1.0,)


@dataclass(frozen=True)
class TimeConfig:
    t_final: float = 0.05
    nsteps: int = 200


@dataclass(frozen=True)
class PotentialConfig:
    kind: str = "double_well"       # double_well | quadratic
    c1: float = 1.0
    c2: float = 3.0
    curvature: float = 1.0          # quadratic kind only


@dataclass(frozen=True)
class NoiseConfig:
    kind: str = "multiplicative"    # additive | multiplicative | none
    nmodes: int = 2
    sigmas: tuple = (0.1,)
    mode_indices: tuple = ()        # empty means lowest nonconstant modes
    shape: str = "tanh"             # tanh | linear
    allow_linear_shape: bool = False
    allow_nonzero_mean_modes: bool = False


@dataclass(frozen=True)
class ControlConfig:
    c0: float = 1.0
    init: str = "zero"              # zero | constant:V | file:PATH


@dataclass(frozen=True)
class CostConfig:
    alpha1: float = 1.0
    alpha2: float = 1.0
    alpha3: float = 1e-3
    x_q: str = "synthetic"          # constant:V | file:PATH | synthetic
    x_t: str = "synthetic"
    synthetic_amplitude: float = 0.5


@dataclass(frozen=True)
class EnsembleConfig:
    npaths: int = 8
    base_seed: int = 2024


@dataclass(frozen=True)
class SolverConfig:
    stabilization: float = 2.0
    backend: str = "discrete_transpose"
    truncation: float = math.inf
    blowup_threshold: float = 1e10
    y0: str = "smooth_random:0.2"   # constant:V | file:PATH | smooth_random:AMP


@dataclass(frozen=True)
class OptimizerConfig:
    tol: float = 7e-7
    max_iter: int = 300
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    max_backtracks: int = 40
    eta0: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    grid: GridConfig = dc_field(default_factory=GridConfig)
    time: TimeConfig = dc_field(default_factory=TimeConfig)
    potential: PotentialConfig = dc_field(default_factory=PotentialConfig)
    noise: NoiseConfig = dc_field(default_factory=NoiseConfig)
    control: ControlConfig = dc_field(default_factory=ControlConfig)
    cost: CostConfig = dc_field(default_factory=CostConfig)
    ensemble: EnsembleConfig = dc_field(default_factory=EnsembleConfig)
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    optimizer: OptimizerConfig = dc_field(default_factory=OptimizerConfig)


_BLOCKS = {
    "grid": GridConfig,
    "time": TimeConfig,
    "potential": PotentialConfig,
    "noise": NoiseConfig,
    "control": ControlConfig,
    "cost": CostConfig,
    "ensemble": EnsembleConfig,
    "solver": SolverConfig,
    "optimizer": OptimizerConfig,
}


# --- value codecs ---------------------------------------------------------


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def _parse_int_tuple(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split())


def _parse_float_tuple(text: str) -> tuple:
    return tuple(_parse_float(tok) for tok in text.split())


def _parse_mode_indices(text: str) -> tuple:
    out = []
    for tok in text.split():
        out.append(tuple(int(p) for p in tok.split(",")))
    return tuple(out)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    if isinstance(value, tuple):
        return " ".join(
            ",".join(str(p) for p in v) if isinstance(v, tuple) else _fmt(v)
            for v in value
        )
    return str(value)


_PARSERS = {
    ("grid", "ndims"): int,
    ("grid", "npoints"): _parse_int_tuple,
    ("grid", "lengths"): _parse_float_tuple,
    ("time", "t_final"): _parse_float,
    ("time", "nsteps"): int,
    ("potential", "kind"): str.strip,
    ("potential", "c1"): _parse_float,
    ("potential", "c2"): _parse_float,
    ("potential", "curvature"): _parse_float,
    ("noise", "kind"): str.strip,
    ("noise", "nmodes"): int,
    ("noise", "sigmas"): _parse_float_tuple,
    ("noise", "mode_indices"): _parse_mode_indices,
    ("noise", "shape"): str.strip,
    ("noise", "allow_linear_shape"): _parse_bool,
    ("noise", "allow_nonzero_mean_modes"): _parse_bool,
    ("control", "c0"): _parse_float,
    ("control", "init"): str.strip,
    ("cost", "alpha1"): _parse_float,
    ("cost", "alpha2"): _parse_float,
    ("cost", "alpha3"): _parse_float,
    ("cost", "x_q"): str.strip,
    ("cost", "x_t"): str.strip,
    ("cost", "synthetic_amplitude"): _parse_float,
    ("ensemble", "npaths"): int,
    ("ensemble", "base_seed"): int,
    ("solver", "stabilization"): _parse_float,
    ("solver", "backend"): str.strip,
    ("solver", "truncation"): _parse_float,
    ("solver", "blowup_threshold"): _parse_float,
    ("solver", "y0"): str.strip,
    ("optimizer", "tol"): _parse_float,
    ("optimizer", "max_iter"): int,
    ("optimizer", "armijo_c"): _parse_float,
    ("optimizer", "armijo_shrink"): _parse_float,
    ("optimizer", "max_backtracks"): int,
    ("optimizer", "eta0"): _parse_float,
}


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; an empty document yields all defaults."""
    values: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        # comments start at '#' when it opens the line or follows whitespace
        for i, ch in enumerate(line):
            if ch == "#" and (i == 0 or line[i - 1] in " \t"):
                line = line[:i]
                break
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _BLOCKS:
                raise ConfigParseError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {raw!r}", line=lineno)
        if section is None:
            raise ConfigParseError("key outside of any [section]", line=lineno)
        key, _, rawval = line.partition("=")
        key = key.strip().lower()
        parser = _PARSERS.get((section, key))
        if parser is None:
            raise ConfigParseError(f"unknown key {key!r} in section [{section}]",
                                   line=lineno)
        try:
            values[(section, key)] = parser(rawval.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigParseError(f"bad value for {section}.{key}: {exc}",
                                   line=lineno) from exc

    blocks = {}
    for name, cls in _BLOCKS.items():
        kwargs = {}
        for f in dc_fields(cls):
            if (name, f.name) in values:
                kwargs[f.name] = values[(name, f.name)]
        blocks[name] = cls(**kwargs)
    config = RunConfig(**blocks)
    _validate(config)
    return config


def parse_config_file(path) -> RunConfig:
    return parse_config(Path(path).read_text())


def serialize_config(config: RunConfig) -> str:
    """Render the full configuration, every key resolved."""
    lines = []
    for name in _BLOCKS:
        block = getattr(config, name)
        lines.append(f"[{name}]")
        for f in dc_fields(block):
            lines.append(f"{f.name} = {_fmt(getattr(block, f.name))}")
        lines.append("")
    return "\n".join(lines)


def config_digest(config: RunConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()


def default_config() -> RunConfig:
    return RunConfig()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


def _validate(c: RunConfig) -> None:
    g = c.grid
    _require(g.ndims in (1, 2), f"grid.ndims must be 1 or 2, got {g.ndims}")
    _require(len(g.npoints) in (1, g.ndims),
             "grid.npoints must have one entry or one per axis")
    _require(len(g.lengths) in (1, g.ndims),
             "grid.lengths must have one entry or one per axis")
    _require(all(n >= 4 for n in g.npoints), "grid.npoints entries must be >= 4")
    _require(all(l > 0 for l in g.lengths), "grid.lengths entries must be positive")
    _require(c.time.t_final > 0, "time.t_final must be positive")
    _require(c.time.nsteps >= 1, "time.nsteps must be at least 1")
    _require(c.potential.kind in ("double_well", "quadratic"),
             f"unknown potential.kind {c.potential.kind!r}")
    _require(c.potential.c1 >= 0, "potential.c1 must be nonnegative")
    _require(c.potential.c2 > 0, "potential.c2 must be positive")
    _require(c.noise.kind in ("additive", "multiplicative", "none"),
             f"unknown noise.kind {c.noise.kind!r}")
    _require(c.noise.nmodes >= 0, "noise.nmodes must be nonnegative")
    _require(all(s >= 0 for s in c.noise.sigmas),
             "noise.sigmas must be nonnegative")
    _require(c.noise.shape in ("tanh", "linear"),
             f"unknown noise.shape {c.noise.shape!r}")
    _require(c.control.c0 > 0, "control.c0 must be positive")
    for name in ("alpha1", "alpha2", "alpha3"):
        _require(getattr(c.cost, name) >= 0,
                 f"cost.{name} violates nonnegativity")
    _require(c.cost.synthetic_amplitude > 0,
             "cost.synthetic_amplitude must be positive")
    _require(c.ensemble.npaths >= 1, "ensemble.npaths must be at least 1")
    _require(c.solver.backend in ("discrete_transpose", "continuous"),
             f"unknown solver.backend {c.solver.backend!r}")
    _require(c.solver.truncation > 0, "solver.truncation must be positive")
    _require(c.solver.blowup_threshold > 0,
             "solver.blowup_threshold must be positive")
    _require(c.optimizer.tol > 0, "optimizer.tol must be positive")
    _require(c.optimizer.max_iter >= 0, "optimizer.max_iter must be nonnegative")
    _require(0 < c.optimizer.armijo_c < 1, "optimizer.armijo_c must lie in (0, 1)")
    _require(0 < c.optimizer.armijo_shrink < 1,
             "optimizer.armijo_shrink must lie in (0, 1)")
    _require(c.optimizer.max_backtracks >= 1,
             "optimizer.max_backtracks must be at least 1")
    _require(c.optimizer.eta0 > 0, "optimizer.eta0 must be positive")


# --- construction ---------------------------------------------------------


def _broadcast(values: tuple, n: int, what: str) -> tuple:
    if len(values) == n:
        return values
    if len(values) == 1:
        return values * n
    raise ConfigurationError(f"{what}: expected 1 or {n} entries, got {len(values)}")


def build_grid(c: RunConfig) -> Grid:
    n = _broadcast(c.grid.npoints, c.grid.ndims, "grid.npoints")
    l = _broadcast(c.grid.lengths, c.grid.ndims, "grid.lengths")
    return Grid(n, l)


def build_potential(c: RunConfig):
    if c.potential.kind == "double_well":
        return double_well(c.potential.c1, c.potential.c2)
    return quadratic_potential(c.potential.curvature)


def build_noise(c: RunConfig, grid: Grid):
    nc = c.noise
    if nc.kind == "none" or nc.nmodes == 0:
        return no_noise(grid)
    sigmas = _broadcast(nc.sigmas, nc.nmodes, "noise.sigmas")
    indices = nc.mode_indices or None
    if indices is not None:
        fixed = []
        for ix in indices:
            if len(ix) == 1 and grid.ndims == 1:
                fixed.append(ix)
            elif len(ix) == grid.ndims:
                fixed.append(ix)
            else:
                raise ConfigurationError(
                    f"noise.mode_indices entry {ix} does not match grid dimension"
                )
        indices = fixed
    if nc.kind == "additive":
        return additive_noise(grid, sigmas, indices,
                              allow_nonzero_mean_modes=nc.allow_nonzero_mean_modes)
    return multiplicative_noise(grid, sigmas, indices, shape=nc.shape,
                                allow_linear_shape=nc.allow_linear_shape)


def _parse_source(text: str):
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    return kind, arg.strip()


def _resolve_field_source(text: str, grid: Grid, base_dir: Path, seed: int,
                          what: str) -> Field:
    kind, arg = _parse_source(text)
    if kind == "constant":
        return Field.constant(grid, float(arg or 0.0))
    if kind == "file":
        return read_snapshot(base_dir / arg, grid)
    if kind == "smooth_random":
        amp = float(arg or 0.2)
        return low_pass_field(grid, np.random.default_rng(seed), amp)
    raise ConfigurationError(f"{what}: unknown source {text!r}")


@dataclass(frozen=True)
class BuildResult:
    config: RunConfig
    problem: Problem
    ensemble: EnsembleSpec
    optimizer: OptimizerOptions
    u0: ControlProcess
    reference_control: ControlProcess | None = None


def build_problem(config: RunConfig, base_dir=".") -> BuildResult:
    """Materialize a run configuration into solver-ready objects.

    Synthetic targets are generated by simulating a fixed smooth reference
    control with the ensemble's own seeds, which makes the optimizer's
    target attainable path by path.
    """
    base_dir = Path(base_dir)
    grid = build_grid(config)
    tg = TimeGrid(config.time.t_final, config.time.nsteps)
    pot = build_potential(config)
    noise = build_noise(config, grid)
    params = StateParams(
        grid=grid, timegrid=tg, potential=pot, noise=noise,
        stabilization=config.solver.stabilization,
        blowup_threshold=config.solver.blowup_threshold,
    )
    es = EnsembleSpec(config.ensemble.npaths, config.ensemble.base_seed)
    y0 = _resolve_field_source(config.solver.y0, grid, base_dir,
                               mix_seed(es.base_seed, 0xD0), "solver.y0")

    c0 = config.control.c0
    kind, arg = _parse_source(config.control.init)
    if kind == "zero":
        u0 = ControlProcess.zeros(grid, tg)
    elif kind == "constant":
        u0 = ControlProcess(grid, tg,
                            np.full((tg.nsteps,) + grid.shape, float(arg or 0.0)))
    elif kind == "file":
        f = read_snapshot(base_dir / arg, grid)
        u0 = ControlProcess(grid, tg, np.repeat(f.values[None], tg.nsteps, axis=0))
    else:
        raise ConfigurationError(f"control.init: unknown source {config.control.init!r}")

    alphas = (config.cost.alpha1, config.cost.alpha2, config.cost.alpha3)
    trunc = TruncationLevel(config.solver.truncation)

    reference = None
    x_q = x_t = None
    need_synth = (alphas[0] > 0 and config.cost.x_q == "synthetic") or \
                 (alphas[1] > 0 and config.cost.x_t == "synthetic")
    if need_synth:
        reference = _reference_control(grid, tg, c0, config.cost.synthetic_amplitude)
        x_q_s, x_t_s = _synthetic_targets(params, y0, reference, es)
    for name, text in (("x_q", config.cost.x_q), ("x_t", config.cost.x_t)):
        alpha = alphas[0] if name == "x_q" else alphas[1]
        if alpha == 0:
            continue
        kind, arg = _parse_source(text)
        if kind == "synthetic":
            value = x_q_s if name == "x_q" else x_t_s
        elif kind == "constant":
            c = float(arg or 0.0)
            value = (np.full((tg.nsteps,) + grid.shape, c) if name == "x_q"
                     else np.full(grid.shape, c))
        elif kind == "file":
            f = read_snapshot(base_dir / arg, grid)
            value = (np.repeat(f.values[None], tg.nsteps, axis=0) if name == "x_q"
                     else f.values)
        else:
            raise ConfigurationError(f"cost.{name}: unknown source {text!r}")
        if name == "x_q":
            x_q = value
        else:
            x_t = value

    problem = Problem(params=params, y0=y0, alphas=alphas, x_q=x_q, x_t=x_t,
                      c0=c0, trunc=trunc, backend=config.solver.backend)
    opts = OptimizerOptions(
        tol=config.optimizer.tol, max_iter=config.optimizer.max_iter,
        armijo_c=config.optimizer.armijo_c,
        armijo_shrink=config.optimizer.armijo_shrink,
        max_backtracks=config.optimizer.max_backtracks,
        eta0=config.optimizer.eta0,
    )
    return BuildResult(config=config, problem=problem, ensemble=es,
                       optimizer=opts, u0=u0, reference_control=reference)


def _reference_control(grid: Grid, tg: TimeGrid, c0: float,
                       amplitude: float) -> ControlProcess:
    """Smooth admissible control used to manufacture attainable targets."""
    profile = grid.cosine_mode((1,) + (0,) * (grid.ndims - 1))
    values = np.repeat(profile[None], tg.nsteps, axis=0)
    norm = l2q_norm(values, tg, grid)
    values *= amplitude * c0 / norm
    return ControlProcess(grid, tg, values)


def _synthetic_targets(params: StateParams, y0: Field, reference: ControlProcess,
                       es: EnsembleSpec):
    """Per-path targets from simulating the reference control."""
    nsteps = params.timegrid.nsteps
    ys = solve_state(y0, reference.values, es.sample_paths(params), params).ys
    return ys[:, :nsteps], ys[:, nsteps]
