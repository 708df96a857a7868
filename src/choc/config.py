"""Run configuration: a line-based ``key = value`` format with sections.

Unknown sections or keys are rejected with the offending line number, every
value is type-checked, and serialization round-trips: parsing the serialized
form reproduces an equal configuration. Defaults implement the desk-scale
setup (1D, 64 points, unit box, T = 0.05 over 200 steps, two noise modes of
amplitude 0.1).
"""

import hashlib
import math
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from pathlib import Path

import numpy as np

from .control import (
    ControlProcess,
    EnsembleSpec,
    OptimizerOptions,
    Problem,
    _require_eta0,
    l2q_norm,
)
from .errors import ConfigParseError, ConfigurationError, SnapshotFormatError
from .grid import Grid, low_pass_values
from .physics import (
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
# Each field of a block is one key of its section: its name, type and
# default are declared once: here, or for [optimizer] in
# control.OptimizerOptions, which the optimizer takes as it is. Parsing,
# serialization and the built solver objects all derive from these
# dataclasses.


@dataclass(frozen=True)
class GridConfig:
    ndims: int = 1
    npoints: tuple[int, ...] = (64,)
    lengths: tuple[float, ...] = (1.0,)


@dataclass(frozen=True)
class TimeConfig:
    t_final: float = 0.05
    nsteps: int = 200


@dataclass(frozen=True)
class PotentialConfig:
    kind: str = "double_well"       # double_well | quadratic
    curvature: float = 1.0          # quadratic kind only


@dataclass(frozen=True)
class NoiseConfig:
    kind: str = "multiplicative"    # additive | multiplicative | none
    nmodes: int = 2
    sigmas: tuple[float, ...] = (0.1,)
    mode_indices: tuple[tuple[int, ...], ...] = ()  # empty means lowest nonconstant modes
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
    blowup_threshold: float = 1e10
    y0: str = "smooth_random:0.2"   # constant:V | file:PATH | smooth_random:AMP


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
    optimizer: OptimizerOptions = dc_field(default_factory=OptimizerOptions)


# section -> block class, in RunConfig's order (the serialization order)
_BLOCKS = {f.name: f.type for f in dc_fields(RunConfig)}


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


def _parse_ints(text: str, sep: str | None = None) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(sep))


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


# One parser per field annotation. The table is keyed by the annotations
# themselves, which this module and control.py evaluate (neither postpones
# them), so a field whose type has no parser fails at import.
_PARSE_BY_TYPE = {
    int: int,
    float: _parse_float,
    str: str,
    bool: _parse_bool,
    tuple[int, ...]: _parse_ints,
    tuple[float, ...]: lambda text: tuple(_parse_float(tok) for tok in text.split()),
    tuple[tuple[int, ...], ...]: lambda text: tuple(_parse_ints(tok, ",")
                                                    for tok in text.split()),
}

_KEY_PARSERS = {(section, f.name): _PARSE_BY_TYPE[f.type]
                for section, block in _BLOCKS.items() for f in dc_fields(block)}


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; an empty document yields all defaults."""
    values: dict = {name: {} for name in _BLOCKS}
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
        parser = _KEY_PARSERS.get((section, key))
        if parser is None:
            raise ConfigParseError(f"unknown key {key!r} in section [{section}]",
                                   line=lineno)
        try:
            values[section][key] = parser(rawval.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigParseError(f"bad value for {section}.{key}: {exc}",
                                   line=lineno) from exc

    config = RunConfig(**{name: block(**values[name])
                          for name, block in _BLOCKS.items()})
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


# inf switches these off; every other float setting must be finite
_MAY_BE_INFINITE = {("solver", "blowup_threshold")}


def _validate(c: RunConfig) -> None:
    for section in _BLOCKS:
        block = getattr(c, section)
        for f in dc_fields(block):
            value = getattr(block, f.name)
            values = {float: (value,), tuple[float, ...]: value}.get(f.type, ())
            if (section, f.name) not in _MAY_BE_INFINITE:
                _require(all(map(math.isfinite, values)),
                         f"{section}.{f.name} must be finite")
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
    _require(c.noise.kind in ("additive", "multiplicative", "none"),
             f"unknown noise.kind {c.noise.kind!r}")
    _require(c.noise.nmodes >= 0, "noise.nmodes must be nonnegative")
    _require(all(s >= 0 for s in c.noise.sigmas),
             "noise.sigmas must be nonnegative")
    _require(c.control.c0 > 0, "control.c0 must be positive")
    for name in ("alpha1", "alpha2", "alpha3"):
        _require(getattr(c.cost, name) >= 0,
                 f"cost.{name} violates nonnegativity")
    _require(c.cost.synthetic_amplitude > 0,
             "cost.synthetic_amplitude must be positive")
    _require(c.ensemble.npaths >= 1, "ensemble.npaths must be at least 1")
    _require(c.solver.blowup_threshold > 0,
             "solver.blowup_threshold must be positive")
    _require(c.optimizer.tol > 0, "optimizer.tol must be positive")
    _require(c.optimizer.max_iter >= 0, "optimizer.max_iter must be nonnegative")
    _require_eta0(c.optimizer, c.control.c0)


# --- construction ---------------------------------------------------------


def _broadcast(values: tuple, n: int, what: str) -> tuple:
    if len(values) == n:
        return values
    if len(values) == 1:
        return values * n
    raise ConfigurationError(f"{what}: expected 1 or {n} entries, got {len(values)}")


# numpy sizes an array by its byte count, a signed index
_MAX_FLOATS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def build_grid(c: RunConfig) -> Grid:
    n = _broadcast(c.grid.npoints, c.grid.ndims, "grid.npoints")
    l = _broadcast(c.grid.lengths, c.grid.ndims, "grid.lengths")
    _require(math.prod(n) <= _MAX_FLOATS,
             f"grid.npoints {n} give a field of more values than numpy can size")
    return Grid(n, l)


def build_potential(c: RunConfig):
    if c.potential.kind == "double_well":
        return double_well()
    return quadratic_potential(c.potential.curvature)


def build_noise(c: RunConfig, grid: Grid):
    nc = c.noise
    if nc.kind == "none" or nc.nmodes == 0:
        return no_noise(grid)
    if nc.nmodes > grid.size:
        raise ConfigurationError(f"noise.nmodes = {nc.nmodes} exceeds the "
                                 f"{grid.size} points of the grid")
    sigmas = _broadcast(nc.sigmas, nc.nmodes, "noise.sigmas")
    for ix in nc.mode_indices:
        if len(ix) != grid.ndims:
            raise ConfigurationError(
                f"noise.mode_indices entry {ix} does not match grid dimension"
            )
    if len(set(nc.mode_indices)) != len(nc.mode_indices):
        raise ConfigurationError(
            f"noise.mode_indices {nc.mode_indices} names a mode twice; each mode "
            "takes one Brownian motion"
        )
    indices = nc.mode_indices or None
    if nc.kind == "additive":
        return additive_noise(grid, sigmas, indices,
                              allow_nonzero_mean_modes=nc.allow_nonzero_mean_modes)
    return multiplicative_noise(grid, sigmas, indices)


def _source_number(arg: str, what: str) -> float:
    """The V of ``constant:V`` or the AMP of ``smooth_random:AMP``: a finite
    number, with no default."""
    try:
        value = float(arg)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(
            f"{what}: the source value must be a finite number, got {arg!r}"
        )
    return value


def _source_field(text: str, what: str, grid: Grid, base_dir: Path, *,
                  bare: str | None = None, seed: int | None = None) -> np.ndarray | None:
    """The field, an array of shape grid.shape with finite values, that the
    source ``kind[:arg]`` of key ``what`` names.

    Every key takes ``constant:V`` and ``file:PATH``. ``bare`` is the key's
    kind that takes no argument (``zero`` or ``synthetic``), for which this
    returns None; a ``seed`` admits ``smooth_random:AMP`` (``solver.y0``).
    Kinds are case-insensitive.
    """
    kind, colon, arg = text.partition(":")
    kind, arg = kind.strip().lower(), arg.strip()
    if kind == bare:
        if colon:
            raise ConfigurationError(f"{what}: {bare} takes no argument, got {text!r}")
        return None
    if kind == "constant":
        return np.full(grid.shape, _source_number(arg, what))
    if kind == "file":
        try:
            return read_snapshot(base_dir / arg, grid)
        except (OSError, SnapshotFormatError) as exc:
            raise ConfigurationError(f"{what}: {exc}") from None
    if kind == "smooth_random" and seed is not None:
        amp = _source_number(arg, what)
        return low_pass_values(grid, np.random.default_rng(seed), amp)
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
    _require((config.time.nsteps + 1) * grid.size <= _MAX_FLOATS,
             f"time.nsteps = {config.time.nsteps} on {grid.size} grid points gives "
             "a trajectory of more values than numpy can size")
    # every sweep holds the trajectories of all paths, and the synthetic
    # targets draw one Wiener path per path before any sweep runs
    _require(config.ensemble.npaths * (config.time.nsteps + 1) * grid.size <= _MAX_FLOATS,
             f"ensemble.npaths = {config.ensemble.npaths} paths of {config.time.nsteps} "
             f"steps on {grid.size} grid points give an ensemble trajectory of more "
             "values than numpy can size")
    tg = TimeGrid(config.time.t_final, config.time.nsteps)
    pot = build_potential(config)
    noise = build_noise(config, grid)
    params = StateParams(
        grid=grid, timegrid=tg, potential=pot, noise=noise,
        stabilization=config.solver.stabilization,
        blowup_threshold=config.solver.blowup_threshold,
    )
    es = EnsembleSpec(config.ensemble.npaths, config.ensemble.base_seed)
    y0 = _source_field(config.solver.y0, "solver.y0", grid, base_dir,
                       seed=mix_seed(es.base_seed, 0xD0))

    c0 = config.control.c0
    steps = (tg.nsteps,) + grid.shape
    init = _source_field(config.control.init, "control.init", grid, base_dir,
                         bare="zero")
    u0 = (ControlProcess.zeros(grid, tg) if init is None
          else ControlProcess(grid, tg, np.broadcast_to(init, steps).copy()))

    cost = config.cost
    alphas = (cost.alpha1, cost.alpha2, cost.alpha3)
    # the shape of each target that a field names: x_q holds it at every step
    shapes = {"x_q": steps, "x_t": grid.shape}
    # every target's source is read, so a malformed one is an error even at
    # zero weight; the field each weighted target names, None where it is
    # synthetic (a target whose weight is zero stays None)
    sources = {key: _source_field(getattr(cost, key), f"cost.{key}", grid, base_dir,
                                  bare="synthetic")
               for key in shapes}
    named = {key: sources[key] for key, alpha in zip(shapes, alphas) if alpha > 0}
    targets = dict.fromkeys(shapes)
    reference = None
    if any(f is None for f in named.values()):
        reference = _reference_control(grid, tg, c0, cost.synthetic_amplitude)
        synthetic = dict(zip(shapes, _synthetic_targets(params, y0, reference, es)))
    for key, f in named.items():
        targets[key] = (synthetic[key] if f is None
                        else np.broadcast_to(f, shapes[key]).copy())

    problem = Problem(params=params, y0=y0, alphas=alphas, x_q=targets["x_q"],
                      x_t=targets["x_t"], c0=c0)
    return BuildResult(config=config, problem=problem, ensemble=es,
                       optimizer=config.optimizer,
                       u0=u0, reference_control=reference)


def _reference_control(grid: Grid, tg: TimeGrid, c0: float,
                       amplitude: float) -> ControlProcess:
    """Smooth admissible control used to manufacture attainable targets."""
    profile = grid.cosine_mode((1,) + (0,) * (grid.ndims - 1))
    values = np.repeat(profile[None], tg.nsteps, axis=0)
    norm = l2q_norm(values, tg, grid)
    values *= amplitude * c0 / norm
    return ControlProcess(grid, tg, values)


def _synthetic_targets(params: StateParams, y0: np.ndarray, reference: ControlProcess,
                       es: EnsembleSpec):
    """Per-path targets from simulating the reference control."""
    nsteps = params.timegrid.nsteps
    ys = solve_state(y0, reference.values, es.sample_paths(params), params).ys
    return ys[:, :nsteps], ys[:, nsteps]
