"""Optimal control of the stochastic Cahn-Hilliard equation.

Spectral Neumann-box discretization, stabilized Euler-Maruyama state solver,
exact discrete-transpose adjoints, projected gradient descent, and a
verification harness for the structural identities of the control problem.
"""

from .errors import (
    BlowUpError,
    ChocError,
    ConfigurationError,
    DomainError,
    ShapeError,
    SnapshotFormatError,
)
from .grid import Grid
from .physics import (
    NoiseModel,
    Potential,
    additive_noise,
    double_well,
    multiplicative_noise,
    no_noise,
    quadratic_potential,
)
from .state import (
    StateParams,
    TimeGrid,
    Trajectory,
    WienerPaths,
    mix_seed,
    sample_wiener_paths,
    solve_state,
)
from .sensitivity import (
    AdjointSolution,
    LinearizedSolution,
    duality_terms,
    solve_adjoint,
    solve_linearized,
)
from .control import (
    ControlProcess,
    EnsembleSpec,
    OptimizationResult,
    OptimizerOptions,
    Problem,
    evaluate_cost,
    gradient,
    optimality_residual,
    optimize,
    project_admissible,
    reduced_cost,
)
from .config import (
    RunConfig,
    build_problem,
    default_config,
    parse_config,
    serialize_config,
)
from .snapshots import read_snapshot, write_snapshot

__version__ = "0.1.0"
