"""Time-periodic solver for doubly nonlinear diffusion problems.

The library computes one-period solutions of equations that are nonlinear
in both the time derivative (through a nondecreasing rate map) and the
state (through a weighted gradient energy), using a cascade of
regularizations removed by continuation, plus a verification harness of
manufactured solutions, invariant suites, stability experiments, and
growth audits.
"""

from .cascade import (
    CascadeParams,
    StageResult,
    default_epsilon_schedule,
    epsilon_continuation,
    fixed_point_solve,
    solve_routed,
)
from .convexcore import (
    DiffusionField,
    Nonlinearity,
    PerturbedFunctional,
    PhiConfig,
)
from .discretize import ProblemSpec, SpatialMesh, TemporalMesh
from .variational import ObjectiveConfig, residual_AP
from .verify import (
    MmsSpec,
    MoscoSequenceSpec,
    Table,
    growth_audit,
    invariant_suite,
    mms_run,
    mosco_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "CascadeParams",
    "StageResult",
    "default_epsilon_schedule",
    "epsilon_continuation",
    "fixed_point_solve",
    "solve_routed",
    "DiffusionField",
    "Nonlinearity",
    "PerturbedFunctional",
    "PhiConfig",
    "ProblemSpec",
    "SpatialMesh",
    "TemporalMesh",
    "ObjectiveConfig",
    "residual_AP",
    "MmsSpec",
    "MoscoSequenceSpec",
    "Table",
    "growth_audit",
    "invariant_suite",
    "mms_run",
    "mosco_experiment",
    "__version__",
]
