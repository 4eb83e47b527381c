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
    epsilon_continuation,
    fixed_point_solve,
    solve_routed,
)
from .convexcore import (
    DiffusionField,
    Nonlinearity,
    PerturbedFunctional,
    PhiAt,
)
from .discretize import ProblemSpec, SpatialMesh, TemporalMesh
from .variational import residual_AP
from .verify import (
    MmsSpec,
    MoscoSequenceSpec,
    Table,
    growth_audit,
    invariant_suite,
    mms_level,
    mms_run,
    mosco_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "CascadeParams",
    "StageResult",
    "epsilon_continuation",
    "fixed_point_solve",
    "solve_routed",
    "DiffusionField",
    "Nonlinearity",
    "PerturbedFunctional",
    "PhiAt",
    "ProblemSpec",
    "SpatialMesh",
    "TemporalMesh",
    "residual_AP",
    "MmsSpec",
    "MoscoSequenceSpec",
    "Table",
    "growth_audit",
    "invariant_suite",
    "mms_level",
    "mms_run",
    "mosco_experiment",
    "__version__",
]
