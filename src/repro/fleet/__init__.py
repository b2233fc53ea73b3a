"""repro.fleet — heterogeneous fleet assignment.

Scales the paper's process-to-core assignment search from one machine
to an inventory of them: a :class:`FleetSpec` describes the machines,
a declarative :class:`AssignmentRequest` describes the problem, and
:func:`solve` returns a :class:`FleetAssignment` — via the exhaustive
oracle on small instances and seeded greedy + simulated-annealing
heuristics on large ones.  See :mod:`repro.fleet.solver` for the
determinism and oracle-equality guarantees.

Most callers should use the facade entry point
:func:`repro.api.solve_assignment` instead of this package directly.
"""

from repro.fleet.evaluator import (
    CANONICAL_OBJECTIVES,
    FleetEvaluator,
    SolvedCoRuns,
    canonical_objective,
    fleet_score,
)
from repro.fleet.solver import (
    DEFAULT_ANNEAL_ITERATIONS,
    DEFAULT_SWEEP_LIMIT,
    solve,
)
from repro.fleet.spec import FleetSpec, MachineGroup
from repro.fleet.types import (
    SOLVERS,
    AssignmentRequest,
    FleetAssignment,
    MachineAssignment,
)

__all__ = [
    "CANONICAL_OBJECTIVES",
    "DEFAULT_ANNEAL_ITERATIONS",
    "DEFAULT_SWEEP_LIMIT",
    "SOLVERS",
    "AssignmentRequest",
    "FleetAssignment",
    "FleetEvaluator",
    "FleetSpec",
    "MachineAssignment",
    "MachineGroup",
    "SolvedCoRuns",
    "canonical_objective",
    "fleet_score",
    "solve",
]
