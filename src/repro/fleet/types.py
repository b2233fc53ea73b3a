"""Declarative request/result types for fleet assignment.

:class:`AssignmentRequest` is the single entry point's input: a frozen,
JSON-round-trippable description of *what* to solve (processes,
objective, fleet, constraints, search budget) with no execution knobs,
so the same document gives the same answer on any host.
:class:`FleetAssignment` is the matching result bundle.  Both
round-trip bit-exactly through :mod:`repro.io`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.fleet.evaluator import canonical_objective
from repro.fleet.spec import FleetSpec
from repro.io import document, save_json
from repro.machine.topology import STANDARD_MACHINES

__all__ = ["SOLVERS", "AssignmentRequest", "MachineAssignment", "FleetAssignment"]

#: Recognised solver names.  ``auto`` picks ``exhaustive`` when the
#: instance is small enough to enumerate and ``anneal`` otherwise.
SOLVERS = ("auto", "exhaustive", "greedy", "anneal")


@document("assignment_request")
@dataclass(frozen=True)
class AssignmentRequest:
    """A declarative fleet-assignment problem.

    Args:
        processes: Process instances to place (duplicates allowed).
        objective: ``min-power`` / ``max-throughput`` /
            ``min-energy-per-instruction`` /
            ``throughput-under-watts-budget`` (legacy single-machine
            names ``power`` / ``throughput`` / ``energy_per_instruction``
            are accepted as aliases).
        solver: One of :data:`SOLVERS`.
        fleet: Machine inventory; ``None`` means the single machine
            named by ``machine``/``sets`` (the paper's original
            problem).
        machine / sets: Single-machine shorthand used when ``fleet``
            is ``None``.
        max_per_core: Optional cap on processes time-sharing one core.
        power_budget_watts: Global fleet power budget (hard
            constraint; required by ``throughput-under-watts-budget``).
        machine_power_cap_watts: Per-machine cap applied fleet-wide
            (group caps in the fleet spec tighten it further).
        budget_s: Wall-clock budget for the anneal refinement; the
            search stops early and reports its best-so-far.  Leave
            ``None`` for bit-reproducible runs (iteration-bounded).
        max_iterations: Annealing iteration budget (the deterministic
            knob).
        seed: Master seed for the annealing streams
            (:data:`repro.seeding.STREAM_FLEET`).
    """

    processes: Tuple[str, ...]
    objective: str = "min-power"
    solver: str = "auto"
    fleet: Optional[FleetSpec] = None
    machine: str = "4-core-server"
    sets: int = 128
    max_per_core: Optional[int] = None
    power_budget_watts: Optional[float] = None
    machine_power_cap_watts: Optional[float] = None
    budget_s: Optional[float] = None
    max_iterations: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "processes", tuple(str(name) for name in self.processes)
        )
        if not self.processes:
            raise ConfigurationError("need at least one process to assign")
        canonical_objective(self.objective)  # validates
        if self.solver not in SOLVERS:
            raise ConfigurationError(
                f"unknown solver {self.solver!r}; choose from {SOLVERS}"
            )
        if self.fleet is None and self.machine not in STANDARD_MACHINES:
            raise ConfigurationError(
                f"unknown machine {self.machine!r}; "
                f"choose from {sorted(STANDARD_MACHINES)}"
            )
        if int(self.sets) < 1:
            raise ConfigurationError("sets must be >= 1")
        if self.max_per_core is not None and int(self.max_per_core) < 1:
            raise ConfigurationError("max_per_core must be >= 1")
        for name in ("power_budget_watts", "machine_power_cap_watts"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.budget_s is not None and not self.budget_s > 0:
            raise ConfigurationError("budget_s must be positive")
        if self.max_iterations is not None and int(self.max_iterations) < 0:
            raise ConfigurationError("max_iterations must be non-negative")
        if int(self.seed) < 0:
            raise ConfigurationError("seed must be non-negative")
        if (
            canonical_objective(self.objective)
            == "throughput-under-watts-budget"
            and self.power_budget_watts is None
        ):
            raise ConfigurationError(
                "objective 'throughput-under-watts-budget' needs "
                "power_budget_watts"
            )

    def resolved_fleet(self) -> FleetSpec:
        """The inventory to pack (single-machine shorthand expanded)."""
        if self.fleet is not None:
            return self.fleet
        return FleetSpec.single(self.machine, sets=self.sets)


@document("machine_assignment")
@dataclass(frozen=True)
class MachineAssignment:
    """One machine's share of a fleet assignment.

    ``group``/``index`` locate the machine in the fleet spec;
    ``assignment`` maps core id to the (sorted) names time-sharing it,
    idle cores omitted.  Idle machines appear with an empty assignment
    and their predicted idle power.  For machines of a hetero group,
    ``pstates`` maps each busy core to its chosen P-state index (idle
    cores park at their core type's deepest P-state and carry no
    entry); it is ``None`` for homogeneous machines.
    """

    machine: str
    group: int
    index: int
    assignment: Dict[int, Tuple[str, ...]]
    predicted_watts: float
    predicted_ips: float
    pstates: Optional[Dict[int, int]] = None


@document(
    "fleet_assignment",
    defaults={"refinement": "none", "evaluations": 0, "iterations": 0},
)
@dataclass(frozen=True)
class FleetAssignment:
    """Result bundle of :func:`repro.api.solve_assignment`.

    Deliberately free of wall-clock fields: for a given request the
    bundle is bit-identical across runs, which the determinism tests
    pin.  ``improvements`` is the anytime best-so-far trace —
    ``(iteration, score)`` each time the incumbent improved, iteration
    0 being the construction heuristic's solution.
    """

    objective: str
    solver: str
    refinement: str
    fleet: FleetSpec
    processes: Tuple[str, ...]
    machines: Tuple[MachineAssignment, ...]
    predicted_watts: float
    predicted_ips: float
    score: float
    evaluations: int
    iterations: int
    improvements: Tuple[Tuple[int, float], ...] = field(default_factory=tuple)
    seed: int = 0

    @property
    def busy_machines(self) -> Tuple[MachineAssignment, ...]:
        return tuple(m for m in self.machines if m.assignment)

    def save(self, path) -> None:
        """Write the bundle to JSON (io conventions)."""
        save_json(self.to_dict(), path)
