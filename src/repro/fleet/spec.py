"""Fleet inventory descriptions for cross-machine assignment.

A fleet is a multiset of machines drawn from
:data:`~repro.machine.topology.STANDARD_MACHINES`: heterogeneous
groups, each with a count and optional per-machine power cap.  The
spec is pure data — frozen, hashable-by-value where possible, and
JSON-round-trippable through :mod:`repro.io` — so one document can
describe an inventory to the solver, the HTTP service and the CLI
alike.

Machines *within* a group are interchangeable: the solver exploits
that symmetry both to deduplicate candidate placements and to
memoise per-machine model evaluations across identical states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.hetero.types import HeteroMachineSpec
from repro.io import document
from repro.machine.topology import MachineTopology, STANDARD_MACHINES

__all__ = ["MachineGroup", "FleetSpec"]


@dataclass(frozen=True)
class MachineGroup:
    """``count`` identical machines of one standard type.

    Args:
        machine: Name in :data:`STANDARD_MACHINES`.
        count: Number of machines of this type in the fleet.
        sets: Cache set scaling applied to every machine of the group.
        power_cap_watts: Optional per-machine power cap; candidate
            placements predicted to exceed it on any machine of this
            group are infeasible.
        hetero: Optional heterogeneous core-type / P-state spec shared
            by every machine of the group; the solver then also picks
            a P-state per busy core.
    """

    machine: str
    count: int = 1
    sets: int = 128
    power_cap_watts: Optional[float] = None
    hetero: Optional[HeteroMachineSpec] = None

    def __post_init__(self) -> None:
        if self.machine not in STANDARD_MACHINES:
            raise ConfigurationError(
                f"unknown machine {self.machine!r}; "
                f"choose from {sorted(STANDARD_MACHINES)}"
            )
        if int(self.count) < 1:
            raise ConfigurationError("machine group count must be >= 1")
        if int(self.sets) < 1:
            raise ConfigurationError("sets must be >= 1")
        if self.power_cap_watts is not None and not self.power_cap_watts > 0:
            raise ConfigurationError("power_cap_watts must be positive")
        if self.hetero is not None:
            if not isinstance(self.hetero, HeteroMachineSpec):
                raise ConfigurationError(
                    "hetero must be a HeteroMachineSpec, got "
                    f"{type(self.hetero).__name__}"
                )
            if self.hetero.machine != self.machine:
                raise ConfigurationError(
                    f"hetero spec is for machine {self.hetero.machine!r} "
                    f"but the group uses {self.machine!r}"
                )

    def topology(self) -> MachineTopology:
        """Build the group's machine topology."""
        return STANDARD_MACHINES[self.machine](sets=self.sets)


@document("fleet_spec", root="fleet")
@dataclass(frozen=True)
class FleetSpec:
    """A heterogeneous machine inventory (ordered groups with counts)."""

    groups: Tuple[MachineGroup, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ConfigurationError("a fleet needs at least one machine group")
        for group in self.groups:
            if not isinstance(group, MachineGroup):
                raise ConfigurationError(
                    f"fleet groups must be MachineGroup instances, got "
                    f"{type(group).__name__}"
                )

    @classmethod
    def single(
        cls,
        machine: str,
        *,
        sets: int = 128,
        power_cap_watts: Optional[float] = None,
    ) -> "FleetSpec":
        """A one-machine fleet (the paper's single-machine problem)."""
        return cls(
            groups=(
                MachineGroup(
                    machine=machine,
                    count=1,
                    sets=sets,
                    power_cap_watts=power_cap_watts,
                ),
            )
        )

    @property
    def total_machines(self) -> int:
        return sum(group.count for group in self.groups)

    @property
    def total_cores(self) -> int:
        return sum(
            group.count * group.topology().num_cores for group in self.groups
        )
