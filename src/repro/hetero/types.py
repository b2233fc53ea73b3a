"""Heterogeneous core types and DVFS P-states.

The paper's power model (Eq. 9/11) assumes one homogeneous core type at
one fixed clock, but its coefficients are naturally parameterizable by
(core type, frequency): a core design scales the dynamic and static
power terms, and a P-state scales the clock (linear in performance, via
the SPI model's ``frequency_ratio`` hook) and the supply voltage
(quadratic in dynamic power, linear in leakage).

Three frozen value types capture this:

- :class:`PState` — one DVFS operating step: a frequency ratio plus a
  voltage ratio.  The classic CMOS scaling rules give the power
  multipliers: dynamic power scales with ``V^2`` (and with activity,
  which the frequency ratio already moves through the SPI model), static
  power scales with ``V``.
- :class:`CoreType` — a core design (big/little style): a performance
  scale applied on top of the P-state frequency ratio, design-level
  dynamic/static power scales, and the P-state table itself.  P-state
  index 0 is the nominal (default) state.
- :class:`HeteroMachineSpec` — binds a base machine topology to a core
  type per core.  JSON round-trippable via :mod:`repro.io`, hashable so
  fleet evaluator configs can key on it.

The *unit* predicate is load-bearing: a spec whose every operating
point multiplies by exactly 1.0 prices machine states with
``points=None``, the very ``CombinedModel`` arithmetic a plain machine
uses, which is what makes the homogeneous-parity pin bit-exact rather
than merely close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.io import document
from repro.machine.topology import STANDARD_MACHINES


@dataclass(frozen=True)
class OperatingPoint:
    """Resolved (core type x P-state) multipliers for one core.

    ``frequency_ratio`` feeds the SPI model (performance), the two
    power multipliers feed the hetero pricing of Eq. 9/11 terms.
    """

    frequency_ratio: float
    dynamic_multiplier: float
    static_multiplier: float

    @property
    def is_unit(self) -> bool:
        return (
            self.frequency_ratio == 1.0
            and self.dynamic_multiplier == 1.0
            and self.static_multiplier == 1.0
        )


@dataclass(frozen=True)
class PState:
    """One DVFS step: clock ratio plus voltage ratio vs. nominal."""

    name: str
    frequency_ratio: float = 1.0
    voltage_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("pstate name must be non-empty")
        if not self.frequency_ratio > 0:
            raise ConfigurationError(
                f"pstate {self.name!r}: frequency_ratio must be positive, "
                f"got {self.frequency_ratio}"
            )
        if not self.voltage_ratio > 0:
            raise ConfigurationError(
                f"pstate {self.name!r}: voltage_ratio must be positive, "
                f"got {self.voltage_ratio}"
            )

    @property
    def dynamic_multiplier(self) -> float:
        """Dynamic power multiplier from voltage scaling (V^2)."""
        return self.voltage_ratio * self.voltage_ratio

    @property
    def static_multiplier(self) -> float:
        """Static/leakage power multiplier from voltage scaling (V)."""
        return self.voltage_ratio

    @property
    def is_unit(self) -> bool:
        return self.frequency_ratio == 1.0 and self.voltage_ratio == 1.0


_NOMINAL = (PState("nominal", 1.0, 1.0),)


@dataclass(frozen=True)
class CoreType:
    """A core design: performance/power scales plus its P-state table.

    ``perf_scale`` multiplies the P-state frequency ratio to give the
    effective SPI-model frequency ratio (a little core at nominal clock
    still retires work slower than the big baseline).  The power scales
    are design-level multipliers applied on top of the P-state voltage
    multipliers.  P-state index 0 is the default operating state.
    """

    name: str
    perf_scale: float = 1.0
    dynamic_scale: float = 1.0
    static_scale: float = 1.0
    pstates: Tuple[PState, ...] = field(default=_NOMINAL)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("core type name must be non-empty")
        for label, value in (
            ("perf_scale", self.perf_scale),
            ("dynamic_scale", self.dynamic_scale),
            ("static_scale", self.static_scale),
        ):
            if not value > 0:
                raise ConfigurationError(
                    f"core type {self.name!r}: {label} must be positive, "
                    f"got {value}"
                )
        object.__setattr__(self, "pstates", tuple(self.pstates))
        if not self.pstates:
            raise ConfigurationError(
                f"core type {self.name!r} needs at least one pstate"
            )
        seen = set()
        for pstate in self.pstates:
            if not isinstance(pstate, PState):
                raise ConfigurationError(
                    f"core type {self.name!r}: pstates must be PState "
                    f"instances, got {type(pstate).__name__}"
                )
            if pstate.name in seen:
                raise ConfigurationError(
                    f"core type {self.name!r}: duplicate pstate name "
                    f"{pstate.name!r}"
                )
            seen.add(pstate.name)

    def operating_point(self, pstate_index: int) -> OperatingPoint:
        if not 0 <= pstate_index < len(self.pstates):
            raise ConfigurationError(
                f"core type {self.name!r}: pstate index {pstate_index} out "
                f"of range [0, {len(self.pstates)})"
            )
        pstate = self.pstates[pstate_index]
        return OperatingPoint(
            frequency_ratio=self.perf_scale * pstate.frequency_ratio,
            dynamic_multiplier=self.dynamic_scale * pstate.dynamic_multiplier,
            static_multiplier=self.static_scale * pstate.static_multiplier,
        )

    @property
    def is_unit(self) -> bool:
        """True when every operating point multiplies by exactly 1.0."""
        return all(
            self.operating_point(index).is_unit
            for index in range(len(self.pstates))
        )

    @property
    def idle_pstate_index(self) -> int:
        """Deepest P-state: minimal static multiplier, earliest index wins.

        Idle cores are priced here — the race-to-idle assumption that a
        parked core drops to its lowest-leakage operating state.
        """
        best = 0
        best_static = self.operating_point(0).static_multiplier
        for index in range(1, len(self.pstates)):
            static = self.operating_point(index).static_multiplier
            if static < best_static:
                best, best_static = index, static
        return best


@document("hetero_machine_spec")
@dataclass(frozen=True)
class HeteroMachineSpec:
    """Core types bound to the cores of a standard machine topology.

    ``core_type_of`` maps each core id of the base machine to an index
    into ``core_types``.  Frozen and hashable so evaluator machine
    configs can be keyed by (machine, sets, hetero spec).
    """

    machine: str
    core_types: Tuple[CoreType, ...]
    core_type_of: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.machine not in STANDARD_MACHINES:
            known = ", ".join(sorted(STANDARD_MACHINES))
            raise ConfigurationError(
                f"unknown machine {self.machine!r}; choose from {known}"
            )
        object.__setattr__(self, "core_types", tuple(self.core_types))
        object.__setattr__(
            self, "core_type_of", tuple(int(i) for i in self.core_type_of)
        )
        if not self.core_types:
            raise ConfigurationError("hetero spec needs at least one core type")
        seen = set()
        for core_type in self.core_types:
            if not isinstance(core_type, CoreType):
                raise ConfigurationError(
                    "core_types must be CoreType instances, got "
                    f"{type(core_type).__name__}"
                )
            if core_type.name in seen:
                raise ConfigurationError(
                    f"duplicate core type name {core_type.name!r}"
                )
            seen.add(core_type.name)
        num_cores = STANDARD_MACHINES[self.machine]().num_cores
        if len(self.core_type_of) != num_cores:
            raise ConfigurationError(
                f"core_type_of must list one core type index per core: "
                f"machine {self.machine!r} has {num_cores} cores, got "
                f"{len(self.core_type_of)} entries"
            )
        for core, index in enumerate(self.core_type_of):
            if not 0 <= index < len(self.core_types):
                raise ConfigurationError(
                    f"core {core}: core type index {index} out of range "
                    f"[0, {len(self.core_types)})"
                )

    @property
    def num_cores(self) -> int:
        return len(self.core_type_of)

    def core_type(self, core: int) -> CoreType:
        if not 0 <= core < len(self.core_type_of):
            raise ConfigurationError(
                f"core {core} out of range [0, {len(self.core_type_of)})"
            )
        return self.core_types[self.core_type_of[core]]

    def operating_point(self, core: int, pstate_index: int) -> OperatingPoint:
        return self.core_type(core).operating_point(pstate_index)

    @property
    def pstate_counts(self) -> Tuple[int, ...]:
        """Per-core P-state count, in core id order."""
        return tuple(
            len(self.core_types[index].pstates) for index in self.core_type_of
        )

    @property
    def has_pstate_choice(self) -> bool:
        """True when any core has more than one P-state to pick from."""
        return any(count > 1 for count in self.pstate_counts)

    @property
    def is_unit(self) -> bool:
        """True when every core's every operating point is exactly 1.0.

        Unit specs price states with the plain machine's call
        (``points=None``), which keeps them bit-identical to it.
        """
        return all(core_type.is_unit for core_type in self.core_types)


# Catalog of big/little-style core designs.  The big core is the paper's
# measured baseline (unit scales at nominal); the little core trades
# ~40 % of per-clock performance for a much smaller power envelope.
# P-state tables follow the classic near-linear frequency/voltage
# ladder: each step drops the clock and shaves the supply voltage.
BIG_CORE = CoreType(
    name="big",
    perf_scale=1.0,
    dynamic_scale=1.0,
    static_scale=1.0,
    pstates=(
        PState("p0", frequency_ratio=1.0, voltage_ratio=1.0),
        PState("p1", frequency_ratio=0.8, voltage_ratio=0.9),
        PState("p2", frequency_ratio=0.6, voltage_ratio=0.8),
    ),
)

LITTLE_CORE = CoreType(
    name="little",
    perf_scale=0.6,
    dynamic_scale=0.45,
    static_scale=0.55,
    pstates=(
        PState("p0", frequency_ratio=1.0, voltage_ratio=1.0),
        PState("p1", frequency_ratio=0.7, voltage_ratio=0.85),
    ),
)

CORE_TYPE_CATALOG: Dict[str, CoreType] = {
    BIG_CORE.name: BIG_CORE,
    LITTLE_CORE.name: LITTLE_CORE,
}


def big_little_spec(machine: str = "4-core-server") -> HeteroMachineSpec:
    """A big.LITTLE layout for ``machine``: even cores big, odd little."""
    if machine not in STANDARD_MACHINES:
        known = ", ".join(sorted(STANDARD_MACHINES))
        raise ConfigurationError(
            f"unknown machine {machine!r}; choose from {known}"
        )
    num_cores = STANDARD_MACHINES[machine]().num_cores
    return HeteroMachineSpec(
        machine=machine,
        core_types=(BIG_CORE, LITTLE_CORE),
        core_type_of=tuple(core % 2 for core in range(num_cores)),
    )


def unit_spec(machine: str = "4-core-server") -> HeteroMachineSpec:
    """A single unit core type at one unit P-state.

    The homogeneous-parity fixture: solving with this spec must be
    bit-identical to solving the plain machine.
    """
    num_cores = STANDARD_MACHINES[machine]().num_cores
    return HeteroMachineSpec(
        machine=machine,
        core_types=(CoreType(name="baseline"),),
        core_type_of=(0,) * num_cores,
    )
