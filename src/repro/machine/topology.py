"""Machine topologies: which cores share which last-level cache.

The paper validates on three Intel machines.  We model each as a
frequency- and capacity-scaled configuration (see DESIGN.md §2): the
associativity and cache-sharing topology — the quantities the model
actually reasons about — match the real parts, while set counts and
the clock are scaled so pure-Python simulation is tractable.  All
time constants used elsewhere (timeslice, HPC period) are scaled by
the same frequency ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.config import CacheGeometry
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheDomain:
    """A group of cores sharing one last-level cache."""

    core_ids: Tuple[int, ...]
    geometry: CacheGeometry

    def __post_init__(self) -> None:
        if not self.core_ids:
            raise ConfigurationError("a cache domain needs at least one core")
        if len(set(self.core_ids)) != len(self.core_ids):
            raise ConfigurationError("duplicate core ids in a cache domain")


@dataclass(frozen=True)
class MachineTopology:
    """A multi-core machine description.

    Attributes:
        name: Human-readable machine name.
        frequency_hz: Nominal core clock (scaled; see module docstring).
        domains: Cache-sharing domains partitioning the cores.
        nominal_power_watts: Rough full-load processor power, used to
            parameterise the hidden reference power model.
        core_frequency_scales: Optional per-core clock multipliers for
            heterogeneous (big.LITTLE-style) machines; empty means all
            cores run at ``frequency_hz``.  The paper claims its models
            "accommodate heterogeneous tasks and processors" — this is
            the knob that exercises that claim.
    """

    name: str
    frequency_hz: float
    domains: Tuple[CacheDomain, ...]
    nominal_power_watts: float
    core_frequency_scales: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigurationError("frequency_hz must be positive")
        if self.nominal_power_watts <= 0:
            raise ConfigurationError("nominal_power_watts must be positive")
        if not self.domains:
            raise ConfigurationError("a machine needs at least one cache domain")
        seen = set()
        for domain in self.domains:
            overlap = seen.intersection(domain.core_ids)
            if overlap:
                raise ConfigurationError(f"cores {sorted(overlap)} appear in two domains")
            seen.update(domain.core_ids)
        expected = set(range(len(seen)))
        if seen != expected:
            raise ConfigurationError("core ids must be exactly 0..N-1")
        if self.core_frequency_scales:
            if len(self.core_frequency_scales) != len(seen):
                raise ConfigurationError(
                    "core_frequency_scales must have one entry per core"
                )
            if any(scale <= 0 for scale in self.core_frequency_scales):
                raise ConfigurationError("core frequency scales must be positive")

    @cached_property
    def num_cores(self) -> int:
        # Cached in the instance dict: dataclass ==, hash and repr
        # read only the fields, so they do not see it.
        return sum(len(d.core_ids) for d in self.domains)

    @property
    def heterogeneous(self) -> bool:
        """True if cores run at different clock rates."""
        return bool(self.core_frequency_scales) and len(
            set(self.core_frequency_scales)
        ) > 1

    def core_frequency(self, core: int) -> float:
        """Clock rate of one core (Hz)."""
        if not 0 <= core < self.num_cores:
            raise ConfigurationError(f"core {core} out of range")
        if not self.core_frequency_scales:
            return self.frequency_hz
        return self.frequency_hz * self.core_frequency_scales[core]

    def domain_of(self, core: int) -> CacheDomain:
        """The cache domain containing ``core``."""
        for domain in self.domains:
            if core in domain.core_ids:
                return domain
        raise ConfigurationError(f"core {core} not in any domain")

    def domain_index_of(self, core: int) -> int:
        """Index into :attr:`domains` of the domain containing ``core``."""
        for idx, domain in enumerate(self.domains):
            if core in domain.core_ids:
                return idx
        raise ConfigurationError(f"core {core} not in any domain")

    def partners_of(self, core: int) -> Tuple[int, ...]:
        """Cores sharing the last-level cache with ``core`` (paper: PS_C)."""
        domain = self.domain_of(core)
        return tuple(c for c in domain.core_ids if c != core)


#: Frequency scale factor applied to the real machines (2.4 GHz-class
#: parts modeled at 200 MHz); time constants elsewhere scale alike.
FREQUENCY_SCALE = 1.0 / 12.0


def four_core_server(sets: int = 256) -> MachineTopology:
    """The paper's "4-core server": Intel Core 2 Quad Q6600.

    Two dies, two cores per die, each die pair sharing a 16-way L2
    (8 MB total on the real part; set-scaled here).
    """
    geometry = CacheGeometry(sets=sets, ways=16)
    return MachineTopology(
        name="4-core-server",
        frequency_hz=2.4e9 * FREQUENCY_SCALE,
        domains=(
            CacheDomain(core_ids=(0, 1), geometry=geometry),
            CacheDomain(core_ids=(2, 3), geometry=geometry),
        ),
        nominal_power_watts=105.0,
    )


def two_core_workstation(sets: int = 256) -> MachineTopology:
    """The paper's "2-core workstation": Pentium Dual Core E2220.

    Two cores sharing a 4-way 1 MB L2 (set-scaled here).
    """
    geometry = CacheGeometry(sets=sets, ways=4)
    return MachineTopology(
        name="2-core-workstation",
        frequency_hz=2.4e9 * FREQUENCY_SCALE,
        domains=(CacheDomain(core_ids=(0, 1), geometry=geometry),),
        nominal_power_watts=65.0,
    )


def two_core_laptop(sets: int = 256) -> MachineTopology:
    """The paper's second performance machine: Core 2 Duo "P6800".

    Two cores sharing a 12-way 3 MB L2 (set-scaled here).
    """
    geometry = CacheGeometry(sets=sets, ways=12)
    return MachineTopology(
        name="2-core-laptop",
        frequency_hz=2.13e9 * FREQUENCY_SCALE,
        domains=(CacheDomain(core_ids=(0, 1), geometry=geometry),),
        nominal_power_watts=44.0,
    )


def heterogeneous_server(sets: int = 256, slow_scale: float = 0.5) -> MachineTopology:
    """A big.LITTLE-style variant of the 4-core server.

    Die 0 keeps the nominal clock; die 1 runs at ``slow_scale`` of it.
    Used by the heterogeneity extension experiment.
    """
    base = four_core_server(sets=sets)
    return MachineTopology(
        name="hetero-server",
        frequency_hz=base.frequency_hz,
        domains=base.domains,
        nominal_power_watts=base.nominal_power_watts,
        core_frequency_scales=(1.0, slow_scale, 1.0, slow_scale),
    )


STANDARD_MACHINES = {
    "4-core-server": four_core_server,
    "2-core-workstation": two_core_workstation,
    "2-core-laptop": two_core_laptop,
    "hetero-server": heterogeneous_server,
}
