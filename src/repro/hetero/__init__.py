"""Heterogeneous core types, DVFS P-states, and hetero state pricing."""

from repro.hetero.model import HeteroPricer, HeteroState
from repro.hetero.types import (
    BIG_CORE,
    CORE_TYPE_CATALOG,
    LITTLE_CORE,
    CoreType,
    HeteroMachineSpec,
    OperatingPoint,
    PState,
    big_little_spec,
    unit_spec,
)

__all__ = [
    "BIG_CORE",
    "CORE_TYPE_CATALOG",
    "LITTLE_CORE",
    "CoreType",
    "HeteroMachineSpec",
    "HeteroPricer",
    "HeteroState",
    "OperatingPoint",
    "PState",
    "big_little_spec",
    "unit_spec",
]
