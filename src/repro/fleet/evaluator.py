"""Memoised per-machine evaluation behind the fleet solvers.

The expensive part of pricing a fleet placement is the equilibrium
solve behind each co-run combination.  Two structural facts make
fleet-scale search tractable:

- Machine scores decompose: a fleet candidate's power/throughput is
  the sum of independent per-machine estimates, so the solvers only
  ever need ``(watts, ips)`` for a *single machine state*.
- Co-run combinations are tiny: the combined model evaluates one
  process per busy core of a cache domain, and every standard machine
  has at most two cores per domain — so every solve the search can
  possibly trigger is a co-run of at most ``domain width`` names.

:class:`FleetEvaluator` exploits both.  :meth:`prime` solves the full
co-run closure (every name multiset up to the widest domain) as one
batch through :class:`~repro.parallel.ParallelPredictor` — bit-equal
to the scalar solver — after which every machine-state evaluation is
pure cached arithmetic.  States themselves are memoised by canonical
key, shared across the interchangeable machines of a group, so greedy
packing and annealing over 10k+ processes re-price only states they
have never seen.

All equilibrium caches are built with ``warm_start=False``: solves are
order-independent, which is what makes scores bit-identical across
solvers and runs (the determinism the tests pin).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.combined import CombinedModel
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.performance_model import PerformanceModel
from repro.core.power_model import CorePowerModel
from repro.core.solver_cache import EquilibriumCache
from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec
from repro.hetero.model import (
    HeteroPricer,
    HeteroState,
    canonical_hetero_state,
)
from repro.hetero.types import HeteroMachineSpec
from repro.machine.topology import MachineTopology
from repro.obs import get_observer
from repro.parallel import ParallelPredictor

__all__ = [
    "CANONICAL_OBJECTIVES",
    "OBJECTIVE_ALIASES",
    "FleetEvaluator",
    "canonical_objective",
    "canonical_state",
    "fleet_score",
]

#: Fleet-level objectives (scores are minimised).
CANONICAL_OBJECTIVES = (
    "min-power",
    "max-throughput",
    "min-energy-per-instruction",
    "throughput-under-watts-budget",
)

#: Single-machine objective names accepted for compatibility with
#: :data:`repro.core.assignment.OBJECTIVES`.
OBJECTIVE_ALIASES = {
    "power": "min-power",
    "throughput": "max-throughput",
    "energy_per_instruction": "min-energy-per-instruction",
}


def canonical_objective(objective: str) -> str:
    """Resolve an objective name (canonical or legacy alias)."""
    resolved = OBJECTIVE_ALIASES.get(objective, objective)
    if resolved not in CANONICAL_OBJECTIVES:
        known = sorted(CANONICAL_OBJECTIVES) + sorted(OBJECTIVE_ALIASES)
        raise ConfigurationError(
            f"unknown objective {objective!r}; choose from {known}"
        )
    return resolved


def fleet_score(
    objective: str,
    watts: float,
    ips: float,
    power_budget_watts: Optional[float] = None,
) -> float:
    """Fleet-level score (minimised) of aggregate ``(watts, ips)``.

    A global power budget is a hard constraint: exceeding it scores
    ``inf`` under every objective, so budget-violating candidates can
    never win a search.
    """
    if power_budget_watts is not None and watts > power_budget_watts:
        return float("inf")
    if objective == "min-power":
        return watts
    if objective == "max-throughput":
        return -ips
    if objective == "min-energy-per-instruction":
        return watts / ips if ips > 0 else float("inf")
    if objective == "throughput-under-watts-budget":
        return -ips
    raise ConfigurationError(f"unknown canonical objective {objective!r}")


#: Canonical machine state: ``((core, sorted names), ...)`` sorted by
#: core, idle cores dropped.
MachineState = Tuple[Tuple[int, Tuple[str, ...]], ...]


def canonical_state(assignment: Mapping[int, Sequence[str]]) -> MachineState:
    """Order-insensitive key (and scoring form) of a machine assignment.

    Names within a core are sorted before scoring as well as keying:
    time-sharing order cannot change the model's estimate
    mathematically, but it changes float summation order — scoring the
    canonical form is what keeps memoised scores bit-stable.
    """
    return tuple(
        sorted(
            (int(core), tuple(sorted(names)))
            for core, names in assignment.items()
            if names
        )
    )


@dataclass
class _MachineConfig:
    """Shared evaluation state for one ``(machine, sets, hetero)`` triple."""

    machine: str
    sets: int
    topology: MachineTopology
    combined: CombinedModel
    idle_watts: float
    num_cores: int
    width: int  #: widest cache domain (max co-run size on this machine)
    key_id: int = 0  #: unique per distinct config; memo key component
    hetero: Optional[HeteroMachineSpec] = None
    pricer: Optional[HeteroPricer] = None


class FleetEvaluator:
    """Shared, memoised ``(watts, ips)`` oracle for fleet searches.

    Args:
        features: ``name -> FeatureVector`` of every process the
            request may name.
        profiles: ``name -> ProfileVector`` (P_alone and the
            per-instruction rates of Eq. 9).
        power_model: Fitted per-core power model.
        fleet: The machine inventory being packed.
        strategy: Equilibrium solver strategy.
    """

    def __init__(
        self,
        features: Mapping[str, FeatureVector],
        profiles: Mapping[str, ProfileVector],
        power_model: CorePowerModel,
        fleet: FleetSpec,
        *,
        strategy: str = "auto",
    ):
        self.features = dict(features)
        self.profiles = dict(profiles)
        self.power_model = power_model
        self.fleet = fleet
        self.strategy = strategy
        self._models_by_ways: Dict[int, PerformanceModel] = {}
        self._caches_by_ways: Dict[int, EquilibriumCache] = {}
        self._configs: Dict[
            Tuple[str, int, Optional[HeteroMachineSpec]], _MachineConfig
        ] = {}
        self.group_configs: List[_MachineConfig] = [
            self._config_for(group.machine, group.sets, group.hetero)
            for group in fleet.groups
        ]
        # (config key_id, state) -> (watts, ips); machines of a group
        # are interchangeable, so one entry serves them all.
        self._state_memo: Dict[
            Tuple[int, Union[MachineState, HeteroState]], Tuple[float, float]
        ] = {}
        self.evaluations = 0  #: machine states priced by the model
        self.lookups = 0  #: machine-state queries (memo hits included)

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def _model_for(self, ways: int) -> PerformanceModel:
        model = self._models_by_ways.get(ways)
        if model is None:
            cache = EquilibriumCache(warm_start=False)
            model = PerformanceModel(
                ways=ways, strategy=self.strategy, cache=cache
            )
            model.register_all(list(self.features.values()))
            self._models_by_ways[ways] = model
            self._caches_by_ways[ways] = cache
        return model

    def _config_for(
        self,
        machine: str,
        sets: int,
        hetero: Optional[HeteroMachineSpec] = None,
    ) -> _MachineConfig:
        key = (machine, sets, hetero)
        config = self._configs.get(key)
        if config is None:
            from repro.machine.topology import STANDARD_MACHINES

            topology = STANDARD_MACHINES[machine](sets=sets)
            combined = CombinedModel(
                topology=topology,
                performance_models=[
                    self._model_for(domain.geometry.ways)
                    for domain in topology.domains
                ],
                power_model=self.power_model,
                profiles=self.profiles,
                corun_cache=EquilibriumCache(warm_start=False),
            )
            pricer = None
            idle_watts = topology.num_cores * self.power_model.p_idle
            if hetero is not None:
                pricer = HeteroPricer(
                    hetero, topology, combined, self.profiles
                )
                # For a unit spec this is the same float expression as
                # the homogeneous branch (parity); otherwise it sums
                # the per-core deepest-P-state idle draws.
                idle_watts = pricer.idle_watts
            config = _MachineConfig(
                machine=machine,
                sets=sets,
                topology=topology,
                combined=combined,
                idle_watts=idle_watts,
                num_cores=topology.num_cores,
                width=max(len(d.core_ids) for d in topology.domains),
                key_id=len(self._configs),
                hetero=hetero,
                pricer=pricer,
            )
            self._configs[key] = config
        return config

    # ------------------------------------------------------------------
    # Closure priming (the ParallelPredictor fan-out)
    # ------------------------------------------------------------------
    def check_processes(self, names: Sequence[str]) -> None:
        unknown = sorted(
            {n for n in names if n not in self.features or n not in self.profiles}
        )
        if unknown:
            raise ConfigurationError(
                f"unknown processes {unknown}; profiled suite knows "
                f"{sorted(self.features)}"
            )

    def closure_mixes(self, names: Sequence[str]) -> List[Tuple[str, ...]]:
        """Every co-run the fleet's machines can force the model to price.

        A cache domain co-runs one process per busy core, so the
        closure is all name multisets up to the widest domain — a few
        hundred mixes for a realistic suite, independent of how many
        *instances* the request packs.
        """
        width = max(config.width for config in self._configs.values())
        distinct = sorted(set(names))
        mixes: List[Tuple[str, ...]] = []
        for size in range(1, width + 1):
            mixes.extend(itertools.combinations_with_replacement(distinct, size))
        return mixes

    def prime(self, names: Sequence[str]) -> int:
        """Solve the co-run closure up front as one batch per cache.

        Returns the number of mixes primed.  Optional for correctness
        (cold-start caches make later on-demand solves bit-identical);
        it exists so fleet-scale searches pay the equilibrium solves
        once, through the stacked batch solver.
        """
        self.check_processes(names)
        if not names:
            return 0
        mixes = self.closure_mixes(names)
        observer = get_observer()
        if observer.enabled:
            with observer.span(
                "fleet.prime",
                mixes=len(mixes),
                ways=len(self._models_by_ways),
            ):
                primed = self._prime_impl(mixes)
            observer.counter("fleet.primed_mixes").inc(primed)
            return primed
        return self._prime_impl(mixes)

    def _prime_impl(self, mixes: List[Tuple[str, ...]]) -> int:
        primed = 0
        for ways, cache in sorted(self._caches_by_ways.items()):
            with ParallelPredictor(
                self.features, ways=ways, strategy=self.strategy, cache=cache
            ) as predictor:
                predictions = predictor.predict_mixes(mixes)
            primed += len(predictions)
            # Seed each combined model's operating-point cache so
            # machine scoring never re-enters the predictor.
            for config in self._configs.values():
                for domain_idx, domain in enumerate(config.topology.domains):
                    if domain.geometry.ways != ways:
                        continue
                    for mix, prediction in zip(mixes, predictions):
                        if len(mix) > len(domain.core_ids):
                            continue
                        config.combined.seed_corun(
                            domain_idx,
                            mix,
                            {
                                p.name: (p.spi, p.l2mpr)
                                for p in prediction.processes
                            },
                        )
        return primed

    # ------------------------------------------------------------------
    # Machine-state pricing
    # ------------------------------------------------------------------
    def idle_watts(self, group_index: int) -> float:
        """Predicted power of an idle machine of one group."""
        return self.group_configs[group_index].idle_watts

    def total_idle_watts(self) -> float:
        """Fleet power with every machine idle (the search's floor)."""
        return sum(
            group.count * config.idle_watts
            for group, config in zip(self.fleet.groups, self.group_configs)
        )

    def machine_metrics(
        self,
        group_index: int,
        assignment: Mapping[int, Sequence[str]],
        pstate_of: Optional[Mapping[int, int]] = None,
    ) -> Tuple[float, float]:
        """Memoised ``(watts, ips)`` of one machine of a group.

        For hetero groups, ``pstate_of`` maps busy cores to P-state
        indices (missing cores default to index 0, the nominal state).
        """
        config = self.group_configs[group_index]
        if config.hetero is not None:
            pstates = dict(pstate_of or {})
            state: Union[MachineState, HeteroState] = canonical_hetero_state(
                assignment,
                {
                    core: pstates.get(core, 0)
                    for core, names in assignment.items()
                    if names
                },
            )
        else:
            state = canonical_state(assignment)
        return self.state_metrics(config, state)

    def state_metrics(
        self,
        config: _MachineConfig,
        state: Union[MachineState, HeteroState],
    ) -> Tuple[float, float]:
        """``(watts, ips)`` of a canonical machine state (memoised).

        Hetero configs take :data:`~repro.hetero.model.HeteroState`
        (``(core, names, pstate_index)`` entries) and price through the
        config's :class:`~repro.hetero.model.HeteroPricer`; homogeneous
        configs keep the two-element entries and the original path.
        """
        self.lookups += 1
        if not state:
            return (config.idle_watts, 0.0)
        key = (config.key_id, state)
        cached = self._state_memo.get(key)
        if cached is not None:
            return cached
        if config.pricer is not None:
            watts, ips = config.pricer.state_metrics(state)
        else:
            scoring = {core: list(names) for core, names in state}
            watts = config.combined.estimate_assignment_power(scoring).watts
            ips = config.combined.estimate_assignment_throughput(scoring)
        self.evaluations += 1
        result = (float(watts), float(ips))
        self._state_memo[key] = result
        return result
