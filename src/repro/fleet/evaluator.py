"""Memoised per-machine evaluation behind the fleet solvers.

The expensive part of pricing a fleet placement is the equilibrium
solve behind each co-run combination.  Three structural facts make
fleet-scale search tractable:

- Machine scores decompose: a fleet candidate's power/throughput is
  the sum of independent per-machine estimates, so the solvers only
  ever need ``(watts, ips)`` for a *single machine state*.
- Co-run combinations are tiny: the combined model evaluates one
  process per busy core of a cache domain, and every standard machine
  has at most two cores per domain — so every solve the search can
  possibly trigger is a co-run of at most ``domain width`` names.
- A co-run's equilibrium depends only on the profiles, not on the
  request: it belongs to the suite.

:class:`FleetEvaluator` exploits all three.  It takes its models from a
:class:`SolvedCoRuns` store: one performance model per cache
associativity, and one ``CombinedModel`` (with its
``HeteroPricer``) per machine config, which memoises each cache
domain's part of a state estimate in a plain dict keyed on the
canonical state's entries on that domain (``(core, names)``, or
``(core, names, P-state index)`` on hetero configs).  The key holds
no operating point and a lookup takes no lock, so a state the request
has not seen costs one C-level lookup per domain the store has priced
before.  A
:class:`~repro.api.ProfileSuiteResult` owns one store for as long as
the suite object lives, so every solve on that suite reuses the
co-runs and domain prices earlier solves computed; a bare-mapping
:func:`repro.fleet.solve` builds a private store per call.
:meth:`FleetEvaluator.prime` prices the unit-clock co-run closure
(every name multiset up to the widest domain) as one batch per model,
sending only the mixes the store has not primed on that model before:
nothing once the store is warm, and only the mixes holding a new name
when a request adds one.  Co-runs at non-unit P-states are solved
lazily, one at a time, the first time any solve on the store needs
them.  States themselves are memoised per request by canonical key,
shared across the interchangeable machines of a group, so greedy
packing and annealing over 10k+ processes re-price only states they
have never seen, and a plan's ``evaluations`` count does not depend
on what the store already holds.  The search hands this memo
canonical states it splices from each machine's known state (one
core's entry rebuilt per trial, :mod:`repro.fleet.solver`), equal to
what :func:`canonical_state` builds from the edited assignment.  The greedy solver adds its own
per-request memo of each state's candidate scan on top
(:func:`repro.fleet.solver._solve_greedy`).

Every equilibrium solve starts Newton cold, from the co-run alone:
solves are order-independent, which is what makes scores bit-identical
across solvers, runs, and cold or warm stores (the determinism the
tests pin).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.combined import CombinedModel
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.performance_model import PerformanceModel
from repro.core.power_model import CorePowerModel
from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec
from repro.hetero.model import HeteroPricer, HeteroState
from repro.hetero.types import HeteroMachineSpec
from repro.machine.topology import MachineTopology
from repro.obs import get_observer

__all__ = [
    "CANONICAL_OBJECTIVES",
    "OBJECTIVE_ALIASES",
    "FleetEvaluator",
    "SolvedCoRuns",
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


def canonical_state(
    assignment: Mapping[int, Sequence[str]],
    pstate_of: Optional[Mapping[int, int]] = None,
) -> Union[MachineState, HeteroState]:
    """Order-insensitive key (and scoring form) of a machine assignment.

    Names within a core are sorted before scoring as well as keying:
    time-sharing order cannot change the model's estimate
    mathematically, but it changes float summation order — scoring the
    canonical form is what keeps memoised scores bit-stable.

    With ``pstate_of`` (hetero machines) each busy core's entry also
    carries its P-state index, defaulting to 0 (nominal) where unset:
    a :data:`~repro.hetero.model.HeteroState`.
    """
    if pstate_of is None:
        return tuple(
            sorted(
                (int(core), tuple(sorted(names)))
                for core, names in assignment.items()
                if names
            )
        )
    return tuple(
        sorted(
            (int(core), tuple(sorted(names)), int(pstate_of.get(core, 0)))
            for core, names in assignment.items()
            if names
        )
    )


class SolvedCoRuns:
    """Performance models and state pricers kept for the life of their owner.

    Holds one :class:`PerformanceModel` per associativity ``ways``,
    each over its own equilibrium cache, so every solve that shares the
    store reuses the co-runs earlier solves priced.  Solves start cold
    and do not depend on what the cache holds, so reuse cannot change
    an answer.  It also keeps one ``CombinedModel`` (and
    ``HeteroPricer``) per machine config, whose per-domain memo lets
    later solves skip the states earlier ones priced.

    A model is served only while the features it registered are the
    very objects the caller holds now: replace any of them and the
    next :meth:`model` call builds a fresh model in its place.  A
    config's pricing is served only while its power model, fit,
    profiles and performance models are still the caller's.  Each
    stored model also records the unit-clock mixes :meth:`prime` has
    batch-solved on it; a rebuilt model starts with an empty record.
    One lock guards both tables and every :meth:`prime` (the batch
    solver's table registry is not thread-safe); the scalar
    ``predict`` path is safe to share through the locked cache.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # ways -> (registered features, model, unit-clock mixes
        # batch-solved on that model).
        self._models: Dict[
            int,
            Tuple[Dict[str, FeatureVector], PerformanceModel, Set[Tuple[str, ...]]],
        ] = {}
        self._pricing: Dict[
            Tuple[str, int, Optional[HeteroMachineSpec]],
            Tuple[Tuple, CombinedModel, Optional[HeteroPricer]],
        ] = {}

    def model(
        self, ways: int, features: Mapping[str, FeatureVector]
    ) -> PerformanceModel:
        """The stored model for ``ways`` over ``features``."""
        with self._lock:
            entry = self._models.get(ways)
            if entry is not None:
                registered, model, _primed = entry
                if _same_objects(registered, features):
                    return model
            model = PerformanceModel(ways=ways)
            model.register_all(list(features.values()))
            # The snapshot pins the feature objects, so an identity
            # match can never be a recycled id.
            self._models[ways] = (dict(features), model, set())
            return model

    def pricing(
        self,
        machine: str,
        sets: int,
        topology: MachineTopology,
        hetero: Optional[HeteroMachineSpec],
        models: Sequence[PerformanceModel],
        power_model: CorePowerModel,
        profiles: Mapping[str, ProfileVector],
    ) -> Tuple[CombinedModel, Optional[HeteroPricer]]:
        """The stored state pricing of one machine config.

        ``models`` are the per-domain performance models :meth:`model`
        serves now.  ``CorePowerModel.fit`` refits in place, so the
        coefficients are matched along with the power model's identity.
        """
        key = (machine, sets, hetero)
        fit = (power_model.p_idle, tuple(power_model.coefficients.values()))
        with self._lock:
            entry = self._pricing.get(key)
            if entry is not None:
                (held_power, held_fit, held_models), combined, pricer = entry
                if (
                    held_power is power_model
                    and held_fit == fit
                    and all(a is b for a, b in zip(held_models, models))
                    and _same_objects(combined.profiles, profiles)
                ):
                    return combined, pricer
            combined = CombinedModel(
                topology=topology,
                performance_models=models,
                power_model=power_model,
                profiles=profiles,
            )
            pricer = (
                None if hetero is None else HeteroPricer(hetero, topology, combined)
            )
            self._pricing[key] = ((power_model, fit, tuple(models)), combined, pricer)
            return combined, pricer

    def prime(
        self, model: PerformanceModel, mixes: Sequence[Tuple[str, ...]]
    ) -> int:
        """Batch-solve the ``mixes`` not yet primed on ``model``.

        Returns how many mixes went to ``model.predict_batch`` (0 once
        every one is recorded).  A model no longer stored (a newer
        request replaced it) keeps no record, so all of ``mixes`` go.
        The record outlives LRU eviction: an evicted co-run is solved
        lazily from a cold start, to the same bits.
        """
        with self._lock:
            primed: Set[Tuple[str, ...]] = next(
                (
                    record
                    for _features, held, record in self._models.values()
                    if held is model
                ),
                set(),
            )
            missing = [mix for mix in mixes if mix not in primed]
            if missing:
                model.predict_batch(missing)
                primed.update(missing)
            return len(missing)


def _same_objects(held: Mapping[str, object], current: Mapping[str, object]) -> bool:
    """Whether ``current`` maps exactly ``held``'s names to the same objects."""
    return len(held) == len(current) and all(
        current.get(name) is value for name, value in held.items()
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
    #: ``state -> (watts, ips)``: the pricer's, else the model's
    #: ``state_metrics``.
    price: Callable[[Union[MachineState, HeteroState]], Tuple[float, float]]
    key_id: int = 0  #: unique per distinct config; memo key component
    hetero: Optional[HeteroMachineSpec] = None


class FleetEvaluator:
    """Shared, memoised ``(watts, ips)`` oracle for fleet searches.

    Args:
        features: ``name -> FeatureVector`` of every process the
            request may name.
        profiles: ``name -> ProfileVector`` (P_alone and the
            per-instruction rates of Eq. 9).
        power_model: Fitted per-core power model.
        fleet: The machine inventory being packed.
        models: Store to take the per-ways performance models from
            (a suite's, so its solved co-runs outlive this request);
            ``None`` builds a private one.
    """

    def __init__(
        self,
        features: Mapping[str, FeatureVector],
        profiles: Mapping[str, ProfileVector],
        power_model: CorePowerModel,
        fleet: FleetSpec,
        *,
        models: Optional[SolvedCoRuns] = None,
    ):
        self.features = dict(features)
        self.profiles = dict(profiles)
        self.power_model = power_model
        self.fleet = fleet
        self._store = models if models is not None else SolvedCoRuns()
        self._models_by_ways: Dict[int, PerformanceModel] = {}
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
            model = self._store.model(ways, self.features)
            self._models_by_ways[ways] = model
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
            combined, pricer = self._store.pricing(
                machine,
                sets,
                topology,
                hetero,
                [self._model_for(domain.geometry.ways) for domain in topology.domains],
                self.power_model,
                self.profiles,
            )
            topology = combined.topology
            idle_watts = topology.num_cores * self.power_model.p_idle
            if pricer is not None:
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
                price=(combined if pricer is None else pricer).state_metrics,
                key_id=len(self._configs),
                hetero=hetero,
            )
            self._configs[key] = config
        return config

    # ------------------------------------------------------------------
    # Closure priming
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
        """Price the unit-clock co-run closure as one batch per model.

        Returns the number of mixes sent to the batch solver: only
        closure mixes the store has not primed on that model before,
        so 0 on a warm store.  Optional for correctness (cold-start
        solves make later on-demand solves bit-identical); it exists so
        fleet-scale searches pay the equilibrium solves once per store,
        through the stacked batch solver.
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
        for _, model in sorted(self._models_by_ways.items()):
            primed += self._store.prime(model, mixes)
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
        pstates = None if config.hetero is None else (pstate_of or {})
        return self.state_metrics(config, canonical_state(assignment, pstates))

    def state_metrics(
        self,
        config: _MachineConfig,
        state: Union[MachineState, HeteroState],
    ) -> Tuple[float, float]:
        """``(watts, ips)`` of a canonical machine state (memoised).

        Hetero configs take :data:`~repro.hetero.model.HeteroState`
        (``(core, names, pstate_index)`` entries) and price through the
        config's :class:`~repro.hetero.model.HeteroPricer`; homogeneous
        configs take two-element entries and price through the
        ``CombinedModel``.  Either way it is one
        ``CombinedModel.state_metrics`` pass over memoised domain parts.
        """
        self.lookups += 1
        if not state:
            return (config.idle_watts, 0.0)
        key = (config.key_id, state)
        cached = self._state_memo.get(key)
        if cached is not None:
            return cached
        result = config.price(state)
        self.evaluations += 1
        self._state_memo[key] = result
        return result
