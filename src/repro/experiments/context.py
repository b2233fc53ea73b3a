"""Shared experiment setup with caching.

Profiling a benchmark suite costs O(suite × associativity) simulator
runs and the power model costs another batch of training runs; several
tables need the same artefacts.  :class:`ExperimentContext` builds each
artefact once per (machine, seed) and caches it for every experiment
driver and benchmark file in the process.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import BENCH_SCALE, PROFILE_SCALE, SimulationScale
from repro.core.combined import CombinedModel
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.neural import NeuralPowerModel
from repro.core.performance_model import PerformanceModel
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.errors import ConfigurationError
from repro.machine.simulator import (
    MachineSimulation,
    PowerEnvironment,
    SimulationResult,
)
from repro.machine.topology import MachineTopology, STANDARD_MACHINES
from repro.profiling.profiler import ProcessProfile, profile_suite
from repro.workloads.spec import BENCHMARKS, PAPER_EIGHT, SyntheticBenchmark


class ExperimentContext:
    """Lazily built, cached artefacts for one machine configuration.

    Args:
        machine: Name in :data:`repro.machine.topology.STANDARD_MACHINES`.
        sets: Set-count scaling of the machine's caches.
        seed: Master seed for every stochastic artefact.
        benchmark_names: Suite used for profiling and training.
        profile_scale: Simulation budgets for profiling runs.
        run_scale: Simulation budgets for validation runs.
    """

    def __init__(
        self,
        machine: str = "4-core-server",
        sets: int = 128,
        seed: int = 42,
        benchmark_names: Sequence[str] = PAPER_EIGHT,
        profile_scale: SimulationScale = PROFILE_SCALE,
        run_scale: SimulationScale = BENCH_SCALE,
    ):
        if machine not in STANDARD_MACHINES:
            raise ConfigurationError(
                f"unknown machine {machine!r}; choose from {sorted(STANDARD_MACHINES)}"
            )
        self.machine = machine
        self.sets = sets
        self.seed = seed
        self.benchmark_names = tuple(benchmark_names)
        self.profile_scale = profile_scale
        self.run_scale = run_scale
        self.topology: MachineTopology = STANDARD_MACHINES[machine](sets=sets)
        self.power_env = PowerEnvironment.for_topology(self.topology, seed=seed)
        self._profiles: Optional[Dict[str, ProcessProfile]] = None
        self._profiles_have_power = False
        self._performance_model: Optional[PerformanceModel] = None
        self._power_model: Optional[CorePowerModel] = None
        self._neural_model: Optional[NeuralPowerModel] = None
        self._training_set: Optional[PowerTrainingSet] = None
        self._combined: Optional[CombinedModel] = None
        self._idle_core_watts: Optional[float] = None

    # ------------------------------------------------------------------
    # Benchmarks
    # ------------------------------------------------------------------
    def benchmark(self, name: str) -> SyntheticBenchmark:
        return BENCHMARKS[name]

    def benchmarks(self) -> List[SyntheticBenchmark]:
        return [BENCHMARKS[name] for name in self.benchmark_names]

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def profiles(self, with_power: bool = False) -> Dict[str, ProcessProfile]:
        """Profile the whole suite once (with P_alone if requested)."""
        if self._profiles is None or (with_power and not self._profiles_have_power):
            results = profile_suite(
                self.benchmarks(),
                self.topology,
                scale=self.profile_scale,
                seed=self.seed,
                power_env=self.power_env if with_power else None,
            )
            self._profiles = {p.feature.name: p for p in results}
            self._profiles_have_power = with_power
            self._performance_model = None
            self._combined = None
        return self._profiles

    def feature_vectors(self) -> Dict[str, FeatureVector]:
        return {name: p.feature for name, p in self.profiles().items()}

    def profile_vectors(self) -> Dict[str, ProfileVector]:
        return {name: p.profile for name, p in self.profiles(with_power=True).items()}

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def performance_model(self) -> PerformanceModel:
        """Fitted performance model over the profiled suite."""
        if self._performance_model is None:
            ways = self.topology.domains[0].geometry.ways
            model = PerformanceModel(ways=ways)
            model.register_all(list(self.feature_vectors().values()))
            self._performance_model = model
        return self._performance_model

    def training_set(self) -> PowerTrainingSet:
        """Paper-style power training rows (SPEC + micro-benchmark)."""
        if self._training_set is None:
            from repro.experiments.power_training import build_training_set

            self._training_set = build_training_set(self)
        return self._training_set

    def measured_idle_core_watts(self) -> float:
        """Directly measured per-core idle power (micro phase 0)."""
        if self._idle_core_watts is None:
            idle = MachineSimulation(
                self.topology,
                {},
                scale=self.run_scale,
                seed=self.seed + 999,
                power_env=self.power_env,
            ).run_duration()
            self._idle_core_watts = idle.power.mean_measured / self.topology.num_cores
        return self._idle_core_watts

    def power_model(self) -> CorePowerModel:
        if self._power_model is None:
            self._power_model = CorePowerModel().fit(
                self.training_set(),
                idle_core_watts=self.measured_idle_core_watts(),
            )
        return self._power_model

    def neural_model(self) -> NeuralPowerModel:
        if self._neural_model is None:
            self._neural_model = NeuralPowerModel(seed=self.seed).fit(self.training_set())
        return self._neural_model

    def combined_model(self) -> CombinedModel:
        if self._combined is None:
            self._combined = CombinedModel(
                topology=self.topology,
                performance_models=[self.performance_model()],
                power_model=self.power_model(),
                profiles=self.profile_vectors(),
            )
        return self._combined

    # ------------------------------------------------------------------
    # Ground-truth runs
    # ------------------------------------------------------------------
    def run_assignment(
        self,
        assignment: Mapping[int, Sequence[str]],
        seed_offset: int = 0,
        collect_power: bool = True,
        scale: Optional[SimulationScale] = None,
        **sim_kwargs,
    ) -> SimulationResult:
        """Run one named assignment on the machine for ground truth."""
        workloads = {
            core: [BENCHMARKS[name] for name in names]
            for core, names in assignment.items()
            if names
        }
        sim = MachineSimulation(
            self.topology,
            workloads,
            scale=scale if scale is not None else self.run_scale,
            seed=self.seed + 7_771 * (seed_offset + 1),
            power_env=self.power_env if collect_power else None,
            **sim_kwargs,
        )
        if collect_power:
            return sim.run_duration()
        return sim.run_accesses()


_CONTEXTS: Dict[Tuple, ExperimentContext] = {}


def get_context(
    machine: str = "4-core-server",
    sets: int = 128,
    seed: int = 42,
    benchmark_names: Sequence[str] = PAPER_EIGHT,
    profile_scale: SimulationScale = PROFILE_SCALE,
    run_scale: SimulationScale = BENCH_SCALE,
) -> ExperimentContext:
    """Process-wide cached :class:`ExperimentContext` factory."""
    key = (machine, sets, seed, tuple(benchmark_names), profile_scale, run_scale)
    context = _CONTEXTS.get(key)
    if context is None:
        context = ExperimentContext(
            machine=machine,
            sets=sets,
            seed=seed,
            benchmark_names=benchmark_names,
            profile_scale=profile_scale,
            run_scale=run_scale,
        )
        _CONTEXTS[key] = context
    return context
