"""repro.parallel — batched prediction and process-pool simulation.

Batch workloads — pricing many co-run mixes, running fleets of
ground-truth simulations — must keep the project's two core
guarantees: deterministic results and coherent telemetry.  This
module keeps both:

- **Bit-equality.**  :class:`ParallelPredictor` solves each batch
  in-process with the stacked solver of
  :meth:`~repro.core.performance_model.PerformanceModel.predict_batch`
  over an :class:`~repro.core.solver_cache.EquilibriumCache`.  Every
  cache miss is solved from the cold proportional-demand guess, so the
  result depends only on the co-run itself, never on which solves
  happened before.

- **Deterministic seeds.**  Simulation tasks without an explicit seed
  draw per-task seeds from ``numpy.random.SeedSequence`` spawning
  (:func:`repro.seeding.task_seeds`), so streams are provably
  independent across tasks and stable across worker counts, chunk
  sizes and scheduling order.

- **Telemetry merge-back.**  The one process pool left is in
  :func:`simulate_assignments`, because each of its tasks is a
  CPU-heavy simulation.  Each worker runs chunks under its own
  :class:`~repro.obs.Observer` when the parent observer is live, and
  ships its trace/metrics documents back to the parent, which absorbs
  them so spans nest under the parent's batch span.

Tasks travel to the pool in chunks to amortise IPC.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import BENCH_SCALE, SimulationScale
from repro.core.feature import FeatureVector
from repro.core.performance_model import CoRunPrediction, PerformanceModel
from repro.core.solver_cache import CacheStats, EquilibriumCache
from repro.errors import ConfigurationError
from repro.machine.simulator import (
    MachineSimulation,
    PowerEnvironment,
    SimulationResult,
)
from repro.machine.topology import STANDARD_MACHINES
from repro.obs import Observer, get_observer, use_observer
from repro.seeding import task_seeds
from repro.workloads.spec import BENCHMARKS

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ParallelPredictor",
    "SimulationTask",
    "predict_mixes",
    "simulate_assignments",
]

#: Default number of tasks shipped to a worker per round trip.
DEFAULT_CHUNK_SIZE = 8


# ----------------------------------------------------------------------
# Pool plumbing
# ----------------------------------------------------------------------
def _pool_context():
    """Prefer ``fork`` (cheap, shares the imported library) when available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count; ``None``/``0``/``1`` mean in-process serial."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ConfigurationError("workers must be non-negative")
    return max(1, workers)


def _chunked(items: Sequence, workers: int, chunk_size: Optional[int]) -> List[List]:
    """Contiguous chunks; sized so every worker gets work by default."""
    if chunk_size is None:
        chunk_size = max(1, min(DEFAULT_CHUNK_SIZE, math.ceil(len(items) / workers)))
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    return [list(items[i : i + chunk_size]) for i in range(0, len(items), chunk_size)]


def _check_mix_ratios(
    mixes: Sequence[Sequence[str]],
    frequency_ratios: Optional[Sequence[Optional[Sequence[float]]]],
) -> None:
    """Validate per-mix frequency ratios against their mixes.

    ``None`` (no ratios anywhere) and per-mix ``None`` entries both
    mean the homogeneous default; non-``None`` entries must match
    their mix's length.  The entries are not copied: the model turns
    each into floats once, when it plans the mix.
    """
    if frequency_ratios is None:
        return
    if len(frequency_ratios) != len(mixes):
        raise ConfigurationError(
            f"frequency_ratios must have one entry per mix: got "
            f"{len(frequency_ratios)} for {len(mixes)} mixes"
        )
    for index, (mix, ratios) in enumerate(zip(mixes, frequency_ratios)):
        if ratios is not None and len(ratios) != len(mix):
            raise ConfigurationError(
                f"frequency_ratios[{index}] has {len(ratios)} entries for a "
                f"{len(mix)}-process mix"
            )


# ----------------------------------------------------------------------
# Batched co-run prediction
# ----------------------------------------------------------------------
class ParallelPredictor:
    """Reusable batched co-run predictor.

    Every batch is solved in-process by
    :meth:`PerformanceModel.predict_batch` — the stacked Newton solver,
    which falls back to the scalar solver row by row where it must —
    over one cache.  Every solve starts cold, so results are
    bit-identical to a scalar :meth:`PerformanceModel.predict` loop.
    The model is built on first use and kept across
    :meth:`predict_mixes` calls.  Use as a context manager (or call
    :meth:`close`) to retire the predictor.

    Args:
        features: Feature vectors of every process mixes may name
            (a sequence, or a ``name -> FeatureVector`` mapping).
        ways: Associativity of the shared cache being modelled.
        cache: :class:`EquilibriumCache` that accumulates every
            solution and its telemetry.
    """

    def __init__(
        self,
        features: Union[Sequence[FeatureVector], Mapping[str, FeatureVector]],
        *,
        ways: int,
        cache: Optional[EquilibriumCache] = None,
    ):
        if isinstance(features, Mapping):
            features = [features[name] for name in sorted(features)]
        self.features = list(features)
        self.ways = ways
        self.cache = EquilibriumCache() if cache is None else cache
        self._model: Optional[PerformanceModel] = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "ParallelPredictor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Retire the predictor (idempotent).

        A closed predictor stays closed: later :meth:`predict_mixes` /
        :meth:`warm_up` calls raise :class:`RuntimeError` (long-lived
        holders like the serving layer rely on a stopped engine
        refusing work).
        """
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "ParallelPredictor is closed; create a new predictor "
                "instead of reusing this one"
            )

    def warm_up(self) -> None:
        """Build the model before timing anything."""
        self._check_open()
        self._performance_model()

    # -- prediction -----------------------------------------------------
    def _performance_model(self) -> PerformanceModel:
        if self._model is None:
            model = PerformanceModel(ways=self.ways, cache=self.cache)
            model.register_all(self.features)
            self._model = model
        return self._model

    @property
    def cache_stats(self) -> CacheStats:
        """Telemetry of the predictor's cache."""
        return self.cache.stats

    def predict_mixes(
        self,
        mixes: Sequence[Sequence[str]],
        frequency_ratios: Optional[
            Sequence[Optional[Sequence[float]]]
        ] = None,
    ) -> Tuple[CoRunPrediction, ...]:
        """Predict every mix, in order, bit-equal to the scalar loop.

        Args:
            mixes: One name sequence per mix.
            frequency_ratios: Optional per-mix core-clock ratios: one
                entry per mix, each either ``None`` (homogeneous) or a
                per-process ratio sequence.
        """
        self._check_open()
        _check_mix_ratios(mixes, frequency_ratios)
        observer = get_observer()
        if not observer.enabled:
            return self._predict(mixes, frequency_ratios)
        with observer.span("parallel.predict_mixes", mixes=len(mixes)):
            results = self._predict(mixes, frequency_ratios)
            observer.counter("parallel.mixes").inc(len(mixes))
            return results

    def _predict(
        self,
        mixes: Sequence[Sequence[str]],
        ratios: Optional[Sequence[Optional[Sequence[float]]]],
    ) -> Tuple[CoRunPrediction, ...]:
        if not mixes:
            return ()
        return self._performance_model().predict_batch(
            mixes, frequency_ratios=ratios
        )


def predict_mixes(
    features: Union[Sequence[FeatureVector], Mapping[str, FeatureVector]],
    mixes: Sequence[Sequence[str]],
    *,
    ways: int,
    cache: Optional[EquilibriumCache] = None,
    frequency_ratios: Optional[Sequence[Optional[Sequence[float]]]] = None,
) -> Tuple[CoRunPrediction, ...]:
    """One-shot batched prediction (see :class:`ParallelPredictor`)."""
    with ParallelPredictor(features, ways=ways, cache=cache) as predictor:
        return predictor.predict_mixes(mixes, frequency_ratios=frequency_ratios)


# ----------------------------------------------------------------------
# Batched ground-truth simulation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimulationTask:
    """One ground-truth machine run, fully described by plain data.

    Workers rebuild the topology from the machine name so the task
    pickles small and never drags simulator state across processes.

    Args:
        machine: Name in :data:`STANDARD_MACHINES`.
        assignment: ``core id -> benchmark names`` time-sharing it.
        sets: Cache set scaling of the machine.
        seed: Explicit master seed; ``None`` derives one from the
            batch seed via :func:`repro.seeding.task_seeds` (provably
            independent per task index).
        scale: Simulation budgets (default :data:`BENCH_SCALE`).
        collect_power: Run in duration mode with a per-task power
            plant and collect a power trace; otherwise run to the
            access budget (performance-only, bit-stable across
            batching).
        policy: Shared-cache replacement policy name.
        prefetch: Optional prefetcher name (ablation experiments).
    """

    machine: str
    assignment: Mapping[int, Tuple[str, ...]]
    sets: int = 128
    seed: Optional[int] = None
    scale: Optional[SimulationScale] = None
    collect_power: bool = False
    policy: str = "lru"
    prefetch: Optional[str] = None


def _run_task(task: SimulationTask, seed: int) -> SimulationResult:
    topology = STANDARD_MACHINES[task.machine](sets=task.sets)
    workloads = {
        core: [BENCHMARKS[name] for name in names]
        for core, names in task.assignment.items()
        if names
    }
    power_env = (
        PowerEnvironment.for_topology(topology, seed=seed)
        if task.collect_power
        else None
    )
    sim = MachineSimulation(
        topology,
        workloads,
        scale=task.scale if task.scale is not None else BENCH_SCALE,
        seed=seed,
        power_env=power_env,
        policy=task.policy,
        prefetch=task.prefetch,
    )
    return sim.run_duration() if task.collect_power else sim.run_accesses()


def _simulate_chunk(
    chunk: Sequence[Tuple[int, SimulationTask, int]], observe: bool
) -> Tuple[List[Tuple[int, SimulationResult]], Optional[Dict], Optional[Dict]]:
    observer = Observer() if observe else None
    results: List[Tuple[int, SimulationResult]] = []
    if observer is not None:
        with use_observer(observer):
            for index, task, seed in chunk:
                results.append((index, _run_task(task, seed)))
    else:
        for index, task, seed in chunk:
            results.append((index, _run_task(task, seed)))
    trace_doc = observer.trace_dict() if observer is not None else None
    metrics_doc = observer.metrics_dict() if observer is not None else None
    return results, trace_doc, metrics_doc


def _validate_task(index: int, task: SimulationTask) -> None:
    if task.machine not in STANDARD_MACHINES:
        raise ConfigurationError(
            f"task {index}: unknown machine {task.machine!r}; "
            f"choose from {sorted(STANDARD_MACHINES)}"
        )
    for names in task.assignment.values():
        for name in names:
            if name not in BENCHMARKS:
                raise ConfigurationError(
                    f"task {index}: unknown benchmark {name!r}"
                )


def simulate_assignments(
    tasks: Sequence[SimulationTask],
    *,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    seed: int = 0,
) -> Tuple[SimulationResult, ...]:
    """Run many ground-truth simulations, optionally across a pool.

    Results come back in task order regardless of worker scheduling.
    Tasks without an explicit seed get independent per-index seeds
    spawned from ``seed``, so the fleet's outputs are identical for
    any worker count or chunking.
    """
    tasks = list(tasks)
    for index, task in enumerate(tasks):
        _validate_task(index, task)
    spawned = task_seeds(seed, len(tasks))
    indexed = [
        (i, task, task.seed if task.seed is not None else spawned[i])
        for i, task in enumerate(tasks)
    ]
    workers = _resolve_workers(workers)
    observer = get_observer()
    if not observer.enabled:
        return _simulate_impl(indexed, workers, chunk_size, observe=False)
    with observer.span(
        "parallel.simulate", tasks=len(tasks), workers=workers
    ) as span:
        results = _simulate_impl(
            indexed,
            workers,
            chunk_size,
            observe=True,
            observer=observer,
            parent_span_id=span.span_id,
        )
        observer.counter("parallel.simulations").inc(len(tasks))
        return results


def _simulate_impl(
    indexed: List[Tuple[int, SimulationTask, int]],
    workers: int,
    chunk_size: Optional[int],
    observe: bool,
    observer: Optional[Observer] = None,
    parent_span_id: Optional[int] = None,
) -> Tuple[SimulationResult, ...]:
    if not indexed:
        return ()
    if workers <= 1:
        # Serial path runs under the parent observer directly.
        return tuple(_run_task(task, seed) for _, task, seed in indexed)
    chunks = _chunked(indexed, workers, chunk_size)
    out: List[Optional[SimulationResult]] = [None] * len(indexed)
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context()
    ) as executor:
        futures = [
            executor.submit(_simulate_chunk, chunk, observe) for chunk in chunks
        ]
        for future in futures:
            results, trace_doc, metrics_doc = future.result()
            for index, result in results:
                out[index] = result
            if observe and observer is not None:
                observer.absorb(trace_doc, metrics_doc, parent_span_id)
    return tuple(out)  # type: ignore[arg-type]
