"""Public façade of the paper's performance model (Section 3).

Register a :class:`~repro.core.feature.FeatureVector` per process of
interest (obtained once, in isolation, via stressmark profiling), then
predict the steady-state behaviour of *any* subset of them sharing a
last-level cache — O(k) profiling effort covering 2^k - 1 possible
co-run combinations, the paper's headline complexity win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.equilibrium import (
    EquilibriumProcess,
    EquilibriumResult,
    solve_equilibrium,
)
from repro.core.feature import FeatureVector
from repro.core.solver_cache import CacheStats, EquilibriumCache
from repro.errors import ConfigurationError, ConvergenceError
from repro.obs import get_observer


@dataclass(frozen=True)
class ProcessPrediction:
    """Predicted steady state of one process in a co-run."""

    name: str
    effective_size: float
    mpa: float
    spi: float

    @property
    def l2mpr(self) -> float:
        """L2 misses per L2 reference — identical to MPA at the L2."""
        return self.mpa

    @property
    def ips(self) -> float:
        """Instructions per second."""
        return 1.0 / self.spi

    def to_dict(self) -> dict:
        """Plain-JSON representation (see :mod:`repro.io`)."""
        from repro.io import process_prediction_to_dict

        return process_prediction_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessPrediction":
        from repro.io import process_prediction_from_dict

        return process_prediction_from_dict(data)


@dataclass(frozen=True)
class CoRunPrediction:
    """Predicted steady state of a set of cache-sharing processes."""

    processes: Tuple[ProcessPrediction, ...]
    solver: str
    contended: bool

    def __getitem__(self, index: int) -> ProcessPrediction:
        return self.processes[index]

    def __len__(self) -> int:
        return len(self.processes)

    @property
    def total_size(self) -> float:
        return sum(p.effective_size for p in self.processes)

    def to_dict(self) -> dict:
        """Plain-JSON representation (see :mod:`repro.io`)."""
        from repro.io import corun_prediction_to_dict

        return corun_prediction_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CoRunPrediction":
        from repro.io import corun_prediction_from_dict

        return corun_prediction_from_dict(data)


class PerformanceModel:
    """Reuse-distance-based contention predictor.

    Args:
        ways: Associativity of the shared last-level cache the
            predictions are for.
        strategy: Equilibrium solver strategy (``auto`` / ``newton`` /
            ``bisection``).
        cache: Optional shared :class:`EquilibriumCache`.  Predictions
            are memoised per sorted (name, frequency-ratio) multiset,
            and cache misses warm-start Newton from the processes'
            most recent equilibrium sizes.  Omitted, the model owns a
            private cache; pass ``EquilibriumCache(max_entries=0)`` to
            disable caching, or one shared instance to several models
            (e.g. the per-domain models inside a
            :class:`~repro.core.combined.CombinedModel`) to pool their
            solutions.
    """

    def __init__(
        self,
        ways: int,
        strategy: str = "auto",
        cache: Optional[EquilibriumCache] = None,
    ):
        if ways < 1:
            raise ConfigurationError("ways must be >= 1")
        self.ways = ways
        self.strategy = strategy
        self.cache = cache if cache is not None else EquilibriumCache()
        self._features: Dict[str, FeatureVector] = {}
        # Unit-ratio solver inputs, one per registered name; other
        # clock ratios are derived per call (ratios come from clients,
        # so caching them could grow without bound).
        self._inputs: Dict[str, EquilibriumProcess] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, feature: FeatureVector) -> None:
        """Register (or replace) a process's feature vector."""
        if feature.name in self._features:
            # Replacing a profile invalidates every cached solution
            # that could involve it; cache keys deliberately do not
            # carry profile contents, so drop everything.
            self.cache.clear()
        self._features[feature.name] = feature
        # The growth table itself is memoised on the histogram, so
        # models registering the same profile share it.
        self._inputs[feature.name] = EquilibriumProcess(
            occupancy=feature.occupancy_model(self.ways),
            mpa=feature.histogram.mpa,
            api=feature.api,
            alpha=feature.alpha,
            beta=feature.beta,
        )

    def register_all(self, features: Sequence[FeatureVector]) -> None:
        for feature in features:
            self.register(feature)

    @property
    def known_processes(self) -> List[str]:
        return sorted(self._features)

    def feature(self, name: str) -> FeatureVector:
        try:
            return self._features[name]
        except KeyError:
            raise KeyError(
                f"no feature vector registered for {name!r}; "
                f"known: {self.known_processes}"
            ) from None

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _equilibrium_inputs(
        self,
        names: Sequence[str],
        frequency_ratios: Optional[Sequence[float]] = None,
    ) -> List[EquilibriumProcess]:
        if frequency_ratios is None:
            frequency_ratios = [1.0] * len(names)
        if len(frequency_ratios) != len(names):
            raise ConfigurationError(
                "frequency_ratios must have one entry per process"
            )
        registered = self._inputs
        inputs = []
        for name, ratio in zip(names, frequency_ratios):
            unit = registered.get(name)
            if unit is None:
                self.feature(name)  # raises the descriptive KeyError
            if ratio != 1.0:
                if ratio <= 0:
                    raise ConfigurationError("ratio must be positive")
                # The float operations of FeatureVector.with_frequency_ratio.
                unit = EquilibriumProcess(
                    occupancy=unit.occupancy,
                    mpa=unit.mpa,
                    api=unit.api,
                    alpha=unit.alpha / ratio,
                    beta=unit.beta / ratio,
                )
            inputs.append(unit)
        return inputs

    def predict(
        self,
        names: Sequence[str],
        frequency_ratios: Optional[Sequence[float]] = None,
    ) -> CoRunPrediction:
        """Predict the co-run steady state of the named processes.

        Each name is one *simultaneously running* process on its own
        core, all sharing one ``ways``-way cache.  Duplicate names are
        allowed (two instances of the same program).

        Args:
            names: Process names (feature vectors must be registered).
            frequency_ratios: Optional per-process core-clock ratios
                relative to the profiled clock, for heterogeneous
                machines — a faster core accesses the cache faster and
                wins a larger share, which the equilibrium captures
                through the rescaled Eq. 3 constants.
        """
        observer = get_observer()
        if not observer.enabled:
            # The disabled fast path adds exactly one global read and
            # one attribute check to PR 1's hot path; the obs-overhead
            # bench compares this wrapper against ``_predict_impl``.
            return self._predict_impl(names, frequency_ratios)
        with observer.span(
            "predict", processes=len(names), ways=self.ways
        ) as span:
            result = self._predict_impl(names, frequency_ratios)
            span.annotate(
                names=",".join(names),
                solver=result.solver,
                contended=result.contended,
            )
            observer.counter("predict.calls").inc()
            return result

    def _canonical_plan(
        self,
        names: Sequence[str],
        frequency_ratios: Optional[Sequence[float]],
    ) -> Tuple[List[str], List[float], Tuple, List[int]]:
        """Validate one mix; returns (canon_names, canon_ratios, key, slot).

        The equilibrium is order-independent, so solves are cached in
        canonical (sorted) order; ``slot[i]`` is the canonical position
        of original index ``i``, used to permute the solution back.
        Equal (name, ratio) duplicates are symmetric, making any
        consistent tie-break correct.
        """
        if not names:
            raise ConfigurationError("need at least one process name")
        if len(names) > self.ways:
            raise ConfigurationError(
                f"{len(names)} processes cannot share a {self.ways}-way cache"
            )
        if frequency_ratios is None:
            ratios: Tuple[float, ...] = (1.0,) * len(names)
        else:
            if len(frequency_ratios) != len(names):
                raise ConfigurationError(
                    "frequency_ratios must have one entry per process"
                )
            ratios = tuple(float(r) for r in frequency_ratios)
        order = sorted(range(len(names)), key=lambda i: (names[i], ratios[i]))
        canon_names = [names[i] for i in order]
        canon_ratios = [ratios[i] for i in order]
        key = (self.ways, self.strategy, tuple(zip(canon_names, canon_ratios)))
        slot = [0] * len(order)
        for pos, i in enumerate(order):
            slot[i] = pos
        return canon_names, canon_ratios, key, slot

    def _restore(
        self,
        names: Sequence[str],
        result: EquilibriumResult,
        slot: Sequence[int],
    ) -> CoRunPrediction:
        """Permute a canonical solution back to the caller's order."""
        sizes, mpas, spis = result.sizes, result.mpas, result.spis
        return CoRunPrediction(
            processes=tuple(
                ProcessPrediction(name, sizes[pos], mpas[pos], spis[pos])
                for name, pos in zip(names, slot)
            ),
            solver=result.solver,
            contended=result.contended,
        )

    def _predict_impl(
        self,
        names: Sequence[str],
        frequency_ratios: Optional[Sequence[float]] = None,
    ) -> CoRunPrediction:
        """The uninstrumented predict (bench baseline for obs overhead)."""
        canon_names, canon_ratios, key, slot = self._canonical_plan(
            names, frequency_ratios
        )
        result = self.cache.get(key)
        if result is None:
            result = self._solve(canon_names, canon_ratios)
            self.cache.put(key, result)
            self.cache.record_sizes(canon_names, result.sizes)
        return self._restore(names, result, slot)

    def predict_batch(
        self,
        mixes: Sequence[Sequence[str]],
        frequency_ratios: Optional[Sequence[Optional[Sequence[float]]]] = None,
    ) -> Tuple[CoRunPrediction, ...]:
        """Predict many co-runs at once via the stacked batch solver.

        Equivalent to ``tuple(self.predict(mix) for mix in mixes)`` —
        payload-bit-identical per the
        :mod:`repro.core.batch_equilibrium` compatibility policy — but
        cache misses are solved as one stacked-numpy Newton problem
        instead of one scalar solve per mix.

        The sequential loop is used verbatim (no vectorization) when
        any of its order-dependent behaviours would be observable:
        warm-started caches (solution depends on solve order), the
        ``bisection`` strategy (nothing to vectorize), an enabled
        observer (per-mix ``predict`` spans keep their exact shape), or
        a batch too small to win.

        Cache-counter parity with the sequential loop holds for the
        totals: each mix performs exactly one ``get`` — the first
        occurrence of a repeated uncached mix probes (miss) before
        solving, later occurrences re-probe after the solution is
        stored (a hit, unless the batch evicted it) and take their
        answer from the solve either way.  LRU *recency order* inside
        the cache may differ from the sequential loop's when hits and
        misses interleave, so eviction order under capacity pressure is
        the one sequential behaviour not reproduced.

        Args:
            mixes: Co-run combinations, each a sequence of names.
            frequency_ratios: Optional per-mix ratio sequences (one
                entry per mix; ``None`` entries mean homogeneous).
        """
        from repro.core.batch_equilibrium import BATCH_MIN_STACK

        mixes = [list(mix) for mix in mixes]
        if frequency_ratios is None:
            per_mix_ratios: List[Optional[Sequence[float]]] = [None] * len(mixes)
        else:
            if len(frequency_ratios) != len(mixes):
                raise ConfigurationError(
                    "frequency_ratios must have one entry per mix"
                )
            per_mix_ratios = list(frequency_ratios)
        if (
            len(mixes) < BATCH_MIN_STACK
            or self.cache.warm_start
            or self.strategy == "bisection"
            or get_observer().enabled
        ):
            return tuple(
                self.predict(mix, ratios)
                for mix, ratios in zip(mixes, per_mix_ratios)
            )
        plans = [
            self._canonical_plan(mix, ratios)
            for mix, ratios in zip(mixes, per_mix_ratios)
        ]
        # One get per mix, in order.  First occurrences of uncached
        # keys go to the batch solver; duplicates of a pending key
        # defer their (hitting) get until the solution is stored.
        pending: Dict[Tuple, int] = {}
        hits: Dict[int, EquilibriumResult] = {}
        deferred: List[int] = []
        for index, (_, _, key, _) in enumerate(plans):
            if key in pending:
                deferred.append(index)
                continue
            cached = self.cache.get(key)
            if cached is None:
                pending[key] = index
            else:
                hits[index] = cached
        if pending:
            solver = self._batch_solver()
            jobs = [
                self._equilibrium_inputs(plans[i][0], plans[i][1])
                for i in pending.values()
            ]
            solved = solver.solve_batch(jobs, self.ways)
            for (key, index), result in zip(pending.items(), solved):
                self.cache.put(key, result)
                self.cache.record_sizes(plans[index][0], result.sizes)
                hits[index] = result
        for index in deferred:
            # The probe keeps one get per mix (counter parity); the
            # answer comes from the solve, since a batch with more
            # distinct mixes than the cache holds may have evicted it.
            key = plans[index][2]
            self.cache.get(key)
            hits[index] = hits[pending[key]]
        return tuple(
            self._restore(mix, hits[index], plans[index][3])
            for index, mix in enumerate(mixes)
        )

    def _batch_solver(self):
        """Lazy per-model batch solver, rebuilt if ``strategy`` changed."""
        from repro.core.batch_equilibrium import BatchNewtonSolver

        solver = getattr(self, "_batch_solver_cache", None)
        if solver is None or solver.fallback_strategy != self.strategy:
            solver = BatchNewtonSolver(fallback_strategy=self.strategy)
            self._batch_solver_cache = solver
        return solver

    def _solve(
        self, names: Sequence[str], ratios: Sequence[float]
    ) -> EquilibriumResult:
        """Solve one (canonically ordered) co-run, warm-starting Newton."""
        inputs = self._equilibrium_inputs(names, ratios)
        initial = self.cache.suggest_initial(names, self.ways)
        try:
            return solve_equilibrium(
                inputs, self.ways, strategy=self.strategy, initial=initial
            )
        except ConvergenceError:
            if initial is None:
                raise
            # A stale warm start can strand Newton in a bad basin;
            # the cold proportional-demand start is the reference
            # behaviour, so retry from it before giving up.
            observer = get_observer()
            if observer.enabled:
                observer.counter("predict.cold_retries").inc()
            return solve_equilibrium(inputs, self.ways, strategy=self.strategy)

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the prediction cache."""
        return self.cache.stats

    def predict_solo(self, name: str) -> ProcessPrediction:
        """Predicted steady state of a process running alone."""
        return self.predict([name]).processes[0]
