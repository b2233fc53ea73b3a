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
from repro.errors import ConfigurationError
from repro.io import document
from repro.obs import get_observer


def canonical_order(
    names: Sequence[str], ratios: Sequence[float]
) -> Tuple[Tuple[Tuple[str, float], ...], List[int]]:
    """The canonical (sorted) form of a mix and the permutation back.

    The equilibrium is order-independent, so every solve happens in
    one canonical order: a stable sort by ``(name, ratio)``.  Returns
    ``(pairs, slot)``: ``pairs`` is the mix's ``(name, ratio)`` pairs
    in that order (the part of every cache key that names the mix) and
    ``slot[i]`` is the canonical position of original index ``i``,
    used to permute a solution back.  Equal ``(name, ratio)``
    duplicates are symmetric, so the stable tie-break (first seen,
    first placed) is as correct as any other.
    """
    pairs = list(zip(names, ratios))
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    slot = [0] * len(order)
    for pos, i in enumerate(order):
        slot[i] = pos
    return tuple(map(pairs.__getitem__, order)), slot


@document("process_prediction")
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


@document("corun_prediction")
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


class PerformanceModel:
    """Reuse-distance-based contention predictor.

    Args:
        ways: Associativity of the shared last-level cache the
            predictions are for.
        cache: Optional shared :class:`EquilibriumCache`.  Predictions
            are memoised per sorted (name, frequency-ratio) multiset;
            every miss is solved cold, so a prediction depends on its
            co-run alone.  Omitted, the model owns a
            private cache; pass ``EquilibriumCache(max_entries=0)`` to
            disable caching, or one shared instance to several models
            (e.g. the per-domain models inside a
            :class:`~repro.core.combined.CombinedModel`) to pool their
            solutions.
    """

    def __init__(
        self,
        ways: int,
        cache: Optional[EquilibriumCache] = None,
    ):
        if ways < 1:
            raise ConfigurationError("ways must be >= 1")
        self.ways = ways
        self.cache = cache if cache is not None else EquilibriumCache()
        self._features: Dict[str, FeatureVector] = {}
        # Unit-ratio solver inputs, one per registered name, kept for
        # the model's life.  Inputs at other clock ratios are shared
        # within one call only: a (name, ratio) memo that the call
        # creates and drops, so it holds at most one entry per process
        # the call names.  Ratios come from clients, so a store kept
        # across calls would grow with every ratio ever sent.
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
    def _input(self, name: str, ratio: float) -> EquilibriumProcess:
        """Solver input of one process at one clock ratio."""
        unit = self._inputs.get(name)
        if unit is None:
            self.feature(name)  # raises the descriptive KeyError
        if ratio == 1.0:
            return unit
        if ratio <= 0:
            raise ConfigurationError("ratio must be positive")
        # The float operations of FeatureVector.with_frequency_ratio.
        return EquilibriumProcess(
            occupancy=unit.occupancy,
            mpa=unit.mpa,
            api=unit.api,
            alpha=unit.alpha / ratio,
            beta=unit.beta / ratio,
        )

    def _pair_inputs(
        self,
        pairs: Sequence[Tuple[str, float]],
        memo: Dict[Tuple[str, float], EquilibriumProcess],
    ) -> List[EquilibriumProcess]:
        """Solver inputs of ``(name, ratio)`` pairs, one per distinct pair.

        ``memo`` holds the inputs already built in the current call,
        so every cell with the same pair gets the same object (and the
        batch solver one slot for it).
        """
        try:
            return [memo[pair] for pair in pairs]
        except KeyError:
            for pair in pairs:
                if pair not in memo:
                    memo[pair] = self._input(*pair)
            return [memo[pair] for pair in pairs]

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
        return self._pair_inputs(list(zip(names, frequency_ratios)), {})

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
    ) -> Tuple[Tuple, List[int]]:
        """Validate one mix; returns ``(key, slot)``.

        ``key`` is ``(ways, pairs)``: the mix's ``(name, ratio)`` pairs
        in :func:`canonical_order`, the order every solve runs and is
        cached in.  ``slot`` permutes the canonical solution back to
        the caller's order.
        """
        count = len(names)
        if not count:
            raise ConfigurationError("need at least one process name")
        if count > self.ways:
            raise ConfigurationError(
                f"{count} processes cannot share a {self.ways}-way cache"
            )
        if frequency_ratios is None:
            ratios: Tuple[float, ...] = (1.0,) * count
        else:
            if len(frequency_ratios) != count:
                raise ConfigurationError(
                    "frequency_ratios must have one entry per process"
                )
            ratios = tuple(map(float, frequency_ratios))
        pairs, slot = canonical_order(names, ratios)
        return (self.ways, pairs), slot

    def _restore(
        self,
        names: Sequence[str],
        result: EquilibriumResult,
        slot: Sequence[int],
    ) -> CoRunPrediction:
        """Permute a canonical solution back to the caller's order.

        A batch restores thousands of records per call, so they skip
        the frozen-dataclass ``__init__`` (one ``object.__setattr__``
        per field): each is a bare instance whose ``__dict__`` gets
        every field, in declaration order, which gives field-for-field
        the same objects (``==``, ``hash``, ``repr``, pickles) at a
        third of the cost.  Item assignment keeps the instance dict
        sharing its keys with the class's other instances, as
        ``__init__`` does; ``__dict__.update`` would make each dict a
        private table twice the size.
        """
        sizes, mpas, spis = result.sizes, result.mpas, result.spis
        new = object.__new__
        processes = []
        for name, pos in zip(names, slot):
            process = new(ProcessPrediction)
            fields = process.__dict__
            fields["name"] = name
            fields["effective_size"] = sizes[pos]
            fields["mpa"] = mpas[pos]
            fields["spi"] = spis[pos]
            processes.append(process)
        prediction = new(CoRunPrediction)
        fields = prediction.__dict__
        fields["processes"] = tuple(processes)
        fields["solver"] = result.solver
        fields["contended"] = result.contended
        return prediction

    def _predict_impl(
        self,
        names: Sequence[str],
        frequency_ratios: Optional[Sequence[float]] = None,
    ) -> CoRunPrediction:
        """The uninstrumented predict (bench baseline for obs overhead)."""
        key, slot = self._canonical_plan(names, frequency_ratios)
        result = self.cache.get(key)
        if result is None:
            result = self._solve(key[1])
            self.cache.put(key, result)
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

        The sequential loop is used verbatim (no vectorization) under
        an enabled observer (per-mix ``predict`` spans keep their exact
        shape) and for a batch too small to win.

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
                entry per mix; ``None`` entries mean homogeneous, any
                other entry has one ratio per process of its mix).
        """
        from repro.core.batch_equilibrium import BATCH_MIN_STACK

        if frequency_ratios is None:
            frequency_ratios = [None] * len(mixes)
        else:
            if len(frequency_ratios) != len(mixes):
                raise ConfigurationError(
                    f"frequency_ratios must have one entry per mix: got "
                    f"{len(frequency_ratios)} for {len(mixes)} mixes"
                )
            for index, (mix, ratios) in enumerate(zip(mixes, frequency_ratios)):
                if ratios is not None and len(ratios) != len(mix):
                    raise ConfigurationError(
                        f"frequency_ratios[{index}] has {len(ratios)} entries "
                        f"for a {len(mix)}-process mix"
                    )
        if len(mixes) < BATCH_MIN_STACK or get_observer().enabled:
            return tuple(
                self.predict(mix, ratios)
                for mix, ratios in zip(mixes, frequency_ratios)
            )
        plan = self._canonical_plan
        plans = [plan(mix, ratios) for mix, ratios in zip(mixes, frequency_ratios)]
        # One get per mix, in order.  First occurrences of uncached
        # keys go to the batch solver; duplicates of a pending key
        # defer their (hitting) get until the solution is stored.
        get = self.cache.get
        pending: Dict[Tuple, int] = {}
        results: List[Optional[EquilibriumResult]] = [None] * len(plans)
        deferred: List[int] = []
        for index, (key, _) in enumerate(plans):
            if key in pending:
                deferred.append(index)
                continue
            cached = get(key)
            if cached is None:
                pending[key] = index
            else:
                results[index] = cached
        if pending:
            # One input per distinct (name, ratio) pair of this call:
            # the memo is as big as the call, so it cannot grow past it.
            memo: Dict[Tuple[str, float], EquilibriumProcess] = {}
            jobs = [self._pair_inputs(key[1], memo) for key in pending]
            solved = self._batch_solver().solve_batch(jobs, self.ways)
            put = self.cache.put
            for (key, index), result in zip(pending.items(), solved):
                put(key, result)
                results[index] = result
        for index in deferred:
            # The probe keeps one get per mix (counter parity); the
            # answer comes from the solve, since a batch with more
            # distinct mixes than the cache holds may have evicted it.
            key = plans[index][0]
            get(key)
            results[index] = results[pending[key]]
        restore = self._restore
        return tuple(
            [
                restore(mix, result, slot)
                for mix, result, (_, slot) in zip(mixes, results, plans)
            ]
        )

    def _batch_solver(self):
        """Lazy per-model batch solver."""
        from repro.core.batch_equilibrium import BatchNewtonSolver

        solver = getattr(self, "_batch_solver_cache", None)
        if solver is None:
            solver = self._batch_solver_cache = BatchNewtonSolver()
        return solver

    def _solve(self, pairs: Sequence[Tuple[str, float]]) -> EquilibriumResult:
        """Solve one co-run of canonical ``(name, ratio)`` pairs, cold."""
        return solve_equilibrium(self._pair_inputs(pairs, {}), self.ways)

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the prediction cache."""
        return self.cache.stats

    def predict_solo(self, name: str) -> ProcessPrediction:
        """Predicted steady state of a process running alone."""
        return self.predict([name]).processes[0]
