"""Shared, bounded cache for equilibrium solutions.

Every prediction — combined-model power estimates, throughput
estimates, and the assignment searchers that sit on top of them —
funnels through the same ``solve_equilibrium`` hot path, and an
assignment search revisits the same co-run combinations hundreds of
times.  :class:`EquilibriumCache` memoises those solves behind a
bounded LRU with hit/miss/eviction counters, and remembers each
process's most recent equilibrium size so Newton can warm-start from
the solution of a *neighbouring* co-run (same processes, different
partners) instead of the cold proportional-demand guess.

One cache instance can be shared across
:class:`~repro.core.combined.CombinedModel` instances and
:class:`~repro.core.performance_model.PerformanceModel` instances, as
long as they are built over the same registered profiles — the cache
keys carry the cache geometry and solver strategy but deliberately
not the profile contents.  Replacing a registered feature vector must
therefore invalidate the cache (``PerformanceModel.register`` does).

The cache is guarded by a lock so a future batched/async serving
layer can share it across worker threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs import get_observer


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of an :class:`EquilibriumCache`'s counters."""

    hits: int
    misses: int
    evictions: int
    warm_starts: int
    entries: int
    max_entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup; 0.0 before the first lookup."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def delta_since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter increments between two snapshots of one cache.

        ``entries``/``max_entries`` are states, not counters, and keep
        their current values.
        """
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            warm_starts=self.warm_starts - earlier.warm_starts,
            entries=self.entries,
            max_entries=self.max_entries,
        )

    def __str__(self) -> str:
        return (
            f"{self.hits}/{self.lookups} hits ({self.hit_rate * 100:.1f} %), "
            f"{self.evictions} evictions, {self.warm_starts} warm starts, "
            f"{self.entries}/{self.max_entries} entries"
        )


class EquilibriumCache:
    """Bounded LRU cache of equilibrium solutions with telemetry.

    Args:
        max_entries: Capacity bound.  Beyond it the least recently
            used entry is evicted.  ``0`` disables storage entirely
            (every lookup misses) — useful for honest benchmarking.
        warm_start: When ``False``, :meth:`suggest_initial` always
            returns ``None`` so every cache miss is solved from the
            cold proportional-demand guess.  Cold solves depend only
            on the co-run itself — not on which solves happened
            before — which is what makes the :mod:`repro.parallel`
            batch predictor bit-identical to the scalar solver.
    """

    def __init__(self, max_entries: int = 4096, warm_start: bool = True):
        if max_entries < 0:
            raise ConfigurationError("max_entries must be non-negative")
        self.max_entries = max_entries
        self.warm_start = warm_start
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._last_sizes: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._warm_starts = 0

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[Any]:
        """Cached value for ``key``, or ``None`` (counts hit/miss)."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                value = None
            else:
                self._data.move_to_end(key)
                self._hits += 1
        observer = get_observer()
        if observer.enabled:
            name = "solver_cache.misses" if value is None else "solver_cache.hits"
            observer.counter(name).inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value`` under ``key``, evicting LRU entries."""
        if self.max_entries == 0:
            return
        evicted = 0
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            observer = get_observer()
            if observer.enabled:
                observer.counter("solver_cache.evictions").inc(evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop all entries and warm-start memory (counters survive)."""
        with self._lock:
            self._data.clear()
            self._last_sizes.clear()

    # ------------------------------------------------------------------
    # Newton warm starts
    # ------------------------------------------------------------------
    def record_sizes(self, names: Sequence[str], sizes: Sequence[float]) -> None:
        """Remember each process's most recent equilibrium size."""
        with self._lock:
            for name, size in zip(names, sizes):
                self._last_sizes[name] = float(size)

    def suggest_initial(
        self, names: Sequence[str], total_ways: int
    ) -> Optional[List[float]]:
        """Warm-start sizes from cached neighbour solutions.

        Returns the processes' most recent equilibrium sizes rescaled
        to the Eq. 1 capacity, or ``None`` when any process has never
        been solved (the solver's default guess is then as good) or
        warm starting is disabled.
        """
        if not self.warm_start:
            return None
        with self._lock:
            try:
                sizes = [self._last_sizes[name] for name in names]
            except KeyError:
                return None
            total = sum(sizes)
            if total <= 0.0:
                return None
            self._warm_starts += 1
            scale = total_ways / total
            suggestion = [s * scale for s in sizes]
        observer = get_observer()
        if observer.enabled:
            observer.counter("solver_cache.warm_starts").inc()
        return suggestion

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                warm_starts=self._warm_starts,
                entries=len(self._data),
                max_entries=self.max_entries,
            )

    def __repr__(self) -> str:
        return f"EquilibriumCache({self.stats})"
