"""Shared, bounded cache for equilibrium solutions.

Every prediction — combined-model power estimates, throughput
estimates, and the assignment searchers that sit on top of them —
funnels through the same ``solve_equilibrium`` hot path, and an
assignment search revisits the same co-run combinations hundreds of
times.  :class:`EquilibriumCache` memoises those solves behind a
bounded LRU with hit/miss/eviction counters.  It stores solutions
only: every miss is solved from the cold proportional-demand guess, so
a solution depends on its co-run alone, never on which solves came
before it.

One cache instance can be shared across
:class:`~repro.core.combined.CombinedModel` instances and
:class:`~repro.core.performance_model.PerformanceModel` instances, as
long as they are built over the same registered profiles — the cache
keys carry the cache geometry and the co-run but deliberately not the
profile contents.  Replacing a registered feature vector must
therefore invalidate the cache (``PerformanceModel.register`` does).

The cache is guarded by a lock so a future batched/async serving
layer can share it across worker threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.errors import ConfigurationError
from repro.obs import get_observer


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of an :class:`EquilibriumCache`'s counters."""

    hits: int
    misses: int
    evictions: int
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
            entries=self.entries,
            max_entries=self.max_entries,
        )

    def __str__(self) -> str:
        return (
            f"{self.hits}/{self.lookups} hits ({self.hit_rate * 100:.1f} %), "
            f"{self.evictions} evictions, "
            f"{self.entries}/{self.max_entries} entries"
        )


class EquilibriumCache:
    """Bounded LRU cache of equilibrium solutions with telemetry.

    Args:
        max_entries: Capacity bound.  Beyond it the least recently
            used entry is evicted.  ``0`` disables storage entirely
            (every lookup misses) — useful for honest benchmarking.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 0:
            raise ConfigurationError("max_entries must be non-negative")
        self.max_entries = max_entries
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

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
        """Drop all entries (counters survive)."""
        with self._lock:
            self._data.clear()

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
                entries=len(self._data),
                max_entries=self.max_entries,
            )

    def __repr__(self) -> str:
        return f"EquilibriumCache({self.stats})"
