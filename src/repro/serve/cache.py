"""Bounded canonical-mix prediction result cache for the serve layer.

PPT-Multicore-style reuse: an analytical co-run price never changes
for a given (model content, cache geometry, mix), so a hot repeated
mix should never reach the solver twice.  The cache key is

    ``(artifact SHA-256 digest, ways, sorted mix multiset)``

which makes invalidation free: publishing new content under a name
produces a new digest (see :mod:`repro.serve.registry`), so every
request resolving the new version misses and re-solves, while pinned
``name@old`` requests keep hitting their old entries until LRU
pressure evicts them.  Requests carrying per-process DVFS frequency
ratios (see :mod:`repro.hetero`) key on the sorted ``(name, ratio)``
multiset instead: the same mix at two different ratios solves to two
different equilibria and must never share an entry.  All-unit ratios
normalize to the plain name key, exactly as the model normalizes
``frequency_ratios=None`` — a unit-ratio request is a hit for a
ratio-free entry and vice versa, and both are bit-identical solves.

**Canonical order and bit-identity.**  The equilibrium solver is
order-independent by construction — the model solves every mix in
:func:`~repro.core.performance_model.canonical_order` and permutes the
solution back — so one cached solve serves *every* ordering of the
same multiset.  The cache stores the per-process predictions in that
canonical order and rebuilds a
:class:`~repro.core.performance_model.CoRunPrediction` for the
caller's order with the same permutation: a cache-hit response is
bit-identical to what a cold solve of the same request would have
produced.

The cache is a plain bounded LRU guarded by one lock: the HTTP
handler probes it on the event loop, and nothing here blocks.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.performance_model import CoRunPrediction, canonical_order
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry

__all__ = ["PredictionResultCache", "canonical_mix", "restore_order"]


def canonical_mix(names: Sequence[str]) -> Tuple[str, ...]:
    """The sorted multiset a mix solves as (cache-key component)."""
    return tuple(sorted(names))


def _normalized_ratios(
    names: Sequence[str], frequency_ratios: Optional[Sequence[float]]
) -> Tuple[float, ...]:
    """Per-process ratios with ``None`` meaning all-unit (model's rule)."""
    if frequency_ratios is None:
        return (1.0,) * len(names)
    ratios = tuple(float(ratio) for ratio in frequency_ratios)
    if len(ratios) != len(names):
        raise ConfigurationError(
            f"frequency_ratios has {len(ratios)} entries for a "
            f"{len(names)}-process mix"
        )
    return ratios


def _slots(
    names: Sequence[str],
    frequency_ratios: Optional[Sequence[float]] = None,
) -> List[int]:
    """``slot[i]`` = canonical position of original index ``i``."""
    return canonical_order(names, _normalized_ratios(names, frequency_ratios))[1]


def restore_order(
    entry: "CacheEntry",
    names: Sequence[str],
    frequency_ratios: Optional[Sequence[float]] = None,
):
    """Rebuild a ``CoRunPrediction`` for ``names``'s own order."""
    slots = _slots(names, frequency_ratios)
    return CoRunPrediction(
        processes=tuple(entry.processes[slots[i]] for i in range(len(names))),
        solver=entry.solver,
        contended=entry.contended,
    )


class CacheEntry:
    """One cached solve, held in canonical (sorted-name) order."""

    __slots__ = ("processes", "solver", "contended")

    def __init__(self, processes: Tuple, solver: str, contended: bool):
        self.processes = processes
        self.solver = solver
        self.contended = contended

    @classmethod
    def from_prediction(
        cls,
        names: Sequence[str],
        prediction,
        frequency_ratios: Optional[Sequence[float]] = None,
    ) -> "CacheEntry":
        """Permute a request-order prediction into canonical order."""
        slots = _slots(names, frequency_ratios)
        canonical: List = [None] * len(names)
        for index, process in enumerate(prediction.processes):
            canonical[slots[index]] = process
        return cls(
            processes=tuple(canonical),
            solver=prediction.solver,
            contended=prediction.contended,
        )


class PredictionResultCache:
    """Bounded LRU of served co-run predictions.

    Args:
        capacity: Maximum entries; must be >= 1 (a disabled cache is
            expressed by *not constructing one* — see
            :class:`~repro.serve.http.PredictionService`).
        metrics: Registry receiving ``serve.cache.hits`` /
            ``serve.cache.misses`` / ``serve.cache.evictions`` counters
            and the ``serve.cache.size`` gauge (default: private).
    """

    def __init__(self, capacity: int, metrics: Optional[MetricsRegistry] = None):
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key(
        digest: str,
        ways: int,
        names: Sequence[str],
        frequency_ratios: Optional[Sequence[float]] = None,
    ) -> Tuple:
        ratios = _normalized_ratios(names, frequency_ratios)
        if all(ratio == 1.0 for ratio in ratios):
            # Unit ratios are the model's ``None`` normalization: same
            # solve, same key — never fork the entry.
            return (digest, ways, canonical_mix(names))
        return (digest, ways, canonical_order(names, ratios)[0])

    def get(
        self,
        digest: str,
        ways: int,
        names: Sequence[str],
        frequency_ratios: Optional[Sequence[float]] = None,
    ):
        """The cached ``CoRunPrediction`` in ``names``'s order, or None."""
        key = self.key(digest, ways, names, frequency_ratios)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.metrics.counter("serve.cache.misses").inc()
                return None
            self._entries.move_to_end(key)
            self.metrics.counter("serve.cache.hits").inc()
        return restore_order(entry, names, frequency_ratios)

    def put(
        self,
        digest: str,
        ways: int,
        names: Sequence[str],
        prediction,
        frequency_ratios: Optional[Sequence[float]] = None,
    ) -> None:
        """Store a request-order prediction under its canonical key."""
        key = self.key(digest, ways, names, frequency_ratios)
        entry = CacheEntry.from_prediction(names, prediction, frequency_ratios)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.metrics.counter("serve.cache.evictions").inc()
            self.metrics.gauge("serve.cache.size").set(len(self._entries))

    def stats(self) -> Dict[str, float]:
        """Counter snapshot (hits / misses / evictions / size)."""
        counters = self.metrics.to_dict()["counters"]
        return {
            "hits": counters.get("serve.cache.hits", 0),
            "misses": counters.get("serve.cache.misses", 0),
            "evictions": counters.get("serve.cache.evictions", 0),
            "size": len(self),
        }
