"""Counter / gauge / histogram registry for the observability layer.

Three metric kinds cover everything the pipeline wants to count:

- :class:`Counter` — monotonically increasing totals (solver
  iterations, cache hits, simulated accesses).
- :class:`Gauge` — last-written values (current hit rate, last
  measured watts).
- :class:`Histogram` — streaming summaries (count/sum/min/max/mean)
  of per-event samples (residual norms, per-window power), kept O(1)
  in memory so instrumenting a million-event run costs nothing.

A :class:`MetricsRegistry` interns metrics by name and serialises the
whole set to one plain-JSON document.  Registries are lock-guarded so
a future batched/async serving layer can share one across workers.

Disabled observers hand out the module-level null singletons instead
(:data:`NULL_COUNTER`, …) whose mutators are no-ops — call sites can
always call ``.inc()``/``.observe()`` without checking for ``None``.
"""

from __future__ import annotations

import math
import threading
from typing import Dict

from repro.errors import ConfigurationError

METRICS_FORMAT_VERSION = 1


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only increase; use a gauge")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Resolution floor of the histogram's quantile buckets.  Bucket 0
#: holds every sample <= this value; bucket ``i`` holds samples in
#: ``(_BUCKET_BASE * 2**(i-1), _BUCKET_BASE * 2**i]``.  1 µs is fine
#: for latencies (the dominant quantile consumer) and harmless for
#: unitless samples — quantiles are then simply coarse at the low end.
_BUCKET_BASE = 1e-6
_BUCKET_LIMIT = 64  # 1e-6 * 2**63 ≈ 9.2e12: everything above saturates


def _bucket_index(value: float) -> int:
    if value <= _BUCKET_BASE:
        return 0
    index = 1 + int(math.log2(value / _BUCKET_BASE))
    # Guard the exact-power-of-two edge: log2 can round up.
    if _BUCKET_BASE * 2.0 ** (index - 1) >= value:
        index -= 1
    return min(_BUCKET_LIMIT, max(1, index))


def quantile_from_buckets(buckets: Dict[int, int], q: float) -> float:
    """Upper-bound ``q``-quantile of a ``bucket index -> count`` map.

    The estimate is the upper edge of the bucket holding the q-th
    sample, i.e. conservative within one power of two — good enough
    for an SLO check, not a precision statistic.
    Returns 0.0 for an empty map.  Use with
    :meth:`Histogram.bucket_counts` deltas to get *windowed* quantiles
    from the cumulative histograms in a metrics registry.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    total = sum(buckets.values())
    if total <= 0:
        return 0.0
    rank = q * total
    seen = 0
    for index in sorted(buckets):
        seen += buckets[index]
        if seen >= rank:
            return _BUCKET_BASE * 2.0 ** index if index else _BUCKET_BASE
    return _BUCKET_BASE * 2.0 ** max(buckets)


class Histogram:
    """Streaming count/sum/min/max summary of observed samples.

    Also keeps O(1)-memory log2-spaced bucket counts so consumers can
    read coarse quantiles (:meth:`quantile`) or windowed deltas
    (:meth:`bucket_counts`); the JSON export schema is unchanged —
    buckets feed in-process readers, not documents.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = _bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def bucket_counts(self) -> Dict[int, int]:
        """Copy of the log2 bucket counts (``index -> count``)."""
        return dict(self._buckets)

    def quantile(self, q: float) -> float:
        """Conservative ``q``-quantile over every observed sample."""
        return quantile_from_buckets(self._buckets, q)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:  # noqa: ARG002 - no-op
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


#: Shared no-op instances handed out by disabled observers.
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named counters, gauges and histograms with JSON export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge()
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram()
            return metric

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def to_dict(self) -> Dict:
        """Self-describing plain-JSON document of every metric."""
        with self._lock:
            return {
                "kind": "metrics",
                "version": METRICS_FORMAT_VERSION,
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: h.to_dict() for n, h in sorted(self._histograms.items())
                },
            }
