"""repro.obs — tracing + metrics for the model pipeline.

Every stage of the prediction pipeline (simulator, equilibrium
solvers, prediction cache, profiling, power measurement) reports into
one :class:`Observer`: spans for *where time went* and counters /
gauges / histograms for *what happened*.  Instrumentation is off by
default — :func:`get_observer` returns the shared
:data:`NULL_OBSERVER`, whose ``enabled`` flag lets hot paths skip all
bookkeeping with a single attribute check — so the disabled-path
overhead on the predict hot path stays under the budget
``benchmarks/bench_obs_overhead.py`` enforces.

Typical use::

    from repro import obs

    observer = obs.Observer()
    with obs.use_observer(observer):
        model.predict(["mcf", "gzip"])
    observer.write_trace("trace.json")
    observer.write_metrics("metrics.json")

Call sites inside the library follow one convention::

    o = obs.get_observer()
    if o.enabled:
        with o.span("stage", key=value):
            ...
        o.counter("stage.events").inc()

The CLI exposes the same machinery via ``--trace FILE`` and
``--metrics FILE`` on ``predict``, ``run``, ``profile`` and
``assign``.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Union

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    METRICS_FORMAT_VERSION,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    quantile_from_buckets,
)
from repro.obs.trace import NULL_SPAN, Span, TRACE_FORMAT_VERSION, Tracer

__all__ = [
    "Observer",
    "NULL_OBSERVER",
    "get_observer",
    "set_observer",
    "use_observer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "METRICS_FORMAT_VERSION",
    "TRACE_FORMAT_VERSION",
    "quantile_from_buckets",
]


class Observer:
    """Bundles a :class:`Tracer` and a :class:`MetricsRegistry`.

    Attributes:
        enabled: Hot paths check this single flag; when ``False``
            (only the shared :data:`NULL_OBSERVER`) every method is a
            cheap no-op.
    """

    enabled = True

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Instrumentation surface
    # ------------------------------------------------------------------
    def span(self, name: str, /, **attributes) -> Span:
        return self.tracer.span(name, **attributes)

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.metrics.histogram(name)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def trace_dict(self) -> Dict:
        return self.tracer.to_dict()

    def metrics_dict(self) -> Dict:
        return self.metrics.to_dict()

    def write_trace(self, path) -> None:
        """Write finished spans as JSON (io.py conventions).

        Span attributes may carry non-finite floats (a NaN watts
        annotation from a failed fit, say); they are sanitized to
        string markers so the export is always strict JSON — a trace
        of a failing run must never itself fail to write.
        """
        from repro.io import sanitize_non_finite, save_json

        save_json(sanitize_non_finite(self.trace_dict()), path)

    def write_metrics(self, path) -> None:
        """Write the metric registry as JSON (io.py conventions).

        Sanitized like :meth:`write_trace`: a gauge set to NaN or a
        histogram fed an infinity exports as a string marker instead
        of invalidating the whole document.
        """
        from repro.io import sanitize_non_finite, save_json

        save_json(sanitize_non_finite(self.metrics_dict()), path)


class _NullObserver(Observer):
    """Disabled observer: every handle it returns is a shared no-op."""

    enabled = False

    def __init__(self) -> None:  # no tracer/registry allocation
        pass

    def span(self, name: str, /, **attributes):
        return NULL_SPAN

    def counter(self, name: str) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return NULL_HISTOGRAM

    def trace_dict(self) -> Dict:
        return {"kind": "trace", "version": TRACE_FORMAT_VERSION, "spans": []}

    def metrics_dict(self) -> Dict:
        return {
            "kind": "metrics",
            "version": METRICS_FORMAT_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


#: The process-wide disabled observer (default).
NULL_OBSERVER = _NullObserver()

_OBSERVER: Observer = NULL_OBSERVER


def get_observer() -> Observer:
    """The currently installed observer (default: disabled no-op)."""
    return _OBSERVER


def set_observer(observer: Union[Observer, None]) -> Observer:
    """Install ``observer`` process-wide; returns the previous one.

    Pass ``None`` to restore the disabled default.
    """
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer if observer is not None else NULL_OBSERVER
    return previous


@contextlib.contextmanager
def use_observer(observer: Observer) -> Iterator[Observer]:
    """Temporarily install ``observer`` (restores the previous one)."""
    previous = set_observer(observer)
    try:
        yield observer
    finally:
        set_observer(previous)
