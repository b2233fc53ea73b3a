"""Nested spans with wall- and CPU-clock timing.

A :class:`Span` is a context manager; entering pushes it on the
tracer's stack (so spans opened inside it become its children) and
exiting records wall time (``time.perf_counter``), CPU time
(``time.process_time``) and whether the body raised.  Finished spans
are appended to the owning :class:`Tracer` as flat records linked by
``parent_id`` — the natural shape for JSON export and for streaming
to a collector later.

The disabled path never builds spans: observers hand out the shared
:data:`NULL_SPAN`, whose enter/exit/annotate are no-ops.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Dict, List, Optional

TRACE_FORMAT_VERSION = 1

_LOG = logging.getLogger("repro.obs.trace")


class Span:
    """One timed, attributed operation; use as a context manager."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attributes",
        "start_s",
        "wall_s",
        "cpu_s",
        "status",
        "_tracer",
        "_cpu_start",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict):
        self.name = name
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.attributes = attributes
        self.start_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.status = "ok"
        self._tracer = tracer
        self._cpu_start = 0.0

    def annotate(self, **attributes) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self.start_s = time.perf_counter()
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self.start_s
        self.cpu_s = time.process_time() - self._cpu_start
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._close(self)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


class _NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def annotate(self, **attributes) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans; hands out nested ones via a stack."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stack: List[Span] = []
        self._finished: List[Span] = []
        self._next_id = 1

    def span(self, name: str, /, **attributes) -> Span:
        """A new span; nest by entering it while another is open.

        ``name`` is positional-only so an attribute may also be called
        ``name`` (e.g. ``span("profile", name=benchmark.name)``).
        """
        return Span(self, name, attributes)

    # ------------------------------------------------------------------
    # Span lifecycle (called by Span.__enter__/__exit__)
    # ------------------------------------------------------------------
    def _open(self, span: Span) -> None:
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            if self._stack:
                span.parent_id = self._stack[-1].span_id
            self._stack.append(span)

    def _close(self, span: Span) -> None:
        with self._lock:
            # Tolerate out-of-order exits (generators, leaked spans):
            # remove the span wherever it sits instead of asserting
            # strict stack discipline — but never silently: the span
            # is marked and the anomaly logged so a missing parent
            # link in an exported trace can be traced back here.
            try:
                self._stack.remove(span)
            except ValueError:
                span.status = "error"
                span.attributes.setdefault("error", "span closed while not open")
                _LOG.debug(
                    "span %r (id %s) closed while not on the tracer stack",
                    span.name,
                    span.span_id,
                )
            self._finished.append(span)

    # ------------------------------------------------------------------
    # Inspection / export
    # ------------------------------------------------------------------
    @property
    def finished(self) -> List[Span]:
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._stack.clear()
            self._finished.clear()
            self._next_id = 1

    def to_dict(self) -> Dict:
        """Self-describing plain-JSON document of finished spans."""
        with self._lock:
            return {
                "kind": "trace",
                "version": TRACE_FORMAT_VERSION,
                "spans": [span.to_dict() for span in self._finished],
            }
