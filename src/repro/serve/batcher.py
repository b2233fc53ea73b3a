"""Dynamic micro-batching with admission control.

One equilibrium solve costs a millisecond-ish, so a lone query should
be answered in about that time; but a scheduler exploring tentative
assignments issues *many* of them at once.  The :class:`MicroBatcher`
turns that concurrency into engine-sized batches without making a
lone request wait for companions:

- Concurrent :meth:`~MicroBatcher.submit` calls append to a pending
  queue; a single flusher task assembles batches and dispatches them
  through a persistent :class:`~repro.parallel.ParallelPredictor`
  (whose cold-start solves make served results bit-identical to
  independent :func:`repro.api.predict_mix` calls — see
  :mod:`repro.parallel`).
- Dispatch runs on a one-thread executor so the event loop keeps
  accepting requests while a batch computes.  The flusher awaits each
  dispatch before it looks at the queue again, so by default
  (``max_linger_s=0``) a request that arrives while the solver is
  idle goes straight to the engine, and requests that arrive during a
  solve form the next batch, up to ``max_batch_size`` (pipelining).
  Batches grow exactly as fast as load outruns the solver, and a lone
  request never waits for companions that are not coming.
- An explicit ``max_linger_s`` is a throughput setting for
  saturating concurrent load: a partial batch then waits until its
  oldest request has lingered that long (or the batch fills), which
  coalesces bigger batches at the cost of latency.
- Each dispatch counts its flush reason: ``serve.batch.flush_size``
  (the batch filled), ``flush_idle`` (a partial batch dispatched
  without waiting), ``flush_linger`` (it waited out an explicit
  linger) or ``flush_drain`` (:meth:`~MicroBatcher.stop`).

Admission control keeps the queue honest:

- At most ``max_queue`` requests may wait; beyond that
  :meth:`submit` raises :class:`QueueFullError` *immediately* — shed
  requests never hang and never consume model capacity.
- A request may carry a deadline.  The contract is
  **expire-at-enqueue and expire-at-dequeue**: a deadline that has
  already passed (or is exactly due, ``timeout_s <= 0``) is shed at
  :meth:`submit` before the request ever queues, and a deadline that
  passes while the request waits is shed when its batch is assembled
  — both complete with :class:`DeadlineExpiredError` and never reach
  the engine.  A deadline that passes *during* the in-flight solve
  does **not** cancel the solve; the request still completes with its
  result (the work is already paid for, and mid-solve cancellation
  would make batch latency depend on sibling deadlines).
- :meth:`stop` (graceful shutdown) rejects new work, flushes
  everything still queued, waits for the in-flight batch, then
  releases the engine.
"""

from __future__ import annotations

import asyncio
import functools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.serve.errors import (
    DeadlineExpiredError,
    QueueFullError,
    ServiceClosedError,
)

__all__ = ["MicroBatcher"]


@dataclass
class _PendingRequest:
    names: Tuple[str, ...]
    future: "asyncio.Future"
    enqueued_at: float
    deadline: Optional[float]  # loop-clock absolute time, None = no deadline
    frequency_ratios: Optional[Tuple[float, ...]] = None


class MicroBatcher:
    """Coalesce concurrent predict requests into engine batches.

    Args:
        engine: Anything with ``predict_mixes(mixes) -> results`` and
            ``close()`` — in production a persistent
            :class:`~repro.parallel.ParallelPredictor`.
        max_batch_size: Flush as soon as this many requests wait.
        max_linger_s: Hold a partial batch until its oldest request
            has waited this long (seconds).  The default ``0``
            dispatches whatever is queued as soon as the engine is
            idle; a positive linger trades latency for bigger batches
            under saturating concurrent load.
        max_queue: Admission bound; further submits shed with
            :class:`QueueFullError`.
        metrics: Registry that receives the batcher's counters /
            histograms (default: a private one).
        close_engine: Close the engine during :meth:`stop`.
    """

    def __init__(
        self,
        engine,
        *,
        max_batch_size: int = 32,
        max_linger_s: float = 0.0,
        max_queue: int = 256,
        metrics: Optional[MetricsRegistry] = None,
        close_engine: bool = True,
    ):
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if max_linger_s < 0:
            raise ConfigurationError("max_linger_s must be non-negative")
        if max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        self.engine = engine
        self.max_batch_size = max_batch_size
        self.max_linger_s = max_linger_s
        self.max_queue = max_queue
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._close_engine = close_engine
        self._pending: Deque[_PendingRequest] = deque()
        self._wake: Optional[asyncio.Event] = None
        self._task: Optional["asyncio.Task"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._dispatch_pool: Optional[ThreadPoolExecutor] = None
        self._draining = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests currently queued (not yet dispatched)."""
        return len(self._pending)

    @property
    def accepting(self) -> bool:
        return not self._draining and not self._stopped

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._task is None or self._task.done():
            self._loop = asyncio.get_running_loop()
            self._wake = asyncio.Event()
            # One dispatch thread: batches serialise through the engine
            # (well-defined ParallelPredictor reuse) while accumulation
            # of the next batch overlaps the current batch's solve.
            self._dispatch_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-dispatch"
            )
            self._task = self._loop.create_task(self._flush_loop())

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting work; optionally flush what is queued.

        With ``drain=True`` (graceful shutdown) every queued request
        is dispatched (or expired) and the in-flight batch completes
        before the engine is released.  With ``drain=False`` queued
        requests fail fast with :class:`ServiceClosedError`.
        """
        if self._stopped:
            return
        self._draining = True
        if not drain:
            while self._pending:
                request = self._pending.popleft()
                if not request.future.done():
                    request.future.set_exception(
                        ServiceClosedError("service stopped before dispatch")
                    )
        if self._wake is not None:
            self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        self._stopped = True
        if self._dispatch_pool is not None:
            self._dispatch_pool.shutdown(wait=True)
            self._dispatch_pool = None
        if self._close_engine:
            self.engine.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        names: Sequence[str],
        *,
        frequency_ratios: Optional[Sequence[float]] = None,
        timeout_s: Optional[float] = None,
    ):
        """Queue one mix for prediction; awaits its result.

        ``frequency_ratios`` optionally gives one DVFS frequency ratio
        per process (see :mod:`repro.hetero`); the batch forwards them
        positionally to the engine's ``predict_mixes``.

        Raises:
            QueueFullError: The pending queue is at ``max_queue``.
            DeadlineExpiredError: ``timeout_s`` elapsed before the
                request's batch was dispatched — including
                ``timeout_s <= 0``, which is already due at enqueue
                and is shed immediately without consuming queue
                capacity (see the module docstring for the full
                expire-at-enqueue / expire-at-dequeue contract).
            ServiceClosedError: The batcher is draining or stopped.
        """
        if not self.accepting:
            raise ServiceClosedError("service is draining; not accepting requests")
        self._ensure_started()
        assert self._loop is not None and self._wake is not None
        if timeout_s is not None and timeout_s <= 0:
            # A deadline exactly equal to "now" must shed deterministically
            # (504), not race the flusher's clock read at dispatch time.
            self.metrics.counter("serve.predict.deadline_expired").inc()
            raise DeadlineExpiredError(
                f"deadline of {timeout_s:.3f}s was already due at enqueue; "
                "request was not queued"
            )
        if len(self._pending) >= self.max_queue:
            self.metrics.counter("serve.predict.shed").inc()
            raise QueueFullError(
                f"pending queue is full ({self.max_queue} requests); retry later"
            )
        now = self._loop.time()
        request = _PendingRequest(
            names=tuple(names),
            future=self._loop.create_future(),
            enqueued_at=now,
            deadline=now + timeout_s if timeout_s is not None else None,
            frequency_ratios=(
                tuple(float(ratio) for ratio in frequency_ratios)
                if frequency_ratios is not None
                else None
            ),
        )
        self._pending.append(request)
        self.metrics.counter("serve.predict.requests").inc()
        self.metrics.gauge("serve.queue.depth").set(len(self._pending))
        self._wake.set()
        return await request.future

    # ------------------------------------------------------------------
    # Flusher
    # ------------------------------------------------------------------
    async def _flush_loop(self) -> None:
        assert self._loop is not None and self._wake is not None
        while True:
            if not self._pending:
                if self._draining:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            reason = await self._linger()
            batch = self._take_batch()
            if batch:
                self.metrics.counter(f"serve.batch.flush_{reason}").inc()
                await self._dispatch(batch)

    async def _linger(self) -> str:
        """Wait for the batch to fill; returns the flush reason."""
        assert self._loop is not None and self._wake is not None
        while True:
            if len(self._pending) >= self.max_batch_size:
                return "size"
            if self._draining:
                return "drain"
            if self.max_linger_s == 0:
                return "idle"
            oldest = self._pending[0].enqueued_at
            remaining = oldest + self.max_linger_s - self._loop.time()
            if remaining <= 0:
                return "linger"
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), remaining)
            except asyncio.TimeoutError:
                return "linger"

    def _take_batch(self) -> List[_PendingRequest]:
        """Pop up to ``max_batch_size`` live requests; expire the dead.

        Requests whose deadline passed while they queued complete with
        :class:`DeadlineExpiredError` here — before dispatch — so the
        engine never spends a solve on an answer nobody is waiting for.
        Cancelled futures (disconnected clients) are dropped the same
        way.
        """
        assert self._loop is not None
        now = self._loop.time()
        batch: List[_PendingRequest] = []
        while self._pending and len(batch) < self.max_batch_size:
            request = self._pending.popleft()
            if request.future.done():  # cancelled while queued
                self.metrics.counter("serve.predict.cancelled").inc()
                continue
            if request.deadline is not None and now >= request.deadline:
                self.metrics.counter("serve.predict.deadline_expired").inc()
                request.future.set_exception(
                    DeadlineExpiredError(
                        "deadline expired after "
                        f"{now - request.enqueued_at:.3f}s in queue; "
                        "request was not dispatched"
                    )
                )
                continue
            batch.append(request)
        self.metrics.gauge("serve.queue.depth").set(len(self._pending))
        return batch

    async def _dispatch(self, batch: List[_PendingRequest]) -> None:
        assert self._loop is not None
        self.metrics.counter("serve.batch.dispatched").inc()
        self.metrics.histogram("serve.batch.size").observe(len(batch))
        start = self._loop.time()
        for request in batch:
            self.metrics.histogram("serve.predict.queue_wait_s").observe(
                start - request.enqueued_at
            )
        mixes = [request.names for request in batch]
        if any(request.frequency_ratios is not None for request in batch):
            # Only the ratio-carrying path passes the keyword so plain
            # stub engines (tests) keep their two-positional signature.
            ratios = [request.frequency_ratios for request in batch]
            call = functools.partial(
                self.engine.predict_mixes, mixes, frequency_ratios=ratios
            )
        else:
            call = functools.partial(self.engine.predict_mixes, mixes)
        try:
            results = await self._loop.run_in_executor(self._dispatch_pool, call)
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(error)
            return
        now = self._loop.time()
        self.metrics.histogram("serve.batch.solve_s").observe(now - start)
        latency = self.metrics.histogram("serve.predict.latency_s")
        for request, result in zip(batch, results):
            latency.observe(now - request.enqueued_at)
            if not request.future.done():
                request.future.set_result(result)
                self.metrics.counter("serve.predict.completed").inc()
