"""Thread-backed handle for running the server from synchronous code.

The CLI, tests and notebooks are synchronous; the server is an
asyncio application.  :func:`start_server` bridges the two: it boots a
:class:`~repro.serve.http.PredictionServer` on a dedicated daemon
thread running its own event loop and returns a :class:`ServerHandle`
once the listening socket is bound (so ``handle.port`` is always the
real, possibly ephemeral, port).  :meth:`ServerHandle.stop` performs
the same graceful drain ``SIGTERM`` triggers in the CLI: stop
listening, flush queued batches, then tear the loop down.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Mapping, Optional

from repro.serve.http import PredictionServer, PredictionService
from repro.serve.registry import ModelRegistry

__all__ = ["ServerHandle", "start_server"]


class ServerHandle:
    """A running prediction server plus the thread/loop driving it."""

    def __init__(
        self,
        server: PredictionServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ):
        self._server = server
        self._loop = loop
        self._thread = thread
        self._stop_lock = threading.Lock()
        self._stopped = False

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def registry(self) -> ModelRegistry:
        return self._server.service.registry

    @property
    def service(self) -> PredictionService:
        return self._server.service

    @property
    def running(self) -> bool:
        return self._thread.is_alive() and not self._stopped

    # ------------------------------------------------------------------
    def publish(self, name: str, source: Any):
        """Publish / hot-swap an artifact on the live server."""
        return self.registry.publish(name, source)

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Gracefully stop the server (idempotent).

        In-flight and queued requests are drained (``drain=True``)
        before the event loop shuts down; the call blocks until the
        server thread has exited.
        """
        with self._stop_lock:
            if self._stopped:
                return
            self._stopped = True
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self._server.stop(drain=drain), self._loop
            )
            future.result(timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def start_server(
    models: Optional[Mapping[str, Any]] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch_size: int = 32,
    max_linger_ms: float = 0.0,
    max_queue: int = 256,
    result_cache_size: int = 4096,
    max_body_bytes: int = 8 * 1024 * 1024,
    reuse_port: bool = False,
    worker_id: Optional[int] = None,
    boot_timeout_s: float = 30.0,
) -> ServerHandle:
    """Boot a prediction server on a background thread.

    Args:
        models: ``name -> artifact`` to publish before serving
            (result bundles, fitted power models, saved-JSON paths or
            raw documents — see :meth:`ModelRegistry.publish`).
        host / port: Bind address; ``port=0`` picks an ephemeral port.
        max_batch_size / max_linger_ms / max_queue: Micro-batching
            and admission-control knobs.  The default zero linger
            dispatches whenever the solver is idle (see
            :class:`~repro.serve.batcher.MicroBatcher`).
        result_cache_size: Canonical-mix result-cache capacity; ``0``
            disables caching (see :mod:`repro.serve.cache`).
        max_body_bytes: Request bodies above this declared size are
            rejected with 413 before being read.
        reuse_port / worker_id: Multi-worker plumbing — bind with
            ``SO_REUSEPORT`` and stamp responses with an
            ``X-Repro-Worker`` header (see :mod:`repro.serve.workers`).
    """
    registry = ModelRegistry()
    for name, source in (models or {}).items():
        registry.publish(name, source)
    service = PredictionService(
        registry,
        max_batch_size=max_batch_size,
        max_linger_s=max_linger_ms / 1000.0,
        max_queue=max_queue,
        result_cache_size=result_cache_size,
    )
    server = PredictionServer(
        service,
        host=host,
        port=port,
        max_body_bytes=max_body_bytes,
        reuse_port=reuse_port,
        worker_id=worker_id,
    )

    started = threading.Event()
    boot: dict = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        boot["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # surfaced in the caller below
            boot["error"] = error
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(boot_timeout_s):
        raise RuntimeError(f"server failed to start within {boot_timeout_s}s")
    if "error" in boot:
        raise boot["error"]
    return ServerHandle(server, boot["loop"], thread)
