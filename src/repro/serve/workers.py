"""N shared-nothing prediction-server workers behind ``SO_REUSEPORT``.

One asyncio loop feeding one in-process solver is the single-worker
ceiling.  :func:`start_worker_pool` scales past it the boring,
reliable way: N independent *processes*, each running the complete
:class:`~repro.serve.http.PredictionServer` stack (own registry, own
batchers, own result cache, own metrics), all listening on the same
``host:port`` with ``SO_REUSEPORT`` so the kernel load-balances
incoming connections across them.  Nothing is shared, so there is
nothing to coordinate — and served predictions are bit-identical
across workers because every worker publishes the same artifacts and
the whole solve path is deterministic (the cross-worker consistency
test pins exactly that).

Mechanics worth knowing:

- **Port reservation.**  With ``port=0`` the parent binds a probe
  socket (``SO_REUSEPORT``, no ``listen``) to reserve a concrete
  ephemeral port, hands that port to every worker, and keeps the
  probe bound for the pool's lifetime.  A bound-but-not-listening
  socket never receives connections, so it costs nothing; it only
  prevents the port being reassigned if every worker dies.
- **Spawn, not fork.**  Workers start via the ``spawn`` context:
  model sources (paths, documents, result bundles) are pickled over,
  which keeps float payloads bit-exact and avoids forking a process
  that already runs threads.
- **Lifecycle.**  Each worker installs the same SIGTERM/SIGINT
  handler the ``repro serve`` CLI uses and drains gracefully;
  :meth:`WorkerPool.stop` sends SIGTERM, joins, and escalates to kill
  only after ``timeout``.
"""

from __future__ import annotations

import multiprocessing
import signal
import socket
import threading
from typing import Any, List, Mapping, Optional

from repro.errors import ConfigurationError

__all__ = ["WorkerPool", "start_worker_pool"]


def _reuseport_supported() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


def _probe_socket(host: str, port: int) -> socket.socket:
    """Reserve ``host:port`` with SO_REUSEPORT without listening."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def _worker_main(
    worker_id: int,
    models: Mapping[str, Any],
    host: str,
    port: int,
    ready_queue,
    server_kwargs: Mapping[str, Any],
) -> None:
    """One worker process: serve until SIGTERM/SIGINT, then drain."""
    from repro.serve.handle import start_server

    stop_event = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal interface
        stop_event.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        handle = start_server(
            models,
            host=host,
            port=port,
            reuse_port=True,
            worker_id=worker_id,
            **dict(server_kwargs),
        )
    except BaseException as error:  # surfaced in the parent
        ready_queue.put(("error", worker_id, repr(error)))
        raise
    ready_queue.put(("ready", worker_id, handle.port))
    stop_event.wait()
    handle.stop()


class WorkerPool:
    """Handle on N running server workers sharing one listen address."""

    def __init__(
        self,
        host: str,
        port: int,
        processes: List,
        probe: Optional[socket.socket],
    ):
        self.host = host
        self.port = port
        self._processes = processes
        self._probe = probe
        self._stopped = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def workers(self) -> int:
        return len(self._processes)

    @property
    def pids(self) -> List[int]:
        return [process.pid for process in self._processes]

    def alive(self) -> List[bool]:
        """Per-worker liveness (order matches :attr:`pids`)."""
        return [process.is_alive() for process in self._processes]

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM every worker, join, escalate to kill (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        for process in self._processes:
            if process.is_alive():
                process.terminate()  # SIGTERM: workers drain gracefully
        for process in self._processes:
            process.join(timeout)
        for process in self._processes:
            if process.is_alive():
                process.kill()
                process.join(5.0)
        if self._probe is not None:
            self._probe.close()
            self._probe = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def start_worker_pool(
    models: Mapping[str, Any],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    http_workers: int = 2,
    boot_timeout_s: float = 120.0,
    **server_kwargs: Any,
) -> WorkerPool:
    """Boot ``http_workers`` shared-nothing servers on one address.

    Args:
        models: ``name -> source`` published by *every* worker — paths,
            raw documents, or picklable result bundles (see
            :meth:`~repro.serve.registry.ModelRegistry.publish`).
        host / port: Listen address; ``port=0`` reserves an ephemeral
            port all workers share.
        http_workers: Worker process count (>= 1).
        boot_timeout_s: Deadline for every worker to report ready.
        server_kwargs: Per-worker server knobs, passed to
            :func:`~repro.serve.handle.start_server` (``max_batch_size``,
            ``max_linger_ms``, ``result_cache_size``, ...).

    Returns a :class:`WorkerPool`; use it as a context manager or call
    :meth:`~WorkerPool.stop`.
    """
    if http_workers < 1:
        raise ConfigurationError("http_workers must be >= 1")
    if not _reuseport_supported():
        raise ConfigurationError(
            "SO_REUSEPORT is not available on this platform; "
            "run a single server (http_workers=1) instead"
        )
    if not models:
        raise ConfigurationError("worker pool needs at least one model to serve")
    probe = _probe_socket(host, port)
    actual_port = probe.getsockname()[1]
    context = multiprocessing.get_context("spawn")
    ready_queue = context.Queue()
    processes = []
    try:
        for worker_id in range(http_workers):
            process = context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    dict(models),
                    host,
                    actual_port,
                    ready_queue,
                    dict(server_kwargs),
                ),
                name=f"repro-serve-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            processes.append(process)
        pending = set(range(http_workers))
        while pending:
            try:
                status, worker_id, detail = ready_queue.get(
                    timeout=boot_timeout_s
                )
            except Exception:
                raise RuntimeError(
                    f"workers {sorted(pending)} failed to report ready "
                    f"within {boot_timeout_s}s"
                ) from None
            if status != "ready":
                raise RuntimeError(f"worker {worker_id} failed to boot: {detail}")
            pending.discard(worker_id)
    except BaseException:
        for process in processes:
            if process.is_alive():
                process.kill()
        for process in processes:
            process.join(5.0)
        probe.close()
        raise
    return WorkerPool(host, actual_port, processes, probe)
