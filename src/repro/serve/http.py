"""Asyncio JSON-over-HTTP front end for the prediction service.

Stdlib only: requests are parsed straight off :mod:`asyncio` streams
(HTTP/1.1 with keep-alive), bodies and responses are plain JSON.  The
surface is deliberately small:

====================  ======================================================
``GET /healthz``      liveness — 200 as long as the process runs
``GET /readyz``       readiness — 503 until started and while draining
``GET /metrics``      the service's :class:`repro.obs.MetricsRegistry`
``GET /v1/models``    registry listing (name, version, kind, digest)
``POST /v1/models``   publish / hot-swap an artifact
``POST /v1/predict``  batched co-run prediction (see below)
``POST /v1/assign``   process-to-core assignment search
``POST /v2/assign``   declarative fleet assignment (see below)
====================  ======================================================

``/v1/predict`` requests —
``{"model": "suite", "names": [...], "ways": 16, "timeout_ms": 50}`` —
are coalesced by a per-``(model version, ways)``
:class:`~repro.serve.batcher.MicroBatcher` into batches solved by a
persistent :class:`~repro.parallel.ParallelPredictor`, so the returned
``prediction`` document is bit-identical to what
:func:`repro.api.predict_mix` computes for the same suite and mix.  An
optional ``"frequency_ratios": [...]`` field (one positive number per
name) prices the mix at per-process DVFS clock ratios (see
:mod:`repro.hetero`); it flows through the result cache key and the
batch dispatch positionally.  ``ways`` is at most
:data:`MAX_PREDICT_WAYS` and ``timeout_ms`` must be a finite
non-negative number; anything else is a 400.

``/v2/assign`` requests carry a full
:class:`~repro.api.AssignmentRequest` document —
``{"suite": "...", "power_model": "...", "request": {...}}`` — and are
solved by :func:`repro.api.solve_assignment` off the event loop.  The
``/v1/assign`` schema is frozen (its exhaustive pick is a one-machine
exhaustive solve); new capabilities (fleets, power budgets,
greedy/anneal solvers) land only in ``/v2``.  Malformed request documents come back as 400 with the
offending JSON field path; fleets beyond the service's size ceilings
come back as 413.

Error mapping: unknown model → 404, oversized fleet → 413, shed
(queue full) → 429, deadline expired in queue → 504, draining/stopped
→ 503, any other library error → 400, unexpected exception → 500.
Every error body is ``{"error": ..., "type": ...}``.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ConfigurationError, ReproError
from repro.obs import MetricsRegistry
from repro.parallel import ParallelPredictor
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import PredictionResultCache
from repro.serve.errors import (
    DeadlineExpiredError,
    FleetTooLargeError,
    QueueFullError,
    ServiceClosedError,
    UnknownModelError,
)
from repro.serve.registry import Artifact, ModelRegistry

__all__ = ["PredictionService", "PredictionServer", "SERVE_FORMAT_VERSION"]

logger = logging.getLogger(__name__)

SERVE_FORMAT_VERSION = 1

# Ceilings for /v2/assign: solving is synchronous per request, so a
# pathological fleet would monopolise the assign executor.  Oversized
# requests are rejected up front with 413.
MAX_FLEET_PROCESSES = 50_000
MAX_FLEET_MACHINES = 4096

#: Largest ``ways`` /v1/predict accepts: four times the largest catalog
#: associativity (16).  Growth tables cost O(max accesses x ways), so a
#: huge associativity would pin the solver thread for one request.
MAX_PREDICT_WAYS = 64

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _BadRequest(ReproError):
    """Malformed request payload (maps to 400)."""


def _field(payload: Dict, key: str, kind, *, default=None, required: bool = False):
    value = payload.get(key, default)
    if value is None:
        if required:
            raise _BadRequest(f"missing required field {key!r}")
        return None
    if kind is int and isinstance(value, bool):
        raise _BadRequest(f"field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise _BadRequest(
            f"field {key!r} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    return value


def _names_field(payload: Dict) -> Tuple[str, ...]:
    names = payload.get("names")
    if (
        not isinstance(names, list)
        or not names
        or not all(isinstance(name, str) for name in names)
    ):
        raise _BadRequest(
            "field 'names' must be a non-empty list of process names"
        )
    return tuple(names)


class PredictionService:
    """Registry + batchers + assignment executor behind the endpoints.

    Args:
        registry: Artifact store (default: a fresh empty one).
        max_batch_size / max_linger_s / max_queue: Batching and
            admission knobs, applied to every batcher (see
            :class:`MicroBatcher`).  The default zero linger
            dispatches whenever the solver is idle; a positive linger
            coalesces bigger batches under saturating load.
        result_cache_size: Capacity of the canonical-mix prediction
            result cache (see :mod:`repro.serve.cache`); ``0``
            disables it.  Cache-hit responses are bit-identical to
            cold solves — the key carries the artifact's SHA-256
            digest, so hot swaps invalidate for free.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        max_batch_size: int = 32,
        max_linger_s: float = 0.0,
        max_queue: int = 256,
        result_cache_size: int = 4096,
    ):
        self.registry = registry if registry is not None else ModelRegistry()
        self.max_batch_size = max_batch_size
        self.max_linger_s = max_linger_s
        self.max_queue = max_queue
        self.metrics = MetricsRegistry()
        self.result_cache: Optional[PredictionResultCache] = (
            PredictionResultCache(result_cache_size, metrics=self.metrics)
            if result_cache_size
            else None
        )
        self.registry.add_listener(self._on_publish)
        # Keyed by (name, version, ways): a hot swap publishes a new
        # version and naturally gets a fresh engine; pinned requests
        # against the old version keep their old batcher.
        self._batchers: Dict[Tuple[str, int, int], MicroBatcher] = {}
        self._assign_pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    def _on_publish(self, artifact: Artifact, previous: Optional[Artifact]) -> None:
        """Registry listener: count publishes and hot swaps.

        Invalidation itself is free — cache keys and batcher keys both
        carry the version/digest, so requests resolving the new
        default version miss and re-solve while pinned requests keep
        their old entries.
        """
        self.metrics.counter("serve.models.published").inc()
        if previous is not None:
            self.metrics.counter("serve.models.hot_swaps").inc()

    # ------------------------------------------------------------------
    # Endpoints' backing operations
    # ------------------------------------------------------------------
    def _batcher_for(self, artifact: Artifact, ways: int) -> MicroBatcher:
        key = (artifact.name, artifact.version, ways)
        batcher = self._batchers.get(key)
        if batcher is None:
            engine = ParallelPredictor(artifact.obj.features, ways=ways)
            batcher = MicroBatcher(
                engine,
                max_batch_size=self.max_batch_size,
                max_linger_s=self.max_linger_s,
                max_queue=self.max_queue,
                metrics=self.metrics,
            )
            self._batchers[key] = batcher
        return batcher

    async def predict(
        self,
        model_ref: str,
        names,
        *,
        ways: int,
        frequency_ratios=None,
        timeout_s: Optional[float] = None,
    ) -> Dict:
        """Resolve, batch, solve; returns the response document."""
        if self._closed:
            raise ServiceClosedError("service is stopped")
        if not isinstance(ways, int) or ways < 1:
            raise _BadRequest(f"'ways' must be a positive integer, got {ways!r}")
        if ways > MAX_PREDICT_WAYS:
            raise _BadRequest(
                f"'ways' must be at most {MAX_PREDICT_WAYS}, got {ways!r}"
            )
        if frequency_ratios is not None:
            if not isinstance(frequency_ratios, (list, tuple)) or not all(
                isinstance(ratio, (int, float)) and not isinstance(ratio, bool)
                for ratio in frequency_ratios
            ):
                raise _BadRequest(
                    "field 'frequency_ratios' must be a list of numbers"
                )
            if len(frequency_ratios) != len(names):
                raise _BadRequest(
                    f"field 'frequency_ratios' has {len(frequency_ratios)} "
                    f"entries for {len(names)} names"
                )
            if not all(ratio > 0 for ratio in frequency_ratios):
                raise _BadRequest(
                    "field 'frequency_ratios' entries must be positive"
                )
            frequency_ratios = tuple(float(r) for r in frequency_ratios)
        artifact = self.registry.get(model_ref)
        if artifact.kind != "profile_suite":
            raise ConfigurationError(
                f"/v1/predict needs a profile_suite artifact; "
                f"{artifact.ref} is a {artifact.kind}"
            )
        self._check_names(artifact, names)
        prediction = None
        if self.result_cache is not None:
            # Probed before the batcher: a hot repeated mix skips the
            # queue and the solver entirely.  The key carries the
            # artifact digest (hot swaps miss by construction) and the
            # DVFS frequency ratios (two ratios never share an entry).
            prediction = self.result_cache.get(
                artifact.digest, ways, names, frequency_ratios
            )
        if prediction is None:
            prediction = await self._batcher_for(artifact, ways).submit(
                names, frequency_ratios=frequency_ratios, timeout_s=timeout_s
            )
            if self.result_cache is not None:
                self.result_cache.put(
                    artifact.digest, ways, names, prediction, frequency_ratios
                )
        from repro.api import MixPrediction

        mix = MixPrediction(ways=ways, names=tuple(names), prediction=prediction)
        return {
            "kind": "serve_prediction",
            "version": SERVE_FORMAT_VERSION,
            "model": artifact.ref,
            "digest": artifact.digest,
            "prediction": mix.to_dict(),
        }

    async def assign(
        self,
        suite_ref: str,
        power_ref: str,
        names,
        *,
        machine: str = "4-core-server",
        sets: int = 128,
        objective: str = "power",
        greedy: bool = False,
    ) -> Dict:
        """Run the assignment search off the event loop."""
        if self._closed:
            raise ServiceClosedError("service is stopped")
        suite = self.registry.get(suite_ref)
        if suite.kind != "profile_suite":
            raise ConfigurationError(
                f"'suite' must reference a profile_suite artifact; "
                f"{suite.ref} is a {suite.kind}"
            )
        self._check_names(suite, names)
        power = self.registry.get(power_ref)
        power_model = power.power_model()
        # The implementation function, not the public shim: /v1 must
        # stay byte-identical and must not log DeprecationWarnings.
        from repro.api import _pick_assignment_impl

        if self._assign_pool is None:
            self._assign_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-assign"
            )
        loop = asyncio.get_running_loop()
        pick = await loop.run_in_executor(
            self._assign_pool,
            functools.partial(
                _pick_assignment_impl,
                list(names),
                suite.obj,
                power_model,
                machine=machine,
                sets=sets,
                objective=objective,
                greedy=greedy,
            ),
        )
        self.metrics.counter("serve.assign.completed").inc()
        return {
            "kind": "serve_assignment",
            "version": SERVE_FORMAT_VERSION,
            "suite": suite.ref,
            "power_model": power.ref,
            "pick": pick.to_dict(),
        }

    async def assign_v2(self, payload: Dict) -> Dict:
        """Solve a declarative :class:`AssignmentRequest` off the loop."""
        if self._closed:
            raise ServiceClosedError("service is stopped")
        suite = self.registry.get(_field(payload, "suite", str, default="default"))
        if suite.kind != "profile_suite":
            raise ConfigurationError(
                f"'suite' must reference a profile_suite artifact; "
                f"{suite.ref} is a {suite.kind}"
            )
        power = self.registry.get(
            _field(payload, "power_model", str, default="power")
        )
        power_model = power.power_model()
        document = payload.get("request")
        if not isinstance(document, dict):
            raise _BadRequest("field 'request' must be a JSON object")
        from repro.api import AssignmentRequest, solve_assignment

        request = AssignmentRequest.from_dict(document)
        if len(request.processes) > MAX_FLEET_PROCESSES:
            raise FleetTooLargeError(
                f"request has {len(request.processes)} processes; this "
                f"service accepts at most {MAX_FLEET_PROCESSES}"
            )
        fleet = request.resolved_fleet()
        if fleet.total_machines > MAX_FLEET_MACHINES:
            raise FleetTooLargeError(
                f"fleet has {fleet.total_machines} machines; this "
                f"service accepts at most {MAX_FLEET_MACHINES}"
            )
        self._check_names(suite, request.processes)
        if self._assign_pool is None:
            self._assign_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-assign"
            )
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(
            self._assign_pool,
            functools.partial(solve_assignment, request, suite.obj, power_model),
        )
        self.metrics.counter("serve.assign_v2.completed").inc()
        return {
            "kind": "serve_fleet_assignment",
            "version": SERVE_FORMAT_VERSION,
            "suite": suite.ref,
            "power_model": power.ref,
            "assignment": result.to_dict(),
        }

    @staticmethod
    def _check_names(artifact: Artifact, names) -> None:
        """Reject unknown process names before they consume queue space."""
        known = artifact.obj.features
        unknown = sorted({name for name in names if name not in known})
        if unknown:
            raise _BadRequest(
                f"unknown process names {unknown}; "
                f"{artifact.ref} profiles {sorted(known)}"
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def stop(self, drain: bool = True) -> None:
        """Drain every batcher and release engines and executors."""
        if self._closed:
            return
        self._closed = True
        for batcher in self._batchers.values():
            await batcher.stop(drain=drain)
        if self._assign_pool is not None:
            pool = self._assign_pool
            self._assign_pool = None
            # shutdown(wait=True) blocks until a running search ends;
            # run it off-loop so responses can still be written.
            await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(pool.shutdown, wait=True)
            )


class PredictionServer:
    """Minimal HTTP/1.1 server over asyncio streams.

    Use :meth:`start` / :meth:`stop` directly from an event loop, or
    the thread-backed :class:`~repro.serve.handle.ServerHandle` from
    synchronous code.  ``port=0`` binds an ephemeral port; the real
    one is available from :attr:`port` after :meth:`start`.

    ``reuse_port=True`` binds with ``SO_REUSEPORT`` so N shared-nothing
    worker processes can listen on one address and let the kernel
    spread connections across them (see :mod:`repro.serve.workers`);
    ``worker_id`` stamps every response with an ``X-Repro-Worker``
    header — response *bodies* stay bit-identical across workers, the
    header exists so consistency tests can prove they exercised more
    than one.
    """

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_body_bytes: int = 8 * 1024 * 1024,
        reuse_port: bool = False,
        worker_id: Optional[int] = None,
    ):
        self.service = service
        self.requested_host = host
        self.requested_port = port
        self.max_body_bytes = max_body_bytes
        self.reuse_port = reuse_port
        self.worker_id = worker_id
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._active_requests = 0
        self._ready = False
        self._stopped = False

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.requested_host

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def ready(self) -> bool:
        return self._ready

    async def start(self) -> None:
        kwargs = {}
        if self.reuse_port:
            kwargs["reuse_port"] = True
        self._server = await asyncio.start_server(
            self._handle_client, self.requested_host, self.requested_port, **kwargs
        )
        self._ready = True

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def stop(self, drain: bool = True, settle_timeout_s: float = 10.0) -> None:
        """Graceful shutdown: unlisten, drain in-flight work, close.

        New connections are refused first, then the service drains its
        batchers (queued predictions complete or expire — they never
        vanish), responses for in-flight requests are allowed to
        flush, and finally lingering keep-alive connections are torn
        down.
        """
        if self._stopped:
            return
        self._stopped = True
        self._ready = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.stop(drain=drain)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + settle_timeout_s
        while self._active_requests > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for writer in list(self._connections):
            writer.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer)
                if not keep_alive:
                    break
        except asyncio.IncompleteReadError:
            # Client hung up mid-body: close quietly — it is the
            # client's loss, not a server error, so no traceback spam,
            # just an operator-visible counter.
            self.service.metrics.counter("serve.http.truncated_request").inc()
        except (ConnectionResetError, BrokenPipeError):
            self.service.metrics.counter("serve.http.disconnects").inc()
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        request_line = await reader.readline()
        if not request_line:
            return False
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            await self._respond(
                writer, 400, {"error": "malformed request line", "type": "BadRequest"}
            )
            return False
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                return False
            text = line.decode("latin-1").strip()
            if not text:
                break
            key, _, value = text.partition(":")
            headers[key.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0") or "0"
        try:
            length = int(length_text)
        except ValueError:
            length = -1
        if length < 0:
            # Non-numeric and negative lengths are both client bugs; a
            # negative value must never reach readexactly (ValueError
            # escaping the handler as an unlogged task exception).
            await self._respond(
                writer, 400, {"error": "bad Content-Length", "type": "BadRequest"}
            )
            return False
        if length > self.max_body_bytes:
            # Reject on the declared size BEFORE reading a single body
            # byte: Content-Length is attacker-controlled, and
            # readexactly(length) would otherwise allocate it all.
            self.service.metrics.counter("serve.http.oversized_request").inc()
            await self._respond(
                writer,
                413,
                {"error": f"body exceeds {self.max_body_bytes} bytes",
                 "type": "PayloadTooLarge"},
            )
            return False
        body = await reader.readexactly(length) if length else b""
        self._active_requests += 1
        try:
            status, document = await self._route(method, target, body)
        finally:
            self._active_requests -= 1
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        await self._respond(writer, status, document, keep_alive=keep_alive)
        return keep_alive

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        document: Dict,
        keep_alive: bool = False,
    ) -> None:
        from repro.io import sanitize_non_finite

        payload = json.dumps(
            sanitize_non_finite(document), sort_keys=True
        ).encode("utf-8")
        worker_header = (
            f"X-Repro-Worker: {self.worker_id}\r\n"
            if self.worker_id is not None
            else ""
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{worker_header}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, target: str, body: bytes):
        metrics = self.service.metrics
        metrics.counter("serve.http.requests").inc()
        path = urlsplit(target).path
        try:
            status, document = await self._dispatch_route(method, path, body)
        except (UnknownModelError, _NotFound) as error:
            status, document = 404, _error_doc(error)
        except _MethodNotAllowed as error:
            status, document = 405, _error_doc(error)
        except FleetTooLargeError as error:
            status, document = 413, _error_doc(error)
        except QueueFullError as error:
            status, document = 429, _error_doc(error)
        except DeadlineExpiredError as error:
            status, document = 504, _error_doc(error)
        except ServiceClosedError as error:
            status, document = 503, _error_doc(error)
        except (ReproError, ValueError) as error:
            status, document = 400, _error_doc(error)
        except Exception as error:  # noqa: BLE001 - last-resort 500
            logger.exception("unhandled error serving %s %s", method, path)
            status, document = 500, _error_doc(error)
        if status >= 400:
            metrics.counter("serve.http.errors").inc()
        metrics.counter(f"serve.http.status.{status}").inc()
        return status, document

    async def _dispatch_route(self, method: str, path: str, body: bytes):
        if path == "/healthz":
            self._require(method, "GET")
            return 200, {"status": "ok"}
        if path == "/readyz":
            self._require(method, "GET")
            if self._ready and not self.service._closed:
                return 200, {"ready": True}
            return 503, {"ready": False}
        if path == "/metrics":
            self._require(method, "GET")
            return 200, self.service.metrics.to_dict()
        if path == "/v1/models":
            if method == "GET":
                return 200, {
                    "kind": "serve_models",
                    "version": SERVE_FORMAT_VERSION,
                    "models": self.service.registry.list(),
                }
            self._require(method, "POST")
            payload = _parse_json(body)
            name = _field(payload, "name", str, required=True)
            document = payload.get("document")
            if not isinstance(document, dict):
                raise _BadRequest("field 'document' must be a JSON object")
            artifact = self.service.registry.publish(name, document)
            return 200, {"published": artifact.describe()}
        if path == "/v1/predict":
            self._require(method, "POST")
            payload = _parse_json(body)
            timeout_ms = payload.get("timeout_ms")
            # The upper bound also rejects ints too large for a float.
            if timeout_ms is not None and (
                isinstance(timeout_ms, bool)
                or not isinstance(timeout_ms, (int, float))
                or not 0 <= timeout_ms <= sys.float_info.max
            ):
                raise _BadRequest(
                    "field 'timeout_ms' must be a finite non-negative number"
                )
            document = await self.service.predict(
                _field(payload, "model", str, default="default"),
                _names_field(payload),
                ways=_field(payload, "ways", int, required=True),
                frequency_ratios=payload.get("frequency_ratios"),
                timeout_s=timeout_ms / 1000.0 if timeout_ms is not None else None,
            )
            return 200, document
        if path == "/v1/assign":
            self._require(method, "POST")
            payload = _parse_json(body)
            document = await self.service.assign(
                _field(payload, "suite", str, default="default"),
                _field(payload, "power_model", str, default="power"),
                _names_field(payload),
                machine=_field(payload, "machine", str, default="4-core-server"),
                sets=_field(payload, "sets", int, default=128),
                objective=_field(payload, "objective", str, default="power"),
                greedy=_field(payload, "greedy", bool, default=False),
            )
            return 200, document
        if path == "/v2/assign":
            self._require(method, "POST")
            payload = _parse_json(body)
            document = await self.service.assign_v2(payload)
            return 200, document
        raise _NotFound(f"no such endpoint: {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _MethodNotAllowed(f"use {expected}")


class _MethodNotAllowed(ReproError):
    pass


class _NotFound(ReproError):
    pass


def _parse_json(body: bytes) -> Dict:
    if not body:
        raise _BadRequest("request body must be a JSON object")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise _BadRequest(f"invalid JSON body: {error}") from None
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    return payload


def _error_doc(error: BaseException) -> Dict[str, Any]:
    return {"error": str(error), "type": type(error).__name__}
