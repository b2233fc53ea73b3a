"""Stdlib HTTP client and load generator for the prediction service.

:class:`ServeClient` wraps one keep-alive
:class:`http.client.HTTPConnection` with typed helpers for every
endpoint; non-2xx responses raise :class:`ServeClientError` carrying
the status code and decoded error document, so callers can branch on
shed (429) vs deadline (504) without string matching.

:func:`run_load` is the benchmark driver: N threads, one connection
each, hammering ``/v1/predict`` with a shared work list and reporting
aggregate throughput plus a latency summary.  It is deliberately
simple (closed-loop, no ramp-up) — enough to measure the batching
win of :mod:`repro.serve` against one-request-per-call dispatch.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ServeClient",
    "ServeClientError",
    "LoadReport",
    "PublishLoad",
    "run_load",
]

#: Failures that mean a *reused* keep-alive connection went stale —
#: the server (or a middlebox) closed it between requests, before our
#: request was processed.  Only these are safe to retry; anything
#: else (connection refused on a fresh socket, a response timeout)
#: may follow a request that actually reached the server.
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
)


class ServeClientError(Exception):
    """Non-2xx response from the server."""

    def __init__(self, status: int, document: Dict):
        self.status = status
        self.document = document
        super().__init__(
            f"HTTP {status}: {document.get('error', document)}"
        )


class ServeClient:
    """Synchronous JSON client for one server, with keep-alive.

    Keep-alive reuse races server-side connection close (idle
    timeouts, graceful drain): a request written to a connection the
    server already closed fails before any response byte arrives.
    The client retries **exactly once**, on a fresh connection, and
    **only** when the failed attempt used a *reused* connection and
    died with a stale-connection error (reset / remote disconnect
    before the status line) — a failure on a fresh connection, or a
    timeout waiting for a response, is never retried, because the
    request may have reached the server and retrying could execute it
    twice.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None
        #: Headers of the most recent response (e.g. ``X-Repro-Worker``).
        self.last_headers: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _attempt(
        self, method: str, path: str, body, headers
    ) -> Tuple[int, Dict]:
        assert self._connection is not None
        self._connection.request(method, path, body=body, headers=headers)
        response = self._connection.getresponse()
        raw = response.read()
        self.last_headers = {k.lower(): v for k, v in response.getheaders()}
        document = json.loads(raw.decode("utf-8")) if raw else {}
        if response.will_close:
            self.close()
        return response.status, document

    def _request(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Tuple[int, Dict]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        reused = self._connection is not None
        if not reused:
            self._connection = self._connect()
        try:
            return self._attempt(method, path, body, headers)
        except socket.timeout:
            # The request reached the server and the response is
            # merely late; retrying would double-execute it.
            self.close()
            raise
        except _STALE_CONNECTION_ERRORS:
            self.close()
            if not reused:
                raise
            # Stale keep-alive race: the server closed the idle
            # connection before processing anything — retry exactly
            # once on a fresh connection.
            self._connection = self._connect()
            try:
                return self._attempt(method, path, body, headers)
            except BaseException:
                self.close()
                raise
        except (http.client.HTTPException, OSError):
            # Anything else (refused fresh connection, protocol state
            # error, ...) is not retried; just drop the dead socket.
            self.close()
            raise

    def _call(self, method: str, path: str, payload: Optional[Dict] = None) -> Dict:
        status, document = self._request(method, path, payload)
        if status >= 300:
            raise ServeClientError(status, document)
        return document

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        return self._call("GET", "/healthz")

    def readyz(self) -> bool:
        status, document = self._request("GET", "/readyz")
        return status == 200 and bool(document.get("ready"))

    def metrics(self) -> Dict:
        return self._call("GET", "/metrics")

    def models(self) -> List[Dict]:
        return self._call("GET", "/v1/models")["models"]

    def publish(self, name: str, document: Dict) -> Dict:
        return self._call(
            "POST", "/v1/models", {"name": name, "document": document}
        )["published"]

    def predict(
        self,
        names: Sequence[str],
        *,
        ways: int,
        model: str = "default",
        frequency_ratios: Optional[Sequence[float]] = None,
        timeout_ms: Optional[float] = None,
    ) -> Dict:
        payload: Dict[str, Any] = {
            "model": model,
            "names": list(names),
            "ways": ways,
        }
        if frequency_ratios is not None:
            payload["frequency_ratios"] = [float(r) for r in frequency_ratios]
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._call("POST", "/v1/predict", payload)

    def assign(
        self,
        names: Sequence[str],
        *,
        suite: str = "default",
        power_model: str = "power",
        machine: str = "4-core-server",
        sets: int = 128,
        objective: str = "power",
        greedy: bool = False,
    ) -> Dict:
        return self._call(
            "POST",
            "/v1/assign",
            {
                "suite": suite,
                "power_model": power_model,
                "names": list(names),
                "machine": machine,
                "sets": sets,
                "objective": objective,
                "greedy": greedy,
            },
        )

    def assign_v2(
        self,
        request: Dict,
        *,
        suite: str = "default",
        power_model: str = "power",
    ) -> Dict:
        """POST an ``assignment_request`` document to ``/v2/assign``.

        ``request`` is the JSON form of
        :class:`repro.api.AssignmentRequest` (its ``to_dict()``); the
        server solves
        it against the published suite and power model and returns a
        ``serve_fleet_assignment`` document.
        """
        return self._call(
            "POST",
            "/v2/assign",
            {"suite": suite, "power_model": power_model, "request": request},
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class PublishLoad:
    """Publish-traffic spec for :func:`run_load`.

    A dedicated publisher thread POSTs the ``documents`` to
    ``/v1/models`` under ``name``, round-robin, every ``interval_s``
    seconds while the read load runs — alternating *distinct*
    documents keeps every publish an actual hot swap (an identical
    republish is idempotent and swaps nothing).
    """

    name: str
    documents: Sequence[Dict]
    interval_s: float = 0.05


@dataclass
class LoadReport:
    """Aggregate result of one :func:`run_load` run."""

    requests: int
    completed: int
    shed: int
    errors: int
    duration_s: float
    latencies_s: List[float] = field(repr=False, default_factory=list)
    published: int = 0
    publish_errors: int = 0

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def error_rate(self) -> float:
        return self.errors / self.requests if self.requests else 0.0

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def check_slo(
        self,
        *,
        max_p95_s: Optional[float] = None,
        max_shed_rate: Optional[float] = None,
        max_error_rate: float = 0.0,
        min_throughput_rps: Optional[float] = None,
    ) -> "LoadReport":
        """Assert the run met its SLOs; returns ``self`` for chaining.

        Raises :class:`AssertionError` naming every violated objective
        — the benchmark/CI harnesses call this so an SLO miss fails
        loudly with the measured numbers in the message.
        """
        failures = []
        p95 = self.latency_quantile(0.95)
        if max_p95_s is not None and p95 > max_p95_s:
            failures.append(f"p95 {p95 * 1e3:.1f} ms > {max_p95_s * 1e3:.1f} ms")
        if max_shed_rate is not None and self.shed_rate > max_shed_rate:
            failures.append(
                f"shed rate {self.shed_rate:.3f} > {max_shed_rate:.3f}"
            )
        if self.error_rate > max_error_rate:
            failures.append(
                f"error rate {self.error_rate:.3f} > {max_error_rate:.3f} "
                f"({self.errors} hard errors)"
            )
        if self.publish_errors:
            failures.append(f"{self.publish_errors} publish errors")
        if (
            min_throughput_rps is not None
            and self.throughput_rps < min_throughput_rps
        ):
            failures.append(
                f"throughput {self.throughput_rps:.0f} req/s < "
                f"{min_throughput_rps:.0f} req/s"
            )
        assert not failures, "SLO violations: " + "; ".join(failures)
        return self


def run_load(
    host: str,
    port: int,
    mixes: Sequence[Sequence[str]],
    *,
    ways: int,
    model: str = "default",
    concurrency: int = 32,
    timeout: float = 120.0,
    duration_s: Optional[float] = None,
    publish: Optional[PublishLoad] = None,
) -> LoadReport:
    """Drive ``/v1/predict`` with closed-loop client traffic.

    The work list is split round-robin across ``concurrency`` worker
    threads, each holding one keep-alive connection.  Shed responses
    (429) are counted separately from hard errors so benchmark runs
    under overload stay interpretable.

    Two modes:

    - **One-shot** (``duration_s=None``): every mix is requested
      exactly once — the original batching benchmark shape.
    - **Sustained** (``duration_s`` set): each worker loops over its
      share of the work list until the deadline, so throughput is
      measured at steady state; ``requests`` counts actual attempts.

    ``publish`` adds mixed read/*write* traffic: a publisher thread
    hot-swaps models via ``POST /v1/models`` while the readers run —
    the serving layer must stay correct (and its caches must
    invalidate) under concurrent republish, which
    :meth:`LoadReport.check_slo` then asserts via the error counts.
    """
    work: List[List[Sequence[str]]] = [[] for _ in range(concurrency)]
    for index, mix in enumerate(mixes):
        work[index % concurrency].append(mix)
    lock = threading.Lock()
    totals = {
        "requests": 0,
        "completed": 0,
        "shed": 0,
        "errors": 0,
        "published": 0,
        "publish_errors": 0,
    }
    latencies: List[float] = []
    stop_publishing = threading.Event()
    barrier = threading.Barrier(concurrency + 1)

    def _worker(items: List[Sequence[str]]) -> None:
        client = ServeClient(host, port, timeout=timeout)
        barrier.wait()
        local_latencies = []
        requests = completed = shed = errors = 0
        deadline = (
            time.perf_counter() + duration_s if duration_s is not None else None
        )
        while items:
            for mix in items:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                requests += 1
                start = time.perf_counter()
                try:
                    client.predict(mix, ways=ways, model=model)
                    completed += 1
                    local_latencies.append(time.perf_counter() - start)
                except ServeClientError as error:
                    if error.status == 429:
                        shed += 1
                    else:
                        errors += 1
                except Exception:  # noqa: BLE001 - connection-level failure
                    errors += 1
            if deadline is None or time.perf_counter() >= deadline:
                break
        client.close()
        with lock:
            totals["requests"] += requests
            totals["completed"] += completed
            totals["shed"] += shed
            totals["errors"] += errors
            latencies.extend(local_latencies)

    def _publisher(spec: PublishLoad) -> None:
        client = ServeClient(host, port, timeout=timeout)
        published = publish_errors = 0
        index = 0
        while not stop_publishing.wait(spec.interval_s):
            document = spec.documents[index % len(spec.documents)]
            index += 1
            try:
                client.publish(spec.name, document)
                published += 1
            except Exception:  # noqa: BLE001 - counted, not raised
                publish_errors += 1
        client.close()
        with lock:
            totals["published"] += published
            totals["publish_errors"] += publish_errors

    threads = [
        threading.Thread(target=_worker, args=(items,), daemon=True)
        for items in work
    ]
    for thread in threads:
        thread.start()
    publisher = None
    if publish is not None:
        publisher = threading.Thread(
            target=_publisher, args=(publish,), daemon=True
        )
        publisher.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - start
    if publisher is not None:
        stop_publishing.set()
        publisher.join(timeout=30)
    return LoadReport(
        requests=totals["requests"],
        completed=totals["completed"],
        shed=totals["shed"],
        errors=totals["errors"],
        duration_s=duration,
        latencies_s=latencies,
        published=totals["published"],
        publish_errors=totals["publish_errors"],
    )
