"""Open- and closed-loop HTTP load from one process.

Each stream is one thread holding one keep-alive connection; stream 0
runs on the calling thread, so ``n`` streams use ``n`` threads.
Requests are pre-encoded bytes, and responses are read with a minimal
HTTP/1.1 parser so that the client adds as little as possible to the
latency it measures.

- :func:`open_loop` sends each stream's requests at their scheduled
  offsets and times every request from when it was due, so a stall
  is charged to the requests queued behind it.  Each sleep's overshoot
  is recorded as wake lateness: how late the generator itself ran.
- :func:`closed_loop` sends each stream's next request as soon as the
  previous one is answered.

Every 200 response body is kept, counted per distinct ``(key, body)``
pair, for the correctness check that follows the timed phases.
"""

from __future__ import annotations

import socket
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence, Tuple

#: Seconds before a request without an answer counts as failed.
REQUEST_TIMEOUT_S = 10.0


def http_request(path: str, body: bytes) -> bytes:
    """A complete keep-alive HTTP/1.1 POST carrying ``body``."""
    head = (
        f"POST {path} HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection; :meth:`call` returns (status, body)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._sock = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            ("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT_S
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def call(self, request: bytes) -> Tuple[int, bytes]:
        if self._sock is None:
            self._sock = self._connect()
            self._buffer = b""
        sock = self._sock
        sock.sendall(request)
        buffer = self._buffer
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            rest += chunk
        self._buffer = rest[length:]
        return status, rest[:length]

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


@dataclass
class Op:
    """One request: its key in the workload's request table and bytes."""

    key: int
    request: bytes
    due_s: float = 0.0  #: offset from the phase start (open loop only)
    timed: bool = True  #: publishes are sent but not timed


@dataclass
class PhaseResult:
    """What one phase sent, how long it took, and what came back."""

    started_s: float = 0.0  #: ``time.perf_counter()`` at the phase start
    duration_s: float = 0.0
    latencies_s: array = field(default_factory=lambda: array("d"))
    wake_late_s: array = field(default_factory=lambda: array("d"))
    sent: int = 0
    failed: int = 0
    responses: Counter = field(default_factory=Counter)

    def merge(self, other: "PhaseResult") -> None:
        self.latencies_s.extend(other.latencies_s)
        self.wake_late_s.extend(other.wake_late_s)
        self.sent += other.sent
        self.failed += other.failed
        self.responses.update(other.responses)


def _send(connection: Connection, op: Op, result: PhaseResult) -> bool:
    result.sent += 1
    try:
        status, body = connection.call(op.request)
    except OSError:
        connection.close()
        result.failed += 1
        return False
    if status != 200:
        result.failed += 1
        return False
    result.responses[(op.key, body)] += 1
    return True


def _run_streams(port: int, streams: Sequence, worker) -> PhaseResult:
    results = [PhaseResult() for _ in streams]
    connections = [Connection(port) for _ in streams]
    start = time.perf_counter() + 0.05
    threads = [
        threading.Thread(
            target=worker, args=(connections[i], streams[i], start, results[i])
        )
        for i in range(1, len(streams))
    ]
    try:
        for thread in threads:
            thread.start()
        worker(connections[0], streams[0], start, results[0])
    finally:
        for thread in threads:
            thread.join()
        for connection in connections:
            connection.close()
    merged = PhaseResult(started_s=start, duration_s=time.perf_counter() - start)
    for result in results:
        merged.merge(result)
    return merged


def open_loop(port: int, streams: Sequence[Sequence[Op]]) -> PhaseResult:
    """Send every op at ``start + op.due_s``; latency counts from due time."""

    def worker(connection, ops, start, result):
        perf_counter = time.perf_counter
        for op in ops:
            due = start + op.due_s
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
                result.wake_late_s.append(perf_counter() - due)
            if _send(connection, op, result) and op.timed:
                result.latencies_s.append(perf_counter() - due)

    return _run_streams(port, streams, worker)


def closed_loop(
    port: int,
    streams: Sequence[Sequence[Op]],
    duration_s: float,
    publishes: Sequence[Op] = (),
) -> PhaseResult:
    """Send back to back for ``duration_s``; stream 0 also sends each
    publish once its ``due_s`` has passed.  Stream op lists wrap."""

    def worker(connection, stream, start, result):
        ops, pending = stream
        perf_counter = time.perf_counter
        deadline = start + duration_s
        wait = start - perf_counter()
        if wait > 0:
            time.sleep(wait)
        index = 0
        while True:
            now = perf_counter()
            if now >= deadline:
                break
            if pending and now >= start + pending[0].due_s:
                _send(connection, pending.pop(0), result)
                continue
            op = ops[index % len(ops)]
            index += 1
            if _send(connection, op, result):
                result.latencies_s.append(perf_counter() - now)

    paired = [(ops, list(publishes) if i == 0 else []) for i, ops in enumerate(streams)]
    return _run_streams(port, paired, worker)
