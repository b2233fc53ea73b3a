"""Tests for the serve scale-out layer (cache, workers, SLO load).

Four layers, pinned separately:

- **Result cache**: LRU bounds, canonical-mix keys (any ordering of
  the same multiset shares one entry), bit-identical restores, and
  the content-digest invalidation contract — including the stale-hit
  regression pin: a hot swap via ``POST /v1/models`` must make the
  next ``/v1/predict`` a cache *miss* re-solved against the new
  version.
- **Histogram quantiles**: the log2-bucket quantile estimate and its
  windowed deltas.
- **Worker pool**: N shared-nothing ``SO_REUSEPORT`` processes serve
  bit-identical predictions on one address (proven via the
  ``X-Repro-Worker`` header), plus lifecycle and validation.
- **HTTP edge cases + client retry**: oversized / negative
  Content-Length, truncated bodies counted without traceback spam,
  and the keep-alive stale-connection retry that fires exactly once
  and never for requests that reached the server.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api import ProfileSuiteResult, predict_mix
from repro.core.feature import FeatureVector, ProfileVector
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, quantile_from_buckets
from repro.serve import (
    LoadReport,
    ModelRegistry,
    PredictionResultCache,
    PublishLoad,
    ServeClient,
    canonical_mix,
    run_load,
    start_server,
    start_worker_pool,
)
from repro.workloads.spec import BENCHMARKS

NAMES = ["mcf", "gzip", "art", "vpr"]
WAYS = 16

HAS_REUSEPORT = hasattr(socket, "SO_REUSEPORT")
reuseport_only = pytest.mark.skipif(
    not HAS_REUSEPORT, reason="SO_REUSEPORT not available on this platform"
)


def _oracle_suite(names=NAMES, machine="4-core-server", salt=0.0):
    return ProfileSuiteResult(
        machine=machine,
        features={n: FeatureVector.oracle(BENCHMARKS[n], 2e8) for n in names},
        profiles={
            n: ProfileVector(
                name=n,
                p_alone=20.0 + 2.0 * i + salt,
                l1rpi=0.4,
                l2rpi=0.05,
                brpi=0.2,
                fppi=0.01 * i,
            )
            for i, n in enumerate(names)
        },
    )


@pytest.fixture(scope="module")
def suite():
    return _oracle_suite()


def _counter(client, name):
    return client.metrics()["counters"].get(name, 0)


# ----------------------------------------------------------------------
# Histogram quantiles
# ----------------------------------------------------------------------
class TestHistogramQuantiles:
    def test_quantile_from_buckets_contract(self):
        assert quantile_from_buckets({}, 0.95) == 0.0
        with pytest.raises(ConfigurationError):
            quantile_from_buckets({0: 1}, 1.5)
        # One bucket: every quantile is its (conservative) upper edge.
        assert quantile_from_buckets({10: 5}, 0.5) == 1e-6 * 2.0**10

    def test_histogram_buckets_feed_windowed_deltas(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for _ in range(10):
            histogram.observe(0.001)
        before = histogram.bucket_counts()
        for _ in range(10):
            histogram.observe(0.1)
        delta = {
            index: count - before.get(index, 0)
            for index, count in histogram.bucket_counts().items()
            if count - before.get(index, 0) > 0
        }
        # The window sees only the slow tail, not the old fast samples.
        assert sum(delta.values()) == 10
        assert quantile_from_buckets(delta, 0.95) >= 0.1
        assert histogram.quantile(0.5) < 0.01
        # The export schema is pinned elsewhere; buckets must not leak.
        assert set(histogram.to_dict()) == {"count", "sum", "min", "max", "mean"}


# ----------------------------------------------------------------------
# Result cache (unit)
# ----------------------------------------------------------------------
class TestPredictionResultCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PredictionResultCache(0)

    def test_canonical_mix_is_order_insensitive(self):
        assert canonical_mix(["b", "a", "b"]) == ("a", "b", "b")
        assert PredictionResultCache.key("d", 16, ["b", "a"]) == (
            PredictionResultCache.key("d", 16, ["a", "b"])
        )

    def test_roundtrip_is_bit_identical(self, suite):
        cache = PredictionResultCache(8)
        mix = ["vpr", "mcf", "gzip"]
        local = predict_mix(mix, suite, ways=WAYS)
        cache.put("digest", WAYS, mix, local.prediction)
        restored = cache.get("digest", WAYS, mix)
        assert restored.to_dict() == local.prediction.to_dict()

    def test_permuted_hit_matches_cold_solve_of_that_order(self, suite):
        # One cached solve serves every ordering of the multiset, and
        # the restored prediction equals what a cold solve of the
        # permuted request would have produced — float for float.
        cache = PredictionResultCache(8)
        mix = ["vpr", "mcf", "gzip", "mcf"]
        cache.put("digest", WAYS, mix, predict_mix(mix, suite, ways=WAYS).prediction)
        for permuted in (
            ["mcf", "mcf", "gzip", "vpr"],
            ["gzip", "vpr", "mcf", "mcf"],
        ):
            hit = cache.get("digest", WAYS, permuted)
            cold = predict_mix(permuted, suite, ways=WAYS).prediction
            assert hit.to_dict() == cold.to_dict()
        assert cache.stats()["hits"] == 2
        assert cache.stats()["misses"] == 0

    def test_distinct_digest_and_ways_are_distinct_entries(self, suite):
        cache = PredictionResultCache(8)
        mix = ["mcf", "gzip"]
        prediction = predict_mix(mix, suite, ways=WAYS).prediction
        cache.put("digest-a", WAYS, mix, prediction)
        assert cache.get("digest-b", WAYS, mix) is None
        assert cache.get("digest-a", WAYS + 1, mix) is None
        assert cache.get("digest-a", WAYS, mix) is not None

    def test_lru_eviction_is_bounded_and_counted(self, suite):
        cache = PredictionResultCache(2)
        prediction = predict_mix(["mcf"], suite, ways=WAYS).prediction
        cache.put("d", WAYS, ["mcf"], prediction)
        cache.put("d", WAYS, ["gzip"], prediction)
        assert cache.get("d", WAYS, ["mcf"]) is not None  # refresh recency
        cache.put("d", WAYS, ["art"], prediction)  # evicts gzip, not mcf
        assert len(cache) == 2
        assert cache.get("d", WAYS, ["gzip"]) is None
        assert cache.get("d", WAYS, ["mcf"]) is not None
        assert cache.stats()["evictions"] == 1

    def test_frequency_ratios_never_collide(self, suite):
        # The same mix at two DVFS ratios solves to two different
        # equilibria; the cache must keep them as distinct entries.
        cache = PredictionResultCache(8)
        mix = ["mcf", "gzip"]
        slow = predict_mix(
            mix, suite, ways=WAYS, frequency_ratios=[0.6, 1.0]
        ).prediction
        fast = predict_mix(
            mix, suite, ways=WAYS, frequency_ratios=[1.0, 0.8]
        ).prediction
        assert PredictionResultCache.key(
            "d", WAYS, mix, [0.6, 1.0]
        ) != PredictionResultCache.key("d", WAYS, mix, [1.0, 0.8])
        cache.put("d", WAYS, mix, slow, [0.6, 1.0])
        assert cache.get("d", WAYS, mix) is None
        assert cache.get("d", WAYS, mix, [1.0, 0.8]) is None
        cache.put("d", WAYS, mix, fast, [1.0, 0.8])
        assert len(cache) == 2
        assert cache.get(
            "d", WAYS, mix, [0.6, 1.0]
        ).to_dict() == slow.to_dict()
        assert cache.get(
            "d", WAYS, mix, [1.0, 0.8]
        ).to_dict() == fast.to_dict()

    def test_unit_ratios_share_the_plain_entry(self, suite):
        # All-unit ratios are the model's None normalization: one key.
        mix = ["mcf", "gzip"]
        assert PredictionResultCache.key(
            "d", WAYS, mix, [1.0, 1.0]
        ) == PredictionResultCache.key("d", WAYS, mix)
        cache = PredictionResultCache(8)
        prediction = predict_mix(mix, suite, ways=WAYS).prediction
        cache.put("d", WAYS, mix, prediction)
        hit = cache.get("d", WAYS, mix, [1.0, 1.0])
        assert hit is not None and hit.to_dict() == prediction.to_dict()

    def test_ratio_hit_restores_duplicate_name_order(self, suite):
        # The nasty permutation: one name at two ratios.  The restore
        # permutation must track (name, ratio) pairs, not names alone.
        cache = PredictionResultCache(8)
        mix = ["mcf", "mcf"]
        ratios = [1.0, 0.7]
        solved = predict_mix(
            mix, suite, ways=WAYS, frequency_ratios=ratios
        ).prediction
        cache.put("d", WAYS, mix, solved, ratios)
        hit = cache.get("d", WAYS, mix, [0.7, 1.0])  # swapped order
        cold = predict_mix(
            mix, suite, ways=WAYS, frequency_ratios=[0.7, 1.0]
        ).prediction
        assert hit.to_dict() == cold.to_dict()


# ----------------------------------------------------------------------
# Result cache (served end-to-end)
# ----------------------------------------------------------------------
class TestServedResultCache:
    def test_cache_hit_response_is_bit_identical(self, suite):
        with start_server({"default": suite}) as handle:
            with ServeClient(handle.host, handle.port) as client:
                mix = ["art", "mcf", "gzip"]
                cold = client.predict(mix, ways=WAYS)
                hits_before = _counter(client, "serve.cache.hits")
                hot = client.predict(mix, ways=WAYS)
                assert _counter(client, "serve.cache.hits") == hits_before + 1
                assert hot == cold
                assert hot["prediction"] == predict_mix(
                    mix, suite, ways=WAYS
                ).to_dict()

    def test_permuted_request_hits_and_stays_bit_identical(self, suite):
        with start_server({"default": suite}) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.predict(["vpr", "mcf", "gzip"], ways=WAYS)
                hits_before = _counter(client, "serve.cache.hits")
                permuted = ["gzip", "vpr", "mcf"]
                hot = client.predict(permuted, ways=WAYS)
                assert _counter(client, "serve.cache.hits") == hits_before + 1
                assert hot["prediction"] == predict_mix(
                    permuted, suite, ways=WAYS
                ).to_dict()

    def test_served_frequency_ratios_never_collide(self, suite):
        # Two DVFS ratios of the same mix must serve two different
        # predictions — the second request may not hit the first's
        # cache entry — and each must equal the local solve.
        with start_server({"default": suite}) as handle:
            with ServeClient(handle.host, handle.port) as client:
                mix = ["mcf", "gzip"]
                slow = client.predict(
                    mix, ways=WAYS, frequency_ratios=[0.6, 1.0]
                )
                hits_before = _counter(client, "serve.cache.hits")
                fast = client.predict(
                    mix, ways=WAYS, frequency_ratios=[1.0, 0.8]
                )
                assert _counter(client, "serve.cache.hits") == hits_before
                assert slow["prediction"] != fast["prediction"]
                assert slow["prediction"] == predict_mix(
                    mix, suite, ways=WAYS, frequency_ratios=[0.6, 1.0]
                ).to_dict()
                assert fast["prediction"] == predict_mix(
                    mix, suite, ways=WAYS, frequency_ratios=[1.0, 0.8]
                ).to_dict()
                # Repeats of either ratio hit their own entries.
                again = client.predict(
                    mix, ways=WAYS, frequency_ratios=[0.6, 1.0]
                )
                assert _counter(client, "serve.cache.hits") == hits_before + 1
                assert again == slow

    def test_served_frequency_ratio_validation(self, suite):
        with start_server({"default": suite}) as handle:
            with ServeClient(handle.host, handle.port) as client:
                from repro.serve.client import ServeClientError

                with pytest.raises(ServeClientError, match="frequency_ratios"):
                    client.predict(
                        ["mcf", "gzip"], ways=WAYS, frequency_ratios=[0.5]
                    )
                with pytest.raises(ServeClientError, match="positive"):
                    client.predict(
                        ["mcf", "gzip"],
                        ways=WAYS,
                        frequency_ratios=[-1.0, 1.0],
                    )

    def test_disabled_cache_never_hits(self, suite):
        with start_server({"default": suite}, result_cache_size=0) as handle:
            with ServeClient(handle.host, handle.port) as client:
                first = client.predict(["mcf", "gzip"], ways=WAYS)
                second = client.predict(["mcf", "gzip"], ways=WAYS)
                assert first == second
                counters = client.metrics()["counters"]
                assert "serve.cache.hits" not in counters
                assert "serve.cache.misses" not in counters

    def test_hot_swap_is_a_cache_miss_against_new_version(self, suite):
        # Regression pin for the stale-hit bug class: publishing
        # suite@2 must make the next /v1/predict a MISS re-solved
        # against the new content — a hit on the old entry would serve
        # stale physics for the new model.
        with start_server({"swap": suite}) as handle:
            with ServeClient(handle.host, handle.port) as client:
                mix = ["mcf", "gzip"]
                old = client.predict(mix, ways=WAYS, model="swap")
                assert old["model"] == "swap@1"
                client.predict(mix, ways=WAYS, model="swap")  # warm the cache
                hits_before = _counter(client, "serve.cache.hits")
                misses_before = _counter(client, "serve.cache.misses")
                swaps_before = _counter(client, "serve.models.hot_swaps")

                published = client.publish(
                    "swap", _oracle_suite(salt=5.0).to_dict()
                )
                assert published["version"] == 2
                fresh = client.predict(mix, ways=WAYS, model="swap")
                assert fresh["model"] == "swap@2"
                assert fresh["digest"] == published["digest"]
                assert fresh["prediction"] != old["prediction"]
                assert _counter(client, "serve.cache.hits") == hits_before
                assert _counter(client, "serve.cache.misses") == misses_before + 1
                assert _counter(client, "serve.models.hot_swaps") == swaps_before + 1
                # The swapped-in version is now warm under its own digest.
                again = client.predict(mix, ways=WAYS, model="swap")
                assert again == fresh
                assert _counter(client, "serve.cache.hits") == hits_before + 1
                # Pinned requests against @1 still serve the old content.
                pinned = client.predict(mix, ways=WAYS, model="swap@1")
                assert pinned["prediction"] == old["prediction"]

    def test_registry_listener_fires_only_on_new_versions(self, suite):
        registry = ModelRegistry()
        events = []
        registry.add_listener(
            lambda artifact, previous: events.append(
                (artifact.version, previous.version if previous else None)
            )
        )
        registry.publish("m", suite)
        registry.publish("m", suite)  # idempotent: no event
        registry.publish("m", _oracle_suite(salt=1.0))
        assert events == [(1, None), (2, 1)]


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
@reuseport_only
class TestWorkerPool:
    def test_two_workers_serve_bit_identical_predictions(self, suite, tmp_path):
        suite_path = tmp_path / "suite.json"
        suite.save(suite_path)
        local = predict_mix(["mcf", "gzip"], str(suite_path), ways=WAYS).to_dict()
        with start_worker_pool(
            {"default": str(suite_path)}, http_workers=2, boot_timeout_s=120.0
        ) as pool:
            assert pool.workers == 2
            assert all(pool.alive())
            seen_workers = {}
            # Fresh connection per request: the kernel hashes each new
            # source port independently, so both workers get traffic.
            for _ in range(40):
                with ServeClient(pool.host, pool.port) as client:
                    response = client.predict(["mcf", "gzip"], ways=WAYS)
                    worker = client.last_headers["x-repro-worker"]
                seen_workers[worker] = response["prediction"]
                if len(seen_workers) == 2:
                    break
            assert len(seen_workers) == 2, "kernel never balanced to worker 2"
            for prediction in seen_workers.values():
                assert prediction == local
        assert not any(pool.alive())
        pool.stop()  # idempotent

    def test_pool_validation(self, suite):
        with pytest.raises(ConfigurationError, match="http_workers"):
            start_worker_pool({"default": suite}, http_workers=0)
        with pytest.raises(ConfigurationError, match="at least one model"):
            start_worker_pool({}, http_workers=2)


# ----------------------------------------------------------------------
# HTTP edge cases (the bugfix sweep)
# ----------------------------------------------------------------------
def _raw_request(host, port, payload: bytes, declared_length):
    """Send one hand-rolled POST and return the raw response bytes."""
    with socket.create_connection((host, port), timeout=10) as sock:
        head = (
            "POST /v1/predict HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {declared_length}\r\n"
            "Connection: close\r\n\r\n"
        )
        sock.sendall(head.encode("latin-1") + payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestHttpEdgeCases:
    @pytest.fixture(scope="class")
    def small_body_server(self, suite):
        handle = start_server({"default": suite}, max_body_bytes=256)
        yield handle
        handle.stop()

    def test_oversized_declared_body_is_rejected_unread(
        self, small_body_server
    ):
        # Declare far more than max_body_bytes but send NOTHING: the
        # 413 must arrive anyway, proving the ceiling is enforced on
        # the declared size before readexactly ever runs.
        handle = small_body_server
        with ServeClient(handle.host, handle.port) as client:
            oversized_before = _counter(client, "serve.http.oversized_request")
        raw = _raw_request(handle.host, handle.port, b"", 100_000)
        assert raw.startswith(b"HTTP/1.1 413 ")
        assert b"exceeds 256 bytes" in raw
        with ServeClient(handle.host, handle.port) as client:
            assert (
                _counter(client, "serve.http.oversized_request")
                == oversized_before + 1
            )
            # The server survives: a small request still works.
            assert client.predict(["mcf"], ways=WAYS)["model"] == "default@1"

    @pytest.mark.parametrize("bad_length", ["-5", "nonsense"])
    def test_bad_content_length_is_a_400_not_a_crash(
        self, small_body_server, bad_length
    ):
        handle = small_body_server
        raw = _raw_request(handle.host, handle.port, b"", bad_length)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"bad Content-Length" in raw
        # The listener is still healthy afterwards.
        with ServeClient(handle.host, handle.port) as client:
            assert client.healthz() == {"status": "ok"}

    def test_truncated_body_is_counted_not_logged(self, small_body_server):
        handle = small_body_server
        with ServeClient(handle.host, handle.port) as client:
            truncated_before = _counter(client, "serve.http.truncated_request")
            # Declare 100 bytes, send 10, hang up mid-body.
            with socket.create_connection(
                (handle.host, handle.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/predict HTTP/1.1\r\n"
                    b"Content-Length: 100\r\n\r\n"
                    b'{"model": "'
                )
            deadline = time.time() + 5
            while time.time() < deadline:
                if (
                    _counter(client, "serve.http.truncated_request")
                    == truncated_before + 1
                ):
                    break
                time.sleep(0.02)
            assert (
                _counter(client, "serve.http.truncated_request")
                == truncated_before + 1
            )
            assert client.healthz() == {"status": "ok"}


# ----------------------------------------------------------------------
# Client keep-alive retry semantics
# ----------------------------------------------------------------------
_OK_BODY = json.dumps({"status": "ok"}).encode()
_OK_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
    % (len(_OK_BODY), _OK_BODY)
)


def _read_request(connection) -> bytes:
    """Read one request's head + declared body off a blocking socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = connection.recv(65536)
        if not chunk:
            return data
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
            while len(body) < length:
                body += connection.recv(65536)
    return data


class _ScriptedServer(threading.Thread):
    """Accepts connections and runs ``script(index, connection)`` each."""

    def __init__(self, script):
        super().__init__(daemon=True)
        self.script = script
        self.accepted = 0
        self.requests_seen = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]
        self._halt = threading.Event()
        self.start()

    def run(self):
        while not self._halt.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            index = self.accepted
            self.accepted += 1
            try:
                self.script(self, index, connection)
            finally:
                connection.close()
        self._listener.close()

    def stop(self):
        self._halt.set()
        self.join(timeout=10)


class TestClientStaleConnectionRetry:
    def test_stale_keepalive_is_retried_exactly_once(self):
        # Connection 0 serves one response then closes (idle-timeout
        # shape); the client's second request must transparently land
        # on connection 1.
        def script(server, index, connection):
            if _read_request(connection):
                server.requests_seen += 1
                connection.sendall(_OK_RESPONSE)
            # close() after one request: the reused connection goes stale

        server = _ScriptedServer(script)
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=10)
            assert client.healthz() == {"status": "ok"}
            assert client.healthz() == {"status": "ok"}  # retried internally
            client.close()
            assert server.requests_seen == 2
            assert server.accepted == 2
        finally:
            server.stop()

    def test_fresh_connection_failure_is_not_retried(self):
        # A server that hangs up before responding, even to the first
        # request: no reuse happened, so retrying is forbidden.
        def script(server, index, connection):
            _read_request(connection)
            server.requests_seen += 1
            # close without responding

        server = _ScriptedServer(script)
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=10)
            with pytest.raises(Exception):
                client.healthz()
            client.close()
            time.sleep(0.1)
            assert server.requests_seen == 1  # exactly one attempt
        finally:
            server.stop()

    def test_response_timeout_is_never_retried(self):
        # The request reached the server; only the response is late.
        # Retrying would double-execute it — the client must raise.
        hold = threading.Event()

        def script(server, index, connection):
            _read_request(connection)
            server.requests_seen += 1
            hold.wait(timeout=5)

        server = _ScriptedServer(script)
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=0.3)
            with pytest.raises(socket.timeout):
                client.healthz()
            client.close()
            hold.set()
            time.sleep(0.1)
            assert server.requests_seen == 1
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Sustained mixed read/publish load harness
# ----------------------------------------------------------------------
class TestLoadHarness:
    def test_sustained_mixed_read_publish_meets_slo(self, suite):
        with start_server({"default": suite, "swap": suite}) as handle:
            report = run_load(
                handle.host,
                handle.port,
                [[a, b] for a in NAMES for b in NAMES],
                ways=WAYS,
                concurrency=4,
                duration_s=0.8,
                publish=PublishLoad(
                    name="swap",
                    documents=[
                        _oracle_suite(salt=1.0).to_dict(),
                        _oracle_suite(salt=2.0).to_dict(),
                    ],
                    interval_s=0.05,
                ),
            )
            # Sustained mode: far more attempts than the 16 seed mixes.
            assert report.requests > len(NAMES) ** 2
            assert report.completed == report.requests
            assert report.published >= 2
            report.check_slo(
                max_p95_s=5.0,
                max_shed_rate=0.0,
                max_error_rate=0.0,
                min_throughput_rps=1.0,
            )
            # The publisher actually hot-swapped (documents alternate).
            with ServeClient(handle.host, handle.port) as client:
                assert _counter(client, "serve.models.hot_swaps") >= 2

    def test_check_slo_raises_listing_every_violation(self):
        report = LoadReport(
            requests=100,
            completed=80,
            shed=10,
            errors=10,
            duration_s=10.0,
            latencies_s=[0.5] * 80,
            publish_errors=3,
        )
        with pytest.raises(AssertionError) as err:
            report.check_slo(
                max_p95_s=0.1,
                max_shed_rate=0.01,
                max_error_rate=0.0,
                min_throughput_rps=1000.0,
            )
        message = str(err.value)
        for fragment in ("p95", "shed rate", "error rate", "publish", "req/s"):
            assert fragment in message

    def test_one_shot_mode_counts_each_mix_once(self, suite):
        with start_server({"default": suite}) as handle:
            mixes = [["mcf"], ["gzip"], ["art"]]
            report = run_load(
                handle.host, handle.port, mixes, ways=WAYS, concurrency=8
            )
            assert report.requests == len(mixes)
            assert report.completed == len(mixes)


# ----------------------------------------------------------------------
# CLI multi-worker path
# ----------------------------------------------------------------------
@reuseport_only
class TestCliServeWorkers:
    def test_http_workers_flag_serves_and_drains_on_sigterm(
        self, suite, tmp_path
    ):
        suite_path = tmp_path / "suite.json"
        suite.save(suite_path)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--suite", str(suite_path), "--port", "0",
                "--http-workers", "2", "--linger-ms", "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening on http://" in line, line
            host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
            with ServeClient(host, int(port)) as client:
                response = client.predict(["mcf", "gzip"], ways=WAYS)
                assert "x-repro-worker" in client.last_headers
            assert response["prediction"] == predict_mix(
                ["mcf", "gzip"], str(suite_path), ways=WAYS
            ).to_dict()
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
            stderr = process.stderr.read()
            assert process.returncode == 0
            assert "2 workers" in stderr
            assert "drained and stopped" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
