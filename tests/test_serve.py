"""Tests for the repro.serve subsystem.

Three layers, pinned separately:

- **Registry**: versioning, content hashes, idempotent republish,
  hot swap, ``name@version`` resolution.
- **MicroBatcher** (against a stub engine, so the concurrency edges
  are deterministic): dispatch-when-idle by default, size-trigger vs
  linger-timeout flush,
  queue-full shedding, deadline-expired requests never dispatched,
  graceful-drain and fail-fast shutdown.
- **HTTP end-to-end** (real server on an ephemeral port): the
  acceptance bit-equality guarantee — served ``/v1/predict``
  responses equal :func:`repro.api.predict_mix` outputs
  float-for-float — plus error-code mapping, the ``/metrics`` schema,
  ``/v1/assign`` parity, queue-full 429s, graceful ``stop()`` drain,
  and SIGTERM draining of the ``repro serve`` CLI.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import ProfileSuiteResult, _pick_assignment_impl, predict_mix
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.errors import ConfigurationError
from repro.events import Event, RATE_EVENTS
from repro.serve import (
    DeadlineExpiredError,
    MicroBatcher,
    ModelRegistry,
    QueueFullError,
    ServeClient,
    ServeClientError,
    ServiceClosedError,
    UnknownModelError,
    start_server,
)
from repro.workloads.spec import BENCHMARKS

NAMES = ["mcf", "gzip", "art", "vpr"]
WAYS = 16
MACHINE = "2-core-workstation"


def _oracle_suite(names=NAMES, machine="4-core-server"):
    return ProfileSuiteResult(
        machine=machine,
        features={n: FeatureVector.oracle(BENCHMARKS[n], 2e8) for n in names},
        profiles={
            n: ProfileVector(
                name=n,
                p_alone=20.0 + 2.0 * i,
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


@pytest.fixture(scope="module")
def power_model():
    rng = np.random.default_rng(0)
    training = PowerTrainingSet()
    for _ in range(40):
        rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
        power = 11.0 + 8e-8 * rates[Event.L1_REFS] + 2e-7 * rates[Event.L2_MISSES]
        training.add(rates, power)
    return CorePowerModel().fit(training, idle_core_watts=11.0)


@pytest.fixture(scope="module")
def server(suite, power_model):
    handle = start_server({"default": suite, "power": power_model})
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_publish_and_get(self, suite):
        registry = ModelRegistry()
        artifact = registry.publish("suite", suite)
        assert artifact.version == 1
        assert artifact.kind == "profile_suite"
        assert len(artifact.digest) == 64
        assert registry.get("suite") is artifact
        assert registry.get("suite@1") is artifact
        assert "suite" in registry

    def test_in_memory_object_is_served_verbatim(self, suite):
        # The decoded-obj shortcut is what makes served predictions
        # bit-identical to predict_mix on the handed-in suite.
        registry = ModelRegistry()
        assert registry.publish("suite", suite).obj is suite

    def test_republish_identical_content_is_idempotent(self, suite):
        registry = ModelRegistry()
        first = registry.publish("suite", suite)
        again = registry.publish("suite", suite)
        assert again.version == first.version == 1

    def test_hot_swap_creates_new_default_version(self, suite):
        registry = ModelRegistry()
        registry.publish("suite", suite)
        swapped = _oracle_suite(names=["mcf", "gzip"])
        second = registry.publish("suite", swapped)
        assert second.version == 2
        assert registry.get("suite").version == 2
        # Pinned requests keep resolving the old content.
        assert registry.get("suite@1").obj is suite

    def test_path_and_document_round_trip(self, suite, tmp_path):
        path = tmp_path / "suite.json"
        suite.save(path)
        registry = ModelRegistry()
        from_path = registry.publish("a", path)
        from_doc = registry.publish("b", suite.to_dict())
        assert from_path.digest == from_doc.digest
        assert from_path.kind == from_doc.kind == "profile_suite"

    def test_power_model_artifacts(self, power_model):
        registry = ModelRegistry()
        artifact = registry.publish("power", power_model)
        assert artifact.kind == "power_model"
        assert artifact.power_model() is power_model

    def test_unknown_name_and_version(self, suite):
        registry = ModelRegistry()
        with pytest.raises(UnknownModelError, match="no model named"):
            registry.get("nope")
        registry.publish("suite", suite)
        with pytest.raises(UnknownModelError, match="no version 9"):
            registry.get("suite@9")

    def test_bad_names_and_refs(self, suite):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError, match="must not contain '@'"):
            registry.publish("a@b", suite)
        with pytest.raises(ConfigurationError, match="version must be an integer"):
            registry.get("suite@latest")

    def test_rejects_unservable_kinds(self):
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError, match="cannot serve"):
            registry.publish("x", {"kind": "trace", "version": 1})

    def test_list_reports_latest(self, suite):
        registry = ModelRegistry()
        registry.publish("suite", suite)
        registry.publish("suite", _oracle_suite(names=["mcf", "gzip"]))
        (entry,) = registry.list()
        assert entry["name"] == "suite"
        assert entry["version"] == 2
        assert entry["versions"] == 2


# ----------------------------------------------------------------------
# MicroBatcher (stub engine: deterministic concurrency edges)
# ----------------------------------------------------------------------
class StubEngine:
    """Records dispatched batches; results echo the mix."""

    def __init__(self, delay_s=0.0, error=None):
        self.batches = []
        self.delay_s = delay_s
        self.error = error
        self.closed = False

    def predict_mixes(self, mixes):
        self.batches.append([tuple(mix) for mix in mixes])
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.error is not None:
            raise self.error
        return [f"r:{'+'.join(mix)}" for mix in mixes]

    def close(self):
        self.closed = True


class TestMicroBatcher:
    def test_size_trigger_flushes_full_batch(self):
        engine = StubEngine()

        async def main():
            batcher = MicroBatcher(engine, max_batch_size=3, max_linger_s=30.0)
            results = await asyncio.gather(
                batcher.submit(["a"]), batcher.submit(["b"]), batcher.submit(["c"])
            )
            await batcher.stop()
            return results, batcher.metrics.to_dict()

        results, metrics = asyncio.run(main())
        assert results == ["r:a", "r:b", "r:c"]
        # One batch of three, flushed by the size trigger before the
        # 30 s linger could possibly elapse.
        assert engine.batches == [[("a",), ("b",), ("c",)]]
        assert metrics["counters"]["serve.batch.flush_size"] == 1
        assert metrics["counters"].get("serve.batch.flush_linger", 0) == 0
        assert metrics["histograms"]["serve.batch.size"]["max"] == 3
        assert engine.closed

    def test_linger_timeout_flushes_partial_batch(self):
        engine = StubEngine()

        async def main():
            batcher = MicroBatcher(engine, max_batch_size=100, max_linger_s=0.02)
            start = asyncio.get_running_loop().time()
            results = await asyncio.gather(
                batcher.submit(["a"]), batcher.submit(["b"])
            )
            waited = asyncio.get_running_loop().time() - start
            await batcher.stop()
            return results, waited, batcher.metrics.to_dict()

        results, waited, metrics = asyncio.run(main())
        assert results == ["r:a", "r:b"]
        assert engine.batches == [[("a",), ("b",)]]  # one batch, not two
        assert waited >= 0.02  # the partial batch lingered
        assert metrics["counters"]["serve.batch.flush_linger"] == 1
        assert metrics["counters"].get("serve.batch.flush_size", 0) == 0

    def test_default_dispatches_lone_request_without_lingering(self):
        engine = StubEngine()

        async def main():
            batcher = MicroBatcher(engine)
            result = await batcher.submit(["a"])
            await batcher.stop()
            return result, batcher.metrics.to_dict()

        result, metrics = asyncio.run(main())
        assert result == "r:a"
        assert engine.batches == [[("a",)]]
        # The idle solver takes the request at once instead of holding
        # it for companions (a 2 ms linger would show here).
        assert metrics["histograms"]["serve.predict.queue_wait_s"]["max"] < 0.002
        assert metrics["counters"]["serve.batch.flush_idle"] == 1
        assert metrics["counters"].get("serve.batch.flush_linger", 0) == 0

    def test_requests_arriving_during_a_solve_form_the_next_batch(self):
        engine = StubEngine(delay_s=0.05)

        async def main():
            batcher = MicroBatcher(engine)
            first = asyncio.ensure_future(batcher.submit(["a"]))
            for _ in range(3):  # submit, then the flusher's dispatch
                await asyncio.sleep(0)
            dispatched_at_once = batcher.pending == 0
            rest = await asyncio.gather(batcher.submit(["b"]), batcher.submit(["c"]))
            results = [await first] + rest
            await batcher.stop()
            return dispatched_at_once, results, batcher.metrics.to_dict()

        dispatched_at_once, results, metrics = asyncio.run(main())
        assert dispatched_at_once  # `a` left the queue without lingering
        assert results == ["r:a", "r:b", "r:c"]
        assert engine.batches == [[("a",)], [("b",), ("c",)]]
        assert metrics["counters"]["serve.batch.flush_idle"] == 2

    def test_queue_full_sheds_immediately(self):
        engine = StubEngine()

        async def main():
            batcher = MicroBatcher(
                engine, max_batch_size=100, max_linger_s=30.0, max_queue=2
            )
            first = asyncio.ensure_future(batcher.submit(["a"]))
            second = asyncio.ensure_future(batcher.submit(["b"]))
            await asyncio.sleep(0)  # let both enqueue
            start = asyncio.get_running_loop().time()
            with pytest.raises(QueueFullError, match="queue is full"):
                await batcher.submit(["c"])
            shed_latency = asyncio.get_running_loop().time() - start
            # Graceful stop drains the two queued requests.
            await batcher.stop()
            return await first, await second, shed_latency, batcher.metrics.to_dict()

        r1, r2, shed_latency, metrics = asyncio.run(main())
        assert (r1, r2) == ("r:a", "r:b")
        assert shed_latency < 1.0  # shed responses never hang
        assert metrics["counters"]["serve.predict.shed"] == 1
        assert engine.batches == [[("a",), ("b",)]]  # shed mix never dispatched
        assert metrics["counters"]["serve.batch.flush_drain"] == 1

    def test_expired_deadline_is_never_dispatched(self):
        engine = StubEngine()

        async def main():
            batcher = MicroBatcher(engine, max_batch_size=100, max_linger_s=30.0)
            doomed = asyncio.ensure_future(
                batcher.submit(["a"], timeout_s=0.01)
            )
            alive = asyncio.ensure_future(batcher.submit(["b"]))
            await asyncio.sleep(0.05)  # deadline passes while queued
            await batcher.stop()  # drain triggers the flush
            with pytest.raises(DeadlineExpiredError, match="not dispatched"):
                await doomed
            return await alive, batcher.metrics.to_dict()

        alive_result, metrics = asyncio.run(main())
        assert alive_result == "r:b"
        assert engine.batches == [[("b",)]]  # the expired mix never reached it
        assert metrics["counters"]["serve.predict.deadline_expired"] == 1

    def test_stop_without_drain_fails_queued_requests(self):
        engine = StubEngine()

        async def main():
            batcher = MicroBatcher(engine, max_batch_size=100, max_linger_s=30.0)
            queued = asyncio.ensure_future(batcher.submit(["a"]))
            await asyncio.sleep(0)
            await batcher.stop(drain=False)
            with pytest.raises(ServiceClosedError):
                await queued

        asyncio.run(main())
        assert engine.batches == []
        assert engine.closed

    def test_submit_after_stop_is_rejected(self):
        engine = StubEngine()

        async def main():
            batcher = MicroBatcher(engine, max_linger_s=0.001)
            await batcher.submit(["a"])
            await batcher.stop()
            with pytest.raises(ServiceClosedError, match="draining"):
                await batcher.submit(["b"])

        asyncio.run(main())

    def test_engine_error_propagates_to_every_request(self):
        engine = StubEngine(error=ValueError("solver exploded"))

        async def main():
            batcher = MicroBatcher(engine, max_batch_size=2, max_linger_s=30.0)
            results = await asyncio.gather(
                batcher.submit(["a"]),
                batcher.submit(["b"]),
                return_exceptions=True,
            )
            await batcher.stop()
            return results

        results = asyncio.run(main())
        assert all(isinstance(r, ValueError) for r in results)

    def test_batch_larger_than_max_splits(self):
        engine = StubEngine()

        async def main():
            batcher = MicroBatcher(engine, max_batch_size=2, max_linger_s=0.05)
            results = await asyncio.gather(
                *(batcher.submit([c]) for c in "abcde")
            )
            await batcher.stop()
            return results

        results = asyncio.run(main())
        assert results == [f"r:{c}" for c in "abcde"]
        assert [len(batch) for batch in engine.batches] == [2, 2, 1]
        assert [m for batch in engine.batches for (m,) in batch] == list("abcde")


# ----------------------------------------------------------------------
# HTTP end-to-end
# ----------------------------------------------------------------------
class TestHttpEndpoints:
    def test_healthz_and_readyz(self, client):
        assert client.healthz() == {"status": "ok"}
        assert client.readyz() is True

    def test_models_listing(self, client):
        models = {entry["name"]: entry for entry in client.models()}
        assert models["default"]["kind"] == "profile_suite"
        assert models["power"]["kind"] == "power_model"
        assert len(models["default"]["digest"]) == 64

    def test_served_prediction_bit_identical_to_api(self, client, suite):
        # The acceptance guarantee: float-for-float equality with the
        # in-process facade, across mix shapes and duplicates.
        for mix in (["mcf", "gzip"], ["art", "vpr", "mcf"], ["gzip", "gzip"]):
            response = client.predict(mix, ways=WAYS)
            local = predict_mix(mix, suite, ways=WAYS)
            assert response["prediction"] == local.to_dict()
            assert response["model"] == "default@1"

    def test_concurrent_predictions_all_bit_identical(self, server, suite):
        mixes = [[a, b] for a in NAMES for b in NAMES]
        responses = [None] * len(mixes)

        def worker(index):
            with ServeClient(server.host, server.port) as c:
                responses[index] = c.predict(mixes[index], ways=WAYS)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(mixes))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for mix, response in zip(mixes, responses):
            assert response["prediction"] == predict_mix(
                mix, suite, ways=WAYS
            ).to_dict()

    def test_assign_matches_local_pick(self, client, suite, power_model):
        response = client.assign(
            ["mcf", "gzip"], machine=MACHINE, objective="power"
        )
        local = _pick_assignment_impl(
            ["mcf", "gzip"], suite, power_model, machine=MACHINE
        )
        assert response["pick"] == local.to_dict()
        assert response["suite"] == "default@1"
        assert response["power_model"] == "power@1"

    def test_metrics_schema_and_counters(self, client):
        client.predict(["mcf"], ways=WAYS)
        metrics = client.metrics()
        assert metrics["kind"] == "metrics"
        assert metrics["version"] == 1
        assert set(metrics) == {
            "kind", "version", "counters", "gauges", "histograms"
        }
        assert metrics["counters"]["serve.http.requests"] >= 2
        assert metrics["counters"]["serve.predict.completed"] >= 1
        assert metrics["counters"]["serve.batch.dispatched"] >= 1
        assert metrics["histograms"]["serve.batch.size"]["count"] >= 1

    def test_publish_and_hot_swap_over_http(self, client, suite):
        first = client.publish("swap", suite.to_dict())
        assert first["version"] == 1
        swapped = _oracle_suite(names=["mcf", "gzip"])
        second = client.publish("swap", swapped.to_dict())
        assert second["version"] == 2
        assert second["digest"] != first["digest"]
        # Latest serves the new content; @1 still serves the old.
        latest = client.predict(["mcf", "gzip"], ways=WAYS, model="swap")
        assert latest["model"] == "swap@2"
        pinned = client.predict(["mcf", "gzip"], ways=WAYS, model="swap@1")
        assert pinned["model"] == "swap@1"

    def test_error_codes(self, client, server):
        with pytest.raises(ServeClientError) as err:
            client.predict(["mcf"], ways=WAYS, model="no-such-model")
        assert err.value.status == 404
        with pytest.raises(ServeClientError) as err:
            client.predict(["not-a-benchmark"], ways=WAYS)
        assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            client.predict([], ways=WAYS)
        assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            client._call("POST", "/v1/predict", {"model": "default"})
        assert err.value.status == 400  # missing names/ways
        with pytest.raises(ServeClientError) as err:
            client._call("GET", "/v1/predict")
        assert err.value.status == 405
        with pytest.raises(ServeClientError) as err:
            client._call("GET", "/v2/everything")
        assert err.value.status == 404
        status, document = client._request("POST", "/v1/models")
        assert status == 400  # empty body
        assert "error" in document

    def test_malformed_json_is_a_clean_400(self, server):
        import http.client

        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        connection.request(
            "POST", "/v1/predict", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        document = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert "invalid JSON" in document["error"]


#: ``/v1`` field values that must get a 400: a bool, non-finite,
#: negative or unrepresentable deadline; an associativity above the
#: service's bound; and a ``greedy`` flag that is not a JSON bool.
HOSTILE_V1_FIELDS = [
    ("/v1/predict", "timeout_ms", True),
    ("/v1/predict", "timeout_ms", -5),
    ("/v1/predict", "timeout_ms", float("nan")),
    ("/v1/predict", "timeout_ms", float("inf")),
    ("/v1/predict", "timeout_ms", 10**400),
    ("/v1/predict", "ways", 65),
    ("/v1/assign", "greedy", "false"),
    ("/v1/assign", "greedy", 1),
]


class TestHostileV1Bodies:
    @pytest.mark.parametrize(
        "path, field, value",
        HOSTILE_V1_FIELDS,
        ids=[f"{path}-{field}-{value!r:.12}" for path, field, value in HOSTILE_V1_FIELDS],
    )
    def test_field_is_400(self, client, path, field, value):
        payload = {"names": ["mcf", "gzip"], "ways": WAYS, "machine": MACHINE}
        payload[field] = value
        status, document = client._request("POST", path, payload)
        assert status == 400, document
        assert repr(field) in document["error"]

    def test_huge_ways_is_rejected_without_a_solve(self, server):
        # Growth tables cost O(accesses x ways); a solve at 4096 ways
        # would outlast this client's 2 s timeout.
        with ServeClient(server.host, server.port, timeout=2) as c:
            with pytest.raises(ServeClientError) as err:
                c.predict(["mcf", "gzip"], ways=4096)
            assert err.value.status == 400
            assert c.predict(["mcf", "gzip"], ways=WAYS)["model"] == "default@1"


class TestV2Assign:
    @staticmethod
    def _request_doc(**overrides):
        document = {
            "kind": "assignment_request",
            "version": 1,
            "processes": ["mcf", "gzip"],
            "objective": "min-power",
            "solver": "auto",
            "machine": MACHINE,
            "sets": 128,
        }
        document.update(overrides)
        return document

    def test_v2_assign_matches_local_solve(self, client, suite, power_model):
        from repro.api import AssignmentRequest, solve_assignment

        document = self._request_doc()
        status, response = client._request(
            "POST", "/v2/assign", {"request": document}
        )
        assert status == 200
        assert response["kind"] == "serve_fleet_assignment"
        assert response["suite"] == "default@1"
        assert response["power_model"] == "power@1"
        request = AssignmentRequest.from_dict(document)
        assert isinstance(request, AssignmentRequest)
        local = solve_assignment(request, suite, power_model)
        assert response["assignment"] == json.loads(
            json.dumps(local.to_dict())
        )

    def test_v2_assign_calls_share_the_suite_store(
        self, server, client, suite
    ):
        from repro.machine.topology import STANDARD_MACHINES

        document = self._request_doc(processes=["mcf", "gzip", "art"])
        published = server.registry.get("default").obj
        assert published is suite
        ways = STANDARD_MACHINES[MACHINE](sets=128).domains[0].geometry.ways
        models = []
        for _ in range(2):
            status, _ = client._request(
                "POST", "/v2/assign", {"request": document}
            )
            assert status == 200
            model = suite.solved_coruns.model(ways, suite.features)
            models.append((model, model.cache_stats))
        (first, before), (second, after) = models
        assert first is second
        assert before.misses > 0
        assert after.misses == before.misses
        # Priming sends no already-primed mix, so the repeat probes nothing.
        assert after.hits == before.hits

    def test_v1_assign_response_shape_is_frozen(self, client):
        # /v2 landing must not leak into the /v1 document.
        response = client.assign(["mcf", "gzip"], machine=MACHINE)
        assert response["kind"] == "serve_assignment"
        assert set(response) == {
            "kind", "version", "suite", "power_model", "pick"
        }

    def test_v1_assign_does_not_emit_deprecation_warning(self, client):
        # The served /v1 path must go through the impl function, not
        # the deprecated shim; an error filter would turn a warning in
        # the server's assign thread into a 500.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            response = client.assign(["mcf", "gzip"], machine=MACHINE)
        assert response["kind"] == "serve_assignment"

    def test_v1_assign_over_cap_is_400_pointing_at_greedy(self, client):
        status, document = client._request(
            "POST",
            "/v1/assign",
            {"names": ["mcf"] * 10, "machine": "4-core-server", "sets": 32},
        )
        assert status == 400, document
        assert document["type"] == "AssignmentTooLargeError"
        assert "greedy=true" in document["error"]
        assert "solver=" not in document["error"]

    def test_v2_missing_field_is_400_with_path(self, client):
        with pytest.raises(ServeClientError) as err:
            client._call(
                "POST",
                "/v2/assign",
                {"request": {"kind": "assignment_request", "version": 1}},
            )
        assert err.value.status == 400
        assert "assignment_request.processes is missing" in str(err.value)

    @pytest.mark.parametrize("seed", [b"1e400", b"Infinity"])
    def test_v2_non_finite_int_is_400_with_path(self, server, seed):
        # json.loads reads both as float('inf'); int(inf) overflows.
        import http.client

        body = (
            b'{"request": {"kind": "assignment_request", "version": 1, '
            b'"processes": ["mcf"], "seed": ' + seed + b"}}"
        )
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        connection.request(
            "POST", "/v2/assign", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        document = json.loads(response.read())
        connection.close()
        assert response.status == 400
        assert "assignment_request.seed has invalid value inf" in document["error"]

    @pytest.mark.parametrize("api", ["fast", None])
    def test_publish_feature_with_bad_api_is_400_with_path(self, client, suite, api):
        document = suite.to_dict()
        document["features"]["mcf"]["api"] = api
        with pytest.raises(ServeClientError) as err:
            client.publish("hostile", document)
        assert err.value.status == 400
        assert f"profile_suite.features['mcf'].api has invalid value {api!r}" in str(
            err.value
        )

    def test_v2_request_must_be_an_object(self, client):
        with pytest.raises(ServeClientError) as err:
            client._call("POST", "/v2/assign", {"request": "mcf,gzip"})
        assert err.value.status == 400

    def test_v2_oversized_fleet_is_413(self, client, monkeypatch):
        import repro.serve.http as http_mod

        monkeypatch.setattr(http_mod, "MAX_FLEET_PROCESSES", 3)
        with pytest.raises(ServeClientError) as err:
            client._call(
                "POST",
                "/v2/assign",
                {"request": self._request_doc(processes=["mcf"] * 4)},
            )
        assert err.value.status == 413
        monkeypatch.setattr(http_mod, "MAX_FLEET_MACHINES", 2)
        fleet = {
            "kind": "fleet_spec",
            "version": 1,
            "groups": [
                {"machine": MACHINE, "count": 3, "sets": 128,
                 "power_cap_watts": None}
            ],
        }
        with pytest.raises(ServeClientError) as err:
            client._call(
                "POST",
                "/v2/assign",
                {"request": self._request_doc(fleet=fleet)},
            )
        assert err.value.status == 413

    def test_v2_unknown_process_names_rejected(self, client):
        with pytest.raises(ServeClientError) as err:
            client._call(
                "POST",
                "/v2/assign",
                {"request": self._request_doc(processes=["not-a-benchmark"])},
            )
        assert err.value.status == 400


class TestBackpressureAndShutdown:
    def test_queue_full_requests_get_explicit_429(self, suite):
        # Long linger + queue of 1: the first request parks in the
        # batcher, the second must be shed with a 429 — immediately,
        # not after a timeout.
        handle = start_server(
            {"default": suite},
            max_batch_size=64,
            max_linger_ms=30_000.0,
            max_queue=1,
        )
        try:
            outcome = {}

            def queued():
                with ServeClient(handle.host, handle.port, timeout=60) as c:
                    outcome["queued"] = c.predict(["mcf", "gzip"], ways=WAYS)

            thread = threading.Thread(target=queued)
            thread.start()
            deadline = time.time() + 5
            while time.time() < deadline:
                if handle.service.metrics.to_dict()["gauges"].get(
                    "serve.queue.depth", 0
                ) >= 1:
                    break
                time.sleep(0.01)
            start = time.perf_counter()
            with ServeClient(handle.host, handle.port) as c:
                with pytest.raises(ServeClientError) as err:
                    c.predict(["art", "vpr"], ways=WAYS)
            shed_elapsed = time.perf_counter() - start
            assert err.value.status == 429
            assert "full" in err.value.document["error"]
            assert shed_elapsed < 5.0  # shed never hangs
            # Graceful stop drains the queued request: its client
            # still receives a real 200 prediction.
            handle.stop()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert outcome["queued"]["prediction"] == predict_mix(
                ["mcf", "gzip"], suite, ways=WAYS
            ).to_dict()
        finally:
            handle.stop()

    def test_stop_drains_in_flight_batches(self, suite):
        # Park several requests behind a long linger, then stop():
        # every one of them must complete with a real prediction.
        handle = start_server(
            {"default": suite},
            max_batch_size=64,
            max_linger_ms=30_000.0,
            max_queue=64,
        )
        mixes = [[a, b] for a, b in zip(NAMES, NAMES[1:] + NAMES[:1])]
        responses = {}

        def worker(index):
            with ServeClient(handle.host, handle.port, timeout=60) as c:
                responses[index] = c.predict(mixes[index], ways=WAYS)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(mixes))
        ]
        for t in threads:
            t.start()
        deadline = time.time() + 5
        while time.time() < deadline:
            depth = handle.service.metrics.to_dict()["gauges"].get(
                "serve.queue.depth", 0
            )
            if depth >= len(mixes):
                break
            time.sleep(0.01)
        handle.stop()  # graceful: drains the parked batch
        for t in threads:
            t.join(timeout=30)
        assert all(not t.is_alive() for t in threads)
        assert sorted(responses) == list(range(len(mixes)))
        for index, mix in enumerate(mixes):
            assert responses[index]["prediction"] == predict_mix(
                mix, suite, ways=WAYS
            ).to_dict()

    def test_not_ready_after_stop(self, suite):
        handle = start_server({"default": suite})
        with ServeClient(handle.host, handle.port) as c:
            assert c.readyz() is True
        handle.stop()
        handle.stop()  # idempotent

    def test_timed_out_request_gets_504(self, suite):
        handle = start_server(
            {"default": suite},
            max_batch_size=64,
            max_linger_ms=30_000.0,
            max_queue=8,
        )
        try:
            result = {}

            def doomed():
                with ServeClient(handle.host, handle.port, timeout=60) as c:
                    try:
                        c.predict(["mcf"], ways=WAYS, timeout_ms=20)
                    except ServeClientError as error:
                        result["status"] = error.status
                        result["error"] = error.document["error"]

            thread = threading.Thread(target=doomed)
            thread.start()
            time.sleep(0.3)  # deadline passes while parked in the queue
            handle.stop()  # drain flushes; expired request must not solve
            thread.join(timeout=30)
            assert result["status"] == 504
            assert "not dispatched" in result["error"]
        finally:
            handle.stop()


class TestCliServe:
    def test_sigterm_drains_and_exits_cleanly(self, suite, tmp_path):
        suite_path = tmp_path / "suite.json"
        suite.save(suite_path)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--suite", str(suite_path), "--port", "0",
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
                assert client.healthz() == {"status": "ok"}
                response = client.predict(["mcf", "gzip"], ways=WAYS)
            # File-backed serving matches file-backed local prediction
            # (the JSON round trip renormalises histogram masses, so
            # the in-memory suite is the wrong baseline here).
            assert response["prediction"] == predict_mix(
                ["mcf", "gzip"], str(suite_path), ways=WAYS
            ).to_dict()
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            stderr = process.stderr.read()
            assert process.returncode == 0
            assert "draining" in stderr
            assert "drained and stopped" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


class TestDeadlineAtEnqueue:
    """timeout_s <= 0 sheds deterministically at submit (the 504 path)."""

    @pytest.mark.parametrize("timeout_s", [0.0, -0.5])
    def test_due_deadline_is_shed_before_queuing(self, timeout_s):
        engine = StubEngine()

        async def main():
            batcher = MicroBatcher(engine, max_batch_size=100, max_linger_s=30.0)
            with pytest.raises(DeadlineExpiredError, match="not queued"):
                await batcher.submit(["a"], timeout_s=timeout_s)
            depth = batcher.pending
            alive = asyncio.ensure_future(batcher.submit(["b"]))
            await asyncio.sleep(0)
            await batcher.stop()
            return depth, await alive, batcher.metrics.to_dict()

        depth, alive_result, metrics = asyncio.run(main())
        assert depth == 0  # shed request never consumed queue capacity
        assert alive_result == "r:b"
        assert engine.batches == [[("b",)]]  # engine never saw the shed mix
        assert metrics["counters"]["serve.predict.deadline_expired"] == 1
        assert "serve.predict.requests" not in metrics["counters"] or (
            metrics["counters"]["serve.predict.requests"] == 1
        )

    def test_positive_deadline_still_queues(self):
        engine = StubEngine()

        async def main():
            batcher = MicroBatcher(engine, max_batch_size=1, max_linger_s=30.0)
            result = await batcher.submit(["a"], timeout_s=10.0)
            await batcher.stop()
            return result

        assert asyncio.run(main()) == "r:a"
