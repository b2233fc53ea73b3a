"""Unit tests for the repro.obs tracing + metrics subsystem."""

import json

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import (
    METRICS_FORMAT_VERSION,
    NULL_OBSERVER,
    Observer,
    TRACE_FORMAT_VERSION,
    get_observer,
    set_observer,
    use_observer,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer


class TestSpans:
    def test_span_records_timing_and_status(self):
        tracer = Tracer()
        with tracer.span("work", key="value") as span:
            sum(range(1000))
        assert span.status == "ok"
        assert span.wall_s >= 0.0
        assert span.cpu_s >= 0.0
        assert span.attributes == {"key": "value"}
        assert tracer.finished == [span]

    def test_nesting_links_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Children finish (and are recorded) before their parents.
        assert [s.name for s in tracer.finished] == ["inner", "outer"]

    def test_error_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed") as span:
                raise RuntimeError("boom")
        assert span.status == "error"
        assert span.attributes["error"] == "RuntimeError"

    def test_annotate_merges_attributes(self):
        tracer = Tracer()
        with tracer.span("s", a=1) as span:
            span.annotate(b=2, a=3)
        assert span.attributes == {"a": 3, "b": 2}

    def test_name_attribute_does_not_collide(self):
        tracer = Tracer()
        with tracer.span("profile", name="mcf") as span:
            pass
        assert span.name == "profile"
        assert span.attributes == {"name": "mcf"}

    def test_clear_resets_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.clear()
        with tracer.span("b") as span:
            pass
        assert span.span_id == 1
        assert [s.name for s in tracer.finished] == ["b"]


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(2.5)
        assert registry.counter("x").value == 3.5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("x").inc(-1)

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.0)
        registry.gauge("g").set(-7.0)
        assert registry.gauge("g").value == -7.0

    def test_histogram_streams_stats(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snapshot = h.to_dict()
        assert snapshot["count"] == 3
        assert snapshot["min"] == 1.0
        assert snapshot["max"] == 3.0
        assert snapshot["mean"] == pytest.approx(2.0)

    def test_clear_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.clear()
        assert registry.to_dict()["counters"] == {}


class TestObserverInstallation:
    def test_default_is_disabled(self):
        assert get_observer() is NULL_OBSERVER
        assert not get_observer().enabled

    def test_use_observer_restores_previous(self):
        observer = Observer()
        with use_observer(observer):
            assert get_observer() is observer
            assert get_observer().enabled
        assert get_observer() is NULL_OBSERVER

    def test_set_observer_none_restores_default(self):
        previous = set_observer(Observer())
        try:
            assert get_observer().enabled
        finally:
            set_observer(None)
        assert previous is NULL_OBSERVER
        assert get_observer() is NULL_OBSERVER

    def test_null_observer_hands_out_shared_noops(self):
        assert NULL_OBSERVER.span("x") is NULL_SPAN
        NULL_OBSERVER.counter("c").inc(5)
        NULL_OBSERVER.gauge("g").set(1.0)
        NULL_OBSERVER.histogram("h").observe(2.0)
        assert NULL_OBSERVER.metrics_dict()["counters"] == {}
        assert NULL_OBSERVER.trace_dict()["spans"] == []


class TestExportSchema:
    """Pin the JSON schemas of the trace and metrics documents."""

    def test_trace_document_schema(self):
        observer = Observer()
        with observer.span("outer", tag="t"):
            with observer.span("inner"):
                pass
        doc = observer.trace_dict()
        assert doc["kind"] == "trace"
        assert doc["version"] == TRACE_FORMAT_VERSION == 1
        assert len(doc["spans"]) == 2
        for span in doc["spans"]:
            assert set(span) == {
                "name", "id", "parent_id", "start_s", "wall_s",
                "cpu_s", "status", "attributes",
            }
        json.dumps(doc)  # must be plain JSON

    def test_metrics_document_schema(self):
        observer = Observer()
        observer.counter("c").inc(2)
        observer.gauge("g").set(4.0)
        observer.histogram("h").observe(1.5)
        doc = observer.metrics_dict()
        assert doc["kind"] == "metrics"
        assert doc["version"] == METRICS_FORMAT_VERSION == 1
        assert doc["counters"] == {"c": 2.0}
        assert doc["gauges"] == {"g": 4.0}
        assert set(doc["histograms"]["h"]) == {
            "count", "sum", "min", "max", "mean",
        }
        json.dumps(doc)

    def test_write_exports_are_loadable(self, tmp_path):
        observer = Observer()
        with observer.span("s"):
            observer.counter("c").inc()
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        observer.write_trace(trace_path)
        observer.write_metrics(metrics_path)
        assert json.loads(trace_path.read_text())["kind"] == "trace"
        assert json.loads(metrics_path.read_text())["kind"] == "metrics"


class TestPipelineIntegration:
    """The wired call sites report into an installed observer."""

    def test_predict_emits_spans_and_counters(self):
        from repro.core.feature import FeatureVector
        from repro.core.performance_model import PerformanceModel
        from repro.workloads.spec import BENCHMARKS

        model = PerformanceModel(ways=8)
        model.register_all(
            [
                FeatureVector.oracle(BENCHMARKS[name], 2e8)
                for name in ("mcf", "gzip")
            ]
        )
        observer = Observer()
        with use_observer(observer):
            model.predict(["mcf", "gzip"])
            model.predict(["mcf", "gzip"])  # cache hit
        names = [s.name for s in observer.tracer.finished]
        assert names.count("predict") == 2
        assert "equilibrium.solve" in names
        counters = observer.metrics_dict()["counters"]
        assert counters["predict.calls"] == 2.0
        assert counters["solver_cache.hits"] == 1.0
        assert counters["solver_cache.misses"] == 1.0
        assert counters["equilibrium.solves"] == 1.0
        # The equilibrium span nests under the first predict span.
        spans = {s.span_id: s for s in observer.tracer.finished}
        solve = next(
            s for s in observer.tracer.finished if s.name == "equilibrium.solve"
        )
        assert spans[solve.parent_id].name == "predict"

    def test_disabled_observer_leaves_no_record(self):
        from repro.core.feature import FeatureVector
        from repro.core.performance_model import PerformanceModel
        from repro.workloads.spec import BENCHMARKS

        model = PerformanceModel(ways=8)
        model.register(FeatureVector.oracle(BENCHMARKS["mcf"], 2e8))
        assert get_observer() is NULL_OBSERVER
        model.predict(["mcf"])  # must not raise, must not record
        assert NULL_OBSERVER.trace_dict()["spans"] == []

    def test_module_reexports(self):
        for name in obs.__all__:
            assert hasattr(obs, name)


class TestOutOfOrderClose:
    def test_double_close_marks_error_instead_of_passing_silently(self):
        tracer = Tracer()
        span = tracer.span("leaky")
        span.__enter__()
        span.__exit__(None, None, None)
        assert span.status == "ok"
        # A second close finds the span gone from the stack; the old
        # code swallowed this with a bare ``pass``.
        span.__exit__(None, None, None)
        assert span.status == "error"
        assert span.attributes["error"] == "span closed while not open"

    def test_interleaved_closes_are_tolerated(self):
        """Generator-style exits (outer before inner) stay non-errors."""
        tracer = Tracer()
        outer, inner = tracer.span("outer"), tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        assert outer.status == "ok"
        assert inner.status == "ok"
        assert len(tracer.finished) == 2

    def test_anomaly_is_logged(self, caplog):
        import logging

        tracer = Tracer()
        span = tracer.span("leaky")
        span.__enter__()
        span.__exit__(None, None, None)
        with caplog.at_level(logging.DEBUG, logger="repro.obs.trace"):
            span.__exit__(None, None, None)
        assert any("not on the tracer stack" in r.message for r in caplog.records)


class TestWriterSanitization:
    """Exports must stay loadable even when attributes go non-finite."""

    def test_nan_attribute_survives_as_marker(self, tmp_path):
        observer = Observer()
        with observer.span("solve", residual=float("nan")):
            observer.gauge("residual").set(float("inf"))
        observer.write_trace(tmp_path / "trace.json")
        observer.write_metrics(tmp_path / "metrics.json")
        trace = json.loads((tmp_path / "trace.json").read_text())
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        span = next(s for s in trace["spans"] if s["name"] == "solve")
        assert span["attributes"]["residual"] == "NaN"
        assert metrics["gauges"]["residual"] == "Infinity"

    def test_written_files_are_strict_json(self, tmp_path):
        observer = Observer()
        with observer.span("x", bad=float("-inf")):
            pass
        observer.write_trace(tmp_path / "trace.json")
        json.loads(
            (tmp_path / "trace.json").read_text(),
            parse_constant=lambda token: pytest.fail(
                f"non-strict JSON token {token!r} written"
            ),
        )
