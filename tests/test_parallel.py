"""Unit tests for repro.parallel.

The batch predictor's results are *bit-identical* to a scalar
``PerformanceModel.predict`` loop over a cold-start cache, with and
without per-mix frequency ratios.
"""

import pytest

from repro import obs
from repro.api import predict_mix, predict_mixes
from repro.core.feature import FeatureVector
from repro.core.performance_model import PerformanceModel
from repro.core.solver_cache import EquilibriumCache
from repro.errors import ConfigurationError
from repro.parallel import ParallelPredictor, predict_mixes as batch_predict
from repro.workloads.spec import BENCHMARKS

NAMES = ["mcf", "gzip", "art", "vpr"]
MIXES = [
    ["mcf", "gzip"],
    ["art", "vpr"],
    ["mcf", "art", "vpr"],
    ["gzip", "gzip"],  # duplicates within a mix
    ["mcf", "gzip"],  # duplicate mix in the batch
]
#: Per-mix DVFS clock ratios for ``MIXES``.
RATIOS = [
    [0.8, 1.0],
    None,  # per-mix optional: None means all-unit
    [1.0, 0.6, 0.9],
    [0.7, 0.7],
    [0.8, 1.0],
]


@pytest.fixture(scope="module")
def features():
    return [FeatureVector.oracle(BENCHMARKS[name], 2e8) for name in NAMES]


def _scalar_reference(features, mixes, frequency_ratios=None):
    """One scalar ``predict`` per mix over a fresh cold-start cache."""
    model = PerformanceModel(ways=8)
    model.register_all(features)
    if frequency_ratios is None:
        frequency_ratios = [None] * len(mixes)
    return tuple(
        model.predict(mix, frequency_ratios=ratios)
        for mix, ratios in zip(mixes, frequency_ratios)
    )


class TestPredictMixes:
    def test_parallel_bit_equals_serial(self, features):
        """The batch equals the scalar loop; ``==`` is exact float equality."""
        with ParallelPredictor(features, ways=8) as predictor:
            assert predictor.predict_mixes(MIXES) == _scalar_reference(
                features, MIXES
            )
        with ParallelPredictor(features, ways=8) as predictor:
            assert predictor.predict_mixes(
                MIXES, frequency_ratios=RATIOS
            ) == _scalar_reference(features, MIXES, RATIOS)

    def test_matches_independent_predictions(self, features):
        """Each batch entry equals a standalone cold-start prediction."""
        batch = batch_predict(features, MIXES, ways=8)
        for mix, got in zip(MIXES, batch):
            model = PerformanceModel(ways=8)
            model.register_all(features)
            assert model.predict(mix) == got

    def test_order_preserved(self, features):
        results = batch_predict(features, MIXES, ways=8)
        for mix, result in zip(MIXES, results):
            assert [p.name for p in result.processes] == list(mix)

    def test_empty_batch(self, features):
        assert batch_predict(features, [], ways=8) == ()

    def test_accepts_feature_mapping(self, features):
        mapping = {f.name: f for f in features}
        assert batch_predict(mapping, MIXES[:2], ways=8) == batch_predict(
            features, MIXES[:2], ways=8
        )

    def test_fills_shared_cache(self, features):
        cache = EquilibriumCache()
        with ParallelPredictor(features, ways=8, cache=cache) as predictor:
            predictor.predict_mixes(MIXES)
        stats = cache.stats
        assert stats.entries == 4  # one per distinct canonical mix
        assert stats.hits + stats.misses == len(MIXES)
        assert (8, (("gzip", 1.0), ("mcf", 1.0))) in cache

    def test_observer_records_batch_span(self, features):
        observer = obs.Observer()
        with obs.use_observer(observer):
            batch_predict(features, MIXES, ways=8)
        spans = observer.trace_dict()["spans"]
        batch_spans = [s for s in spans if s["name"] == "parallel.predict_mixes"]
        assert len(batch_spans) == 1
        predict_spans = [s for s in spans if s["name"] == "predict"]
        assert len(predict_spans) == len(MIXES)
        assert {s["parent_id"] for s in predict_spans} == {batch_spans[0]["id"]}
        counters = observer.metrics_dict()["counters"]
        assert counters["predict.calls"] == len(MIXES)
        assert counters["parallel.mixes"] == len(MIXES)

    def test_worker_errors_propagate(self, features):
        with pytest.raises(KeyError, match="no feature vector"):
            batch_predict(features, [["mcf", "nosuch"]], ways=8)


class TestEngineSelection:
    """Every batch entry point solves through the one in-process engine."""

    def test_all_engines_bit_identical(self, features):
        """One-shot call, fresh predictor, cache-served repeat, scalar loop."""
        one_shot = batch_predict(features, MIXES, ways=8)
        with ParallelPredictor(features, ways=8) as predictor:
            fresh = predictor.predict_mixes(MIXES)
            repeat = predictor.predict_mixes(MIXES)
        assert one_shot == fresh == repeat == _scalar_reference(features, MIXES)


class TestPredictorLifecycle:
    def test_predict_after_close_raises(self, features):
        predictor = ParallelPredictor(features, ways=8)
        assert predictor.predict_mixes([["mcf", "gzip"]])
        assert not predictor.closed
        predictor.close()
        assert predictor.closed
        with pytest.raises(RuntimeError, match="closed"):
            predictor.predict_mixes([["mcf", "gzip"]])
        with pytest.raises(RuntimeError, match="closed"):
            predictor.warm_up()

    def test_context_manager_exit_closes(self, features):
        with ParallelPredictor(features, ways=8) as predictor:
            predictor.predict_mixes([["mcf"]])
        assert predictor.closed
        with pytest.raises(RuntimeError, match="create a new predictor"):
            predictor.predict_mixes([["mcf"]])

    def test_close_is_idempotent(self, features):
        predictor = ParallelPredictor(features, ways=8)
        predictor.close()
        predictor.close()
        assert predictor.closed


class TestFacade:
    def test_api_predict_mixes_matches_predict_mix(self, features):
        from repro.api import ProfileSuiteResult

        suite = ProfileSuiteResult(
            machine="4-core-server",
            features={f.name: f for f in features},
            profiles={},
        )
        batch = predict_mixes(MIXES, suite, ways=8)
        assert len(batch) == len(MIXES)
        for mix, result in zip(MIXES, batch):
            assert result.names == tuple(mix)
            assert result.ways == 8
            assert result.prediction == predict_mix(mix, suite, ways=8).prediction


class TestFrequencyRatios:
    """Per-mix DVFS frequency ratios thread through the batch predictor."""

    def test_all_engines_bit_identical_with_ratios(self, features):
        one_shot = batch_predict(
            features, MIXES, ways=8, frequency_ratios=RATIOS
        )
        with ParallelPredictor(features, ways=8) as predictor:
            fresh = predictor.predict_mixes(MIXES, frequency_ratios=RATIOS)
            repeat = predictor.predict_mixes(MIXES, frequency_ratios=RATIOS)
        assert one_shot == fresh == repeat == _scalar_reference(
            features, MIXES, RATIOS
        )

    def test_matches_independent_scalar_predictions(self, features):
        """Each ratio-carrying entry equals a cold standalone predict."""
        batch = batch_predict(
            features, MIXES, ways=8, frequency_ratios=RATIOS
        )
        for mix, ratios, got in zip(MIXES, RATIOS, batch):
            model = PerformanceModel(ways=8)
            model.register_all(features)
            assert model.predict(mix, frequency_ratios=ratios) == got

    def test_none_equals_all_unit(self, features):
        unit = [[1.0] * len(mix) for mix in MIXES]
        assert batch_predict(
            features, MIXES, ways=8, frequency_ratios=unit
        ) == batch_predict(features, MIXES, ways=8)

    def test_rejects_wrong_outer_length(self, features):
        with pytest.raises(ConfigurationError, match="one entry per mix"):
            batch_predict(
                features, MIXES, ways=8, frequency_ratios=[[1.0, 1.0]]
            )

    def test_rejects_wrong_inner_length(self, features):
        ratios = [[1.0], None, None, None, None]  # mix 0 has two processes
        with pytest.raises(ConfigurationError, match=r"frequency_ratios\[0\]"):
            batch_predict(features, MIXES, ways=8, frequency_ratios=ratios)
