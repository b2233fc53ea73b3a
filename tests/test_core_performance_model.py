"""Unit tests for the PerformanceModel façade."""

import pytest

from repro.core.equilibrium import BisectionSolver, NewtonSolver
from repro.core.feature import FeatureVector
from repro.core.performance_model import PerformanceModel
from repro.errors import ConfigurationError
from repro.workloads.spec import BENCHMARKS

FREQ = 2e8


@pytest.fixture
def model():
    model = PerformanceModel(ways=16)
    for name in ("mcf", "art", "gzip", "twolf"):
        model.register(FeatureVector.oracle(BENCHMARKS[name], FREQ))
    return model


class TestRegistration:
    def test_known_processes_sorted(self, model):
        assert model.known_processes == ["art", "gzip", "mcf", "twolf"]

    def test_unknown_process_raises(self, model):
        with pytest.raises(KeyError, match="no feature vector"):
            model.predict(["mcf", "nosuch"])

    def test_reregistration_replaces(self, model):
        replacement = FeatureVector.oracle(BENCHMARKS["vpr"], FREQ)
        renamed = FeatureVector(
            name="mcf",
            histogram=replacement.histogram,
            api=replacement.api,
            spi_model=replacement.spi_model,
        )
        model.register(renamed)
        assert model.feature("mcf").api == pytest.approx(BENCHMARKS["vpr"].api)


class TestPrediction:
    def test_solo_prediction_uncontended(self, model):
        solo = model.predict_solo("gzip")
        # gzip's footprint fits easily in 16 ways: low MPA.
        assert solo.mpa < 0.1
        assert solo.spi > 0

    def test_pair_prediction_capacity(self, model):
        prediction = model.predict(["mcf", "art"])
        assert prediction.contended
        assert prediction.total_size == pytest.approx(16.0, abs=0.05)

    def test_contention_raises_mpa(self, model):
        solo = model.predict_solo("mcf")
        pair = model.predict(["mcf", "art"])
        assert pair[0].mpa > solo.mpa

    def test_duplicate_names_symmetric(self, model):
        prediction = model.predict(["mcf", "mcf"])
        assert prediction[0].effective_size == pytest.approx(
            prediction[1].effective_size, abs=0.05
        )

    def test_l2mpr_equals_mpa(self, model):
        prediction = model.predict(["mcf", "gzip"])
        assert prediction[0].l2mpr == prediction[0].mpa

    def test_ips_is_inverse_spi(self, model):
        solo = model.predict_solo("twolf")
        assert solo.ips == pytest.approx(1.0 / solo.spi)

    def test_too_many_processes(self, model):
        with pytest.raises(ConfigurationError):
            model.predict(["mcf"] * 17)

    def test_empty_prediction(self, model):
        with pytest.raises(ConfigurationError):
            model.predict([])

    def test_len_and_getitem(self, model):
        prediction = model.predict(["mcf", "gzip"])
        assert len(prediction) == 2
        assert prediction[1].name == "gzip"


class TestStrategies:
    def test_explicit_strategies_agree(self):
        features = [
            FeatureVector.oracle(BENCHMARKS[name], FREQ) for name in ("mcf", "art")
        ]
        model = PerformanceModel(ways=16)
        model.register_all(features)
        inputs = model._equilibrium_inputs(["mcf", "art"])
        a = NewtonSolver().solve(inputs, 16)
        b = BisectionSolver().solve(inputs, 16)
        assert a.sizes[0] == pytest.approx(b.sizes[0], abs=0.1)


class TestSolverInputs:
    """One stored unit-ratio input per name; other ratios are derived."""

    RATIOS = [0.25 + 1.75 * i / 999 for i in range(1000)]

    def test_store_stays_one_entry_per_name_across_many_ratios(self, model):
        assert len(set(self.RATIOS)) == 1000
        model.predict_batch([["mcf"]] * 1000, [[r] for r in self.RATIOS])
        for ratio in self.RATIOS[:50]:
            model.predict(["mcf", "art"], [ratio, 1.0])
        assert sorted(model._inputs) == model.known_processes

    def test_scaled_constants_match_with_frequency_ratio(self, model):
        feature = model.feature("mcf")
        for ratio in self.RATIOS[::37] + [0.6, 0.8, 1.5, 3.0]:
            (derived,) = model._equilibrium_inputs(["mcf"], [ratio])
            scaled = feature.with_frequency_ratio(ratio)
            assert derived.alpha == scaled.alpha
            assert derived.beta == scaled.beta
            assert derived.api == scaled.api

    def test_ratio_predictions_match_registered_scaled_profile(self, model):
        features = [model.feature(name) for name in ("mcf", "art")]
        for ratio in (0.6, 0.8, 1.7):
            cold = PerformanceModel(ways=16)
            cold.register_all(features)
            scaled = PerformanceModel(ways=16)
            scaled.register_all([features[0].with_frequency_ratio(ratio), features[1]])
            assert cold.predict(["mcf", "art"], [ratio, 1.0]) == scaled.predict(
                ["mcf", "art"]
            )

    def test_unit_ratio_reuses_stored_input(self, model):
        (first,) = model._equilibrium_inputs(["gzip"])
        (second,) = model._equilibrium_inputs(["gzip"], [1.0])
        assert first is second

    def test_non_positive_ratio_rejected(self, model):
        for ratio in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="ratio must be positive"):
                model.predict(["mcf", "art"], [ratio, 1.0])

    def test_reregistration_replaces_stored_input(self, model):
        (before,) = model._equilibrium_inputs(["mcf"])
        model.register(FeatureVector.oracle(BENCHMARKS["mcf"], 2 * FREQ))
        (after,) = model._equilibrium_inputs(["mcf"])
        assert after is not before
        assert after.beta == model.feature("mcf").beta
        assert len(model._inputs) == len(model.known_processes)
