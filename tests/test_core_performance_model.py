"""Unit tests for the PerformanceModel façade."""

import dataclasses
import random

import pytest

from repro import api
from repro.core.batch_equilibrium import BatchNewtonSolver
from repro.core.equilibrium import BisectionSolver, NewtonSolver
from repro.core.feature import FeatureVector
from repro.core.performance_model import (
    CoRunPrediction,
    PerformanceModel,
    ProcessPrediction,
)
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


#: The ten benchmarks and three clock ratios the batch tests draw from.
BATCH_NAMES = tuple(sorted(BENCHMARKS))
BATCH_RATIOS = (1.0, 0.8, 0.6)


def _batch_features():
    return [FeatureVector.oracle(BENCHMARKS[name], FREQ) for name in BATCH_NAMES]


def _batch_model():
    model = PerformanceModel(ways=16)
    model.register_all(_batch_features())
    return model


def _mixed_batch(count, seed):
    """Mixes shaped like the benchmark's batches: 2-8 names drawn with
    replacement, every third mix with per-process clock ratios."""
    rng = random.Random(seed)
    mixes, ratios = [], []
    for position in range(count):
        names = [rng.choice(BATCH_NAMES) for _ in range(rng.randint(2, 8))]
        mixes.append(names)
        ratios.append(
            [rng.choice(BATCH_RATIOS) for _ in names] if position % 3 == 0 else None
        )
    return mixes, ratios


@pytest.fixture
def solve_batch_calls(monkeypatch):
    """The rows and results of every ``BatchNewtonSolver.solve_batch`` call."""
    calls = []
    original = BatchNewtonSolver.solve_batch

    def spy(self, batch, total_ways):
        results = original(self, batch, total_ways)
        calls.append((batch, results))
        return results

    monkeypatch.setattr(BatchNewtonSolver, "solve_batch", spy)
    return calls


class TestBatchPricing:
    """``predict_batch`` is a ``predict`` loop, one pass per mix."""

    def _batch(self):
        mixes, ratios = _mixed_batch(96, seed=3)
        # The same (name, ratio) twice in one mix, and in later mixes.
        mixes += [["mcf", "mcf", "art"], ["art", "mcf", "gzip"]]
        ratios += [[0.8, 0.8, 1.0], [1.0, 0.8, 0.6]]
        # Rows that do not stack: a solo run and an uncontended pair.
        mixes += [["gzip"], ["gzip", "vpr"]]
        ratios += [None, [0.6, 1.0]]
        # A repeated uncached key, once as a permutation (deferred gets).
        mixes += [["art", "mcf", "mcf"], ["mcf", "twolf"], ["twolf", "mcf"]]
        ratios += [[1.0, 0.8, 0.8], None, [1.0, 1.0]]
        # A key the cache already holds before the batch.
        mixes += [["ammp", "equake"]]
        ratios += [None]
        return mixes, ratios

    def test_matches_predict_loop(self, solve_batch_calls):
        mixes, ratios = self._batch()
        batch_model, loop_model = _batch_model(), _batch_model()
        for model in (batch_model, loop_model):
            model.predict(["ammp", "equake"])
        batched = batch_model.predict_batch(mixes, ratios)
        looped = tuple(loop_model.predict(m, r) for m, r in zip(mixes, ratios))
        assert batched == looped
        assert [hash(p) for p in batched] == [hash(p) for p in looped]
        assert [p.to_dict() for p in batched] == [p.to_dict() for p in looped]
        batch_stats, loop_stats = batch_model.cache_stats, loop_model.cache_stats
        assert batch_stats.hits == loop_stats.hits
        assert batch_stats.lookups == loop_stats.lookups
        # The batch went through the stack, and not every row stacked.
        ((_, results),) = solve_batch_calls
        solvers = {r.telemetry.solver for r in results}
        assert "batch_newton" in solvers
        assert solvers - {"batch_newton"}

    def test_records_are_frozen_dataclasses(self):
        mixes, ratios = self._batch()
        batched = _batch_model().predict_batch(mixes, ratios)
        for prediction in batched:
            assert type(prediction) is CoRunPrediction
            with pytest.raises(dataclasses.FrozenInstanceError):
                prediction.solver = "other"
            for process in prediction.processes:
                assert type(process) is ProcessPrediction
                with pytest.raises(dataclasses.FrozenInstanceError):
                    process.spi = 0.0
            built = CoRunPrediction(
                processes=tuple(
                    ProcessPrediction(p.name, p.effective_size, p.mpa, p.spi)
                    for p in prediction.processes
                ),
                solver=prediction.solver,
                contended=prediction.contended,
            )
            assert dataclasses.asdict(prediction) == dataclasses.asdict(built)

    def test_api_records_are_frozen_dataclasses(self):
        mixes, ratios = self._batch()
        suite = api.ProfileSuiteResult(
            machine="", features={f.name: f for f in _batch_features()}, profiles={}
        )
        records = api.predict_mixes(mixes, suite, ways=16, frequency_ratios=ratios)
        for mix, record in zip(mixes, records):
            assert type(record) is api.MixPrediction
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.ways = 8
            built = api.MixPrediction(
                ways=16, names=tuple(mix), prediction=record.prediction
            )
            assert record == built
            assert hash(record) == hash(built)
            assert dataclasses.asdict(record) == dataclasses.asdict(built)

    def test_one_solver_input_per_name_and_ratio(self, solve_batch_calls):
        mixes, ratios = _mixed_batch(512, seed=11)
        _batch_model().predict_batch(mixes, ratios)
        ((rows, _),) = solve_batch_calls
        pairs = {
            (name, ratio)
            for mix, mix_ratios in zip(mixes, ratios)
            for name, ratio in zip(mix, mix_ratios or [1.0] * len(mix))
        }
        inputs = {id(process) for row in rows for process in row}
        assert len(inputs) == len(pairs) <= 30
