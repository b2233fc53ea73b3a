"""Unit tests for repro.parallel.

The batch predictor's results are *bit-identical* to a scalar
``PerformanceModel.predict`` loop over a cold-start cache.  The
process pool behind simulations returns the same results for any
worker count, chunking or scheduling order, gives every task an
independent RNG stream, and merges worker observer telemetry
losslessly into the parent.  These tests check each
guarantee with 2-worker pools (small enough for CI machines).
"""

import pytest

from repro import obs
from repro.api import predict_mix, predict_mixes
from repro.config import SimulationScale
from repro.core.feature import FeatureVector
from repro.core.performance_model import PerformanceModel
from repro.core.solver_cache import EquilibriumCache
from repro.errors import ConfigurationError
from repro.parallel import (
    ParallelPredictor,
    SimulationTask,
    predict_mixes as batch_predict,
    simulate_assignments,
)
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

TINY_SCALE = SimulationScale(
    warmup_accesses=1_000,
    measure_accesses=3_000,
    warmup_s=0.002,
    measure_s=0.006,
    hpc_period_s=0.0008,
    timeslice_s=0.0005,
)


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


class TestSimulateAssignments:
    def _tasks(self):
        return [
            SimulationTask(
                machine="4-core-server",
                assignment={0: ("mcf",), 1: ("gzip",)},
                sets=64,
                scale=TINY_SCALE,
            ),
            SimulationTask(
                machine="4-core-server",
                assignment={0: ("mcf",), 1: ("gzip",)},
                sets=64,
                scale=TINY_SCALE,
            ),
            SimulationTask(
                machine="2-core-workstation",
                assignment={0: ("art",)},
                sets=64,
                scale=TINY_SCALE,
            ),
        ]

    @staticmethod
    def _key(result):
        return [
            (p.name, p.core, p.mpa, p.spi, p.occupancy_ways, p.l2_refs)
            for p in result.processes
        ]

    def test_parallel_bit_equals_serial(self):
        tasks = self._tasks()
        serial = simulate_assignments(tasks, workers=1, seed=7)
        parallel = simulate_assignments(tasks, workers=2, seed=7, chunk_size=1)
        assert [self._key(r) for r in serial] == [self._key(r) for r in parallel]

    def test_task_indices_get_independent_streams(self):
        """The same task at different batch indices draws differently."""
        results = simulate_assignments(self._tasks()[:2], workers=1, seed=7)
        assert self._key(results[0]) != self._key(results[1])

    def test_explicit_seed_pins_the_run(self):
        task = SimulationTask(
            machine="4-core-server",
            assignment={0: ("mcf",), 1: ("gzip",)},
            sets=64,
            seed=123,
            scale=TINY_SCALE,
        )
        a = simulate_assignments([task], workers=1)
        b = simulate_assignments([task, task], workers=2)
        assert self._key(a[0]) == self._key(b[0]) == self._key(b[1])

    def test_order_preserved_with_mixed_machines(self):
        results = simulate_assignments(self._tasks(), workers=2, seed=1)
        assert results[0].topology_name == results[1].topology_name
        assert results[2].topology_name != results[0].topology_name
        assert [p.name for p in results[2].processes] == ["art"]

    def test_unknown_names_rejected_before_spawning(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark"):
            simulate_assignments(
                [
                    SimulationTask(
                        machine="4-core-server", assignment={0: ("nosuch",)}
                    )
                ],
                workers=2,
            )
        with pytest.raises(ConfigurationError, match="unknown machine"):
            simulate_assignments(
                [SimulationTask(machine="nosuch", assignment={0: ("mcf",)})],
                workers=2,
            )

    def test_observer_absorbs_worker_simulations(self):
        observer = obs.Observer()
        with obs.use_observer(observer):
            simulate_assignments(self._tasks()[:2], workers=2, seed=3)
        spans = observer.trace_dict()["spans"]
        batch = [s for s in spans if s["name"] == "parallel.simulate"]
        assert len(batch) == 1
        sims = [s for s in spans if s["name"] == "simulate"]
        assert len(sims) == 2
        assert {s["parent_id"] for s in sims} == {batch[0]["id"]}
        counters = observer.metrics_dict()["counters"]
        assert counters["parallel.simulations"] == 2
        assert counters["sim.accesses"] > 0


class TestTable1Workers:
    def test_pairwise_validation_parallel_matches_serial(self):
        from repro.experiments.context import ExperimentContext
        from repro.experiments.table1 import run_pairwise_validation

        context = ExperimentContext(
            sets=64,
            benchmark_names=("mcf", "gzip"),
            profile_scale=TINY_SCALE,
            run_scale=TINY_SCALE,
        )
        pairs = [("mcf", "gzip"), ("gzip", "gzip")]
        serial = run_pairwise_validation(context, pairs=pairs)
        parallel = run_pairwise_validation(context, pairs=pairs, workers=2)
        assert serial.cases == parallel.cases
        assert [r.__dict__ for r in serial.rows] == [
            r.__dict__ for r in parallel.rows
        ]


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
