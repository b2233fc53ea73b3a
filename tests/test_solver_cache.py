"""Unit and integration tests for the shared equilibrium cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combined import CombinedModel
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.histogram import ReuseDistanceHistogram
from repro.core.performance_model import PerformanceModel
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.core.solver_cache import EquilibriumCache
from repro.core.spi import SpiModel
from repro.errors import ConfigurationError
from repro.events import RATE_EVENTS
from repro.machine.topology import four_core_server

WAYS = 16


class TestEquilibriumCache:
    def test_miss_then_hit(self):
        cache = EquilibriumCache()
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert "k" in cache
        assert len(cache) == 1

    def test_lru_eviction(self):
        cache = EquilibriumCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now least recently used
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_storage(self):
        cache = EquilibriumCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            EquilibriumCache(max_entries=-1)

    def test_clear_drops_entries_keeps_counters(self):
        cache = EquilibriumCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1  # counters survive a clear


def _feature(name, probs, inf_mass, api=0.05):
    hist = ReuseDistanceHistogram(probs, inf_mass)
    return FeatureVector(
        name=name,
        histogram=hist,
        api=api,
        spi_model=SpiModel(alpha=5e-8, beta=2e-9),
    )


def _features():
    return [
        _feature("heavy", [0.05] * 12, 0.4, api=0.06),
        _feature("light", [0.5, 0.3, 0.15], 0.05, api=0.01),
        _feature("mid", [0.1] * 8, 0.2, api=0.03),
    ]


@pytest.fixture
def features():
    return _features()


class TestPerformanceModelCaching:
    def test_repeat_prediction_hits(self, features):
        model = PerformanceModel(ways=WAYS)
        model.register_all(features)
        first = model.predict(["heavy", "light"])
        second = model.predict(["heavy", "light"])
        assert model.cache_stats.hits == 1
        for a, b in zip(first.processes, second.processes):
            assert a == b

    def test_order_independent_results(self, features):
        model = PerformanceModel(ways=WAYS)
        model.register_all(features)
        forward = model.predict(["heavy", "light", "mid"])
        backward = model.predict(["mid", "light", "heavy"])
        assert model.cache_stats.hits == 1  # same canonical key
        by_fwd = {p.name: p for p in forward.processes}
        by_bwd = {p.name: p for p in backward.processes}
        for name in by_fwd:
            assert by_fwd[name].effective_size == by_bwd[name].effective_size
            assert by_fwd[name].spi == by_bwd[name].spi
        # Output order follows the request, not the canonical order.
        assert [p.name for p in backward.processes] == ["mid", "light", "heavy"]

    def test_frequency_ratio_in_key(self, features):
        model = PerformanceModel(ways=WAYS)
        model.register_all(features)
        model.predict(["heavy", "light"])
        model.predict(["heavy", "light"], frequency_ratios=[1.5, 1.0])
        assert model.cache_stats.hits == 0  # different operating point
        assert model.cache_stats.misses == 2

    def test_register_replacement_clears_cache(self, features):
        model = PerformanceModel(ways=WAYS)
        model.register_all(features)
        model.predict(["heavy", "light"])
        assert len(model.cache) == 1
        model.register(features[0])  # replace "heavy"
        assert len(model.cache) == 0
        # New name does not clear.
        model.predict(["heavy", "light"])
        model.register(_feature("new", [0.3, 0.3], 0.1))
        assert len(model.cache) == 1

    def test_shared_cache_across_models(self, features):
        cache = EquilibriumCache()
        a = PerformanceModel(ways=WAYS, cache=cache)
        b = PerformanceModel(ways=WAYS, cache=cache)
        a.register_all(features)
        b.register_all(features)
        a.predict(["heavy", "light"])
        b.predict(["heavy", "light"])
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_disabled_cache_still_predicts(self, features):
        model = PerformanceModel(ways=WAYS, cache=EquilibriumCache(max_entries=0))
        model.register_all(features)
        first = model.predict(["heavy", "light"])
        second = model.predict(["heavy", "light"])
        for a, b in zip(first.processes, second.processes):
            assert a.spi == pytest.approx(b.spi, rel=1e-9)
        assert model.cache_stats.hits == 0

    def test_cached_equals_uncached(self, features):
        cached = PerformanceModel(ways=WAYS)
        uncached = PerformanceModel(
            ways=WAYS, cache=EquilibriumCache(max_entries=0)
        )
        cached.register_all(features)
        uncached.register_all(features)
        mixes = [
            ["heavy", "light"],
            ["light", "heavy"],
            ["heavy", "mid", "light"],
            ["heavy", "heavy", "light"],
        ]
        for mix in mixes:
            a = cached.predict(mix)
            b = uncached.predict(mix)
            for pa, pb in zip(a.processes, b.processes):
                assert pa.name == pb.name
                assert pa.effective_size == pytest.approx(
                    pb.effective_size, abs=1e-6
                )
                assert pa.spi == pytest.approx(pb.spi, rel=1e-6)


    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["heavy", "light", "mid"]),
                    st.sampled_from([1.0, 0.5, 1.5]),
                ),
                min_size=2,
                max_size=4,
            ),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_prediction_does_not_depend_on_solve_history(self, mixes, rng):
        # Every mix here contends for the cache, so the first sight of
        # each is an equilibrium solve.  Neither the mixes a model
        # solved before nor their order may move a bit of the answer.
        features = _features()

        def model():
            fresh = PerformanceModel(ways=WAYS)
            fresh.register_all(features)
            return fresh

        def predict(on, mix):
            names = [name for name, _ in mix]
            return on.predict(names, frequency_ratios=[r for _, r in mix])

        shuffled = list(mixes)
        rng.shuffle(shuffled)
        for on, order in ((model(), mixes), (model(), shuffled)):
            for mix in order:
                alone = predict(model(), mix)
                assert alone.contended
                assert predict(on, mix) == alone


class TestCombinedModelSharedCache:
    @pytest.fixture
    def power_model(self):
        rng = np.random.default_rng(1)
        training = PowerTrainingSet()
        for _ in range(40):
            rates = {event: rng.uniform(0.0, 1e8) for event in RATE_EVENTS}
            watts = 10.0 + sum(1e-8 * value for value in rates.values())
            training.add(rates, watts)
        return CorePowerModel().fit(training)

    def _combined(self, power_model, features, cache):
        perf = PerformanceModel(ways=WAYS)
        perf.register_all(features)
        profiles = {
            f.name: ProfileVector(
                name=f.name,
                p_alone=15.0,
                l1rpi=0.6,
                l2rpi=0.05,
                brpi=0.2,
                fppi=0.1,
            )
            for f in features
        }
        return CombinedModel(
            topology=four_core_server(sets=64),
            performance_models=[perf],
            power_model=power_model,
            profiles=profiles,
            corun_cache=cache,
        )

    def test_corun_cache_shared_between_instances(self, power_model, features):
        cache = EquilibriumCache()
        first = self._combined(power_model, features, cache)
        second = self._combined(power_model, features, cache)
        assignment = {0: ("heavy",), 1: ("light",)}
        first.estimate_assignment_power(assignment)
        misses_after_first = cache.stats.misses
        second.estimate_assignment_power(assignment)
        # The second model answers from the first model's solutions.
        assert cache.stats.misses == misses_after_first
        assert cache.stats.hits > 0
        assert second.corun_cache_stats.hits == cache.stats.hits

    def test_repeated_search_queries_hit(self, power_model, features):
        combined = self._combined(power_model, features, EquilibriumCache())
        assignment = {0: ("heavy",), 1: ("light", "mid")}
        combined.estimate_assignment_power(assignment)
        misses = combined.corun_cache_stats.misses
        combined.estimate_assignment_throughput(assignment)
        # The repeat is answered from the per-domain memo.
        assert combined.corun_cache_stats.misses == misses
        assert combined.domain_cache_stats.hits > 0
