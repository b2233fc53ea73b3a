"""Unit tests for the occupancy growth model (Eqs. 4-5)."""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.feature import FeatureVector
from repro.core.histogram import ReuseDistanceHistogram
from repro.core.occupancy import OccupancyModel
from repro.core.performance_model import PerformanceModel
from repro.errors import ConfigurationError
from repro.workloads.spec import BENCHMARKS


@pytest.fixture
def streaming_model():
    """Pure streaming: every access misses, growth is one way/access."""
    hist = ReuseDistanceHistogram([0.0], inf_mass=1.0)
    return OccupancyModel(hist, max_ways=8)


@pytest.fixture
def mixed_model():
    hist = ReuseDistanceHistogram([0.4, 0.3, 0.2], inf_mass=0.1)
    return OccupancyModel(hist, max_ways=8)


class TestGrowth:
    def test_first_access_occupies_one_way(self, mixed_model):
        assert mixed_model.g(1) == pytest.approx(1.0)

    def test_g_zero_is_zero(self, mixed_model):
        assert mixed_model.g(0) == 0.0

    def test_streaming_grows_one_per_access(self, streaming_model):
        for n in range(1, 9):
            assert streaming_model.g(n) == pytest.approx(float(n))

    def test_streaming_saturates_at_ways(self, streaming_model):
        assert streaming_model.g(100) == pytest.approx(8.0)
        assert streaming_model.saturation_size == pytest.approx(8.0)

    def test_monotone_non_decreasing(self, mixed_model):
        values = [mixed_model.g(n) for n in np.linspace(0, 200, 80)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_finite_footprint_saturates_below_ways(self):
        """A process reusing only 2 lines never occupies more than 2."""
        hist = ReuseDistanceHistogram([0.5, 0.5])  # distances 0 and 1
        model = OccupancyModel(hist, max_ways=8)
        assert model.saturation_size == pytest.approx(2.0, abs=1e-6)

    def test_expected_growth_matches_monte_carlo(self):
        """Eq. 4 vs direct simulation of the miss/grow chain."""
        hist = ReuseDistanceHistogram([0.3, 0.3, 0.2], inf_mass=0.2)
        model = OccupancyModel(hist, max_ways=6)
        rng = np.random.default_rng(0)
        trials = 4000
        steps = 25
        sizes = np.ones(trials)
        totals = np.zeros(steps)
        totals[0] = 1.0
        for n in range(1, steps):
            mpa = np.array([hist.mpa(s) for s in sizes])
            grow = rng.random(trials) < mpa
            sizes = np.minimum(sizes + grow, 6)
            totals[n] = sizes.mean()
        for n in range(steps):
            assert model.g(n + 1) == pytest.approx(totals[n], abs=0.05)

    def test_fractional_interpolation(self, streaming_model):
        assert streaming_model.g(1.5) == pytest.approx(1.5)


class TestInverse:
    def test_inverse_of_growth(self, mixed_model):
        for n in (1.0, 3.0, 10.0, 40.0):
            size = mixed_model.g(n)
            if size < mixed_model.saturation_size - 1e-6:
                assert mixed_model.g_inverse(size) == pytest.approx(n, rel=0.02)

    def test_inverse_at_zero(self, mixed_model):
        assert mixed_model.g_inverse(0.0) == 0.0

    def test_inverse_beyond_saturation_is_inf(self, mixed_model):
        assert mixed_model.g_inverse(mixed_model.saturation_size) == float("inf")
        assert mixed_model.g_inverse(100.0) == float("inf")

    def test_inverse_monotone(self, mixed_model):
        sizes = np.linspace(0.1, mixed_model.saturation_size - 0.05, 30)
        values = [mixed_model.g_inverse(s) for s in sizes]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_inverse_rejects_negative(self, mixed_model):
        with pytest.raises(ConfigurationError):
            mixed_model.g_inverse(-1.0)


class TestValidation:
    def test_rejects_bad_ways(self):
        hist = ReuseDistanceHistogram([1.0])
        with pytest.raises(ConfigurationError):
            OccupancyModel(hist, max_ways=0)

    def test_table_length_bounded(self):
        hist = ReuseDistanceHistogram([0.0], inf_mass=1.0)
        model = OccupancyModel(hist, max_ways=4, max_accesses=100)
        assert model.table_length <= 100

    def test_mpa_at_passthrough(self, mixed_model):
        assert mixed_model.mpa_at(1) == pytest.approx(
            mixed_model.histogram.mpa(1)
        )


@st.composite
def histograms(draw):
    size = draw(st.integers(min_value=1, max_value=24))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=size, max_size=size
        )
    )
    inf_mass = draw(st.floats(min_value=0.0, max_value=1.0))
    assume(sum(weights) + inf_mass > 0.0)
    return ReuseDistanceHistogram(weights, inf_mass)


class TestSharedGrowthTable:
    """Growth tables are memoised on their histogram, never recomputed."""

    @given(histograms(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_memoised_table_is_the_fresh_recursion_bit_for_bit(self, hist, ways):
        first = OccupancyModel(hist, max_ways=ways)
        second = OccupancyModel(hist, max_ways=ways)
        assert second.growth_table is first.growth_table
        fresh = second._compute_growth(400_000, 1e-9)
        assert second.growth_table.dtype == fresh.dtype
        assert second.growth_table.tobytes() == fresh.tobytes()
        assert second._growth_list == fresh.tolist()
        with pytest.raises(ValueError):
            second.growth_table[0] = 0.0

    def test_key_includes_ways_and_budget(self, mixed_model):
        hist = mixed_model.histogram
        assert OccupancyModel(hist, max_ways=8).growth_table is mixed_model.growth_table
        assert OccupancyModel(hist, max_ways=6).growth_table is not mixed_model.growth_table
        short = OccupancyModel(hist, max_ways=8, max_accesses=3)
        assert short.table_length <= 3
        assert short.growth_table is not mixed_model.growth_table

    def test_equal_histograms_do_not_share(self, mixed_model):
        twin = ReuseDistanceHistogram([0.4, 0.3, 0.2], inf_mass=0.1)
        table = OccupancyModel(twin, max_ways=8).growth_table
        assert table is not mixed_model.growth_table
        assert table.tobytes() == mixed_model.growth_table.tobytes()

    def test_pickled_histogram_builds_its_own_read_only_table(self, mixed_model):
        copy = pickle.loads(pickle.dumps(mixed_model.histogram))
        table = OccupancyModel(copy, max_ways=8).growth_table
        assert table is not mixed_model.growth_table
        assert table.tobytes() == mixed_model.growth_table.tobytes()
        assert not table.flags.writeable

    def test_models_from_one_feature_vector_share_the_table(self):
        feature = FeatureVector.oracle(BENCHMARKS["mcf"], 2e8)
        assert (
            feature.occupancy_model(8).growth_table
            is feature.occupancy_model(8).growth_table
        )
        models = [PerformanceModel(ways=8) for _ in range(2)]
        for model in models:
            model.register(feature)
        scaled = PerformanceModel(ways=8)
        scaled.register(feature.with_frequency_ratio(0.6))
        tables = [
            model._equilibrium_inputs(["mcf"])[0].occupancy.growth_table
            for model in models + [scaled]
        ]
        assert tables[0] is tables[1] is tables[2]
