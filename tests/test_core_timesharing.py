"""Unit tests for time-sharing power composition (Section 4.2)."""

import pytest

from repro.core.timesharing import (
    core_power_time_shared,
    process_combinations,
)
from repro.errors import ConfigurationError


class TestTimeShared:
    def test_equal_weights_mean(self):
        assert core_power_time_shared([10.0, 20.0]) == pytest.approx(15.0)

    def test_single_process(self):
        assert core_power_time_shared([12.5]) == 12.5

    def test_custom_weights(self):
        power = core_power_time_shared([10.0, 20.0], weights=[3.0, 1.0])
        assert power == pytest.approx(12.5)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            core_power_time_shared([])

    def test_rejects_negative_power(self):
        with pytest.raises(ConfigurationError):
            core_power_time_shared([-1.0])

    def test_rejects_weight_mismatch(self):
        with pytest.raises(ConfigurationError):
            core_power_time_shared([1.0], weights=[1.0, 2.0])

    def test_rejects_zero_weight_sum(self):
        with pytest.raises(ConfigurationError):
            core_power_time_shared([1.0, 2.0], weights=[0.0, 0.0])


class TestCombinations:
    def test_product_shape(self):
        combos = process_combinations([["a", "b"], ["x"], ["p", "q", "r"]])
        assert len(combos) == 6
        assert ("a", "x", "p") in combos
        assert ("b", "x", "r") in combos

    def test_single_core(self):
        assert process_combinations([["a", "b"]]) == (("a",), ("b",))

    def test_rejects_empty_core(self):
        with pytest.raises(ConfigurationError):
            process_combinations([["a"], []])

    def test_rejects_no_cores(self):
        with pytest.raises(ConfigurationError):
            process_combinations([])
