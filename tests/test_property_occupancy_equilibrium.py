"""Property-based tests for the occupancy model and equilibrium solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equilibrium import EquilibriumProcess, solve_equilibrium
from repro.core.histogram import ReuseDistanceHistogram
from repro.core.occupancy import OccupancyModel

WAYS = 12


@st.composite
def equilibrium_processes(draw):
    """Random but physically sensible process inputs."""
    size = draw(st.integers(min_value=1, max_value=20))
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=size,
            max_size=size,
        )
    )
    inf_mass = draw(st.floats(min_value=0.01, max_value=1.0))
    hist = ReuseDistanceHistogram(weights, inf_mass)
    api = draw(st.floats(min_value=0.005, max_value=0.1))
    penalty = draw(st.floats(min_value=50.0, max_value=300.0))
    base = draw(st.floats(min_value=0.3, max_value=1.5))
    frequency = 2e8
    return EquilibriumProcess(
        occupancy=OccupancyModel(hist, max_ways=WAYS),
        mpa=hist.mpa,
        api=api,
        alpha=api * penalty / frequency,
        beta=base / frequency,
    )


class TestOccupancyProperties:
    @given(equilibrium_processes())
    @settings(max_examples=30, deadline=None)
    def test_growth_monotone_bounded(self, process):
        model = process.occupancy
        values = [model.g(n) for n in np.linspace(0, 500, 50)]
        assert all(0.0 <= v <= WAYS + 1e-9 for v in values)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    @given(equilibrium_processes(), st.floats(min_value=1.0, max_value=400.0))
    @settings(max_examples=40, deadline=None)
    def test_inverse_consistency(self, process, n):
        model = process.occupancy
        size = model.g(n)
        if size < model.saturation_size - 1e-3:
            recovered = model.g_inverse(size)
            assert recovered == pytest.approx(n, rel=0.05, abs=0.5)


class TestEquilibriumProperties:
    @given(st.lists(equilibrium_processes(), min_size=2, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_solution_feasible(self, processes):
        result = solve_equilibrium(processes, WAYS)
        assert all(0.0 <= s <= WAYS + 1e-6 for s in result.sizes)
        assert result.total_size <= WAYS + 1e-3
        if result.contended:
            assert result.total_size == pytest.approx(WAYS, abs=0.05)

    @given(st.lists(equilibrium_processes(), min_size=2, max_size=3))
    @settings(max_examples=20, deadline=None)
    def test_outputs_self_consistent(self, processes):
        result = solve_equilibrium(processes, WAYS)
        for process, size, mpa, spi in zip(
            processes, result.sizes, result.mpas, result.spis
        ):
            assert mpa == pytest.approx(process.mpa(size), abs=1e-6)
            assert spi == pytest.approx(process.alpha * mpa + process.beta, rel=1e-9)

    @given(equilibrium_processes())
    @settings(max_examples=20, deadline=None)
    def test_self_pair_symmetric(self, process):
        result = solve_equilibrium([process, process], WAYS)
        assert result.sizes[0] == pytest.approx(result.sizes[1], abs=0.1)
