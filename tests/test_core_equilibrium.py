"""Unit tests for the equilibrium solvers (Section 3.3)."""

import numpy as np
import pytest
from equilibrium_reference import jacobian_analytic, jacobian_fd
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.equilibrium as equilibrium_module
from repro.core.equilibrium import (
    BisectionSolver,
    EquilibriumProcess,
    NewtonSolver,
    solve_equilibrium,
)
from repro.core.histogram import ReuseDistanceHistogram
from repro.core.occupancy import OccupancyModel
from repro.errors import ConfigurationError, ConvergenceError


def make_process(probs, inf_mass, ways, api=0.05, alpha=5e-8, beta=2e-9):
    hist = ReuseDistanceHistogram(probs, inf_mass)
    return EquilibriumProcess(
        occupancy=OccupancyModel(hist, max_ways=ways),
        mpa=hist.mpa,
        api=api,
        alpha=alpha,
        beta=beta,
    )


WAYS = 16


@pytest.fixture
def heavy():
    """Memory-hungry process: wide reuse + streaming."""
    return make_process([0.05] * 12, 0.4, WAYS, api=0.06)


@pytest.fixture
def light():
    """Small-footprint process: mostly short distances."""
    return make_process([0.5, 0.3, 0.15], 0.05, WAYS, api=0.01, alpha=8e-9)


#: The scalar solvers, by the ids their parametrized tests run under.
SOLVERS = {"newton": NewtonSolver, "bisection": BisectionSolver}


class TestCapacityConstraint:
    @pytest.mark.parametrize("solver", ["newton", "bisection"])
    def test_contended_sizes_sum_to_ways(self, heavy, solver, light):
        result = SOLVERS[solver]().solve([heavy, heavy, light], WAYS)
        assert result.contended
        assert abs(result.total_size - WAYS) <= 1e-9 * WAYS

    @pytest.mark.parametrize("solve", ["auto", "bisection"])
    def test_capped_process_does_not_break_capacity(self, heavy, solve):
        """Regression: a saturating process used to leak capacity.

        The old bisection finish rescaled all sizes proportionally and
        clipped at each cap, silently dropping the clipped excess so
        the sizes no longer summed to the associativity.  With a
        finite-footprint process capped well below its proportional
        share, the residual must be redistributed to the others.
        (Newton cannot express this boundary equilibrium — G⁻¹ is
        infinite at saturation — so ``auto`` lands on bisection here.)
        """
        tiny = make_process([0.7, 0.3], 0.0, WAYS, api=0.05)
        cap = tiny.occupancy.saturation_size
        assert cap < WAYS / 3  # genuinely capped
        if solve == "auto":
            result = solve_equilibrium([heavy, heavy, tiny], WAYS)
        else:
            result = BisectionSolver().solve([heavy, heavy, tiny], WAYS)
        assert result.contended
        assert result.solver == "bisection"
        assert abs(result.total_size - WAYS) <= 1e-9 * WAYS
        assert result.sizes[2] <= cap + 1e-9
        if solve == "auto":
            # A genuine (unmocked) Newton failure must be surfaced.
            assert result.telemetry.fallback_reason is not None
            assert "newton failed" in result.telemetry.fallback_reason

    def test_uncontended_keeps_footprints(self):
        # Finite footprints (no streaming mass) that fit together: the
        # cache never fills and each process keeps its working set.
        finite = make_process([0.5, 0.3, 0.2], 0.0, WAYS, api=0.01)
        result = solve_equilibrium([finite, finite], WAYS)
        assert not result.contended
        assert result.total_size < WAYS
        for size in result.sizes:
            assert size == pytest.approx(
                finite.occupancy.saturation_size, abs=1e-6
            )

    def test_single_process_gets_saturation(self, heavy):
        result = solve_equilibrium([heavy], WAYS)
        assert result.sizes[0] == pytest.approx(WAYS, abs=1e-6)


class TestSymmetryAndOrdering:
    @pytest.mark.parametrize("solver", ["newton", "bisection"])
    def test_identical_processes_split_evenly(self, heavy, solver):
        result = SOLVERS[solver]().solve([heavy, heavy], WAYS)
        assert result.sizes[0] == pytest.approx(result.sizes[1], abs=0.05)
        assert result.sizes[0] == pytest.approx(WAYS / 2, abs=0.1)

    def test_permutation_consistency(self, heavy, light):
        both = solve_equilibrium([heavy, light], WAYS)
        swapped = solve_equilibrium([light, heavy], WAYS)
        assert both.sizes[0] == pytest.approx(swapped.sizes[1], abs=0.05)
        assert both.sizes[1] == pytest.approx(swapped.sizes[0], abs=0.05)

    def test_hungrier_process_gets_more(self, heavy, light):
        # Make contention real by tripling the heavy process.
        result = solve_equilibrium([heavy, heavy, light], WAYS)
        heavy_size, light_size = result.sizes[0], result.sizes[2]
        assert heavy_size > light_size


class TestSolverAgreement:
    def test_newton_and_bisection_agree(self, heavy, light):
        newton = NewtonSolver().solve([heavy, heavy, light], WAYS)
        bisection = BisectionSolver().solve([heavy, heavy, light], WAYS)
        for a, b in zip(newton.sizes, bisection.sizes):
            assert a == pytest.approx(b, abs=0.1)

    def test_auto_strategy_produces_result(self, heavy, light):
        result = solve_equilibrium([heavy, light], WAYS)
        assert result.solver in ("newton", "bisection")


class TestOutputs:
    def test_mpa_and_spi_consistent_with_sizes(self, heavy, light):
        result = solve_equilibrium([heavy, light], WAYS)
        for process, size, mpa, spi in zip(
            (heavy, light), result.sizes, result.mpas, result.spis
        ):
            assert mpa == pytest.approx(process.mpa(size))
            assert spi == pytest.approx(process.alpha * mpa + process.beta)

    def test_faster_equilibrium_for_lower_alpha(self, heavy):
        """A miss-insensitive competitor keeps accessing fast and wins ways."""
        tolerant = make_process([0.05] * 12, 0.4, WAYS, api=0.06, alpha=5e-9)
        result = solve_equilibrium([heavy, tolerant], WAYS)
        assert result.sizes[1] > result.sizes[0]


class TestTelemetry:
    def test_newton_telemetry_fields(self, heavy, light):
        result = NewtonSolver().solve([heavy, heavy, light], WAYS)
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.strategy == "newton"
        assert telemetry.solver == "newton"
        assert telemetry.jacobian == "analytic"
        assert telemetry.iterations > 0
        assert telemetry.residual_norm < 1e-6
        assert not telemetry.warm_started
        assert telemetry.fallback_reason is None

    def test_bisection_telemetry(self, heavy, light):
        result = BisectionSolver().solve([heavy, heavy, light], WAYS)
        telemetry = result.telemetry
        assert telemetry.solver == "bisection"
        assert telemetry.jacobian is None
        assert telemetry.iterations > 0

    def test_uncontended_telemetry_is_trivial(self):
        finite = make_process([0.5, 0.3, 0.2], 0.0, WAYS, api=0.01)
        result = solve_equilibrium([finite, finite], WAYS)
        assert result.telemetry.iterations == 0
        assert result.telemetry.residual_norm == 0.0

    def test_auto_strategy_stamped(self, heavy, light):
        result = solve_equilibrium([heavy, light], WAYS)
        assert result.telemetry.strategy == "auto"
        assert result.telemetry.solver == "newton"

    def test_analytic_jacobian_matches_fd_at_solution(self, heavy, light):
        result = NewtonSolver().solve([heavy, heavy, light], WAYS)
        sizes = np.asarray(result.sizes)
        analytic = jacobian_analytic([heavy, heavy, light], sizes, WAYS)
        fd = jacobian_fd([heavy, heavy, light], sizes, WAYS)
        assert np.allclose(analytic[0], 1.0)
        assert np.allclose(analytic, fd, rtol=5e-3, atol=1e-6)


class TestAutoFallback:
    def test_fallback_reason_recorded(self, heavy, light, monkeypatch):
        """When Newton fails, auto surfaces why in the telemetry."""

        def failing_solve(self, processes, total_ways):
            raise ConvergenceError(
                "forced failure", iterations=7, residual=1.23
            )

        monkeypatch.setattr(
            equilibrium_module.NewtonSolver, "solve", failing_solve
        )
        result = solve_equilibrium([heavy, light], WAYS)
        assert result.solver == "bisection"
        telemetry = result.telemetry
        assert telemetry.strategy == "auto"
        assert telemetry.fallback_reason is not None
        assert "forced failure" in telemetry.fallback_reason
        assert "7 iterations" in telemetry.fallback_reason

    def test_double_failure_chains_newton_error(self, heavy, light, monkeypatch):
        """Regression: the Newton error used to be silently discarded."""

        def newton_fails(self, processes, total_ways):
            raise ConvergenceError("newton exploded", iterations=3, residual=9.9)

        def bisection_fails(self, processes, total_ways):
            raise ConvergenceError("bracket lost", iterations=11)

        monkeypatch.setattr(
            equilibrium_module.NewtonSolver, "solve", newton_fails
        )
        monkeypatch.setattr(
            equilibrium_module.BisectionSolver, "solve", bisection_fails
        )
        with pytest.raises(ConvergenceError) as excinfo:
            solve_equilibrium([heavy, light], WAYS)
        # Both diagnostics in the message, Newton error on the chain.
        assert "newton exploded" in str(excinfo.value)
        assert "bracket lost" in str(excinfo.value)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ConvergenceError)
        assert cause.iterations == 3

    def test_newton_strategy_propagates_error(self, heavy):
        """Called directly, Newton raises where ``auto`` falls back.

        G⁻¹ is infinite at saturation, so Newton cannot reach the
        boundary equilibrium of a capped process (see
        ``test_capped_process_does_not_break_capacity``).
        """
        tiny = make_process([0.7, 0.3], 0.0, WAYS, api=0.05)
        with pytest.raises(ConvergenceError):
            NewtonSolver().solve([heavy, heavy, tiny], WAYS)


class TestValidation:
    def test_empty_processes_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_equilibrium([], WAYS)

    def test_more_processes_than_ways_rejected(self, light):
        with pytest.raises(ConfigurationError):
            solve_equilibrium([light] * (WAYS + 1), WAYS)

    def test_equilibrium_process_validation(self):
        hist = ReuseDistanceHistogram([1.0])
        occupancy = OccupancyModel(hist, max_ways=4)
        with pytest.raises(ConfigurationError):
            EquilibriumProcess(
                occupancy=occupancy, mpa=hist.mpa, api=0.0, alpha=1e-8, beta=1e-9
            )
        with pytest.raises(ConfigurationError):
            EquilibriumProcess(
                occupancy=occupancy, mpa=hist.mpa, api=0.01, alpha=1e-8, beta=0.0
            )


class TestRedistributeToCapacity:
    """Σ = A closure invariant under adversarial cap vectors.

    ``_redistribute_to_capacity`` is the solvers' last step before the
    Eq. 1 assertion, so it must close the capacity sum for *any* cap
    vector — zero caps, all-capped inputs, zero free mass — not just
    the well-conditioned ones Newton produces.
    """

    @staticmethod
    def _check(sizes, caps, total):
        from repro.core.equilibrium import _redistribute_to_capacity

        out = _redistribute_to_capacity(sizes, caps, total)
        assert len(out) == len(sizes)
        for value, cap in zip(out, caps):
            assert value >= 0.0
            assert value <= cap + 1e-9 * max(1.0, cap)
        if sum(caps) <= total:
            # Infeasible: everyone is left at cap (documented edge).
            assert out == [float(c) for c in caps]
        else:
            assert abs(sum(out) - total) <= 1e-9 * max(1.0, total)
        return out

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=32.0),  # size
                st.floats(min_value=0.0, max_value=32.0),  # cap
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0.0, max_value=32.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariant_under_adversarial_caps(self, pairs, total):
        sizes = [s for s, _ in pairs]
        caps = [c for _, c in pairs]
        self._check(sizes, caps, total)

    def test_zero_free_mass_spreads_without_breaching_small_cap(self):
        # All free sizes are zero; the even spread must not overshoot
        # the tiny cap and the closure must still hit the total.
        self._check([0.0, 0.0, 5.0], [0.01, 8.0, 5.0], 6.0)

    def test_all_capped_overshoot_is_pulled_back(self):
        # Capped mass alone exceeds the total: free entries zero out
        # and the closure lowers the capped ones to close Σ = A.
        self._check([4.0, 4.0, 0.5], [4.0, 4.0, 8.0], 6.0)

    def test_zero_caps_are_respected(self):
        out = self._check([3.0, 3.0, 3.0], [0.0, 0.0, 9.0], 6.0)
        assert out[0] == 0.0 and out[1] == 0.0

    def test_infeasible_caps_return_caps(self):
        assert self._check([5.0, 5.0], [1.0, 2.0], 6.0) == [1.0, 2.0]
