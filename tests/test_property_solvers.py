"""Property-based tests for the hardened equilibrium hot path.

Covers the three invariants the refactor leans on:

- Under contention both solvers satisfy the Eq. 1 capacity constraint
  ``sum(S_i) == A`` to 1e-9 and agree with each other.
- The vectorized kernels (``mpa_batch``, ``g_batch``,
  ``g_inverse_batch``) match their scalar counterparts element-wise.
- The analytic Jacobian matches the finite-difference one of
  ``equilibrium_reference`` away from the kinks of the piecewise-linear
  tables (where FD straddles two segments and neither side is "the"
  derivative), and the FD Newton reference reaches the same solution.
"""

import math

import numpy as np
import pytest
from equilibrium_reference import FD_STEP, jacobian_analytic, jacobian_fd, solve_fd
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.equilibrium import (
    BisectionSolver,
    EquilibriumProcess,
    NewtonSolver,
    _eq7_residual_norm,
)
from repro.core.histogram import ReuseDistanceHistogram
from repro.core.mpa import MissRatioCurve
from repro.core.occupancy import OccupancyModel
from repro.errors import ConvergenceError

WAYS = 12


@st.composite
def histograms(draw):
    size = draw(st.integers(min_value=1, max_value=20))
    weights = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=size,
            max_size=size,
        )
    )
    inf_mass = draw(st.floats(min_value=0.01, max_value=1.0))
    return ReuseDistanceHistogram(weights, inf_mass)


@st.composite
def equilibrium_processes(draw):
    """Random but physically sensible process inputs.

    The strictly positive infinity mass keeps MPA bounded away from
    zero, so every process's growth curve saturates at the full cache
    — any two of them contend.
    """
    hist = draw(histograms())
    api = draw(st.floats(min_value=0.005, max_value=0.1))
    penalty = draw(st.floats(min_value=50.0, max_value=300.0))
    base = draw(st.floats(min_value=0.3, max_value=1.5))
    return _process(hist, api, penalty, base)


def _process(hist, api, penalty, base, frequency=2e8):
    return EquilibriumProcess(
        occupancy=OccupancyModel(hist, max_ways=WAYS),
        mpa=hist.mpa,
        api=api,
        alpha=api * penalty / frequency,
        beta=base / frequency,
    )


# Two distinct Eq. 7 roots about 0.32 ways apart: the analytic mode
# lands on sizes (3.699, 5.003, 3.298), the fd mode on
# (4.017, 4.811, 3.171).
_NEARBY_ROOTS = [
    _process(
        ReuseDistanceHistogram([1.0, 0.5, 0.125, 0.25], 0.25), 0.0625, 201.0, 0.3125
    ),
    _process(ReuseDistanceHistogram([1.0] * 5, 1.0), 0.05078125, 50.0, 1.5),
    _process(ReuseDistanceHistogram([1.0] * 5, 1.0), 0.005, 50.0, 0.30078125),
]


class TestCapacityInvariant:
    @given(st.lists(equilibrium_processes(), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_bisection_sums_to_ways_exactly(self, processes):
        result = BisectionSolver().solve(processes, WAYS)
        assert result.contended
        assert abs(result.total_size - WAYS) <= 1e-9 * WAYS
        for process, size in zip(processes, result.sizes):
            assert size <= process.occupancy.saturation_size + 1e-9

    @given(st.lists(equilibrium_processes(), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_newton_sums_to_ways_and_agrees_with_bisection(self, processes):
        try:
            newton = NewtonSolver().solve(processes, WAYS)
        except ConvergenceError:
            # Hairline contention can make Newton's strict interior
            # caps infeasible; auto falls back to bisection then.
            return
        assert newton.contended
        assert abs(newton.total_size - WAYS) <= 1e-9 * WAYS
        assert newton.telemetry is not None
        assert newton.telemetry.residual_norm < 1e-5
        bisection = BisectionSolver().solve(processes, WAYS)
        # Bisection stops on the total-size bracket, not the Eq. 7
        # residual, so on ill-conditioned (flat-residual) instances it
        # can halt away from the point Newton polishes to.  Compare
        # sizes only when bisection's own residual shows it actually
        # pinned the equilibrium; the residual check above is the
        # sharp statement that Newton solved the system.
        if bisection.telemetry.residual_norm >= 1e-3:
            return
        disagreement = max(
            abs(a - b) for a, b in zip(newton.sizes, bisection.sizes)
        )
        if disagreement <= 0.5:
            return
        # Eq. 7 admits multiple fixed points for some histograms.  When
        # both solvers certify a small residual at different size
        # vectors, demand a certificate that they sit in distinct
        # basins: the midpoint between two separate roots must have a
        # much larger residual (the curve humps between them).  A flat
        # residual through the midpoint would mean the two points are
        # the *same* valley and the solvers genuinely disagree.
        mid = [(a + b) / 2.0 for a, b in zip(newton.sizes, bisection.sizes)]
        worst = max(
            newton.telemetry.residual_norm, bisection.telemetry.residual_norm
        )
        assert _eq7_residual_norm(processes, mid, WAYS) > 100.0 * worst


class TestBatchScalarEquivalence:
    @given(
        histograms(),
        st.lists(
            st.floats(min_value=0.0, max_value=WAYS + 8.0),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_histogram_mpa_batch(self, hist, sizes):
        batch = hist.mpa_batch(sizes)
        for value, size in zip(batch, sizes):
            assert value == pytest.approx(hist.mpa(size), abs=1e-12)

    @given(
        histograms(),
        st.lists(
            st.floats(min_value=0.0, max_value=600.0),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_g_batch(self, hist, counts):
        model = OccupancyModel(hist, max_ways=WAYS)
        batch = model.g_batch(counts)
        for value, n in zip(batch, counts):
            assert value == pytest.approx(model.g(n), abs=1e-9)

    @given(
        histograms(),
        st.lists(
            st.floats(min_value=0.0, max_value=WAYS + 2.0),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_g_inverse_batch(self, hist, sizes):
        model = OccupancyModel(hist, max_ways=WAYS)
        batch = model.g_inverse_batch(sizes)
        for value, size in zip(batch, sizes):
            scalar = model.g_inverse(size)
            if math.isinf(scalar):
                assert math.isinf(value)
            else:
                assert value == pytest.approx(scalar, rel=1e-12, abs=1e-9)

    @given(
        histograms(),
        st.lists(
            st.floats(min_value=0.0, max_value=WAYS + 8.0),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_miss_ratio_curve_batch(self, hist, sizes):
        curve = MissRatioCurve.from_histogram(hist, WAYS)
        batch = curve.mpa_batch(sizes)
        for value, size in zip(batch, sizes):
            assert value == pytest.approx(curve.mpa(size), abs=1e-12)


def _away_from_kinks(process, size, margin):
    """True if FD steps around ``size`` stay inside one table segment.

    The MPA tail has kinks at integer sizes; G⁻¹ at the tabulated
    growth values.  At a kink the forward difference straddles two
    segments and legitimately disagrees with the one-sided analytic
    slope, so the comparison only samples interior points.
    """
    if abs(size - round(size)) < margin:
        return False
    growth = process.occupancy.growth_table
    idx = int(np.searchsorted(growth, size))
    for j in (idx - 1, idx, idx + 1):
        if 0 <= j < growth.size and abs(size - float(growth[j])) < margin:
            return False
    return True


class TestJacobianAgreement:
    @given(st.lists(equilibrium_processes(), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_analytic_matches_fd(self, processes):
        try:
            result = NewtonSolver().solve(processes, WAYS)
        except ConvergenceError:
            return
        sizes = np.asarray(result.sizes)
        margin = FD_STEP * 10
        assume(
            all(
                _away_from_kinks(p, s, margin)
                for p, s in zip(processes, sizes)
            )
        )
        analytic = jacobian_analytic(processes, sizes, WAYS)
        fd = jacobian_fd(processes, sizes, WAYS)
        assume(np.all(np.isfinite(analytic)) and np.all(np.isfinite(fd)))
        # Row 0 is the capacity constraint in both.
        assert np.allclose(analytic[0], 1.0)
        assert np.allclose(fd[0], 1.0, atol=1e-6)
        # jacobian_fd is a *forward* difference with h = 1e-4, so its
        # truncation error is O(h · curvature) in absolute terms; the
        # Eq. 7 rows are normalized ratios with O(1) entries, which
        # makes 1e-3 the honest absolute floor for near-zero entries.
        assert np.allclose(analytic, fd, rtol=5e-3, atol=1e-3)

    @given(st.lists(equilibrium_processes(), min_size=2, max_size=3))
    @example(_NEARBY_ROOTS)
    @settings(max_examples=15, deadline=None)
    def test_fd_mode_reaches_same_solution(self, processes):
        try:
            analytic = NewtonSolver().solve(processes, WAYS)
            fd = solve_fd(processes, WAYS)
        except ConvergenceError:
            return
        # Eq. 7 can have distinct fixed points, however close
        # (_NEARBY_ROOTS).  Both modes converged (small residuals), so
        # a residual that humps between them certifies two separate
        # roots; without that certificate they must be one root.
        mid = [(a + b) / 2.0 for a, b in zip(analytic.sizes, fd.sizes)]
        worst = max(analytic.telemetry.residual_norm, fd.telemetry.residual_norm)
        if _eq7_residual_norm(processes, mid, WAYS) > 100.0 * worst:
            return
        for a, b in zip(analytic.sizes, fd.sizes):
            assert a == pytest.approx(b, abs=1e-4)
