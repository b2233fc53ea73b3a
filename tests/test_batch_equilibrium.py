"""Tests for the stacked-numpy batch equilibrium solver.

The contract under test is the bit-compatibility policy of
``repro.core.batch_equilibrium``: every payload field of every result
(``sizes`` / ``mpas`` / ``spis`` / ``solver`` / ``iterations`` /
``contended``) is ``==`` to the scalar ``solve_equilibrium(row, ways)``
loop —
not merely close — for arbitrary batches, including batches where
individual rows are pathological (Newton-hostile inputs, unsniffable
profiles, custom slopes) and must fall back alone without perturbing
their siblings.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_equilibrium import (
    BATCH_MIN_STACK,
    BatchNewtonSolver,
    _Slots,
    _Stack,
    _StackState,
)
from repro.core.equilibrium import (
    EquilibriumProcess,
    SolverTelemetry,
    solve_equilibrium,
)
from repro.core.histogram import ReuseDistanceHistogram
from repro.core.occupancy import OccupancyModel
from repro.core.performance_model import PerformanceModel
from repro.core.solver_cache import EquilibriumCache
from repro.errors import ConfigurationError
from repro.obs import Observer, use_observer
from repro.workloads import BENCHMARKS
from repro.core.feature import FeatureVector

WAYS = 12
FREQUENCY = 2e8


def make_profile(hist, api=0.05, penalty=150.0, base=0.8):
    """One shareable (occupancy, histogram) profile plus its constants."""
    return {
        "occupancy": OccupancyModel(hist, max_ways=WAYS),
        "hist": hist,
        "api": api,
        "alpha": api * penalty / FREQUENCY,
        "beta": base / FREQUENCY,
    }


def make_process(profile):
    """Fresh EquilibriumProcess over a shared profile (model idiom)."""
    return EquilibriumProcess(
        occupancy=profile["occupancy"],
        mpa=profile["hist"].mpa,
        api=profile["api"],
        alpha=profile["alpha"],
        beta=profile["beta"],
    )


def assert_results_equal(batch_result, scalar_result):
    """Exact payload equality (the policy's ``==``, not allclose)."""
    assert batch_result.sizes == scalar_result.sizes
    assert batch_result.mpas == scalar_result.mpas
    assert batch_result.spis == scalar_result.spis
    assert batch_result.solver == scalar_result.solver
    assert batch_result.iterations == scalar_result.iterations
    assert batch_result.contended == scalar_result.contended


@st.composite
def profile_pools(draw):
    """A pool of distinct profiles, like a registered benchmark suite."""
    n = draw(st.integers(min_value=2, max_value=5))
    pool = []
    for _ in range(n):
        size = draw(st.integers(min_value=1, max_value=16))
        weights = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0),
                min_size=size,
                max_size=size,
            )
        )
        inf_mass = draw(st.floats(min_value=0.01, max_value=1.0))
        api = draw(st.floats(min_value=0.005, max_value=0.1))
        penalty = draw(st.floats(min_value=50.0, max_value=300.0))
        base = draw(st.floats(min_value=0.3, max_value=1.5))
        pool.append(
            make_profile(
                ReuseDistanceHistogram(weights, inf_mass),
                api=api,
                penalty=penalty,
                base=base,
            )
        )
    return pool


@st.composite
def batches(draw):
    """A batch of mixes drawn from a shared profile pool.

    Profiles repeat across mixes (and may repeat within one mix), so
    the solver's table registry and same-``k`` stacking both get
    exercised the way ``PerformanceModel.predict_batch`` exercises
    them.
    """
    pool = draw(profile_pools())
    n_mixes = draw(st.integers(min_value=BATCH_MIN_STACK, max_value=10))
    batch = []
    for _ in range(n_mixes):
        k = draw(st.integers(min_value=2, max_value=4))
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(pool) - 1),
                min_size=k,
                max_size=k,
            )
        )
        batch.append([make_process(pool[i]) for i in indices])
    return batch


def hostile_row():
    """A mix whose Newton iteration fails (flat point-mass plateaus)."""
    return [
        make_process(make_profile(ReuseDistanceHistogram.point_mass(1))),
        make_process(make_profile(ReuseDistanceHistogram.point_mass(10))),
    ]


@st.composite
def mixed_width_batches(draw):
    """Rows of 1 to 8 processes in one batch, plus one hostile row.

    Most widths occur fewer than ``BATCH_MIN_STACK`` times, so these
    rows reach the vector path only as padded rows of one shared
    stack.  Returns the batch and the hostile row's index.
    """
    pool = draw(profile_pools())
    n_mixes = draw(st.integers(min_value=BATCH_MIN_STACK, max_value=12))
    batch = []
    for _ in range(n_mixes):
        k = draw(st.integers(min_value=1, max_value=8))
        indices = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(pool) - 1),
                min_size=k,
                max_size=k,
            )
        )
        batch.append([make_process(pool[i]) for i in indices])
    hostile_at = draw(st.integers(min_value=0, max_value=len(batch)))
    batch.insert(hostile_at, hostile_row())
    return batch, hostile_at


class TestBatchScalarBitEquality:
    @given(batches())
    @settings(max_examples=25, deadline=None)
    def test_property_batch_equals_scalar_loop(self, batch):
        solver = BatchNewtonSolver()
        batched = solver.solve_batch(batch, WAYS)
        for row, result in zip(batch, batched):
            assert_results_equal(result, solve_equilibrium(row, WAYS))

    @given(mixed_width_batches())
    @settings(max_examples=25, deadline=None)
    def test_property_mixed_widths_equal_scalar_loop(self, case):
        batch, hostile_at = case
        batched = BatchNewtonSolver().solve_batch(batch, WAYS)
        scalars = [solve_equilibrium(row, WAYS) for row in batch]
        stacked = sum(s.contended for s in scalars) >= BATCH_MIN_STACK
        for index, (result, scalar) in enumerate(zip(batched, scalars)):
            assert_results_equal(result, scalar)
            if index == hostile_at:
                assert result.solver == "bisection"
                assert result.telemetry.solver != "batch_newton"
            elif stacked and scalar.contended and scalar.solver == "newton":
                # Only rows Newton itself fails on leave the stack.
                assert result.telemetry.solver == "batch_newton"

    def test_four_widths_share_one_stack(self):
        """One row each of k = 2..5: below ``BATCH_MIN_STACK`` per width, but
        together they fill one padded stack and stay bit-equal."""
        pool = [
            make_profile(ReuseDistanceHistogram([1.0, 0.6, 0.3], 0.4)),
            make_profile(ReuseDistanceHistogram([0.3, 0.9, 0.1], 0.6), api=0.03),
        ]
        batch = [
            [make_process(pool[i % 2]) for i in range(k)] for k in (2, 5, 3, 4)
        ]
        assert len(batch) == BATCH_MIN_STACK
        batched = BatchNewtonSolver().solve_batch(batch, WAYS)
        for row, result in zip(batch, batched):
            assert_results_equal(result, solve_equilibrium(row, WAYS))
            assert result.telemetry.solver == "batch_newton"
            assert len(result.sizes) == len(row)

    def test_benchmark_suite_sweep(self):
        """Deterministic sweep over the real benchmark profiles."""
        features = {
            name: FeatureVector.oracle(BENCHMARKS[name], FREQUENCY)
            for name in sorted(BENCHMARKS)
        }
        names = sorted(features)
        rng = random.Random(42)
        model = PerformanceModel(
            ways=WAYS, cache=EquilibriumCache(max_entries=0)
        )
        model.register_all(features.values())
        batch = []
        for _ in range(60):
            k = rng.choice([2, 3, 4])
            mix = rng.sample(names, k)
            batch.append(model._equilibrium_inputs(mix, [1.0] * k))
        solver = BatchNewtonSolver()
        batched = solver.solve_batch(batch, WAYS)
        for row, result in zip(batch, batched):
            assert_results_equal(result, solve_equilibrium(row, WAYS))

    def test_stacked_telemetry_assigns_every_field(self):
        """A stacked row's telemetry holds every field, defaults included.

        The result loop fills bare instances through ``__dict__``, so a
        field it leaves out would still compare ``==`` (the class
        default answers) while missing from ``vars()``.
        """
        pool = [
            make_profile(ReuseDistanceHistogram([1.0, 0.6, 0.3], 0.4)),
            make_profile(ReuseDistanceHistogram([0.3, 0.9, 0.1], 0.6), api=0.03),
        ]
        batch = [[make_process(pool[0]), make_process(pool[1])]] * BATCH_MIN_STACK
        for result in BatchNewtonSolver().solve_batch(batch, WAYS):
            telemetry = result.telemetry
            assert telemetry.solver == "batch_newton"
            expected = SolverTelemetry(
                "auto",
                "batch_newton",
                "analytic",
                telemetry.iterations,
                telemetry.residual_norm,
            )
            assert vars(telemetry) == vars(expected)


class TestFallbackIsolation:
    """Pathological rows fall back alone; siblings stay vectorized."""

    def _normal_batch(self):
        pool = [
            make_profile(ReuseDistanceHistogram([1.0, 0.6, 0.3], 0.4)),
            make_profile(ReuseDistanceHistogram([0.3, 0.9, 0.1], 0.6), api=0.03),
        ]
        return [
            [make_process(pool[0]), make_process(pool[1])]
            for _ in range(BATCH_MIN_STACK)
        ]

    def test_newton_hostile_row_falls_back_alone(self):
        """A row whose Newton iteration degenerates (flat point-mass
        plateaus drive the batched residual non-finite / singular) is
        re-solved through the scalar ladder — landing on bisection —
        while its siblings keep their vectorized Newton results."""
        batch = self._normal_batch()
        hostile = [
            make_process(make_profile(ReuseDistanceHistogram.point_mass(1))),
            make_process(make_profile(ReuseDistanceHistogram.point_mass(10))),
        ]
        batch.append(hostile)
        solver = BatchNewtonSolver()
        batched = solver.solve_batch(batch, WAYS)
        for row, result in zip(batch, batched):
            assert_results_equal(result, solve_equilibrium(row, WAYS))
        # The hostile row really did exercise the fallback ladder...
        assert batched[-1].solver == "bisection"
        # ...and the healthy rows really did stay on the vector path.
        for result in batched[:-1]:
            assert result.solver == "newton"
            assert result.telemetry is not None
            assert result.telemetry.solver == "batch_newton"

    def test_unsniffable_mpa_falls_back_alone(self):
        class CustomHistogram(ReuseDistanceHistogram):
            def mpa(self, size):
                return super().mpa(size)

        batch = self._normal_batch()
        custom = make_profile(CustomHistogram([1.0, 0.5], 0.4))
        batch.append([make_process(custom), make_process(custom)])
        solver = BatchNewtonSolver()
        batched = solver.solve_batch(batch, WAYS)
        for row, result in zip(batch, batched):
            assert_results_equal(result, solve_equilibrium(row, WAYS))
        assert batched[-1].telemetry.solver != "batch_newton"
        for result in batched[:-1]:
            assert result.telemetry.solver == "batch_newton"

    def test_explicit_mpa_slope_falls_back(self):
        batch = self._normal_batch()
        profile = make_profile(ReuseDistanceHistogram([1.0, 0.5], 0.4))
        sloped = EquilibriumProcess(
            occupancy=profile["occupancy"],
            mpa=profile["hist"].mpa,
            api=profile["api"],
            alpha=profile["alpha"],
            beta=profile["beta"],
            mpa_slope=profile["hist"].mpa_slope,
        )
        batch.append([sloped, make_process(profile)])
        solver = BatchNewtonSolver()
        batched = solver.solve_batch(batch, WAYS)
        for row, result in zip(batch, batched):
            assert_results_equal(result, solve_equilibrium(row, WAYS))
        assert batched[-1].telemetry.solver != "batch_newton"

    def test_small_stacks_use_scalar_path(self):
        batch = self._normal_batch()[: BATCH_MIN_STACK - 1]
        solver = BatchNewtonSolver()
        batched = solver.solve_batch(batch, WAYS)
        for row, result in zip(batch, batched):
            assert_results_equal(result, solve_equilibrium(row, WAYS))
            assert result.telemetry.solver != "batch_newton"

    def test_uncontended_row_survives_an_all_failed_stack(self):
        """Every contended row failing Newton must not drop the
        uncontended rows set aside before the iteration."""
        small = make_profile(ReuseDistanceHistogram.point_mass(1))
        batch = [hostile_row() for _ in range(BATCH_MIN_STACK)]
        batch.append([make_process(small), make_process(small)])
        batched = BatchNewtonSolver().solve_batch(batch, WAYS)
        for row, result in zip(batch, batched):
            assert result is not None
            assert_results_equal(result, solve_equilibrium(row, WAYS))
        assert [r.solver for r in batched[:-1]] == ["bisection"] * BATCH_MIN_STACK
        assert not batched[-1].contended

    def test_validation_errors_match_scalar(self):
        batch = self._normal_batch()
        batch.append([])
        solver = BatchNewtonSolver()
        with pytest.raises(ConfigurationError):
            solver.solve_batch(batch, WAYS)
        too_many = [
            make_process(make_profile(ReuseDistanceHistogram([1.0], 0.5)))
            for _ in range(WAYS + 1)
        ]
        with pytest.raises(ConfigurationError):
            solver.solve_batch(self._normal_batch() + [too_many], WAYS)


def bits(array):
    """The raw float64 bit patterns (``-0.0`` and NaN payloads count)."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


class TestCompaction:
    """Rows leave the stack through ``_Stack.take`` without changing bits."""

    def _stack(self, batch):
        slots = _Slots(BatchNewtonSolver()._tables)
        rows = [slots.row(row) for row in batch]
        return _Stack.build(slots, rows, WAYS), slots

    def test_take_evaluates_like_the_full_stack(self):
        pool = [
            make_profile(ReuseDistanceHistogram([1.0, 0.6, 0.3], 0.4)),
            make_profile(ReuseDistanceHistogram([0.3, 0.9, 0.1], 0.6), api=0.03),
            make_profile(ReuseDistanceHistogram([0.5] * 6, 0.2), api=0.08),
            make_profile(ReuseDistanceHistogram.point_mass(3)),
        ]
        rng = random.Random(13)
        widths = [2, 7, 3, 5, 1, 4, 6, 2]
        batch = [
            [make_process(rng.choice(pool)) for _ in range(k)] for k in widths
        ]
        stack, slots = self._stack(batch)
        assert stack.k == max(widths)
        x = np.zeros((stack.m, stack.k))
        for r, k in enumerate(widths):
            # Sizes across every table regime, saturated ones included.
            x[r, :k] = [rng.uniform(0.0, 13.0) for _ in range(k)]
        full = stack.evaluate(x)
        for rows in ([0, 2, 5], [1, 3, 6], [4], [7, 0, 3], list(range(8))):
            rows = np.array(rows)
            sub = stack.take(rows)
            width = max(widths[r] for r in rows)
            assert (sub.m, sub.k) == (rows.size, width)
            part = sub.evaluate(x[rows, :width])
            for field in _StackState.__slots__:
                whole = getattr(full, field)
                expected = whole[rows] if whole.ndim == 1 else whole[rows, :width]
                assert np.array_equal(bits(getattr(part, field)), bits(expected)), field
            # The per-profile searchsorted groups cover exactly the
            # real cells, each under its own profile's growth table.
            real = [
                r * width + c
                for r, row in enumerate(rows)
                for c in range(widths[row])
            ]
            grouped = sorted(
                cell for _, a, b in sub.groups for cell in sub.order[a:b].tolist()
            )
            assert grouped == real
            flat = sub.cells.reshape(-1)
            for growth, a, b in sub.groups:
                for cell in sub.order[a:b]:
                    profile = slots.prof[flat[cell]]
                    assert stack.registry.growth_arrays[profile] is growth

    def test_one_slow_row_among_many_fast_rows(self):
        """Fast rows leave as they converge; the slow row iterates on
        alone and every row stays bit-equal to the scalar loop."""
        rng = random.Random(7)
        fast, slow = [], None
        for _ in range(300):
            row = []
            for _ in range(rng.randint(2, 4)):
                size = rng.randint(1, 16)
                hist = ReuseDistanceHistogram(
                    [rng.uniform(0.01, 1.0) for _ in range(size)],
                    rng.uniform(0.01, 1.0),
                )
                row.append(
                    make_process(
                        make_profile(
                            hist,
                            api=rng.uniform(0.005, 0.1),
                            penalty=rng.uniform(50.0, 300.0),
                            base=rng.uniform(0.3, 1.5),
                        )
                    )
                )
            scalar = solve_equilibrium(row, WAYS)
            if scalar.solver != "newton" or not scalar.contended:
                continue
            if scalar.iterations <= 4:
                fast.append(row)
            if slow is None or scalar.iterations > slow[1]:
                slow = (row, scalar.iterations)
        assert len(fast) >= 20 and slow[1] >= 4 + 5
        batch = fast[:10] + [slow[0]] + fast[10:20]
        sizes = []
        evaluate = _Stack.evaluate

        def spy(stack, x):
            sizes.append(stack.m)
            return evaluate(stack, x)

        _Stack.evaluate = spy
        try:
            batched = BatchNewtonSolver().solve_batch(batch, WAYS)
        finally:
            _Stack.evaluate = evaluate
        for row, result in zip(batch, batched):
            assert_results_equal(result, solve_equilibrium(row, WAYS))
            assert result.telemetry.solver == "batch_newton"
        assert sizes[0] == len(batch)
        assert sizes[-1] == 1


@pytest.fixture(scope="module")
def features():
    return {
        name: FeatureVector.oracle(BENCHMARKS[name], FREQUENCY)
        for name in sorted(BENCHMARKS)
    }


MIXES = [
    ["gzip", "mcf"],
    ["art", "vpr", "gcc"],
    ["gzip", "gzip"],
    ["mcf", "gzip"],
    ["mcf", "gzip"],
    ["ammp", "equake", "twolf", "parser"],
]


def fresh_model(features, **kwargs):
    model = PerformanceModel(ways=8, **kwargs)
    model.register_all(features.values())
    return model


class TestPredictBatch:
    def test_equals_sequential_predict_loop(self, features):
        sequential = [
            fresh_model(features).predict(list(mix)) for mix in MIXES
        ]
        batched = fresh_model(features).predict_batch(MIXES)
        assert tuple(sequential) == tuple(batched)

    def test_cache_counters_match_sequential(self, features):
        seq_model = fresh_model(features)
        for mix in MIXES:
            seq_model.predict(list(mix))
        bat_model = fresh_model(features)
        bat_model.predict_batch(MIXES)
        seq, bat = seq_model.cache_stats, bat_model.cache_stats
        assert (seq.hits, seq.misses, seq.entries) == (
            bat.hits,
            bat.misses,
            bat.entries,
        )
        # The duplicate mix probed once as a miss, once as a hit.
        assert bat.hits >= 1

    def test_repeat_of_evicted_mix_takes_the_solved_result(self, features):
        # More distinct mixes than the cache holds, then a repeat of
        # the first: its entry is evicted before the deferred probe.
        mixes = [
            ["gzip", "mcf"],
            ["art", "vpr"],
            ["gcc", "twolf"],
            ["ammp", "parser"],
            ["equake", "mcf"],
            ["art", "gzip", "vpr"],
            ["mcf", "gzip"],
        ]
        model = PerformanceModel(
            ways=8, cache=EquilibriumCache(max_entries=4)
        )
        model.register_all(features.values())
        batched = model.predict_batch(mixes)
        sequential = tuple(fresh_model(features).predict(mix) for mix in mixes)
        assert batched == sequential
        stats = model.cache_stats
        assert stats.hits + stats.misses == len(mixes)
        assert stats.entries == 4

    def test_api_batch_beyond_default_cache_with_early_repeat(self, features):
        from repro import api

        suite = api.ProfileSuiteResult(machine="", features=features, profiles={})
        distinct = 4097  # default EquilibriumCache capacity + 1
        mixes = [["gzip", "mcf"]] * distinct + [["gzip", "mcf"]]
        ratios = [[1.0, 1.0 + i / distinct] for i in range(distinct)] + [[1.0, 1.0]]
        results = api.predict_mixes(mixes, suite, ways=8, frequency_ratios=ratios)
        assert results[-1].prediction == results[0].prediction

    def test_second_call_is_all_hits(self, features):
        model = fresh_model(features)
        first = model.predict_batch(MIXES)
        before = model.cache_stats
        second = model.predict_batch(MIXES)
        assert first == second
        delta = model.cache_stats.delta_since(before)
        assert delta.misses == 0
        assert delta.hits == len(MIXES)

    def test_frequency_ratios_batch(self, features):
        mixes = [["gzip", "mcf"], ["art", "gcc"], ["vpr", "twolf"],
                 ["ammp", "parser"]]
        ratios = [[1.0, 1.5], None, [0.5, 1.0], [2.0, 1.0]]
        sequential = [
            fresh_model(features).predict(list(m), r)
            for m, r in zip(mixes, ratios)
        ]
        batched = fresh_model(features).predict_batch(mixes, ratios)
        assert tuple(sequential) == tuple(batched)
        with pytest.raises(ConfigurationError, match="one entry per mix"):
            fresh_model(features).predict_batch(mixes, [[1.0, 1.0]])

    def test_observer_delegates_to_sequential_spans(self, features):
        observer = Observer()
        model = fresh_model(features)
        with use_observer(observer):
            model.predict_batch(MIXES)
        counters = observer.metrics_dict()["counters"]
        assert counters["predict.calls"] == len(MIXES)

    def test_validation_before_any_solve(self, features):
        model = fresh_model(features)
        with pytest.raises(ConfigurationError):
            model.predict_batch([["gzip", "mcf"], [], ["art", "gcc"], ["vpr"]])
        assert model.cache_stats.entries == 0
