"""Unit tests for the combined model (Section 5, Figure 1)."""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import combined as combined_module
from repro.core.combined import CombinedModel, classify_scenario
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.performance_model import PerformanceModel
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.errors import ConfigurationError
from repro.events import Event, RATE_EVENTS
from repro.fleet.evaluator import canonical_state
from repro.hetero import HeteroPricer, big_little_spec, unit_spec
from repro.hetero.types import OperatingPoint
from repro.machine.topology import four_core_server
from repro.workloads.spec import BENCHMARKS

FREQ = 2e8
NAMES = ("mcf", "art", "gzip", "twolf")

# A transparent linear power truth for exact assertions.
COEFFS = {
    Event.L1_REFS: 8e-8,
    Event.L2_REFS: 1.2e-7,
    Event.L2_MISSES: -5e-7,
    Event.BRANCHES: 7e-8,
    Event.FP_OPS: 9e-8,
}
P_IDLE = 12.0


def linear_power(rates):
    return P_IDLE + sum(COEFFS[event] * rates.get(event, 0.0) for event in RATE_EVENTS)


#: Physically plausible rate ranges: misses are a small share of refs.
_RANGES = {
    Event.L1_REFS: 1e8,
    Event.L2_REFS: 1.5e7,
    Event.L2_MISSES: 5e6,
    Event.BRANCHES: 5e7,
    Event.FP_OPS: 6e7,
}


@pytest.fixture(scope="module")
def power_model():
    rng = np.random.default_rng(0)
    training = PowerTrainingSet()
    for _ in range(60):
        rates = {event: rng.uniform(0, _RANGES[event]) for event in RATE_EVENTS}
        training.add(rates, linear_power(rates))
    return CorePowerModel().fit(training)


def build_combined(power_model, perf=None):
    topology = four_core_server(sets=64)
    if perf is None:
        perf = PerformanceModel(ways=16)
    profiles = {}
    for name in NAMES:
        benchmark = BENCHMARKS[name]
        if name not in perf.known_processes:
            perf.register(FeatureVector.oracle(benchmark, FREQ))
        profiles[name] = ProfileVector(
            name=name,
            p_alone=20.0 + len(name),  # distinct, recognisable values
            l1rpi=benchmark.mix.l1rpi,
            l2rpi=benchmark.mix.l2rpi,
            brpi=benchmark.mix.brpi,
            fppi=benchmark.mix.fppi,
        )
    return CombinedModel(
        topology=topology,
        performance_models=[perf],
        power_model=power_model,
        profiles=profiles,
    )


@pytest.fixture(scope="module")
def combined(power_model):
    return build_combined(power_model)


class TestProcessPower:
    def test_matches_eq9_at_operating_point(self, combined):
        benchmark = BENCHMARKS["mcf"]
        spi, l2mpr = 5e-9, 0.4
        expected = linear_power(
            {
                Event.L1_REFS: benchmark.mix.l1rpi / spi,
                Event.L2_REFS: benchmark.mix.l2rpi / spi,
                Event.L2_MISSES: benchmark.mix.l2rpi * l2mpr / spi,
                Event.BRANCHES: benchmark.mix.brpi / spi,
                Event.FP_OPS: benchmark.mix.fppi / spi,
            }
        )
        assert combined.process_power("mcf", spi, l2mpr) == pytest.approx(
            expected, rel=1e-6
        )

    def test_power_split_sums_to_total(self, combined):
        split = combined.power_split("art", spi=4e-9, l2mpr=0.5)
        total = combined.process_power("art", 4e-9, 0.5)
        assert split.total == pytest.approx(total, rel=1e-6)
        assert split.p_idle == pytest.approx(P_IDLE, rel=1e-3)

    def test_more_misses_less_power(self, combined):
        """c3 < 0: higher L2MPR at fixed SPI means lower power."""
        low = combined.process_power("mcf", 5e-9, 0.1)
        high = combined.process_power("mcf", 5e-9, 0.9)
        assert high < low

    def test_unknown_process(self, combined):
        with pytest.raises(KeyError):
            combined.process_power("nosuch", 1e-9, 0.1)

    def test_bad_spi(self, combined):
        with pytest.raises(ConfigurationError):
            combined.process_power("mcf", 0.0, 0.1)


class TestScenarioClassification:
    def test_four_scenarios(self):
        topology = four_core_server(sets=64)
        empty = {}
        assert classify_scenario(topology, empty, 0) == 1
        assert classify_scenario(topology, {0: ("mcf",)}, 0) == 2
        assert classify_scenario(topology, {1: ("mcf",)}, 0) == 3
        assert classify_scenario(topology, {0: ("mcf",), 1: ("art",)}, 0) == 4


class TestAssignmentPower:
    def test_empty_machine_is_all_idle(self, combined, power_model):
        estimate = combined.estimate_assignment_power({})
        assert estimate.watts == pytest.approx(4 * power_model.p_idle, rel=1e-6)

    def test_single_process_uses_p_alone(self, combined, power_model):
        estimate = combined.estimate_assignment_power({0: ("mcf",)})
        expected = combined.profiles["mcf"].p_alone + 3 * power_model.p_idle
        assert estimate.watts == pytest.approx(expected, rel=1e-6)
        assert estimate.combinations_evaluated == 0

    def test_time_shared_single_core_averages_p_alone(self, combined, power_model):
        estimate = combined.estimate_assignment_power({0: ("mcf", "gzip")})
        p_alone = (
            combined.profiles["mcf"].p_alone + combined.profiles["gzip"].p_alone
        ) / 2
        assert estimate.watts == pytest.approx(
            p_alone + 3 * power_model.p_idle, rel=1e-6
        )

    def test_contending_pair_uses_model(self, combined):
        estimate = combined.estimate_assignment_power({0: ("mcf",), 1: ("art",)})
        assert estimate.combinations_evaluated == 1
        # Idle domain contributes 2 idle cores.
        assert estimate.per_domain_watts[1] == pytest.approx(
            2 * combined.power_model.p_idle, rel=1e-6
        )

    def test_combination_counting(self, combined):
        estimate = combined.estimate_assignment_power(
            {0: ("mcf", "gzip"), 1: ("art", "twolf")}
        )
        assert estimate.combinations_evaluated == 4

    def test_domains_sum(self, combined):
        estimate = combined.estimate_assignment_power(
            {0: ("mcf",), 1: ("art",), 2: ("gzip",), 3: ("twolf",)}
        )
        assert estimate.watts == pytest.approx(sum(estimate.per_domain_watts))

    def test_core_out_of_range(self, combined):
        with pytest.raises(ConfigurationError):
            combined.estimate_assignment_power({7: ("mcf",)})

    def test_incremental_assignment(self, combined):
        base = {0: ("mcf",)}
        estimate, scenario = combined.estimate_after_assigning(base, "art", 1)
        assert scenario == 3  # core 1 idle, partner core 0 busy
        direct = combined.estimate_assignment_power({0: ("mcf",), 1: ("art",)})
        assert estimate.watts == pytest.approx(direct.watts)


class TestThroughput:
    def test_solo_throughput_positive(self, combined):
        ips = combined.estimate_assignment_throughput({0: ("gzip",)})
        assert ips > 0

    def test_contention_lowers_throughput(self, combined):
        solo = combined.estimate_assignment_throughput({0: ("mcf",)})
        pair = combined.estimate_assignment_throughput({0: ("mcf",), 1: ("mcf",)})
        # Two contending instances give less than 2x one instance.
        assert pair < 2 * solo

    def test_time_sharing_halves_share(self, combined):
        one = combined.estimate_assignment_throughput({0: ("gzip",)})
        two = combined.estimate_assignment_throughput({0: ("gzip", "gzip")})
        assert two == pytest.approx(one, rel=0.01)  # same core, split in two

    def test_uneven_per_core_counts_weighted_by_time_share(self, combined):
        """Regression: combo averaging must equal explicit 1/k weighting.

        With three processes on core 0 and one on core 1, the uniform
        average over the three cross-core combinations has to weight
        each core-0 process by 1/3 and twolf (present in every
        combination) by 1.  An explicit per-process reconstruction
        from the predicted operating points must therefore match the
        model's estimate exactly.
        """
        assignment = {0: ("mcf", "gzip", "art"), 1: ("twolf",)}
        estimated = combined.estimate_assignment_throughput(assignment)

        perf = combined.performance_models[0]
        core0 = ["mcf", "gzip", "art"]
        expected = 0.0
        twolf_points = []
        for name in core0:
            prediction = {
                p.name: p for p in perf.predict([name, "twolf"]).processes
            }
            # Each core-0 process runs 1/3 of the time.
            expected += prediction[name].ips / 3.0
            twolf_points.append(prediction["twolf"].ips)
        # twolf runs the whole time, averaged over its three partners.
        expected += sum(twolf_points) / len(twolf_points)
        assert estimated == pytest.approx(expected, rel=1e-9)

    def test_uneven_counts_both_cores_time_shared(self, combined):
        """Two on one core, one on the other: four combination weights."""
        assignment = {0: ("mcf", "gzip"), 1: ("art", "twolf")}
        estimated = combined.estimate_assignment_throughput(assignment)
        perf = combined.performance_models[0]
        expected = 0.0
        combos = [(a, b) for a in ("mcf", "gzip") for b in ("art", "twolf")]
        for a, b in combos:
            prediction = {p.name: p for p in perf.predict([a, b]).processes}
            expected += prediction[a].ips + prediction[b].ips
        assert estimated == pytest.approx(expected / len(combos), rel=1e-9)


UNIT = OperatingPoint(1.0, 1.0, 1.0)


class TestEstimateState:
    ASSIGNMENT = {0: ("mcf", "gzip"), 1: ("art", "twolf"), 2: ("gzip",)}

    def test_power_and_throughput_are_views_of_it(self, combined):
        estimate = combined.estimate_state(self.ASSIGNMENT)
        assert combined.estimate_assignment_power(self.ASSIGNMENT) == estimate
        ips = combined.estimate_assignment_throughput(self.ASSIGNMENT)
        assert ips == estimate.ips

    def test_each_corun_is_looked_up_once(self, power_model):
        combined = build_combined(power_model)
        first = combined.estimate_state(self.ASSIGNMENT)
        # Four combinations in domain 0 plus the solo run on core 2,
        # each serving both watts and IPS.
        assert combined.corun_cache_stats.lookups == 4 + 1
        # A repeat is answered from the per-domain memo.
        assert combined.estimate_state(self.ASSIGNMENT) == first
        assert combined.corun_cache_stats.lookups == 4 + 1

    def test_unit_points_match_the_paper_machine(self, combined):
        paper = combined.estimate_state(self.ASSIGNMENT)
        unit = combined.estimate_state(self.ASSIGNMENT, [UNIT] * 4)
        assert unit.ips == paper.ips
        assert unit.watts == pytest.approx(paper.watts, rel=1e-12)
        assert unit.per_domain_watts == pytest.approx(
            paper.per_domain_watts, rel=1e-12
        )

    def test_corun_results_follow_each_cores_clock(self, combined):
        points = [UNIT, OperatingPoint(0.5, 1.0, 1.0), UNIT, UNIT]
        fast_mcf = combined.estimate_state({0: ("mcf",), 1: ("art",)}, points)
        slow_mcf = combined.estimate_state({0: ("art",), 1: ("mcf",)}, points)
        perf = combined.performance_models[0]
        for estimate, ratios in ((fast_mcf, [1.0, 0.5]), (slow_mcf, [0.5, 1.0])):
            prediction = perf.predict(["mcf", "art"], frequency_ratios=ratios)
            expected = sum(p.ips for p in prediction.processes)
            assert estimate.ips == pytest.approx(expected, rel=1e-12)
        assert fast_mcf.ips != slow_mcf.ips

    def test_idle_cores_draw_at_their_own_points(self, combined, power_model):
        parked = [OperatingPoint(1.0, 1.0, 0.5)] * 4
        estimate = combined.estimate_state({}, parked)
        assert estimate.watts == pytest.approx(2 * power_model.p_idle)
        assert estimate.ips == 0.0


def _random_states(rng, spec, count=24):
    """Canonical 4-core states: idle dies, time-shared cores, any P-state."""
    counts = (1,) * 4 if spec is None else spec.pstate_counts
    states = [()]
    for _ in range(count):
        assignment = {}
        for core in range(4):
            residents = rng.choice((0, 0, 1, 1, 2, 3))
            if residents:
                assignment[core] = [rng.choice(NAMES) for _ in range(residents)]
        pstate_of = {core: rng.randrange(counts[core]) for core in assignment}
        states.append(
            canonical_state(assignment, None if spec is None else pstate_of)
        )
    return states


def _explicit_estimate(power_model, perf, spec, state):
    """``estimate_state`` with resolved points, on a model with a cold memo."""
    assignment = {entry[0]: entry[1] for entry in state}
    points = None
    if spec is not None:
        points = [
            spec.operating_point(core, spec.core_type(core).idle_pstate_index)
            for core in range(spec.num_cores)
        ]
        for core, _, index in state:
            points[core] = spec.operating_point(core, index)
        if spec.is_unit:
            # The parity contract: unit points price as the paper machine.
            assert all(point.is_unit for point in points)
            points = None
    estimate = build_combined(power_model, perf).estimate_state(assignment, points)
    return estimate.watts, estimate.ips


class TestCanonicalStatePricing:
    """``state_metrics`` over the per-domain memo is ``estimate_state``, bit for bit."""

    @pytest.fixture(scope="class")
    def perf(self):
        # Solves do not depend on history, so the shared model's
        # caches cannot make two pricings differ.
        return PerformanceModel(ways=16)

    @pytest.mark.parametrize("kind", ["plain", "unit", "big-little"])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_shuffled_states_match_explicit_points(
        self, power_model, perf, kind, seed
    ):
        spec = {
            "plain": None,
            "unit": unit_spec("4-core-server"),
            "big-little": big_little_spec("4-core-server"),
        }[kind]
        rng = random.Random(seed)
        states = _random_states(rng, spec)
        expected = {
            state: _explicit_estimate(power_model, perf, spec, state)
            for state in states
        }
        combined = build_combined(power_model, perf)
        price = combined.state_metrics
        if spec is not None:
            price = HeteroPricer(spec, combined.topology, combined).state_metrics
        for warm in (False, True):
            rng.shuffle(states)
            misses = combined.domain_cache_stats.misses
            for state in states:
                assert price(state) == expected[state], (warm, state)
            if warm:
                assert combined.domain_cache_stats.misses == misses
        assert combined.domain_cache_stats.hits > 0

    @pytest.mark.parametrize("bound", [None, 24])
    def test_concurrent_pricing_counts_every_lookup(
        self, power_model, perf, monkeypatch, bound
    ):
        """Threads sharing one model get the same prices and lose no count.

        With ``bound`` set below the states' distinct domain parts, the
        threads also drop and re-insert entries as they go.
        """
        states = _random_states(random.Random(11), None, count=40)
        expected = {
            state: build_combined(power_model, perf).state_metrics(state)
            for state in states
        }
        if bound is not None:
            monkeypatch.setattr(combined_module, "DOMAIN_MEMO_ENTRIES", bound)
        combined = build_combined(power_model, perf)
        rounds, workers = 30, 6
        wrong = []

        def work(seed):
            order = list(states)
            random.Random(seed).shuffle(order)
            for _ in range(rounds):
                for state in order:
                    if combined.state_metrics(state) != expected[state]:
                        wrong.append(state)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(seed,))
                for seed in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        stats = combined.domain_cache_stats
        lookups = workers * rounds * len(states) * len(combined.topology.domains)
        assert stats.hits + stats.misses == lookups
        if bound is not None:
            assert stats.evictions > 0 and stats.entries <= bound

    def test_memo_drops_its_least_recently_used_entries_beyond_the_bound(
        self, power_model, perf, monkeypatch
    ):
        monkeypatch.setattr(combined_module, "DOMAIN_MEMO_ENTRIES", 3)
        states = [((0, (name,)),) for name in NAMES]
        expected = [build_combined(power_model, perf).state_metrics(s) for s in states]
        combined = build_combined(power_model, perf)
        # Die 0 is new in every state; die 1 is idle throughout.  Near
        # the bound a hit re-inserts its entry, so the idle part, hit
        # by every state, outlives the die 0 parts: after the first
        # state only die 0 misses.
        assert [combined.state_metrics(s) for s in states] == expected
        stats = combined.domain_cache_stats
        assert (stats.entries, stats.misses, stats.evictions) == (3, 5, 2)
        # The first state's die 0 part was dropped; pricing it again
        # misses, and gives the same bits.
        assert combined.state_metrics(states[0]) == expected[0]
        assert combined.domain_cache_stats.misses == 6

    def test_a_model_prices_one_pstate_table(self, power_model):
        combined = build_combined(power_model)
        topology = combined.topology
        HeteroPricer(big_little_spec("4-core-server"), topology, combined)
        # The same table again is the same key space.
        HeteroPricer(big_little_spec("4-core-server"), topology, combined)
        with pytest.raises(ConfigurationError, match="another P-state table"):
            HeteroPricer(unit_spec("4-core-server"), topology, combined)


class TestConstruction:
    def test_ways_mismatch_rejected(self, power_model, combined):
        perf = PerformanceModel(ways=8)
        with pytest.raises(ConfigurationError):
            CombinedModel(
                topology=four_core_server(sets=64),
                performance_models=[perf],
                power_model=power_model,
                profiles={},
            )
