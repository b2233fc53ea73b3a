"""Unit tests for the power-aware assignment searches.

The exhaustive search is :mod:`repro.fleet`'s; these tests drive it
through the ``/v1`` pick (``_pick_assignment_impl``) and, for
``max_per_core``, which the pick does not expose, through
:func:`repro.api.solve_assignment`.  The greedy searcher is
:func:`repro.core.assignment.greedy_assignment`.
"""

import numpy as np
import pytest

from repro.api import (
    AssignmentRequest,
    ProfileSuiteResult,
    _pick_assignment_impl,
    solve_assignment,
)
from repro.core.assignment import OBJECTIVES, greedy_assignment
from repro.core.combined import CombinedModel
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.performance_model import PerformanceModel
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.errors import ConfigurationError
from repro.events import RATE_EVENTS
from repro.machine.topology import four_core_server
from repro.workloads.spec import BENCHMARKS

FREQ = 2e8
MACHINE = "4-core-server"
SETS = 64


@pytest.fixture(scope="module")
def suite():
    features = {}
    profiles = {}
    for name in ("mcf", "art", "gzip"):
        benchmark = BENCHMARKS[name]
        features[name] = FeatureVector.oracle(benchmark, FREQ)
        profiles[name] = ProfileVector(
            name=name,
            p_alone=25.0,
            l1rpi=benchmark.mix.l1rpi,
            l2rpi=benchmark.mix.l2rpi,
            brpi=benchmark.mix.brpi,
            fppi=benchmark.mix.fppi,
        )
    return ProfileSuiteResult(machine=MACHINE, features=features, profiles=profiles)


@pytest.fixture(scope="module")
def power_model():
    rng = np.random.default_rng(1)
    training = PowerTrainingSet()
    for _ in range(60):
        rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
        power = 10.0 + sum(1e-7 * r for r in rates.values())
        training.add(rates, power)
    return CorePowerModel().fit(training)


@pytest.fixture(scope="module")
def combined(suite, power_model):
    perf = PerformanceModel(ways=16)
    perf.register_all(list(suite.features.values()))
    return CombinedModel(
        topology=four_core_server(sets=SETS),
        performance_models=[perf],
        power_model=power_model,
        profiles=suite.profiles,
    )


@pytest.fixture(scope="module")
def pick(suite, power_model):
    def run(names, objective="power", greedy=False):
        return _pick_assignment_impl(
            names,
            suite,
            power_model,
            MACHINE,
            sets=SETS,
            objective=objective,
            greedy=greedy,
        ).decision

    return run


def _solve_exhaustive(suite, power_model, names, max_per_core):
    request = AssignmentRequest(
        processes=tuple(names),
        solver="exhaustive",
        machine=MACHINE,
        sets=SETS,
        max_per_core=max_per_core,
    )
    return solve_assignment(request, suite, power_model)


class TestExhaustive:
    def test_finds_valid_assignment(self, pick):
        decision = pick(["mcf", "art"], objective="power")
        placed = [n for names in decision.assignment.values() for n in names]
        assert sorted(placed) == ["art", "mcf"]
        assert decision.predicted_watts > 0
        assert decision.candidates_evaluated > 1

    def test_throughput_objective_separates_contenders(self, pick):
        decision = pick(["mcf", "art"], objective="throughput")
        cores = sorted(decision.assignment)
        # Best throughput puts the two memory hogs on different dies.
        domains = {0: 0, 1: 0, 2: 1, 3: 1}
        used_domains = {domains[c] for c in cores}
        assert used_domains == {0, 1}

    def test_max_per_core_respected(self, suite, power_model):
        plan = _solve_exhaustive(
            suite, power_model, ["mcf", "art", "gzip"], max_per_core=1
        )
        (machine,) = plan.machines
        assert all(len(names) == 1 for names in machine.assignment.values())

    def test_infeasible_constraints_raise(self, suite, power_model):
        with pytest.raises(ConfigurationError):
            _solve_exhaustive(suite, power_model, ["mcf"] * 5, max_per_core=1)

    def test_unknown_objective(self, pick):
        # /v1 keeps the three legacy names; fleet names are /v2's.
        for objective in ("vibes", "min-power"):
            with pytest.raises(ConfigurationError, match="unknown objective"):
                pick(["mcf"], objective=objective)

    def test_empty_processes(self, pick):
        with pytest.raises(ConfigurationError):
            pick([])

    def test_energy_objective(self, pick):
        decision = pick(["mcf", "gzip"], objective="energy_per_instruction")
        assert decision.score == pytest.approx(
            decision.predicted_watts / decision.predicted_ips
        )


class TestGreedy:
    def test_greedy_close_to_exhaustive(self, pick):
        processes = ["mcf", "art", "gzip"]
        best = pick(processes, objective="power")
        greedy = pick(processes, objective="power", greedy=True)
        assert greedy.predicted_watts <= best.predicted_watts * 1.15

    def test_greedy_evaluates_linearly(self, combined):
        decision = greedy_assignment(combined, ["mcf", "art"], objective="power")
        # k processes x N cores queries.
        assert decision.candidates_evaluated == 2 * 4

    def test_greedy_respects_cap(self, combined):
        decision = greedy_assignment(
            combined, ["mcf", "art", "gzip"], objective="power", max_per_core=1
        )
        assert all(len(names) == 1 for names in decision.assignment.values())


class TestObjectives:
    def test_registry(self):
        assert set(OBJECTIVES) == {"power", "throughput", "energy_per_instruction"}
        assert OBJECTIVES["power"](10.0, 5.0) == 10.0
        assert OBJECTIVES["throughput"](10.0, 5.0) == -5.0
        assert OBJECTIVES["energy_per_instruction"](10.0, 0.0) == float("inf")
