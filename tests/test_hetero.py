"""Tests for :mod:`repro.hetero` — core types, P-states, energy-aware
assignment.

Four layers, pinned separately:

- **Types**: :class:`PState` / :class:`CoreType` /
  :class:`HeteroMachineSpec` validation, operating-point arithmetic,
  and bit-exact JSON round-trips with field-path error messages.
- **Homogeneous parity**: a unit spec (every multiplier exactly 1.0)
  produces a :class:`FleetAssignment` whose every numeric field is
  bit-identical to solving the plain machine, across all three
  solvers — property-tested with hypothesis.
- **Oracle equality**: the P-state-aware exhaustive solver matches an
  independent (placement x per-core P-state) enumeration exactly on
  small instances, and the anneal path matches the exhaustive one.
- **Budget pressure**: a watts budget below the all-nominal optimum
  forces the solver into lower P-states while staying feasible.
"""

import itertools
import json
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ProfileSuiteResult, solve_assignment
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.errors import ConfigurationError
from repro.events import Event, RATE_EVENTS
from repro.fleet import AssignmentRequest, FleetSpec, MachineGroup, fleet_score
from repro.fleet.evaluator import FleetEvaluator
from repro.hetero import (
    BIG_CORE,
    CORE_TYPE_CATALOG,
    LITTLE_CORE,
    CoreType,
    HeteroMachineSpec,
    PState,
    big_little_spec,
    unit_spec,
)
from repro.workloads.spec import BENCHMARKS

NAMES = ["mcf", "gzip", "art"]
MACHINE = "2-core-workstation"


def _oracle_suite(names=NAMES, machine=MACHINE):
    return ProfileSuiteResult(
        machine=machine,
        features={n: FeatureVector.oracle(BENCHMARKS[n], 2e8) for n in names},
        profiles={
            n: ProfileVector(
                name=n,
                p_alone=20.0 + 2.0 * i,
                l1rpi=0.4,
                l2rpi=0.05,
                brpi=0.2,
                fppi=0.01 * i,
            )
            for i, n in enumerate(names)
        },
    )


@pytest.fixture(scope="module")
def suite():
    return _oracle_suite()


@pytest.fixture(scope="module")
def power_model():
    rng = np.random.default_rng(0)
    training = PowerTrainingSet()
    for _ in range(40):
        rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
        power = 11.0 + 8e-8 * rates[Event.L1_REFS] + 2e-7 * rates[Event.L2_MISSES]
        training.add(rates, power)
    return CorePowerModel().fit(training, idle_core_watts=11.0)


def _hetero_fleet(machine=MACHINE, sets=64):
    return FleetSpec(
        groups=(
            MachineGroup(
                machine=machine,
                count=1,
                sets=sets,
                hetero=big_little_spec(machine),
            ),
        )
    )


# ----------------------------------------------------------------------
# Value types
# ----------------------------------------------------------------------
class TestPState:
    def test_voltage_scaling_rules(self):
        pstate = PState("p1", frequency_ratio=0.8, voltage_ratio=0.9)
        assert pstate.dynamic_multiplier == 0.9 * 0.9
        assert pstate.static_multiplier == 0.9
        assert not pstate.is_unit
        assert PState("p0").is_unit

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError, match="frequency_ratio"):
            PState("p", frequency_ratio=0.0)
        with pytest.raises(ConfigurationError, match="voltage_ratio"):
            PState("p", voltage_ratio=-1.0)
        with pytest.raises(ConfigurationError, match="name"):
            PState("")


class TestCoreType:
    def test_operating_point_composes_scales(self):
        point = LITTLE_CORE.operating_point(1)
        pstate = LITTLE_CORE.pstates[1]
        assert point.frequency_ratio == 0.6 * pstate.frequency_ratio
        assert point.dynamic_multiplier == 0.45 * pstate.voltage_ratio**2
        assert point.static_multiplier == 0.55 * pstate.voltage_ratio

    def test_operating_point_range_checked(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            BIG_CORE.operating_point(len(BIG_CORE.pstates))

    def test_rejects_duplicate_pstate_names(self):
        with pytest.raises(ConfigurationError, match="duplicate pstate"):
            CoreType(name="x", pstates=(PState("p0"), PState("p0", 0.5, 0.5)))

    def test_rejects_empty_pstates(self):
        with pytest.raises(ConfigurationError, match="at least one pstate"):
            CoreType(name="x", pstates=())

    def test_rejects_non_positive_scales(self):
        with pytest.raises(ConfigurationError, match="perf_scale"):
            CoreType(name="x", perf_scale=0.0)

    def test_idle_pstate_is_deepest(self):
        assert BIG_CORE.idle_pstate_index == 2  # lowest voltage = lowest leak
        assert CoreType(name="one").idle_pstate_index == 0

    def test_unit_predicate(self):
        assert CoreType(name="base").is_unit
        assert not BIG_CORE.is_unit  # p1/p2 scale the multipliers


class TestHeteroMachineSpec:
    def test_big_little_layout(self):
        spec = big_little_spec("4-core-server")
        assert spec.num_cores == 4
        assert spec.core_type(0) is BIG_CORE
        assert spec.core_type(1) is LITTLE_CORE
        assert spec.pstate_counts == (3, 2, 3, 2)
        assert spec.has_pstate_choice
        assert not spec.is_unit

    def test_unit_spec_is_unit(self):
        spec = unit_spec(MACHINE)
        assert spec.is_unit
        assert not spec.has_pstate_choice
        assert spec.pstate_counts == (1, 1)

    def test_rejects_unknown_machine(self):
        with pytest.raises(ConfigurationError, match="unknown machine"):
            HeteroMachineSpec(
                machine="9-core-toaster",
                core_types=(BIG_CORE,),
                core_type_of=(0,),
            )

    def test_rejects_wrong_core_count(self):
        with pytest.raises(ConfigurationError, match="one core type index"):
            HeteroMachineSpec(
                machine=MACHINE, core_types=(BIG_CORE,), core_type_of=(0,)
            )

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            HeteroMachineSpec(
                machine=MACHINE, core_types=(BIG_CORE,), core_type_of=(0, 1)
            )

    def test_rejects_duplicate_core_type_names(self):
        with pytest.raises(ConfigurationError, match="duplicate core type"):
            HeteroMachineSpec(
                machine=MACHINE,
                core_types=(BIG_CORE, CoreType(name="big")),
                core_type_of=(0, 1),
            )

    def test_spec_is_hashable(self):
        assert hash(big_little_spec(MACHINE)) == hash(big_little_spec(MACHINE))
        assert big_little_spec(MACHINE) != unit_spec(MACHINE)

    def test_catalog_entries(self):
        assert CORE_TYPE_CATALOG["big"] is BIG_CORE
        assert CORE_TYPE_CATALOG["little"] is LITTLE_CORE


class TestMachineGroupHetero:
    def test_accepts_matching_spec(self):
        group = MachineGroup(machine=MACHINE, hetero=big_little_spec(MACHINE))
        assert group.hetero.machine == MACHINE

    def test_rejects_machine_mismatch(self):
        with pytest.raises(ConfigurationError, match="hetero spec is for"):
            MachineGroup(
                machine="4-core-server", hetero=big_little_spec(MACHINE)
            )

    def test_rejects_wrong_type(self):
        with pytest.raises(ConfigurationError, match="HeteroMachineSpec"):
            MachineGroup(machine=MACHINE, hetero={"machine": MACHINE})


# ----------------------------------------------------------------------
# JSON round-trips and field-path errors
# ----------------------------------------------------------------------
class TestHeteroIO:
    def test_spec_round_trips(self):
        spec = big_little_spec("4-core-server")
        document = spec.to_dict()
        json.dumps(document)  # strictly serialisable
        assert HeteroMachineSpec.from_dict(document) == spec

    def test_fleet_spec_round_trips_with_hetero(self):
        fleet = _hetero_fleet()
        document = fleet.to_dict()
        assert FleetSpec.from_dict(document) == fleet
        assert document["groups"][0]["hetero"]["kind"] == "hetero_machine_spec"

    def test_homogeneous_groups_serialise_null_hetero(self):
        fleet = FleetSpec(groups=(MachineGroup(machine=MACHINE),))
        document = fleet.to_dict()
        assert document["groups"][0]["hetero"] is None
        assert FleetSpec.from_dict(document) == fleet

    def test_field_path_on_bad_ratio(self):
        document = _hetero_fleet().to_dict()
        hetero = document["groups"][0]["hetero"]
        hetero["core_types"][0]["pstates"][1]["frequency_ratio"] = "fast"
        with pytest.raises(
            ConfigurationError,
            match=r"fleet\.groups\[0\]\.hetero\.core_types\[0\]"
            r"\.pstates\[1\]\.frequency_ratio",
        ):
            FleetSpec.from_dict(document)

    def test_field_path_on_missing_core_type_name(self):
        document = _hetero_fleet().to_dict()
        del document["groups"][0]["hetero"]["core_types"][1]["name"]
        with pytest.raises(
            ConfigurationError,
            match=r"fleet\.groups\[0\]\.hetero\.core_types\[1\]\.name is missing",
        ):
            FleetSpec.from_dict(document)

    def test_field_path_on_bad_core_type_of(self):
        document = _hetero_fleet().to_dict()
        document["groups"][0]["hetero"]["core_type_of"][1] = "little"
        with pytest.raises(
            ConfigurationError,
            match=r"fleet\.groups\[0\]\.hetero\.core_type_of\[1\]",
        ):
            FleetSpec.from_dict(document)

    def test_request_round_trips_with_hetero_fleet(self):
        request = AssignmentRequest(
            processes=("mcf", "gzip"),
            objective="throughput-under-watts-budget",
            fleet=_hetero_fleet(),
            power_budget_watts=90.0,
        )
        assert AssignmentRequest.from_dict(request.to_dict()) == request

    def test_assignment_round_trips_pstates(self, suite, power_model):
        request = AssignmentRequest(
            processes=("mcf", "gzip"),
            objective="throughput-under-watts-budget",
            solver="exhaustive",
            fleet=_hetero_fleet(),
            power_budget_watts=90.0,
        )
        result = solve_assignment(request, suite, power_model)
        restored = type(result).from_dict(result.to_dict())
        assert restored == result
        busy = [m for m in result.machines if m.assignment]
        assert busy and all(m.pstates is not None for m in busy)


# ----------------------------------------------------------------------
# Homogeneous parity (unit spec == plain machine, bit for bit)
# ----------------------------------------------------------------------
def _comparable(result):
    """Everything but the fleet spec (which deliberately differs)."""
    return (
        result.objective,
        result.solver,
        result.refinement,
        result.processes,
        tuple(
            (m.machine, m.group, m.index, tuple(sorted(m.assignment.items())),
             m.predicted_watts, m.predicted_ips)
            for m in result.machines
        ),
        result.predicted_watts,
        result.predicted_ips,
        result.score,
        result.evaluations,
        result.iterations,
        result.improvements,
        result.seed,
    )


class TestHomogeneousParity:
    @settings(max_examples=6, deadline=None)
    @given(
        subset=st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
        solver=st.sampled_from(["exhaustive", "greedy", "anneal"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_unit_spec_matches_plain_machine(self, subset, solver, seed):
        suite = _oracle_suite()
        rng = np.random.default_rng(0)
        training = PowerTrainingSet()
        for _ in range(40):
            rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
            power = (
                11.0 + 8e-8 * rates[Event.L1_REFS] + 2e-7 * rates[Event.L2_MISSES]
            )
            training.add(rates, power)
        power_model = CorePowerModel().fit(training, idle_core_watts=11.0)
        plain = FleetSpec(groups=(MachineGroup(machine=MACHINE, sets=64),))
        unit = FleetSpec(
            groups=(
                MachineGroup(machine=MACHINE, sets=64, hetero=unit_spec(MACHINE)),
            )
        )
        kwargs = dict(
            processes=tuple(subset),
            objective="min-energy-per-instruction",
            solver=solver,
            max_iterations=60,
            seed=seed,
        )
        baseline = solve_assignment(
            AssignmentRequest(fleet=plain, **kwargs), suite, power_model
        )
        hetero = solve_assignment(
            AssignmentRequest(fleet=unit, **kwargs), suite, power_model
        )
        assert _comparable(hetero) == _comparable(baseline)

    def test_unit_spec_pstates_are_reported_nominal(self, suite, power_model):
        request = AssignmentRequest(
            processes=("mcf",),
            solver="exhaustive",
            fleet=FleetSpec(
                groups=(
                    MachineGroup(
                        machine=MACHINE, sets=64, hetero=unit_spec(MACHINE)
                    ),
                )
            ),
        )
        result = solve_assignment(request, suite, power_model)
        busy = [m for m in result.machines if m.assignment]
        assert busy[0].pstates == {core: 0 for core in busy[0].assignment}


class TestPricingErrors:
    @pytest.mark.parametrize(
        "hetero, assignment, pstates",
        [
            (big_little_spec(MACHINE), {0: ("mcf",)}, {0: 3}),
            (big_little_spec(MACHINE), {0: ("mcf",), 1: ("art",)}, {1: 2}),
            (unit_spec(MACHINE), {0: ("mcf",)}, {0: 1}),
            (None, {2: ("mcf",)}, None),
            (big_little_spec(MACHINE), {2: ("mcf",)}, None),
            (big_little_spec(MACHINE), {0: ("gzip",), 2: ("mcf",)}, {2: 0}),
        ],
        ids=[
            "pstate-lone-big",
            "pstate-contended-little",
            "pstate-unit-spec",
            "core-plain",
            "core-big-little",
            "core-big-little-with-busy-core",
        ],
    )
    def test_out_of_range_state_raises(
        self, suite, power_model, hetero, assignment, pstates
    ):
        fleet = FleetSpec(
            groups=(MachineGroup(machine=MACHINE, sets=64, hetero=hetero),)
        )
        evaluator = FleetEvaluator(
            suite.features, suite.profiles, power_model, fleet
        )
        with pytest.raises(ConfigurationError, match="out of range"):
            evaluator.machine_metrics(0, assignment, pstates)

    # 4-core-server: dies {0, 1} and {2, 3}.  Each bad state keeps a
    # valid entry on the die the warm-up states already priced.
    @pytest.mark.parametrize(
        "hetero, assignment, pstates",
        [
            (big_little_spec("4-core-server"), {0: ("mcf",), 2: ("art",)}, {2: 3}),
            (big_little_spec("4-core-server"), {0: ("mcf",), 3: ("art",)}, {3: 2}),
            (big_little_spec("4-core-server"), {0: ("mcf",), 4: ("art",)}, None),
            (unit_spec("4-core-server"), {0: ("mcf",), 2: ("art",)}, {2: 1}),
            (unit_spec("4-core-server"), {0: ("mcf",), 4: ("art",)}, None),
            (None, {0: ("mcf",), 4: ("art",)}, None),
        ],
        ids=[
            "pstate-big",
            "pstate-little",
            "core-big-little",
            "pstate-unit-spec",
            "core-unit-spec",
            "core-plain",
        ],
    )
    def test_warm_memo_still_raises(
        self, suite, power_model, hetero, assignment, pstates
    ):
        fleet = FleetSpec(
            groups=(MachineGroup(machine="4-core-server", sets=64, hetero=hetero),)
        )

        def evaluator():
            return FleetEvaluator(suite.features, suite.profiles, power_model, fleet)

        with pytest.raises(ConfigurationError, match="out of range") as cold:
            evaluator().machine_metrics(0, assignment, pstates)
        warm = evaluator()
        # Die 0 as in the bad state, die 1 idle and with art at a valid
        # P-state (on a unit spec, the bad index's only neighbour).
        warm.machine_metrics(0, {0: ("mcf",)}, {0: 0})
        warm.machine_metrics(0, {0: ("mcf",), 2: ("art",)}, {0: 0, 2: 0})
        memo = warm.group_configs[0].combined
        before = memo.domain_cache_stats
        assert before.entries == 3
        for _ in range(2):
            with pytest.raises(ConfigurationError) as again:
                warm.machine_metrics(0, assignment, pstates)
            assert str(again.value) == str(cold.value)
        # The valid die was a hit; nothing keyed on the bad entry stayed.
        assert memo.domain_cache_stats.entries == before.entries


# ----------------------------------------------------------------------
# Oracle equality (placement x P-state enumeration)
# ----------------------------------------------------------------------
def _oracle_best_score(evaluator, names, spec, objective, budget):
    """Independent exhaustive enumeration over one hetero machine."""
    counts = spec.pstate_counts
    best = float("inf")
    for placement in itertools.product(range(spec.num_cores), repeat=len(names)):
        assignment = defaultdict(list)
        for name, core in zip(names, placement):
            assignment[core].append(name)
        busy = sorted(assignment)
        for choice in itertools.product(*(range(counts[core]) for core in busy)):
            watts, ips = evaluator.machine_metrics(
                0,
                {core: tuple(sorted(assignment[core])) for core in busy},
                dict(zip(busy, choice)),
            )
            best = min(best, fleet_score(objective, watts, ips, budget))
    return best


class TestOracleEquality:
    @pytest.mark.parametrize(
        "objective,budget",
        [
            ("throughput-under-watts-budget", 90.0),
            ("throughput-under-watts-budget", 62.0),
            ("min-energy-per-instruction", None),
        ],
    )
    def test_exhaustive_matches_independent_enumeration(
        self, suite, power_model, objective, budget
    ):
        fleet = _hetero_fleet()
        names = ("mcf", "gzip")
        request = AssignmentRequest(
            processes=names,
            objective=objective,
            solver="exhaustive",
            fleet=fleet,
            power_budget_watts=budget,
        )
        result = solve_assignment(request, suite, power_model)
        evaluator = FleetEvaluator(
            suite.features, suite.profiles, power_model, fleet
        )
        oracle = _oracle_best_score(
            evaluator, names, fleet.groups[0].hetero, objective, budget
        )
        assert result.score == oracle

    def test_anneal_matches_exhaustive_on_small_instance(
        self, suite, power_model
    ):
        kwargs = dict(
            processes=("mcf", "gzip"),
            objective="throughput-under-watts-budget",
            fleet=_hetero_fleet(),
            power_budget_watts=90.0,
            seed=7,
        )
        exhaustive = solve_assignment(
            AssignmentRequest(solver="exhaustive", **kwargs), suite, power_model
        )
        anneal = solve_assignment(
            AssignmentRequest(solver="anneal", **kwargs), suite, power_model
        )
        assert anneal.score == exhaustive.score

    def test_anneal_is_deterministic(self, suite, power_model):
        request = AssignmentRequest(
            processes=("mcf", "gzip", "art"),
            objective="throughput-under-watts-budget",
            solver="anneal",
            fleet=_hetero_fleet(),
            power_budget_watts=95.0,
            max_iterations=300,
            seed=11,
        )
        first = solve_assignment(request, suite, power_model)
        second = solve_assignment(request, suite, power_model)
        assert first == second

    def test_greedy_never_beaten_by_anneal_regression(self, suite, power_model):
        kwargs = dict(
            processes=("mcf", "gzip", "art"),
            objective="throughput-under-watts-budget",
            fleet=_hetero_fleet(),
            power_budget_watts=95.0,
            max_iterations=300,
            seed=3,
        )
        greedy = solve_assignment(
            AssignmentRequest(solver="greedy", **kwargs), suite, power_model
        )
        anneal = solve_assignment(
            AssignmentRequest(solver="anneal", **kwargs), suite, power_model
        )
        assert anneal.score <= greedy.score


# ----------------------------------------------------------------------
# Budget pressure
# ----------------------------------------------------------------------
class TestBudgetPressure:
    def test_budget_respected_and_improvements_feasible(
        self, suite, power_model
    ):
        request = AssignmentRequest(
            processes=("mcf", "gzip"),
            objective="throughput-under-watts-budget",
            solver="anneal",
            fleet=_hetero_fleet(),
            power_budget_watts=90.0,
            max_iterations=200,
            seed=5,
        )
        result = solve_assignment(request, suite, power_model)
        assert result.predicted_watts <= 90.0
        # every recorded improvement is a feasible incumbent: an
        # over-budget candidate scores inf and can never be recorded.
        assert all(math.isfinite(score) for _, score in result.improvements)

    def test_tight_budget_forces_lower_pstates(self, suite, power_model):
        fleet = _hetero_fleet()
        names = ("mcf", "gzip")
        evaluator = FleetEvaluator(
            suite.features, suite.profiles, power_model, fleet
        )
        spec = fleet.groups[0].hetero
        nominal_levels, all_levels = [], []
        for placement in itertools.product(range(spec.num_cores), repeat=2):
            assignment = defaultdict(list)
            for name, core in zip(names, placement):
                assignment[core].append(name)
            busy = sorted(assignment)
            for choice in itertools.product(
                *(range(spec.pstate_counts[core]) for core in busy)
            ):
                watts, _ = evaluator.machine_metrics(
                    0,
                    {core: tuple(sorted(assignment[core])) for core in busy},
                    dict(zip(busy, choice)),
                )
                all_levels.append(watts)
                if not any(choice):
                    nominal_levels.append(watts)
        # A budget below every all-nominal placement but above the
        # global minimum leaves lowered P-states as the only way in.
        assert min(all_levels) < min(nominal_levels)
        budget = (min(all_levels) + min(nominal_levels)) / 2.0
        tight = solve_assignment(
            AssignmentRequest(
                processes=names,
                objective="throughput-under-watts-budget",
                solver="exhaustive",
                fleet=fleet,
                power_budget_watts=budget,
            ),
            suite,
            power_model,
        )
        assert tight.predicted_watts <= budget
        busy = [m for m in tight.machines if m.assignment]
        assert any(
            pstate > 0 for m in busy for pstate in (m.pstates or {}).values()
        )
