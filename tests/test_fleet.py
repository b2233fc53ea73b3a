"""Tests for :mod:`repro.fleet` — declarative fleet assignment.

Four layers, pinned separately:

- **Types**: :class:`AssignmentRequest` / :class:`FleetAssignment`
  validation, bit-exact JSON round-trips, field-path error messages,
  the :func:`pick_assignment` deprecation shim, and the ``/v1``
  exhaustive pick as a one-machine exhaustive plan.
- **Oracle equality**: on small instances (≤ 4 cores, ≤ 6 processes)
  the greedy+anneal heuristic returns *exactly* the exhaustive
  oracle's score — property-tested with hypothesis.
- **Monotonicity**: annealing never returns a worse score than the
  greedy packing it refines, on fleets far beyond the sweep limit.
- **Determinism**: same seed ⇒ identical :class:`FleetAssignment`
  (dataclass equality, so float-for-float) across repeated runs.
- **Solved co-runs**: a suite object keeps its cold-start models for
  as long as it lives, never serves them for replaced features, and
  gives the same plans warm, cold and under concurrent solves.
- **State splicing**: every trial state the greedy and the anneal
  splice equals the canonical state of the edited assignment.
"""

import copy
import gc
import json
import pickle
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import (
    AssignmentRequest,
    FleetAssignment,
    FleetSpec,
    MachineGroup,
    ProfileSuiteResult,
    _pick_assignment_impl,
    pick_assignment,
    solve_assignment,
)
from repro.core.assignment import DEFAULT_MAX_CANDIDATES, OBJECTIVES
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.performance_model import PerformanceModel
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.errors import AssignmentTooLargeError, ConfigurationError
from repro.events import Event, RATE_EVENTS
from repro.fleet import (
    CANONICAL_OBJECTIVES,
    FleetEvaluator,
    SolvedCoRuns,
    canonical_objective,
    fleet_score,
    solve,
)
from repro.fleet.evaluator import canonical_state
from repro.fleet.solver import _candidate_scan, _edit, _with_name
from repro.hetero import HeteroPricer, big_little_spec
from repro.machine.topology import STANDARD_MACHINES
from repro.workloads.spec import BENCHMARKS

NAMES = ["mcf", "gzip", "art", "vpr"]


def _oracle_suite(names=NAMES, machine="4-core-server"):
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


# ----------------------------------------------------------------------
# Request / result types
# ----------------------------------------------------------------------
class TestAssignmentRequest:
    def test_defaults(self):
        request = AssignmentRequest(processes=("mcf", "gzip"))
        assert request.objective == "min-power"
        assert request.solver == "auto"
        assert request.fleet is None
        assert request.resolved_fleet().groups[0].machine == "4-core-server"

    def test_rejects_unknown_objective(self):
        with pytest.raises(ConfigurationError, match="objective"):
            AssignmentRequest(processes=("mcf",), objective="fastest")

    def test_rejects_unknown_solver(self):
        with pytest.raises(ConfigurationError, match="solver"):
            AssignmentRequest(processes=("mcf",), solver="brute")

    def test_rejects_empty_processes(self):
        with pytest.raises(ConfigurationError, match="process"):
            AssignmentRequest(processes=())

    def test_budget_objective_requires_budget(self):
        with pytest.raises(ConfigurationError, match="power_budget_watts"):
            AssignmentRequest(
                processes=("mcf",), objective="throughput-under-watts-budget"
            )

    def test_legacy_objective_aliases_canonicalised(self):
        assert canonical_objective("power") == "min-power"
        assert canonical_objective("throughput") == "max-throughput"
        assert (
            canonical_objective("energy_per_instruction")
            == "min-energy-per-instruction"
        )
        for name in CANONICAL_OBJECTIVES:
            assert canonical_objective(name) == name

    def test_request_accepts_legacy_aliases(self):
        # A request built with a legacy name validates and preserves
        # the caller's spelling; canonicalisation happens at solve.
        for legacy in ("power", "throughput", "energy_per_instruction"):
            request = AssignmentRequest(processes=("mcf",), objective=legacy)
            assert request.objective == legacy
            assert canonical_objective(request.objective) in CANONICAL_OBJECTIVES
        # Aliases survive the JSON round-trip unrewritten.
        request = AssignmentRequest(processes=("mcf",), objective="power")
        assert AssignmentRequest.from_dict(request.to_dict()) == request

    def test_hetero_field_path_in_errors(self):
        # The hetero subdocument reports the same dotted field paths
        # the rest of the fleet schema does.
        with pytest.raises(
            ConfigurationError,
            match=r"fleet\.groups\[0\]\.hetero\.core_types is missing",
        ):
            FleetSpec.from_dict(
                {
                    "kind": "fleet_spec",
                    "version": 1,
                    "groups": [
                        {
                            "machine": "4-core-server",
                            "hetero": {
                                "kind": "hetero_machine_spec",
                                "version": 1,
                                "machine": "4-core-server",
                            },
                        }
                    ],
                }
            )

    def test_round_trip_is_bit_exact(self):
        request = AssignmentRequest(
            processes=("mcf", "gzip", "mcf"),
            objective="throughput-under-watts-budget",
            solver="anneal",
            fleet=FleetSpec(
                groups=(
                    MachineGroup(machine="4-core-server", count=3, sets=64),
                    MachineGroup(
                        machine="2-core-laptop",
                        count=2,
                        power_cap_watts=35.5,
                    ),
                )
            ),
            power_budget_watts=123.456789,
            budget_s=1.5,
            max_iterations=777,
            seed=42,
        )
        wire = json.loads(json.dumps(request.to_dict()))
        assert AssignmentRequest.from_dict(wire) == request

    def test_field_path_in_errors(self):
        with pytest.raises(
            ConfigurationError, match=r"assignment_request\.processes is missing"
        ):
            AssignmentRequest.from_dict(
                {"kind": "assignment_request", "version": 1}
            )
        with pytest.raises(
            ConfigurationError,
            match=r"fleet\.groups\[0\]\.machine is missing",
        ):
            FleetSpec.from_dict(
                {"kind": "fleet_spec", "version": 1, "groups": [{}]}
            )

    def test_reexported_from_package_root(self):
        import repro

        assert repro.AssignmentRequest is AssignmentRequest
        assert repro.FleetSpec is FleetSpec
        assert repro.solve_assignment is solve_assignment


class TestFleetAssignmentResult:
    def test_round_trip_is_bit_exact(self, suite, power_model):
        request = AssignmentRequest(
            processes=("mcf", "gzip", "art"),
            machine="2-core-workstation",
            sets=32,
            solver="anneal",
            seed=3,
        )
        result = solve_assignment(request, suite, power_model)
        wire = json.loads(json.dumps(result.to_dict()))
        assert FleetAssignment.from_dict(wire) == result

    def test_save_and_load(self, tmp_path, suite, power_model):
        from repro.api import load_fleet_assignment

        request = AssignmentRequest(
            processes=("mcf", "gzip"), machine="2-core-workstation", sets=32
        )
        result = solve_assignment(request, suite, power_model)
        path = tmp_path / "fleet.json"
        result.save(path)
        assert load_fleet_assignment(path) == result

    def test_busy_machines_excludes_idle(self, suite, power_model):
        request = AssignmentRequest(
            processes=("mcf",),
            fleet=FleetSpec(
                groups=(
                    MachineGroup(machine="2-core-workstation", count=3, sets=32),
                )
            ),
            sets=32,
        )
        result = solve_assignment(request, suite, power_model)
        assert len(result.machines) == 3
        assert len(result.busy_machines) == 1


class TestDeprecationShim:
    def test_pick_assignment_warns_and_matches_impl(self, suite, power_model):
        with pytest.warns(DeprecationWarning, match="solve_assignment"):
            pick = pick_assignment(
                ["mcf", "gzip"],
                suite,
                power_model,
                machine="2-core-workstation",
                sets=32,
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the impl must NOT warn
            impl = _pick_assignment_impl(
                ["mcf", "gzip"],
                suite,
                power_model,
                machine="2-core-workstation",
                sets=32,
            )
        assert pick == impl


class TestV1Translation:
    @pytest.mark.parametrize("machine", sorted(STANDARD_MACHINES))
    def test_exhaustive_pick_equals_one_machine_plan(
        self, machine, suite, power_model
    ):
        names = ["mcf", "gzip", "mcf"]
        for objective in OBJECTIVES:
            pick = _pick_assignment_impl(
                names, suite, power_model, machine, sets=32, objective=objective
            )
            plan = solve_assignment(
                AssignmentRequest(
                    processes=tuple(names),
                    objective=objective,
                    solver="exhaustive",
                    machine=machine,
                    sets=32,
                ),
                suite,
                power_model,
            )
            (chosen,) = plan.machines
            decision = pick.decision
            assert pick.strategy == "exhaustive"
            assert decision.objective == objective
            assert decision.assignment == chosen.assignment
            assert decision.predicted_watts == chosen.predicted_watts
            assert decision.predicted_ips == chosen.predicted_ips
            assert decision.candidates_evaluated == plan.evaluations
            assert decision.score == OBJECTIVES[objective](
                chosen.predicted_watts, chosen.predicted_ips
            )


# ----------------------------------------------------------------------
# Solvers
# ----------------------------------------------------------------------
def _solve(suite, power_model, names, solver, **kwargs):
    request = AssignmentRequest(
        processes=tuple(names),
        machine=kwargs.pop("machine", "2-core-workstation"),
        sets=32,
        solver=solver,
        **kwargs,
    )
    return solve_assignment(request, suite, power_model)


class TestOracleEquality:
    @settings(max_examples=10, deadline=None)
    @given(
        names=st.lists(st.sampled_from(NAMES), min_size=1, max_size=4),
        objective=st.sampled_from(["min-power", "max-throughput"]),
    )
    def test_anneal_matches_exhaustive_on_small_instances(
        self, suite, power_model, names, objective
    ):
        oracle = _solve(suite, power_model, names, "exhaustive", objective=objective)
        heuristic = _solve(suite, power_model, names, "anneal", objective=objective)
        assert heuristic.score == oracle.score
        assert heuristic.predicted_watts == oracle.predicted_watts

    def test_pinned_four_core_six_process_equality(self, power_model):
        suite = _oracle_suite()
        names = ["mcf", "gzip", "art", "vpr", "mcf", "gzip"]
        oracle = _solve(
            suite, power_model, names, "exhaustive", machine="4-core-server"
        )
        heuristic = _solve(
            suite, power_model, names, "anneal", machine="4-core-server"
        )
        assert heuristic.score == oracle.score
        assert heuristic.refinement == "sweep"

    def test_auto_solver_uses_exhaustive_on_small_instances(
        self, suite, power_model
    ):
        result = _solve(suite, power_model, ["mcf", "gzip"], "auto")
        assert result.solver == "exhaustive"


class TestHeuristicMonotonicity:
    @pytest.fixture(scope="class")
    def big_fleet(self):
        return FleetSpec(
            groups=(
                MachineGroup(machine="4-core-server", count=6, sets=32),
                MachineGroup(machine="2-core-workstation", count=4, sets=32),
            )
        )

    def test_anneal_never_worse_than_greedy(self, suite, power_model, big_fleet):
        names = tuple(NAMES * 5)  # 20 processes, bound >> sweep limit
        greedy = solve_assignment(
            AssignmentRequest(
                processes=names, fleet=big_fleet, solver="greedy", seed=1
            ),
            suite,
            power_model,
        )
        anneal = solve_assignment(
            AssignmentRequest(
                processes=names,
                fleet=big_fleet,
                solver="anneal",
                seed=1,
                max_iterations=200,
            ),
            suite,
            power_model,
        )
        assert anneal.refinement == "anneal"
        assert anneal.score <= greedy.score
        assert anneal.improvements[0][1] == greedy.score  # starts from greedy

    def test_improvements_trace_is_monotone(self, suite, power_model, big_fleet):
        result = solve_assignment(
            AssignmentRequest(
                processes=tuple(NAMES * 5),
                fleet=big_fleet,
                solver="anneal",
                seed=7,
                max_iterations=200,
            ),
            suite,
            power_model,
        )
        scores = [score for _, score in result.improvements]
        assert scores == sorted(scores, reverse=True)
        iterations = [it for it, _ in result.improvements]
        assert iterations == sorted(iterations)


class TestDeterminism:
    def test_same_seed_same_result_across_runs(self, suite, power_model):
        fleet = FleetSpec(
            groups=(MachineGroup(machine="4-core-server", count=4, sets=32),)
        )
        request = AssignmentRequest(
            processes=tuple(NAMES * 3),
            fleet=fleet,
            solver="anneal",
            seed=11,
            max_iterations=100,
        )
        first = solve_assignment(request, suite, power_model)
        second = solve_assignment(request, suite, power_model)
        assert first == second

    def test_different_seeds_may_differ_but_stay_valid(self, suite, power_model):
        fleet = FleetSpec(
            groups=(MachineGroup(machine="2-core-workstation", count=3, sets=32),)
        )
        names = tuple(NAMES * 3)
        for seed in (0, 1):
            result = solve_assignment(
                AssignmentRequest(
                    processes=names,
                    fleet=fleet,
                    solver="anneal",
                    seed=seed,
                    max_iterations=50,
                ),
                suite,
                power_model,
            )
            placed = sorted(
                name
                for machine in result.machines
                for core_names in machine.assignment.values()
                for name in core_names
            )
            assert placed == sorted(names)


class TestStoreHistory:
    """Plans, ``evaluations`` included, do not depend on the store's past."""

    FLEETS = {
        "homogeneous": FleetSpec(
            groups=(
                MachineGroup(machine="4-core-server", count=1, sets=32),
                MachineGroup(machine="2-core-workstation", count=2, sets=32),
            )
        ),
        "big.LITTLE": FleetSpec(
            groups=(
                MachineGroup(
                    machine="4-core-server",
                    count=1,
                    sets=32,
                    hetero=big_little_spec("4-core-server"),
                ),
                MachineGroup(machine="2-core-workstation", count=1, sets=32),
            )
        ),
    }

    @settings(max_examples=12, deadline=None)
    @given(
        names=st.lists(st.sampled_from(NAMES), min_size=1, max_size=6),
        fleet=st.sampled_from(sorted(FLEETS)),
        max_per_core=st.sampled_from([None, 1, 2]),
        objective=st.sampled_from(["min-power", "max-throughput"]),
        warm_up=st.lists(st.sampled_from(NAMES), min_size=1, max_size=4),
    )
    def test_repeat_warm_and_fresh_stores_agree(
        self, suite, power_model, names, fleet, max_per_core, objective, warm_up
    ):
        # sweep_limit=0 keeps anneal on the greedy start plus annealing.
        def plans(store, processes=names):
            return [
                solve(
                    AssignmentRequest(
                        processes=tuple(processes),
                        fleet=self.FLEETS[fleet],
                        solver=solver,
                        objective=objective,
                        max_per_core=max_per_core,
                        max_iterations=30,
                        seed=5,
                    ),
                    suite.features,
                    suite.profiles,
                    power_model,
                    sweep_limit=0,
                    models=store,
                )
                for solver in ("greedy", "anneal")
            ]

        fresh = plans(SolvedCoRuns())
        store = SolvedCoRuns()
        first = plans(store)
        repeat = plans(store)
        warmed = SolvedCoRuns()
        plans(warmed, warm_up)
        warm = plans(warmed)
        assert first == repeat == warm == fresh
        evaluations = [plan.evaluations for plan in fresh]
        for run in (first, repeat, warm):
            assert [plan.evaluations for plan in run] == evaluations


class TestStateSplice:
    """The search edits a machine's canonical state one core at a time.

    Every trial state it splices must be the state
    :func:`~repro.fleet.evaluator.canonical_state` builds from the
    edited assignment and P-states: that is what keeps memo keys,
    ``evaluations`` and prices bit-identical to pricing from scratch.
    """

    MACHINES = {
        "plain/4-core-server": (4, None),
        "plain/2-core-workstation": (2, None),
        "big.LITTLE/4-core-server": (4, big_little_spec("4-core-server")),
    }

    @pytest.mark.parametrize(
        "kind", ["add", "move-in", "remove", "flip", "swap"]
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_spliced_state_equals_canonical_state(self, kind, data):
        machines = [
            machine
            for machine, (_cores, hetero) in sorted(self.MACHINES.items())
            if kind != "flip" or hetero is not None
        ]
        num_cores, hetero = self.MACHINES[data.draw(st.sampled_from(machines))]
        names = st.sampled_from(NAMES)
        # Busy cores may time-share up to three names.
        assignment = {
            core: data.draw(st.lists(names, max_size=3))
            for core in range(num_cores)
        }
        busy = [core for core in assignment if assignment[core]]
        pstates = None
        if hetero is not None:
            pstates = {
                core: data.draw(st.integers(0, hetero.pstate_counts[core] - 1))
                for core in busy
            }
        # Edits other than adds need a busy core.
        assume(busy or kind in ("add", "move-in"))
        state = canonical_state(assignment, pstates)
        plain = hetero is None
        edited = {core: list(names_on) for core, names_on in assignment.items()}
        edited_pstates = None if pstates is None else dict(pstates)
        if kind == "add":
            # Greedy: every candidate of the state's scan, P-state
            # options on idle hetero cores included.
            name = data.draw(names)
            for candidate in _candidate_scan(state, num_cores, hetero, None):
                core, option = candidate[0], candidate[1]
                expected_pstates = None if pstates is None else dict(pstates)
                if option is not None:
                    expected_pstates[core] = option
                expected = {c: list(v) for c, v in assignment.items()}
                expected[core].append(name)
                assert _with_name(candidate, name) == canonical_state(
                    expected, expected_pstates
                )
            return
        if kind == "move-in":
            # Anneal: a name moves onto a core (idle cores start at 0).
            core = data.draw(st.integers(0, num_cores - 1))
            name = data.draw(names)
            spliced = _edit(state, core, plain, add=name)
            edited[core].append(name)
        elif kind == "remove":
            core = data.draw(st.sampled_from(busy))
            name = data.draw(st.sampled_from(assignment[core]))
            spliced = _edit(state, core, plain, drop=name)
            edited[core].remove(name)
        elif kind == "flip":
            core = data.draw(st.sampled_from(busy))
            pstate = data.draw(st.integers(0, hetero.pstate_counts[core] - 1))
            spliced = _edit(state, core, plain, pstate=pstate)
            edited_pstates[core] = pstate
        else:
            # Anneal swap: x leaves ``first`` and y joins it; when y came
            # from another core of this machine, x joins that one.  A
            # core holding x alone is vacated and refilled in one trial,
            # and keeps its P-state.
            first = data.draw(st.sampled_from(busy))
            x = data.draw(st.sampled_from(assignment[first]))
            y = data.draw(names.filter(lambda name: name != x))
            spliced = _edit(state, first, plain, drop=x, add=y)
            edited[first].remove(x)
            edited[first].append(y)
            others = [c for c in busy if c != first and y in assignment[c]]
            if others and data.draw(st.booleans()):
                second = data.draw(st.sampled_from(others))
                spliced = _edit(spliced, second, plain, drop=y, add=x)
                edited[second].remove(y)
                edited[second].append(x)
        assert spliced == canonical_state(edited, edited_pstates)


# ----------------------------------------------------------------------
# Enumeration guard
# ----------------------------------------------------------------------
class TestEnumerationGuard:
    def test_candidate_bound(self, suite, power_model):
        # The bound is the raw cores ** processes enumeration size.
        with pytest.raises(AssignmentTooLargeError) as excinfo:
            _solve(suite, power_model, ["mcf"] * 10, "exhaustive",
                   machine="4-core-server")
        assert excinfo.value.candidate_count == 4**10

    def test_check_raises_over_cap(self, suite, power_model):
        request = AssignmentRequest(
            processes=tuple(NAMES * 3),
            machine="2-core-workstation",
            sets=32,
            solver="exhaustive",
        )
        with pytest.raises(AssignmentTooLargeError) as excinfo:
            solve(
                request,
                suite.features,
                suite.profiles,
                power_model,
                max_candidates=1000,
            )
        error = excinfo.value
        assert error.candidate_count == 2**12
        assert error.max_candidates == 1000
        assert "greedy" in str(error)

    def test_v1_pick_over_cap_points_at_greedy_true(self, suite, power_model):
        # The /v1 exhaustive pick is the same search behind the same
        # guard, but its way out is /v1's greedy flag.
        with pytest.raises(AssignmentTooLargeError) as excinfo:
            _pick_assignment_impl(
                ["mcf"] * 10, suite, power_model, "4-core-server", sets=32
            )
        error = excinfo.value
        assert error.candidate_count == 4**10
        assert error.max_candidates == DEFAULT_MAX_CANDIDATES
        message = str(error)
        assert "greedy=true" in message and "repro assign --greedy" in message
        assert f"{4**10} placements" in message
        assert "max_candidates" not in message and "solver=" not in message

    def test_default_cap_allows_small_instances(self, suite, power_model):
        assert 4**6 < DEFAULT_MAX_CANDIDATES
        result = _solve(suite, power_model, NAMES + NAMES[:2], "exhaustive",
                        machine="4-core-server")
        assert result.solver == "exhaustive"

    def test_fleet_exhaustive_raises_instead_of_hanging(
        self, suite, power_model
    ):
        fleet = FleetSpec(
            groups=(MachineGroup(machine="4-core-server", count=64, sets=32),)
        )
        request = AssignmentRequest(
            processes=tuple(NAMES * 4), fleet=fleet, solver="exhaustive"
        )
        with pytest.raises(AssignmentTooLargeError, match="greedy"):
            solve_assignment(request, suite, power_model)

    def test_capacity_overflow_is_a_configuration_error(
        self, suite, power_model
    ):
        request = AssignmentRequest(
            processes=tuple(NAMES * 2),
            machine="2-core-workstation",
            sets=32,
            max_per_core=1,
        )
        with pytest.raises(ConfigurationError, match="capacity|slots|fit"):
            solve_assignment(request, suite, power_model)


# ----------------------------------------------------------------------
# Objectives and constraints
# ----------------------------------------------------------------------
class TestObjectives:
    def test_fleet_score_directions(self):
        assert fleet_score("min-power", 10.0, 5.0) == 10.0
        assert fleet_score("max-throughput", 10.0, 5.0) == -5.0
        assert fleet_score("min-energy-per-instruction", 10.0, 5.0) == 2.0
        assert fleet_score(
            "throughput-under-watts-budget", 10.0, 5.0, power_budget_watts=20.0
        ) == -5.0

    def test_global_budget_makes_overruns_infeasible(self):
        assert fleet_score(
            "throughput-under-watts-budget", 30.0, 5.0, power_budget_watts=20.0
        ) == float("inf")
        assert fleet_score(
            "min-power", 30.0, 5.0, power_budget_watts=20.0
        ) == float("inf")

    def test_budget_objective_end_to_end(self, suite, power_model):
        request = AssignmentRequest(
            processes=("mcf", "gzip"),
            machine="2-core-workstation",
            sets=32,
            objective="throughput-under-watts-budget",
            power_budget_watts=500.0,
        )
        result = solve_assignment(request, suite, power_model)
        assert result.predicted_watts <= 500.0
        assert result.score < 0  # negated throughput


# ----------------------------------------------------------------------
# Solved co-runs kept on the suite
# ----------------------------------------------------------------------
def _big_little_fleet():
    return FleetSpec(
        groups=(
            MachineGroup(
                machine="4-core-server",
                count=2,
                sets=32,
                hetero=big_little_spec("4-core-server"),
            ),
            MachineGroup(machine="2-core-workstation", count=2, sets=32),
        )
    )


def _anneal_request(
    seed=3, objective="min-energy-per-instruction", processes=tuple(NAMES * 2)
):
    return AssignmentRequest(
        processes=processes,
        fleet=_big_little_fleet(),
        objective=objective,
        solver="anneal",
        max_per_core=1,
        max_iterations=60,
        seed=seed,
    )


def _stored_models(suite, fleet):
    """The suite's stored model for each cache associativity of ``fleet``."""
    ways = sorted(
        {
            domain.geometry.ways
            for group in fleet.groups
            for domain in STANDARD_MACHINES[group.machine](sets=group.sets).domains
        }
    )
    return [suite.solved_coruns.model(w, suite.features) for w in ways]


def _stored_pricing(suite, power_model, fleet):
    """The suite's stored ``(CombinedModel, pricer)`` per group.

    The pricer is the object whose ``state_metrics`` the config calls:
    a ``HeteroPricer`` for a hetero group, else the model itself.
    """
    evaluator = FleetEvaluator(
        suite.features,
        suite.profiles,
        power_model,
        fleet,
        models=suite.solved_coruns,
    )
    return [
        (config.combined, config.price.__self__)
        for config in evaluator.group_configs
    ]


@pytest.fixture
def batch_rows(monkeypatch):
    """``(model, mixes)`` of every ``PerformanceModel.predict_batch`` call."""
    calls = []
    original = PerformanceModel.predict_batch

    def spy(self, mixes, *args, **kwargs):
        calls.append((self, [tuple(mix) for mix in mixes]))
        return original(self, mixes, *args, **kwargs)

    monkeypatch.setattr(PerformanceModel, "predict_batch", spy)
    return calls


def _fit_power_model(seed):
    rng = np.random.default_rng(seed)
    training = PowerTrainingSet()
    for _ in range(40):
        rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
        power = 11.0 + 8e-8 * rates[Event.L1_REFS] + 2e-7 * rates[Event.L2_MISSES]
        training.add(rates, power * rng.uniform(0.9, 1.1))
    return training


class TestSolvedCoRuns:
    def test_later_solves_reuse_the_stored_models(self, power_model):
        suite = _oracle_suite()
        request = _anneal_request()
        first = solve_assignment(request, suite, power_model)
        models = _stored_models(suite, request.fleet)
        before = [model.cache_stats for model in models]
        assert all(stats.misses > 0 for stats in before)
        second = solve_assignment(request, suite, power_model)
        again = _stored_models(suite, request.fleet)
        assert all(a is b for a, b in zip(models, again))
        # A warm repeat re-probes no co-run: priming sends nothing and
        # every state price comes from the stored CombinedModels.
        for old, model in zip(before, again):
            assert model.cache_stats.misses == old.misses
            assert model.cache_stats.hits == old.hits
        assert first == second == solve_assignment(
            request, _oracle_suite(), power_model
        )

    def test_later_solves_reuse_the_stored_pricing(self, power_model):
        suite = _oracle_suite()
        request = _anneal_request()
        first = solve_assignment(request, suite, power_model)
        stored = _stored_pricing(suite, power_model, request.fleet)
        hits = [combined.domain_cache_stats.hits for combined, _ in stored]
        second = solve_assignment(request, suite, power_model)
        again = _stored_pricing(suite, power_model, request.fleet)
        for (combined, pricer), (same_combined, same_pricer) in zip(stored, again):
            assert same_combined is combined and same_pricer is pricer
        assert all(
            combined.domain_cache_stats.hits > before
            for (combined, _), before in zip(again, hits)
        )
        assert isinstance(stored[0][1], HeteroPricer)  # the big.LITTLE group
        assert first == second
        assert first.evaluations == second.evaluations

    @pytest.mark.parametrize("change", ["refit", "other-model", "profile"])
    def test_changed_pricing_inputs_get_a_fresh_entry(self, change):
        request = _anneal_request(objective="max-throughput")
        suite = _oracle_suite()
        power = CorePowerModel().fit(_fit_power_model(1), idle_core_watts=11.0)
        solve_assignment(request, suite, power)
        before = _stored_pricing(suite, power, request.fleet)
        if change == "refit":
            power.fit(_fit_power_model(2), idle_core_watts=12.0)
        elif change == "other-model":
            # Equal coefficients, but the old object could be refit
            # under the entry later.
            power = CorePowerModel().fit(_fit_power_model(1), idle_core_watts=11.0)
        else:
            old = suite.profiles["mcf"]
            suite.profiles["mcf"] = ProfileVector(
                name="mcf",
                p_alone=old.p_alone + 5.0,
                l1rpi=old.l1rpi,
                l2rpi=old.l2rpi,
                brpi=old.brpi,
                fppi=old.fppi,
            )
        plan = solve_assignment(request, suite, power)
        after = _stored_pricing(suite, power, request.fleet)
        assert all(a is not b for (a, _), (b, _) in zip(before, after))
        fresh = _oracle_suite()
        fresh.profiles["mcf"] = suite.profiles["mcf"]
        assert plan == solve_assignment(request, fresh, power)

    def test_store_stays_out_of_the_document_and_value(self, power_model):
        suite = _oracle_suite()
        solve_assignment(_anneal_request(), suite, power_model)
        # Same field values, no store (histograms compare by identity).
        twin = ProfileSuiteResult(
            machine=suite.machine,
            features=dict(suite.features),
            profiles=dict(suite.profiles),
        )
        assert suite == twin
        assert repr(suite) == repr(twin)
        assert suite.to_dict() == twin.to_dict()
        shallow = copy.copy(suite)
        assert shallow == suite
        unpickled = pickle.loads(pickle.dumps(suite))
        assert unpickled.to_dict() == suite.to_dict()
        for other in (shallow, unpickled):
            assert "_solved_coruns" not in vars(other)
            assert other.solved_coruns is not suite.solved_coruns

    def test_store_is_freed_with_its_suite(self, power_model):
        suite = _oracle_suite()
        request = _anneal_request()
        solve_assignment(request, suite, power_model)
        refs = [weakref.ref(model) for model in _stored_models(suite, request.fleet)]
        del suite
        gc.collect()
        assert refs and all(ref() is None for ref in refs)

    def test_dropped_store_frees_its_pricing_without_a_collection(
        self, power_model
    ):
        """No reference cycle runs through a pricer and its model.

        With the cyclic collector off, only reference counting frees
        the store's ``CombinedModel``s, so a pricer -> model -> pricer
        cycle would keep each one alive (and its memo) after the store
        is dropped.
        """
        suite = _oracle_suite()
        request = _anneal_request()
        enabled = gc.isenabled()
        gc.disable()
        try:
            store = SolvedCoRuns()
            solve(
                request, suite.features, suite.profiles, power_model, models=store
            )
            configs = FleetEvaluator(
                suite.features,
                suite.profiles,
                power_model,
                request.fleet,
                models=store,
            ).group_configs
            assert configs[0].hetero is not None  # the big.LITTLE group
            refs = [weakref.ref(config.combined) for config in configs]
            assert all(ref() is not None for ref in refs)
            del configs, store
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()

    def test_replaced_feature_gets_a_fresh_model(self, power_model):
        suite = _oracle_suite()
        request = _anneal_request()
        solve_assignment(request, suite, power_model)
        before = _stored_models(suite, request.fleet)
        faster = FeatureVector.oracle(BENCHMARKS["mcf"], 4e8)
        suite.features["mcf"] = faster
        plan = solve_assignment(request, suite, power_model)
        after = _stored_models(suite, request.fleet)
        assert all(a is not b for a, b in zip(before, after))
        assert all(model.feature("mcf") is faster for model in after)
        rebuilt = _oracle_suite()
        rebuilt.features["mcf"] = faster
        assert plan == solve_assignment(request, rebuilt, power_model)

    def test_warm_solve_sends_no_rows_to_the_batch_solver(
        self, power_model, batch_rows
    ):
        suite = _oracle_suite()
        request = _anneal_request()
        first = solve_assignment(request, suite, power_model)
        assert sum(len(mixes) for _, mixes in batch_rows) > 0
        del batch_rows[:]
        second = solve_assignment(request, suite, power_model)
        assert sum(len(mixes) for _, mixes in batch_rows) == 0
        evaluator = FleetEvaluator(
            suite.features,
            suite.profiles,
            power_model,
            request.fleet,
            models=suite.solved_coruns,
        )
        assert evaluator.prime(request.processes) == 0
        assert first == second

    def test_added_process_primes_only_the_mixes_holding_it(
        self, power_model, batch_rows
    ):
        names = NAMES + ["equake"]
        suite = _oracle_suite(names)
        solve_assignment(_anneal_request(), suite, power_model)
        grown = _anneal_request(processes=tuple(NAMES * 2) + ("equake",))
        del batch_rows[:]
        plan = solve_assignment(grown, suite, power_model)
        evaluator = FleetEvaluator(
            suite.features, suite.profiles, power_model, grown.fleet
        )
        holding = [m for m in evaluator.closure_mixes(names) if "equake" in m]
        # One batch per stored model (one per cache associativity).
        models = _stored_models(suite, grown.fleet)
        assert [model for model, _ in batch_rows] == models
        assert all(mixes == holding for _, mixes in batch_rows)
        assert plan == solve_assignment(grown, _oracle_suite(names), power_model)

    def test_replaced_feature_primes_again(self, power_model, batch_rows):
        suite = _oracle_suite()
        request = _anneal_request()
        solve_assignment(request, suite, power_model)
        cold = sorted(len(mixes) for _, mixes in batch_rows)
        del batch_rows[:]
        suite.features["mcf"] = FeatureVector.oracle(BENCHMARKS["mcf"], 4e8)
        solve_assignment(request, suite, power_model)
        assert sorted(len(mixes) for _, mixes in batch_rows) == cold
        assert [model for model, _ in batch_rows] == _stored_models(
            suite, request.fleet
        )

    def test_concurrent_solves_match_serial_solves(self, power_model):
        requests = [
            _anneal_request(seed=seed, objective=objective)
            for seed, objective in (
                (5, "min-energy-per-instruction"),
                (9, "max-throughput"),
                (13, "min-power"),
                (17, "max-throughput"),
            )
        ]
        serial = [
            solve_assignment(request, _oracle_suite(), power_model)
            for request in requests
        ]
        shared = _oracle_suite()
        barrier = threading.Barrier(len(requests))
        plans = [None] * len(requests)

        def run(index):
            barrier.wait()
            plans[index] = solve_assignment(requests[index], shared, power_model)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(len(requests))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert plans == serial
