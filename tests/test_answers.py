"""Answer corpus: fleet plans must not change by a single bit.

``tests/data/answers.json`` (written by ``tests/make_answers.py``)
holds greedy and anneal plans under each of the four objectives, on a
small homogeneous fleet and on a big.LITTLE fleet under a watts
budget, anneal plans on that big.LITTLE fleet with time-shared cores
allowed, plus one tiny exhaustive case.  Every stored request is solved
again and compared exactly, floats as ``float.hex``.

Its ``states`` section pins single machine states, priced through
``FleetEvaluator.machine_metrics`` on plain, big.LITTLE and unit-spec
machines: every P-state index, lone and contended domains, and idle
machines.  Each is priced again and compared exactly.

Its ``picks`` section pins ``/v1`` assignment decisions
(``_pick_assignment_impl``, the path behind ``pick_assignment``,
``/v1/assign`` and ``repro assign``) on every catalog machine,
exhaustive and greedy, under the three legacy objectives.

All cases solve on one suite object, so most of them run on a store of
solved co-runs that earlier cases warmed; the last test pins that a
warm store and a cold one give equal plans.
"""

import json
import random

import pytest

from make_answers import (
    PATH,
    SEED,
    STATE_MACHINES,
    PICK_PROCESSES,
    answer_of,
    build_power_model,
    build_suite,
    pick_answer,
    price_state,
    state_evaluator,
)
from repro.api import AssignmentRequest, solve_assignment
from repro.core.assignment import OBJECTIVES
from repro.fleet import SolvedCoRuns
from repro.machine.topology import STANDARD_MACHINES

CORPUS = json.loads(PATH.read_text())
CASES = CORPUS["cases"]
STATES = CORPUS["states"]
PICKS = CORPUS["picks"]
PICK_GROUPS = [
    (machine, strategy)
    for machine in STANDARD_MACHINES
    for strategy in ("exhaustive", "greedy")
]


@pytest.fixture(scope="module")
def suite():
    return build_suite()


@pytest.fixture(scope="module")
def power_model():
    return build_power_model()


def test_corpus_covers_every_solver_objective_and_fleet():
    names = {case["name"] for case in CASES}
    assert len(names) == len(CASES) == 21
    for fleet in ("homogeneous", "big_little"):
        for solver in ("greedy", "anneal"):
            assert sum(
                name.startswith(f"{fleet}/{solver}/") for name in names
            ) == 4
    assert sum(name.startswith("big_little_shared/anneal/") for name in names) == 4
    assert any(name.startswith("single/exhaustive/") for name in names)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_plan_is_bit_identical(case, suite, power_model):
    request = AssignmentRequest.from_dict(case["request"])
    plan = solve_assignment(request, suite, power_model)
    assert json.loads(json.dumps(answer_of(plan))) == case["answer"]


def test_warm_store_plan_equals_cold_store_plan(power_model):
    request = AssignmentRequest.from_dict(
        next(
            case["request"]
            for case in CASES
            if case["name"] == "big_little/anneal/throughput-under-watts-budget"
        )
    )
    suite = build_suite()
    first = solve_assignment(request, suite, power_model)
    second = solve_assignment(request, suite, power_model)
    cold = solve_assignment(request, build_suite(), power_model)
    assert first == second == cold


@pytest.mark.parametrize(
    "group, label", list(enumerate(label for label, _, _ in STATE_MACHINES))
)
def test_state_prices_are_bit_identical(group, label, suite, power_model):
    stored = [entry for entry in STATES if entry["group"] == group]
    assert stored and all(entry["name"].startswith(label) for entry in stored)
    evaluator = state_evaluator(suite, power_model)
    repriced = [
        {**entry, **price_state(evaluator, group, entry)} for entry in stored
    ]
    assert repriced == stored


def test_shuffled_states_priced_through_shared_models_are_bit_identical(
    suite, power_model
):
    """One store prices every state, each from a fresh evaluator.

    The per-request state memo starts empty every time, so each state
    is priced by the store's long-lived ``CombinedModel``s, whose
    per-domain memo the earlier states (in shuffled order) warmed.
    """
    shuffled = list(STATES)
    random.Random(SEED).shuffle(shuffled)
    store = SolvedCoRuns()
    shared = None
    repriced = {}
    for entry in shuffled:
        evaluator = state_evaluator(suite, power_model, models=store)
        combined = [config.combined for config in evaluator.group_configs]
        shared = shared or combined
        assert all(a is b for a, b in zip(combined, shared))
        repriced[entry["name"]] = {
            **entry,
            **price_state(evaluator, entry["group"], entry),
        }
    assert repriced == {entry["name"]: entry for entry in STATES}
    # 4-core states share domains (an idle die, for one).
    assert all(
        model.domain_cache_stats.hits > 0
        for model in shared
        if model.topology.name == "4-core-server"
    )


def test_picks_cover_every_machine_strategy_and_objective():
    names = {entry["name"] for entry in PICKS}
    assert len(names) == len(PICKS)
    assert len(PICKS) == len(PICK_GROUPS) * len(OBJECTIVES) * len(
        PICK_PROCESSES
    )
    for machine, strategy in PICK_GROUPS:
        for objective in OBJECTIVES:
            assert sum(
                name.startswith(f"{machine}/{strategy}/{objective}/")
                for name in names
            ) == len(PICK_PROCESSES)


@pytest.mark.parametrize(
    "machine, strategy",
    PICK_GROUPS,
    ids=[f"{machine}/{strategy}" for machine, strategy in PICK_GROUPS],
)
def test_picks_are_bit_identical(machine, strategy, suite, power_model):
    stored = [
        entry
        for entry in PICKS
        if entry["machine"] == machine and entry["strategy"] == strategy
    ]
    repicked = [
        {**entry, "answer": pick_answer(suite, power_model, entry)}
        for entry in stored
    ]
    assert repicked == stored
