"""Write ``tests/data/answers.json``: fleet plans pinned bit-for-bit.

Usage (from the repository root)::

    PYTHONPATH=src python tests/make_answers.py

Each case stores the :class:`~repro.api.AssignmentRequest` document it
solved and the plan the code produced: placements, P-states, the
anytime trace, and every float as ``float.hex``.
``tests/test_answers.py`` re-solves each stored request and checks the
plan for exact equality.  Regenerate the file only in a change that
alters answers on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List

import numpy as np

from repro.api import (
    AssignmentRequest,
    FleetAssignment,
    FleetSpec,
    MachineGroup,
    ProfileSuiteResult,
    solve_assignment,
)
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.events import Event, RATE_EVENTS
from repro.fleet import CANONICAL_OBJECTIVES
from repro.hetero import big_little_spec
from repro.workloads.spec import BENCHMARKS

PATH = pathlib.Path(__file__).parent / "data" / "answers.json"

NAMES = ("mcf", "gzip", "art", "vpr", "equake")
PROCESSES = ("mcf", "gzip", "art", "vpr", "equake", "mcf", "art", "gzip", "vpr")
ANNEAL_ITERATIONS = 120
SEED = 11
#: The big.LITTLE cases run under this share of an unconstrained
#: max-throughput greedy draw.
BUDGET_SHARE = 0.97


def build_suite() -> ProfileSuiteResult:
    """Oracle features and synthetic power profiles for :data:`NAMES`."""
    return ProfileSuiteResult(
        machine="4-core-server",
        features={n: FeatureVector.oracle(BENCHMARKS[n], 2e8) for n in NAMES},
        profiles={
            n: ProfileVector(
                name=n,
                p_alone=20.0 + 2.0 * i,
                l1rpi=0.4,
                l2rpi=0.05,
                brpi=0.2,
                fppi=0.01 * i,
            )
            for i, n in enumerate(NAMES)
        },
    )


def build_power_model() -> CorePowerModel:
    rng = np.random.default_rng(0)
    training = PowerTrainingSet()
    for _ in range(40):
        rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
        power = 11.0 + 8e-8 * rates[Event.L1_REFS] + 2e-7 * rates[Event.L2_MISSES]
        training.add(rates, power)
    return CorePowerModel().fit(training, idle_core_watts=11.0)


def homogeneous_fleet() -> FleetSpec:
    return FleetSpec(
        groups=(
            MachineGroup(machine="4-core-server", count=2, sets=32),
            MachineGroup(machine="2-core-workstation", count=2, sets=32),
        )
    )


def big_little_fleet() -> FleetSpec:
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


def answer_of(plan: FleetAssignment) -> Dict:
    """The plan as plain JSON, floats as ``float.hex``."""
    return {
        "objective": plan.objective,
        "solver": plan.solver,
        "refinement": plan.refinement,
        "machines": [
            {
                "group": machine.group,
                "index": machine.index,
                "assignment": {
                    str(core): list(names)
                    for core, names in sorted(machine.assignment.items())
                },
                "pstates": None
                if machine.pstates is None
                else {
                    str(core): index
                    for core, index in sorted(machine.pstates.items())
                },
                "watts": machine.predicted_watts.hex(),
                "ips": machine.predicted_ips.hex(),
            }
            for machine in plan.machines
        ],
        "watts": plan.predicted_watts.hex(),
        "ips": plan.predicted_ips.hex(),
        "score": plan.score.hex(),
        "evaluations": plan.evaluations,
        "iterations": plan.iterations,
        "improvements": [[i, score.hex()] for i, score in plan.improvements],
    }


def requests(suite, power) -> Dict[str, AssignmentRequest]:
    cases: Dict[str, AssignmentRequest] = {}
    loose = solve_assignment(
        AssignmentRequest(
            processes=PROCESSES,
            fleet=big_little_fleet(),
            objective="max-throughput",
            solver="greedy",
            max_per_core=1,
        ),
        suite,
        power,
    )
    budget = BUDGET_SHARE * loose.predicted_watts
    for solver in ("greedy", "anneal"):
        iterations = ANNEAL_ITERATIONS if solver == "anneal" else None
        for objective in CANONICAL_OBJECTIVES:
            homogeneous_budget = (
                None if objective != "throughput-under-watts-budget" else 1e4
            )
            cases[f"homogeneous/{solver}/{objective}"] = AssignmentRequest(
                processes=PROCESSES,
                fleet=homogeneous_fleet(),
                objective=objective,
                solver=solver,
                power_budget_watts=homogeneous_budget,
                max_iterations=iterations,
                seed=SEED,
            )
            cases[f"big_little/{solver}/{objective}"] = AssignmentRequest(
                processes=PROCESSES,
                fleet=big_little_fleet(),
                objective=objective,
                solver=solver,
                power_budget_watts=budget,
                max_per_core=1,
                max_iterations=iterations,
                seed=SEED,
            )
    cases["single/exhaustive/min-energy-per-instruction"] = AssignmentRequest(
        processes=("mcf", "gzip", "art"),
        fleet=FleetSpec.single("2-core-workstation", sets=32),
        objective="min-energy-per-instruction",
        solver="exhaustive",
    )
    return cases


def main() -> None:
    suite, power = build_suite(), build_power_model()
    corpus: List[Dict] = []
    for name, request in requests(suite, power).items():
        plan = solve_assignment(request, suite, power)
        corpus.append(
            {"name": name, "request": request.to_dict(), "answer": answer_of(plan)}
        )
    PATH.write_text(json.dumps({"cases": corpus}, indent=1) + "\n")
    print(f"wrote {len(corpus)} cases to {PATH}")


if __name__ == "__main__":
    main()
