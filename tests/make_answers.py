"""Write ``tests/data/answers.json``: fleet plans pinned bit-for-bit.

Usage (from the repository root)::

    PYTHONPATH=src python tests/make_answers.py           # rewrite the file
    PYTHONPATH=src python tests/make_answers.py --report  # diff, write nothing

Each case stores the :class:`~repro.api.AssignmentRequest` document it
solved and the plan the code produced: placements, P-states, the
anytime trace, and every float as ``float.hex``.  Each entry of the
``states`` section is one seeded machine state priced with
:meth:`~repro.fleet.evaluator.FleetEvaluator.machine_metrics`: idle
machines, a lone busy core per domain, contended domains and every
P-state index, on plain, big.LITTLE and unit-spec machines.  The
``picks`` section holds ``/v1`` decisions of
:func:`repro.api._pick_assignment_impl` on every catalog machine,
exhaustive and greedy, under each legacy objective.
``tests/test_answers.py`` re-solves each stored request, re-prices
each stored state and re-picks each stored pick, and checks all three
for exact equality.  Regenerate the file only in a change that
alters answers on purpose, and say why in CHANGES.md.

``--report`` compares the code's answers with the stored file instead:
per section, how many entries changed, how many of those changed a
placement (any field that is not a float) and how many moved floats
only, and the largest relative float move.  It exits with status 1
when any section changed, 0 when every answer is the stored one.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import re
import sys
from typing import Dict, List, Tuple

import numpy as np

from repro.api import (
    AssignmentPick,
    AssignmentRequest,
    FleetAssignment,
    FleetSpec,
    MachineGroup,
    ProfileSuiteResult,
    _pick_assignment_impl,
    solve_assignment,
)
from repro.core.assignment import OBJECTIVES
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.events import Event, RATE_EVENTS
from repro.fleet import CANONICAL_OBJECTIVES
from repro.fleet.evaluator import FleetEvaluator
from repro.hetero import big_little_spec, unit_spec
from repro.machine.topology import STANDARD_MACHINES
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


#: The machines the ``states`` section prices: ``(label, machine,
#: hetero spec)``, one fleet group each.
STATE_MACHINES = (
    ("plain/4-core-server", "4-core-server", None),
    ("plain/2-core-workstation", "2-core-workstation", None),
    ("big_little/4-core-server", "4-core-server", big_little_spec("4-core-server")),
    ("unit/4-core-server", "4-core-server", unit_spec("4-core-server")),
)
#: Full-machine states drawn at random per machine.
RANDOM_STATES = 6


def state_evaluator(suite, power, models=None) -> FleetEvaluator:
    """A primed evaluator with one group per :data:`STATE_MACHINES` row.

    ``models`` is the :class:`~repro.fleet.SolvedCoRuns` store to price
    through (``None``: a private one).
    """
    fleet = FleetSpec(
        groups=tuple(
            MachineGroup(machine=machine, sets=32, hetero=hetero)
            for _, machine, hetero in STATE_MACHINES
        )
    )
    evaluator = FleetEvaluator(
        suite.features, suite.profiles, power, fleet, models=models
    )
    evaluator.prime(NAMES)
    return evaluator


def machine_states(machine: str, hetero, rng) -> List[Dict]:
    """Seeded states of one machine: ``{"kind", "assignment", "pstates"}``.

    Covers the idle machine; a lone busy core in each domain with 1-3
    time-sharing names; every contended domain, including two copies
    of one name; and random full machines.  Hetero states enumerate
    every P-state index of the busy cores, so big cores at p0 (unit
    points inside a non-unit spec) appear too.  Plain machines carry
    ``pstates`` of ``None``.
    """
    topology = STANDARD_MACHINES[machine](sets=32)

    def draw(count: int) -> List[str]:
        return [str(name) for name in rng.choice(NAMES, size=count)]

    def with_pstates(kind: str, assignment: Dict[int, List[str]]) -> List[Dict]:
        if hetero is None:
            return [{"kind": kind, "assignment": assignment, "pstates": None}]
        busy = sorted(assignment)
        return [
            {
                "kind": kind,
                "assignment": assignment,
                "pstates": dict(zip(busy, choice)),
            }
            for choice in itertools.product(
                *(range(hetero.pstate_counts[core]) for core in busy)
            )
        ]

    states = with_pstates("idle", {})
    for domain in topology.domains:
        for core in domain.core_ids:
            for count in (1, 2, 3):
                states += with_pstates("lone", {core: draw(count)})
        if len(domain.core_ids) < 2:
            continue
        first, second = domain.core_ids[:2]
        name = draw(1)
        states += with_pstates("same-name", {first: name, second: list(name)})
        for counts in ((1, 1), (1, 2), (3, 2)):
            states += with_pstates(
                "contended", {first: draw(counts[0]), second: draw(counts[1])}
            )
    for _ in range(RANDOM_STATES):
        assignment = {
            core: draw(int(rng.integers(1, 4)))
            for core in range(topology.num_cores)
        }
        pstates = None
        if hetero is not None:
            pstates = {
                core: int(rng.integers(hetero.pstate_counts[core]))
                for core in assignment
            }
        states.append(
            {"kind": "random", "assignment": assignment, "pstates": pstates}
        )
    return states


def price_state(evaluator: FleetEvaluator, group: int, state: Dict) -> Dict:
    """``state``'s ``watts`` and ``ips`` as ``float.hex``."""
    pstates = state["pstates"]
    watts, ips = evaluator.machine_metrics(
        group,
        {int(core): names for core, names in state["assignment"].items()},
        None if pstates is None else {int(c): i for c, i in pstates.items()},
    )
    return {"watts": watts.hex(), "ips": ips.hex()}


def states(suite, power) -> List[Dict]:
    """The ``states`` section: every machine's seeded states, priced."""
    evaluator = state_evaluator(suite, power)
    rng = np.random.default_rng(SEED)
    entries: List[Dict] = []
    for group, (label, machine, hetero) in enumerate(STATE_MACHINES):
        for index, state in enumerate(machine_states(machine, hetero, rng)):
            entry = {
                "name": f"{label}/{state['kind']}/{index}",
                "group": group,
                "assignment": {
                    str(core): names
                    for core, names in sorted(state["assignment"].items())
                },
                "pstates": None
                if state["pstates"] is None
                else {
                    str(core): pstate
                    for core, pstate in sorted(state["pstates"].items())
                },
            }
            entry.update(price_state(evaluator, group, entry))
            entries.append(entry)
    return entries


#: Process lists of the ``picks`` section: 1-5 processes, with
#: duplicates.
PICK_PROCESSES = (
    ("mcf",),
    ("mcf", "mcf"),
    ("gzip", "art"),
    ("mcf", "art", "mcf"),
    ("vpr", "gzip", "equake", "gzip"),
    ("art", "mcf", "vpr", "art", "equake"),
)


def pick_of(pick: AssignmentPick) -> Dict:
    """A ``/v1`` pick as plain JSON, floats as ``float.hex``."""
    decision = pick.decision
    return {
        "strategy": pick.strategy,
        "assignment": {
            str(core): list(names)
            for core, names in sorted(decision.assignment.items())
        },
        "watts": decision.predicted_watts.hex(),
        "ips": decision.predicted_ips.hex(),
        "score": decision.score.hex(),
        "candidates_evaluated": decision.candidates_evaluated,
    }


def pick_answer(suite, power, entry: Dict) -> Dict:
    """Pick ``entry``'s processes again; its answer fields."""
    return pick_of(
        _pick_assignment_impl(
            entry["processes"],
            suite,
            power,
            entry["machine"],
            sets=entry["sets"],
            objective=entry["objective"],
            greedy=entry["strategy"] == "greedy",
        )
    )


def picks(suite, power) -> List[Dict]:
    """The ``picks`` section: every machine, strategy, objective and list."""
    entries: List[Dict] = []
    for machine in STANDARD_MACHINES:
        for strategy in ("exhaustive", "greedy"):
            for objective in OBJECTIVES:
                for processes in PICK_PROCESSES:
                    entry = {
                        "name": f"{machine}/{strategy}/{objective}/"
                        + "+".join(processes),
                        "machine": machine,
                        "sets": 32,
                        "strategy": strategy,
                        "objective": objective,
                        "processes": list(processes),
                    }
                    entry["answer"] = pick_answer(suite, power, entry)
                    entries.append(entry)
    return entries


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
    # Without max_per_core, P-stated big.LITTLE cores can time-share:
    # the anneal then moves names on and off busy hetero cores.
    for objective in CANONICAL_OBJECTIVES:
        cases[f"big_little_shared/anneal/{objective}"] = AssignmentRequest(
            processes=PROCESSES,
            fleet=big_little_fleet(),
            objective=objective,
            solver="anneal",
            power_budget_watts=budget,
            max_iterations=ANNEAL_ITERATIONS,
            seed=SEED,
        )
    cases["single/exhaustive/min-energy-per-instruction"] = AssignmentRequest(
        processes=("mcf", "gzip", "art"),
        fleet=FleetSpec.single("2-core-workstation", sets=32),
        objective="min-energy-per-instruction",
        solver="exhaustive",
    )
    return cases


def corpus(suite, power) -> Dict[str, List[Dict]]:
    """Every section of the answer file, as the code answers now."""
    cases: List[Dict] = []
    for name, request in requests(suite, power).items():
        plan = solve_assignment(request, suite, power)
        cases.append(
            {"name": name, "request": request.to_dict(), "answer": answer_of(plan)}
        )
    return {
        "cases": cases,
        "states": states(suite, power),
        "picks": picks(suite, power),
    }


_HEX_FLOAT = re.compile(r"-?0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]?\d+")


def compare(old, new) -> Tuple[bool, float]:
    """``(placement changed, largest relative float move)``.

    Floats are the ``float.hex`` strings; every other leaf, and the
    shape of the document, is placement.
    """
    if isinstance(old, str) and isinstance(new, str):
        if _HEX_FLOAT.fullmatch(old) and _HEX_FLOAT.fullmatch(new):
            a, b = float.fromhex(old), float.fromhex(new)
            return False, abs(b - a) / abs(a) if a else float(a != b)
        return old != new, 0.0
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return True, 0.0
        pairs = [(old[key], new[key]) for key in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return True, 0.0
        pairs = list(zip(old, new))
    else:
        return old != new, 0.0
    placed, move = False, 0.0
    for a, b in pairs:
        changed, moved = compare(a, b)
        placed, move = placed or changed, max(move, moved)
    return placed, move


def report(stored: Dict[str, List[Dict]], fresh: Dict[str, List[Dict]]) -> bool:
    """Print, per section, what answering again would change.

    Returns whether any entry changed, appeared or is gone.
    """
    moved = False
    for section, entries in fresh.items():
        before = {entry["name"]: entry for entry in stored.get(section, [])}
        changed = placements = 0
        largest = 0.0
        for entry in entries:
            old = before.pop(entry["name"], None)
            if old == entry:
                continue
            changed += 1
            placed, move = (True, 0.0) if old is None else compare(old, entry)
            placements += placed
            largest = max(largest, move)
        print(
            f"{section}: {changed} of {len(entries)} entries changed "
            f"({placements} placements, {changed - placements} floats only), "
            f"largest relative float move {largest:.3g}"
            + (f"; {len(before)} stored entries gone" if before else "")
        )
        moved = moved or bool(changed or before)
    return moved


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--report",
        action="store_true",
        help="compare with the stored file per section; write nothing",
    )
    args = parser.parse_args()
    fresh = corpus(build_suite(), build_power_model())
    if args.report:
        sys.exit(1 if report(json.loads(PATH.read_text()), fresh) else 0)
    PATH.write_text(json.dumps(fresh, indent=1) + "\n")
    print(
        f"wrote {len(fresh['cases'])} cases, {len(fresh['states'])} states and "
        f"{len(fresh['picks'])} picks to {PATH}"
    )


if __name__ == "__main__":
    main()
