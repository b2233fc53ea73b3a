"""Scale of heterogeneous assignment with DVFS (``repro.hetero``).

Places a multi-hundred-process workload onto a fleet of big.LITTLE
machines (every core carries a P-state table) and measures, per
solver:

- **greedy** — wall-clock of the seeded one-pass packing, which now
  also chooses a P-state for every core it fills.
- **anneal** — wall-clock of the greedy pack plus simulated-annealing
  refinement whose move set includes P-state flips; its score never
  exceeds greedy's (asserted on every run), and the seeded run is
  bit-reproducible (also asserted, by solving twice).

The bench then re-solves under a power cap set *below* the unconstrained
optimum's draw.  The governor must shed watts through DVFS (or
consolidation) while staying feasible — the capped score can only be
worse than the uncapped one, and the predicted draw must respect the
cap.  Both are exact invariants, asserted on every run.

The exhaustive oracle is unreachable at this size (the P-state choices
multiply the placement space): the bench pins that asking for it raises
:class:`~repro.errors.AssignmentTooLargeError` immediately.

A suite object keeps the co-runs its solves priced, so the bench also
times a repeat of the anneal on the same suite (warm store) against the
same anneal on a freshly built suite (cold store).  Both plans must
equal the first anneal exactly; the times are reported, not gated.
"""

import sys
import time

from repro.analysis.tables import render_table
from repro.api import (
    AssignmentRequest,
    FleetSpec,
    MachineGroup,
    ProfileSuiteResult,
    solve_assignment,
)
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.errors import AssignmentTooLargeError
from repro.hetero import big_little_spec
from repro.workloads.spec import BENCHMARKS, PAPER_EIGHT

PROCESSES = 480
QUICK_PROCESSES = 96
ANNEAL_ITERATIONS = 400
QUICK_ANNEAL_ITERATIONS = 120
SEED = 42
MACHINE = "4-core-server"
#: The capped pass asks for this fraction of the unconstrained draw.
CAP_FRACTION = 0.97


def _suite() -> ProfileSuiteResult:
    names = sorted(PAPER_EIGHT)
    return ProfileSuiteResult(
        machine=MACHINE,
        features={
            name: FeatureVector.oracle(BENCHMARKS[name], 2e8) for name in names
        },
        profiles={
            name: ProfileVector(
                name=name,
                p_alone=20.0 + 2.0 * i,
                l1rpi=0.4,
                l2rpi=0.05,
                brpi=0.2,
                fppi=0.01 * i,
            )
            for i, name in enumerate(names)
        },
    )


def _power_model() -> CorePowerModel:
    import numpy as np

    from repro.events import Event, RATE_EVENTS

    rng = np.random.default_rng(0)
    training = PowerTrainingSet()
    for _ in range(40):
        rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
        power = 11.0 + 8e-8 * rates[Event.L1_REFS] + 2e-7 * rates[Event.L2_MISSES]
        training.add(rates, power)
    return CorePowerModel().fit(training, idle_core_watts=11.0)


def _fleet(process_count: int) -> FleetSpec:
    # One big.LITTLE machine class, sized so every process fits at one
    # per core with a little slack for consolidation moves.
    machines = (process_count + 3) // 4 + 1
    return FleetSpec(
        groups=(
            MachineGroup(
                machine=MACHINE,
                count=machines,
                sets=32,
                hetero=big_little_spec(MACHINE),
            ),
        )
    )


def _pstate_histogram(result):
    counts = {}
    for machine in result.machines:
        if machine.pstates is None:
            continue
        for core, names in machine.assignment.items():
            if not names:
                continue
            level = machine.pstates.get(core, 0)
            counts[level] = counts.get(level, 0) + 1
    return dict(sorted(counts.items()))


def _placed(result) -> int:
    return sum(
        len(core_names)
        for machine in result.machines
        for core_names in machine.assignment.values()
    )


def _measure(quick: bool):
    suite = _suite()
    power_model = _power_model()
    count = QUICK_PROCESSES if quick else PROCESSES
    iterations = QUICK_ANNEAL_ITERATIONS if quick else ANNEAL_ITERATIONS
    names = sorted(PAPER_EIGHT)
    processes = tuple(names[i % len(names)] for i in range(count))
    fleet = _fleet(count)
    loose_budget = fleet.total_machines * 1e6

    def run(solver, budget, on=suite, **kwargs):
        request = AssignmentRequest(
            processes=processes,
            fleet=fleet,
            solver=solver,
            objective="throughput-under-watts-budget",
            power_budget_watts=budget,
            max_per_core=1,
            seed=SEED,
            **kwargs,
        )
        start = time.perf_counter()
        result = solve_assignment(request, on, power_model)
        return result, time.perf_counter() - start

    greedy, greedy_s = run("greedy", loose_budget)
    anneal, anneal_s = run("anneal", loose_budget, max_iterations=iterations)
    anneal_again, warm_s = run("anneal", loose_budget, max_iterations=iterations)
    anneal_cold, cold_s = run(
        "anneal", loose_budget, on=_suite(), max_iterations=iterations
    )

    capped_budget = anneal.predicted_watts * CAP_FRACTION
    capped, capped_s = run("anneal", capped_budget, max_iterations=iterations)

    oracle_error = None
    try:
        run("exhaustive", loose_budget)
    except AssignmentTooLargeError as error:
        oracle_error = error

    return {
        "processes": count,
        "fleet": fleet,
        "iterations": iterations,
        "greedy": greedy,
        "greedy_s": greedy_s,
        "anneal": anneal,
        "anneal_s": anneal_s,
        "anneal_again": anneal_again,
        "warm_s": warm_s,
        "anneal_cold": anneal_cold,
        "cold_s": cold_s,
        "capped": capped,
        "capped_s": capped_s,
        "capped_budget": capped_budget,
        "ratio": anneal.score / greedy.score if greedy.score else 1.0,
        "oracle_error": oracle_error,
    }


def _render(result) -> str:
    rows = [
        (
            "greedy",
            result["greedy_s"],
            result["greedy"].score,
            result["greedy"].predicted_watts,
            len(result["greedy"].busy_machines),
            "-",
        ),
        (
            "anneal",
            result["anneal_s"],
            result["anneal"].score,
            result["anneal"].predicted_watts,
            len(result["anneal"].busy_machines),
            f"{result['ratio']:.4f}",
        ),
        (
            "anneal (repeat, warm store)",
            result["warm_s"],
            result["anneal_again"].score,
            result["anneal_again"].predicted_watts,
            len(result["anneal_again"].busy_machines),
            "-",
        ),
        (
            "anneal (fresh suite, cold store)",
            result["cold_s"],
            result["anneal_cold"].score,
            result["anneal_cold"].predicted_watts,
            len(result["anneal_cold"].busy_machines),
            "-",
        ),
        (
            "anneal (capped)",
            result["capped_s"],
            result["capped"].score,
            result["capped"].predicted_watts,
            len(result["capped"].busy_machines),
            "-",
        ),
    ]
    fleet = result["fleet"]
    table = render_table(
        ["Solver", "Wall (s)", "Score", "Watts", "Busy machines",
         "Score vs greedy"],
        rows,
        title=(
            f"{result['processes']} processes on "
            f"{fleet.total_machines} big.LITTLE machines "
            f"({fleet.total_cores} cores), "
            f"{result['iterations']} anneal iterations, seed {SEED}"
        ),
        float_format="{:.4g}",
    )
    lines = [
        table,
        "",
        f"Capped pass budget: {result['capped_budget']:.4g} W "
        f"({CAP_FRACTION:.0%} of the unconstrained draw)",
        f"Busy-core P-state histogram, uncapped: "
        f"{_pstate_histogram(result['anneal'])}",
        f"Busy-core P-state histogram, capped:   "
        f"{_pstate_histogram(result['capped'])}",
        f"Exhaustive oracle refused up front: {result['oracle_error']}",
    ]
    return "\n".join(lines)


def _check(result) -> None:
    assert result["anneal"].score <= result["greedy"].score, (
        "annealing returned a worse score than the greedy packing "
        f"({result['anneal'].score} > {result['greedy'].score})"
    )
    assert result["anneal"].score == result["anneal_again"].score, (
        "seeded anneal is not deterministic: "
        f"{result['anneal'].score} != {result['anneal_again'].score}"
    )
    assert result["anneal"].machines == result["anneal_again"].machines, (
        "seeded anneal placements differ between identical runs"
    )
    assert result["anneal_again"] == result["anneal"], (
        "a repeat solve on the same suite (warm store) changed the plan"
    )
    assert result["anneal_again"] == result["anneal_cold"], (
        "a warm-store plan differs from the plan on a freshly built suite"
    )
    assert result["capped"].predicted_watts <= result["capped_budget"], (
        "capped solve exceeded its power budget "
        f"({result['capped'].predicted_watts} > {result['capped_budget']})"
    )
    assert result["capped"].score >= result["anneal"].score - 1e-9, (
        "capped solve beat the unconstrained optimum, which is impossible "
        f"({result['capped'].score} < {result['anneal'].score})"
    )
    assert result["oracle_error"] is not None, (
        "exhaustive enumeration at this size must raise "
        "AssignmentTooLargeError instead of hanging"
    )
    for key in ("greedy", "anneal", "capped"):
        assert _placed(result[key]) == result["processes"], (
            f"{key} solve dropped processes"
        )


def test_hetero_assignment_scale(benchmark):
    from conftest import QUICK, once, report

    result = once(benchmark, lambda: _measure(QUICK))
    report("hetero_assignment", _render(result))
    _check(result)


def main(argv) -> int:
    quick = "--quick" in argv
    result = _measure(quick)
    print(_render(result))
    _check(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
