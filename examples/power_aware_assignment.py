#!/usr/bin/env python
"""Power-aware process assignment (the paper's Section 5 use case).

Builds the full combined model — stressmark profiling for the
performance side, SPEC + micro-benchmark training for the power side —
then prices every possible mapping of four processes onto the 4-core
server *from profiles alone* with :func:`repro.api.solve_assignment`,
picks the best one per objective, and verifies the chosen mapping's
power against a real (simulated) run.

Run:
    python examples/power_aware_assignment.py

This is the heaviest example (full profiling + training): expect a few
minutes of simulation.
"""

from repro.api import AssignmentRequest, ProfileSuiteResult, solve_assignment
from repro.experiments.context import ExperimentContext

MACHINE = "4-core-server"
SETS = 128


def main() -> None:
    context = ExperimentContext(
        machine=MACHINE,
        sets=SETS,
        seed=3,
        benchmark_names=("gzip", "mcf", "art", "twolf"),
    )
    print(f"Building models for {context.topology.name} "
          f"({context.topology.num_cores} cores, 2 cache domains)...")
    suite = ProfileSuiteResult(
        machine=MACHINE,
        features=context.feature_vectors(),
        profiles=context.profile_vectors(),
    )
    power_model = context.power_model()
    print(f"  fitted P_idle/core = {power_model.p_idle:.2f} W")
    print("  Eq. 9 coefficients:")
    for name, value in power_model.coefficients.items():
        print(f"    {name:6s} = {value:+.3e} W/(event/s)")

    processes = ("mcf", "art", "gzip", "twolf")
    print(f"\nAssigning processes {list(processes)}:")

    def solve(objective: str, solver: str):
        request = AssignmentRequest(
            processes=processes,
            objective=objective,
            solver=solver,
            machine=MACHINE,
            sets=SETS,
        )
        # The suite keeps its solved co-runs, so later solves reuse them.
        plan = solve_assignment(request, suite, power_model)
        (machine,) = plan.machines
        return plan, machine

    for objective in ("min-power", "max-throughput", "min-energy-per-instruction"):
        plan, machine = solve(objective, "exhaustive")
        layout = {core: list(names) for core, names in machine.assignment.items()}
        print(f"\n  objective={objective}")
        print(f"    best mapping: {layout}")
        print(f"    predicted {machine.predicted_watts:.1f} W, "
              f"{machine.predicted_ips:.3e} instr/s "
              f"({plan.evaluations} candidates)")

    # The greedy packing heuristic for comparison.
    plan, greedy = solve("min-power", "greedy")
    greedy_layout = {core: list(names) for core, names in greedy.assignment.items()}
    print(f"\n  greedy power-aware mapping: {greedy_layout}")
    print(f"    predicted {greedy.predicted_watts:.1f} W "
          f"({plan.evaluations} machine states priced)")

    # ------------------------------------------------------------------
    # Verify the power-optimal mapping against a measured run.
    # ------------------------------------------------------------------
    _, best = solve("min-power", "exhaustive")
    print("\nVerifying the power-optimal mapping on the machine...")
    result = context.run_assignment(best.assignment, seed_offset=99)
    measured = result.power.mean_measured
    error = abs(best.predicted_watts - measured) / measured * 100
    print(f"  predicted {best.predicted_watts:.1f} W, "
          f"measured {measured:.1f} W  (error {error:.2f} %)")


if __name__ == "__main__":
    main()
