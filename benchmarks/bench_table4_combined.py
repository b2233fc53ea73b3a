"""Table 4: combined-model validation (profiles only) on the 4-core server.

Paper reference values (avg/max error of average power, %):
  1 proc./core (32):           2.84 / 5.78
  2 proc./core (10):           1.92 / 6.29
  4 proc., 1 core unused (16): 2.68 / 5.48
  4 proc., 2 core unused (16): 2.53 / 5.99
  4 proc., 3 core unused (9):  0.49 / 1.95

Note (see EXPERIMENTS.md): our scaled machine amplifies cross-slice
cache refill for time-shared memory-hungry processes, so the
many-processes-per-core rows carry a few extra points of error
relative to the paper.
"""

from conftest import QUICK, once, report

from repro.experiments.table4 import render_table4, run_table4


def test_table4_combined_model(benchmark, server_context):
    # Quick mode trims every row but the first: the headline bound
    # below was set for that row's full 32 assignments, and a 4-sample
    # average is too noisy to hold it.
    limits = [32, 2, 2, 2, 2] if QUICK else None
    scenarios = once(benchmark, lambda: run_table4(server_context, limits=limits))
    lines = [render_table4(scenarios), ""]
    lines.append(
        "Paper: 2.84/5.78; 1.92/6.29; 2.68/5.48; 2.53/5.99; 0.49/1.95"
    )
    report("table4", "\n".join(lines))

    for scenario in scenarios:
        assert scenario.avg_error.mean < 12.0
    # The headline: profiles-only estimation is accurate for the pure
    # cache-contention scenario the paper's models target.
    assert scenarios[0].avg_error.mean < 6.0
