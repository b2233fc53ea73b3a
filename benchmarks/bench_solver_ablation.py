"""Ablation: Newton-Raphson (the paper's solver) vs nested bisection.

Checks that the two equilibrium solvers agree on the predicted cache
partition, compares their runtime, and times the predict hot path —
the bare Newton solve, cold and cached ``predict()`` — with the solver
telemetry each result carries.
"""

from conftest import QUICK, once, report

from repro.analysis.tables import render_table
from repro.experiments.ablations import run_predict_hot_path, run_solver_ablation


def test_solver_ablation(benchmark, server_context):
    pairs = None
    if QUICK:
        names = list(server_context.benchmark_names)[:4]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]

    result = once(benchmark, lambda: run_solver_ablation(server_context, pairs=pairs))
    rows = [
        (
            f"{c.pair[0]}+{c.pair[1]}",
            "yes" if c.newton_converged else "NO",
            c.max_size_disagreement,
            c.newton_seconds * 1e3,
            c.bisection_seconds * 1e3,
            c.newton_telemetry.iterations if c.newton_telemetry else "-",
            (
                f"{c.newton_telemetry.residual_norm:.1e}"
                if c.newton_telemetry
                else c.newton_failure
            ),
        )
        for c in result.cases
    ]
    lines = [
        render_table(
            [
                "Pair",
                "Newton ok",
                "Max |dS| (ways)",
                "Newton (ms)",
                "Bisection (ms)",
                "Iters",
                "Residual",
            ],
            rows,
            title="Equilibrium solver ablation",
        ),
        "",
        f"Newton convergence rate: {result.convergence_rate * 100:.0f} %",
        f"Mean size disagreement:  {result.mean_disagreement:.4f} ways",
        f"Bisection/Newton time:   {result.newton_speedup:.1f}x",
        f"Mean Newton iterations:  {result.mean_newton_iterations:.1f}",
        f"Max residual norm:       {result.max_residual_norm:.2e}",
    ]
    report("solver_ablation", "\n".join(lines))

    assert result.convergence_rate > 0.7
    assert result.mean_disagreement < 0.3


def test_predict_hot_path(benchmark, server_context):
    repeats = 10 if QUICK else 30
    result = once(
        benchmark, lambda: run_predict_hot_path(server_context, repeats=repeats)
    )
    telemetry = result.telemetry
    lines = [
        render_table(
            ["Path", "Median (ms)"],
            [
                ("Newton solve", result.newton_ms),
                ("predict(), cold (cache disabled)", result.predict_ms),
                ("predict(), warm (cache hit)", result.warm_predict_ms),
            ],
            title=f"Predict hot path on {'+'.join(result.mix)}",
        ),
        "",
        f"Cache-hit speedup: {result.cached_speedup:.0f}x "
        f"(hit rate {result.cache_hit_rate * 100:.0f} %)",
        (
            "Telemetry: "
            f"solver={telemetry.solver} jacobian={telemetry.jacobian} "
            f"iterations={telemetry.iterations} "
            f"residual={telemetry.residual_norm:.2e} "
            f"fallback={telemetry.fallback_reason or 'none'}"
            if telemetry
            else "Telemetry: none"
        ),
    ]
    report("predict_hot_path", "\n".join(lines))

    assert result.contended, "mix must actually contend for the cache"
    assert result.cache_hit_rate > 0.0
