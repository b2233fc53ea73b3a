"""Throughput and bit-equality of the stacked batch equilibrium solver.

Solves one batch of 256 contended 8-process mixes two ways on a single
core: as 256 scalar ``solve_equilibrium`` calls (the sequential
baseline every earlier layer was built on) and as one
:class:`~repro.core.batch_equilibrium.BatchNewtonSolver` call that
stacks the whole batch into ``(256, 8)`` numpy kernels.  A second,
mixed-width batch interleaves k = 2..8 processes per mix, so most rows
are padded to the widest one; it pins the padded stack the same way.
Two things are pinned:

- **Bit-equality, always.**  The batch solver's contract is that every
  payload field (sizes / mpas / spis / solver / iterations /
  contended) is ``==`` to the scalar loop — checked here on every run,
  on every machine.
- **Speedup ≥ 10x** (full mode; the quick smoke asserts ≥ 5x because
  its batch of 64 amortizes less and its smaller repeat count is
  noisier on shared CI cores).  This is a one-core
  comparison: the win is vectorization, not parallelism, so it holds
  on CI runners where the process pool cannot help.  The mixed-width
  batch has its own floors, ``MIXED_FLOOR``: a mix of fewer processes
  is cheaper for the scalar loop but costs the stack a full-width row.

Both sides are timed with interleaved best-of-N: container schedulers
and frequency scaling routinely double a single measurement, so each
repeat times one scalar pass and one batch pass back-to-back (both
sides see the same machine state) and the minimum over 15 repeats
recovers the true cost of each deterministic computation.
"""

import random
import timeit

from conftest import QUICK, once, report

from repro.analysis.tables import render_table
from repro.core.batch_equilibrium import BatchNewtonSolver
from repro.core.equilibrium import solve_equilibrium
from repro.core.performance_model import PerformanceModel
from repro.core.feature import FeatureVector
from repro.core.solver_cache import EquilibriumCache
from repro.workloads.spec import BENCHMARKS

WAYS = 16
MIX_SIZE = 8
MIXED_SIZES = (2, 3, 4, 5, 6, 7, 8)
BATCH = 64 if QUICK else 256
REPEAT = 5 if QUICK else 15
FLOOR = 5.0 if QUICK else 10.0
MIXED_FLOOR = 1.5 if QUICK else 3.5


def _build_batch(sizes):
    """``BATCH`` contended mixes whose sizes cycle through ``sizes``.

    Model-idiom fresh process rows of distinct benchmarks.
    """
    features = {
        name: FeatureVector.oracle(BENCHMARKS[name], 2e8)
        for name in sorted(BENCHMARKS)
    }
    model = PerformanceModel(
        ways=WAYS, cache=EquilibriumCache(max_entries=0, warm_start=False)
    )
    model.register_all(features.values())
    names = sorted(features)
    rng = random.Random(2010)
    batch = []
    for index in range(BATCH):
        k = sizes[index % len(sizes)]
        mix = rng.sample(names, k)
        batch.append(model._equilibrium_inputs(mix, [1.0] * k))
    return batch


def _measure(sizes):
    batch = _build_batch(sizes)
    solver = BatchNewtonSolver()

    def scalar_loop():
        return [solve_equilibrium(row, WAYS) for row in batch]

    def batch_solve():
        return solver.solve_batch(batch, WAYS)

    # Correctness before timing: the whole point is identical bits.
    scalar_results = scalar_loop()
    batch_results = batch_solve()
    mismatches = sum(
        1
        for s, b in zip(scalar_results, batch_results)
        if (s.sizes, s.mpas, s.spis, s.solver, s.iterations, s.contended)
        != (b.sizes, b.mpas, b.spis, b.solver, b.iterations, b.contended)
    )
    scalar_times, batch_times = [], []
    for _ in range(REPEAT):
        scalar_times.append(timeit.timeit(scalar_loop, number=1))
        batch_times.append(timeit.timeit(batch_solve, number=1))
    t_scalar = min(scalar_times)
    t_batch = min(batch_times)
    return {
        "mismatches": mismatches,
        "t_scalar_ms": t_scalar * 1e3,
        "t_batch_ms": t_batch * 1e3,
        "speedup": t_scalar / t_batch,
        "contended_rows": sum(1 for s in scalar_results if s.contended),
        "batch_solver_rows": sum(
            1
            for b in batch_results
            if b.telemetry is not None and b.telemetry.solver == "batch_newton"
        ),
    }


def _report(name, label, result):
    lines = [
        render_table(
            ["Mixes", "k", "Scalar loop (ms)", "Batch solve (ms)", "Speedup"],
            [
                (
                    BATCH,
                    label,
                    result["t_scalar_ms"],
                    result["t_batch_ms"],
                    result["speedup"],
                )
            ],
            title=f"Stacked batch equilibrium solve, best of {REPEAT}, one core",
            float_format="{:.4g}",
        ),
        "",
        f"{result['batch_solver_rows']}/{BATCH} rows solved on the "
        "vector path (the rest via per-row fallback)",
    ]
    report(name, "\n".join(lines))


def test_batch_solve_speedup_and_equality(benchmark):
    result = once(benchmark, lambda: _measure((MIX_SIZE,)))
    _report("batch_solve", MIX_SIZE, result)

    assert result["mismatches"] == 0, (
        "batch and scalar solves disagreed bit-for-bit"
    )
    assert result["batch_solver_rows"] == BATCH, (
        "contended benchmark mixes should all stay on the vector path"
    )
    assert result["speedup"] >= FLOOR, (
        f"batch-of-{BATCH} speedup {result['speedup']:.2f}x < {FLOOR:.0f}x "
        "over the scalar loop on one core"
    )


def test_mixed_width_batch_speedup_and_equality(benchmark):
    result = once(benchmark, lambda: _measure(MIXED_SIZES))
    _report(
        "batch_solve_mixed",
        f"{MIXED_SIZES[0]}-{MIXED_SIZES[-1]}",
        result,
    )

    assert result["mismatches"] == 0, (
        "mixed-width batch and scalar solves disagreed bit-for-bit"
    )
    assert result["batch_solver_rows"] == result["contended_rows"], (
        "every contended mixed-width row should stay on the vector path"
    )
    assert result["speedup"] >= MIXED_FLOOR, (
        f"mixed-width batch-of-{BATCH} speedup {result['speedup']:.2f}x "
        f"< {MIXED_FLOOR:.1f}x over the scalar loop on one core"
    )
