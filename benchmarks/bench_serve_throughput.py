"""Throughput of the repro.serve micro-batching front end.

Boots three prediction servers on ephemeral ports, loads each with the
same 32-way-concurrent closed-loop client traffic, and compares:

- **baseline** — ``max_batch_size=1``: every request is one HTTP round
  trip and one solo equilibrium solve (what a naive
  one-request-per-call service does).
- **batched, dispatch when idle** — ``max_batch_size=32`` with the
  library's default zero linger: a batch dispatches as soon as the
  solver is idle, and the requests that arrive during a solve form the
  next batch, which the stacked
  :class:`~repro.core.batch_equilibrium.BatchNewtonSolver` solves
  in-process.
- **batched, 2 ms linger** — the same with an explicit 2 ms linger, the
  opt-in throughput setting: under this saturating load it coalesces
  bigger batches than idle dispatch does.

Every mix in the work list is a *distinct* multiset, so both servers
run every solve cold (no equilibrium-cache hits flattering either
side).  Both modes use the same Newton solve and differ only in the
number of requests per batch.  The win is vectorized math, not
extra cores, so both gates hold on any host, 1 CPU included, and each
batched mode must pass them:

- **Quick mode** asserts batching beats 1-per-call (> 1.0x).
- **Full mode** asserts batched throughput of at least
  :data:`FULL_MIN_RATIO` times the baseline.

Also pinned in both modes: zero shed and zero errors — with the
default queue bound the load here must be admitted completely.
"""

import itertools
import os
import sys

from repro.analysis.tables import render_table
from repro.api import ProfileSuiteResult, serve
from repro.core.feature import FeatureVector
from repro.serve import run_load
from repro.workloads.spec import BENCHMARKS, PAPER_EIGHT

WAYS = 16
CONCURRENCY = 32
REQUESTS = 512
QUICK_REQUESTS = 64
#: Full-mode floor on batched/baseline throughput.  Six full-mode runs
#: on a 2-CPU host read 1.41x-2.05x, so 0.7x keeps a 2x margin below
#: the lowest; it catches a collapse of batching on a noisy host, while
#: quick mode's > 1.0x gate catches batching that merely stops paying.
FULL_MIN_RATIO = 0.7


def _suite() -> ProfileSuiteResult:
    return ProfileSuiteResult(
        machine="4-core-server",
        features={
            name: FeatureVector.oracle(BENCHMARKS[name], 2e8)
            for name in PAPER_EIGHT
        },
        profiles={},
    )


def _mixes(count: int):
    """``count`` distinct multisets over the paper's eight benchmarks."""
    names = sorted(PAPER_EIGHT)
    pools = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(names, size)
        for size in (4, 3, 5)
    )
    mixes = [list(combo) for combo in itertools.islice(pools, count)]
    if len(mixes) < count:
        raise RuntimeError(f"only {len(mixes)} distinct mixes available")
    return mixes


def _drive(mixes, **server_kwargs):
    with serve({"default": _suite()}, **server_kwargs) as handle:
        load = run_load(
            handle.host,
            handle.port,
            mixes,
            ways=WAYS,
            concurrency=CONCURRENCY,
        )
        batch_sizes = (
            handle.service.metrics.to_dict()["histograms"]
            .get("serve.batch.size", {})
        )
    return load, batch_sizes


#: ``label -> server kwargs`` of the batched modes, each gated against
#: the 1-per-call baseline.
BATCHED_MODES = {
    "batched, dispatch when idle (default)": {"max_batch_size": 32},
    "batched, 2 ms linger": {"max_batch_size": 32, "max_linger_ms": 2.0},
}


def _measure(quick: bool):
    mixes = _mixes(QUICK_REQUESTS if quick else REQUESTS)
    baseline, _ = _drive(mixes, max_batch_size=1)
    batched = {}
    for label, server_kwargs in BATCHED_MODES.items():
        load, batch_sizes = _drive(mixes, **server_kwargs)
        batched[label] = {
            "load": load,
            "mean_batch": batch_sizes.get("mean", 0.0),
            "ratio": (
                load.throughput_rps / baseline.throughput_rps
                if baseline.throughput_rps
                else 0.0
            ),
        }
    return {"requests": len(mixes), "baseline": baseline, "batched": batched}


def _render(result) -> str:
    rows = [
        (
            label,
            load.completed,
            load.shed,
            load.errors,
            load.duration_s * 1e3,
            load.throughput_rps,
            load.latency_quantile(0.5) * 1e3,
            load.latency_quantile(0.95) * 1e3,
        )
        for label, load in [("1-per-call", result["baseline"])]
        + [(label, mode["load"]) for label, mode in result["batched"].items()]
    ]
    cpus = os.cpu_count() or 1
    table = render_table(
        ["Mode", "OK", "Shed", "Err", "Wall (ms)", "req/s",
         "p50 (ms)", "p95 (ms)"],
        rows,
        title=(
            f"/v1/predict, {result['requests']} distinct mixes, "
            f"concurrency {CONCURRENCY}, {cpus} host CPUs"
        ),
        float_format="{:.4g}",
    )
    return "\n".join(
        [table, ""]
        + [
            f"{label}: {mode['ratio']:.2f}x baseline throughput; "
            f"mean dispatched batch {mode['mean_batch']:.1f} requests"
            for label, mode in result["batched"].items()
        ]
    )


def _check(result, quick: bool) -> None:
    cpus = os.cpu_count() or 1
    loads = [("baseline", result["baseline"])] + [
        (label, mode["load"]) for label, mode in result["batched"].items()
    ]
    for label, load in loads:
        assert load.errors == 0, f"{label} run hit {load.errors} hard errors"
        assert load.shed == 0, f"{label} run shed {load.shed} requests"
        assert load.completed == result["requests"]
    # Vectorized micro-batching must pay on ANY host, 1 CPU included —
    # that is the whole point of the stacked solver.
    for label, mode in result["batched"].items():
        if quick:
            assert mode["ratio"] > 1.0, (
                f"{label} throughput {mode['ratio']:.2f}x baseline on a "
                f"{cpus}-CPU host (vectorized micro-batching must beat "
                "1-per-call even on one core)"
            )
        else:
            assert mode["ratio"] >= FULL_MIN_RATIO, (
                f"{label} throughput only {mode['ratio']:.2f}x baseline "
                f"on a {cpus}-CPU host (need >= {FULL_MIN_RATIO}x)"
            )


def test_serve_throughput(benchmark):
    from conftest import QUICK, once, report

    result = once(benchmark, lambda: _measure(QUICK))
    report("serve_throughput", _render(result))
    _check(result, QUICK)


def main(argv) -> int:
    quick = "--quick" in argv
    result = _measure(quick)
    text = _render(result)
    print(text)
    _check(result, quick)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
