"""Run the repository benchmark.

    python3 benchmarks/perf/run.py --workload NAME [NAME ...] --seed N
        [--seconds S] [--trace 0|1] [--quick] [--out DIR]

Workloads and metrics are declared in ``BENCHMARK.json`` at the
repository root; ``README.md`` beside this file explains them.  One
workload runs in this process; several run one after another, each in
a fresh process.  A run prints every metric by name with its unit,
writes one results JSON under ``--out`` (default
``benchmarks/perf/results/runs``), and prints as its last line of
standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics.  Exit status: 0 when every answer was right, 1 on a wrong
answer or an error, 2 when the repository's ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
QUICK_SECONDS = 2.0


def provenance(seed: int) -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def parse_args(argv, spec):
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="measure the per-layer metrics instead of the end-to-end ones",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_SECONDS:g}-second runs for smoke tests (marked invalid)",
    )
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "results" / "runs")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = QUICK_SECONDS
    return args


def run_each(args) -> int:
    """Run every named workload in a fresh process, one after another."""
    status = 0
    for name in args.workload:
        command = [
            sys.executable, str(pathlib.Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", str(args.out),
        ]
        status = max(status, subprocess.run(command).returncode)
    return status


def _on_alarm(signum, frame):
    raise TimeoutError("benchmark run exceeded its time limit")


def main(argv) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"cannot run: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if len(args.workload) > 1:
        return run_each(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(int(args.seconds) + 150)

    import workloads

    name, trace = args.workload[0], bool(args.trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    started = time.time()
    outcome = workloads.run(name, args.seed, args.seconds, trace)
    signal.alarm(0)
    metrics = {
        metric["name"]: {"value": outcome.metrics[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    failed = outcome.failed + outcome.wrong
    document = {
        "kind": "perf_run",
        "version": 1,
        "workload": name,
        "trace": trace,
        "seconds": args.seconds,
        "quick": args.quick,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(started)),
        "provenance": provenance(args.seed),
        "valid": not outcome.invalid and not args.quick,
        "invalid_reasons": outcome.invalid + (["quick run"] if args.quick else []),
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "wrong": outcome.wrong,
        "phases": outcome.phases,
        "metrics": metrics,
        "extra": outcome.extra,
        "layers": outcome.layers,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{time.strftime('%Y%m%dT%H%M%S', time.localtime(started))}_{name}_seed{args.seed}"
    stem += "_trace" if trace else ""
    path = args.out / f"{stem}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")
    if outcome.trace_sample is not None:
        (args.out / f"{stem}.trace.json").write_text(json.dumps(outcome.trace_sample) + "\n")

    print(f"{name} seed {args.seed}, {args.seconds:g} s, {'traced' if trace else 'untraced'}")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name:54s} {metric['value']:14.6g} {metric['unit']}")
    for key, value in sorted(outcome.extra.items()):
        print(f"  {key:54s} {value:14.6g} (not gated)")
    if outcome.layers:
        print("  layer shares of the traced p50:")
        for layer, share in outcome.layers:
            print(f"    {layer:52s} {share:8.1%}")
        unaccounted = outcome.metrics["trace.unaccounted_share"]
        print(f"    {'unaccounted':52s} {unaccounted:8.1%}")
        print(f"    {'trace.overhead_share':52s} {outcome.metrics['trace.overhead_share']:8.1%}")
    print(f"  attempted {outcome.attempted}, failed {failed} ({outcome.wrong} wrong answers)")
    print(f"  phases {outcome.phases}")
    print(f"  {'valid' if document['valid'] else 'INVALID: ' + '; '.join(document['invalid_reasons'])}")
    print(f"  results: {path}")
    bad = [key for key, metric in metrics.items() if not math.isfinite(metric["value"])]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
    print(json.dumps({
        "correct": document["correct"] and not bad,
        "attempted": max(1, outcome.attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if document["correct"] and not bad else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
