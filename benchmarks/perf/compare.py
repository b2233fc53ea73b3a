"""Compare two sets of benchmark runs, workload by workload.

    python3 benchmarks/perf/compare.py BASE NEW

BASE and NEW are each a directory of results JSONs written by
``run.py``, one results JSON, or a file holding a list of them (such
as ``results/baseline.json``).  Runs marked invalid are left out and
counted.

For every workload and gated metric it prints each side's median and
quartiles and a verdict:

- ``better``: NEW wins at least nine tenths of the run pairs (runs are
  paired in the order they started; ties count for neither) and the
  medians differ by more than BASE's quartile spread;
- ``unresolved``: either side's quartile spread is wider than the
  bound, unless every NEW run reads better than every BASE run;
- ``worse``: NEW's median is worse than BASE's by more than the bound;
- ``same``: none of the above.

The gated metrics are the end-to-end metrics of ``BENCHMARK.json``
with their bounds, plus two guards kept in each results JSON:
``error_rate`` (no increase at all) and ``assign_gips`` (plan quality,
relative bound 1e-9).  Tail latencies, the unscaled wall-clock
timings, the host speed and traced runs' per-layer metrics are printed
without a verdict.  Exit status 1 when any verdict is ``worse`` or
``unresolved``.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: name -> (better, bound, bound is absolute)
GUARDS = {
    "error_rate": ("lower", 0.0, True),
    "assign_gips": ("higher", 1e-9, False),
}
#: Recorded in every results JSON and printed, never gated: tail
#: latencies, the unscaled wall-clock timings and the mean host speed
#: they were scaled by (see ``speed.py``).
UNGATED = (
    "latency_p95_ms",
    "latency_p99_ms",
    "wall.setup_s",
    "wall.throughput_ops_s",
    "wall.latency_p50_ms",
    "host_speed",
)


def load(path: str):
    """Valid and invalid runs found at ``path``, oldest first."""
    source = pathlib.Path(path)
    files = sorted(source.glob("*.json")) if source.is_dir() else [source]
    runs = []
    for file in files:
        if file.name.endswith(".trace.json"):
            continue
        document = json.loads(file.read_text())
        runs.extend(document if isinstance(document, list) else [document])
    runs = [run for run in runs if run.get("kind") == "perf_run"]
    return sorted(runs, key=lambda run: run["started"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, better: str, bound: float, absolute: bool) -> str:
    sign = 1.0 if better == "higher" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    new_q1, new_median, new_q3 = quartiles(new)
    scale = 1.0 if absolute else abs(base_median)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    gain = sign * (new_median - base_median)
    if gain > 0 and wins >= 0.9 * len(pairs) and abs(gain) > base_q3 - base_q1:
        return "better"
    spread = max(base_q3 - base_q1, new_q3 - new_q1)
    every_run_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound * scale and not every_run_better:
        return "unresolved"
    if -gain > bound * scale:
        return "worse"
    return "same"


def _values(runs, name: str):
    values = []
    for run in runs:
        if name in run["metrics"]:
            values.append(run["metrics"][name]["value"])
        elif name in run.get("extra", {}):
            values.append(run["extra"][name])
    return [value for value in values if math.isfinite(value)]


def _describe(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {
        metric["name"]: (metric["better"], metric["bound"], False)
        for metric in spec["end_to_end"]
    }
    gated.update(GUARDS)
    sides = [load(path) for path in argv]
    groups = defaultdict(lambda: ([], []))
    for side, runs in enumerate(sides):
        skipped = sum(not run["valid"] for run in runs)
        if skipped:
            print(f"{argv[side]}: {skipped} invalid run(s) left out")
        for run in runs:
            if run["valid"]:
                groups[(run["workload"], run["trace"])][side].append(run)
    failing = 0
    for (workload, traced), (base, new) in sorted(groups.items()):
        print(f"\n{workload}{' (traced)' if traced else ''}: {len(base)} base run(s), {len(new)} new run(s)")
        if not base or not new:
            continue
        if traced:
            names = sorted({name for run in base + new for name in run["metrics"]})
        else:
            names = list(gated) + list(UNGATED)
        for name in names:
            base_values, new_values = _values(base, name), _values(new, name)
            if not base_values or not new_values:
                continue
            gate = not traced and name in gated
            result = verdict(base_values, new_values, *gated[name]) if gate else "(not gated)"
            failing += result in ("worse", "unresolved")
            print(f"  {name:54s} {_describe(base_values)} -> {_describe(new_values)}  {result}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
