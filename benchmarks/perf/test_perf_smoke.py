"""Smoke test of the benchmark harness (under a minute).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py -q

Runs every workload with ``--quick``, untraced and traced, and checks
that each metric ``BENCHMARK.json`` declares is emitted, finite and
carries its declared unit.  Also checks that the benchmark refuses to
run, without printing a result, where the library is missing.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ROOT / "benchmarks" / "perf" / "run.py"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_emits_every_declared_metric(workload, trace, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--quick", "--trace", str(trace), "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]
    suffix = "_trace" if trace else ""
    document = json.loads(next(tmp_path.glob(f"*_{workload}_seed0{suffix}.json")).read_text())
    assert document["provenance"]["seed"] == 0
    assert document["metrics"] == result["metrics"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "perf",
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "price_batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
