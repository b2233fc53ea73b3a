"""Plan-hash gate of the ``assign_fleet`` benchmark workload.

Solves the first 200 seed-0 requests of ``AssignFleet`` from
``benchmarks/perf/workloads.py`` on one suite, exactly as the
benchmark does, and pins the SHA-256 over ``repr`` of the plans
together with their mean predicted giga-instructions/s (the
benchmark's ``assign_gips``).  A change that moves either has changed
answers: it must say so and re-point both here.

Runs in a few seconds.
"""

from __future__ import annotations

import hashlib
import pathlib
import statistics
import sys

PERF = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "perf"

PLAN_SHA256 = "7996adfe934128a96beb2184b1679847aad27c089c08e883b4e7cade68237708"
ASSIGN_GIPS = 7.21856
REQUESTS = 200


def _assign_fleet_class():
    sys.path.insert(0, str(PERF))
    try:
        from workloads import AssignFleet
    finally:
        sys.path.remove(str(PERF))
    return AssignFleet


def test_first_seed0_plans_hash_and_gips_are_pinned():
    workload = _assign_fleet_class()(0)
    state = workload.setup()
    digest = hashlib.sha256()
    gips = []
    for index in range(REQUESTS):
        plan = workload.call(state, workload.inputs(index))
        digest.update(repr(plan).encode())
        gips.append(plan.predicted_ips / 1e9)
    assert digest.hexdigest() == PLAN_SHA256
    assert round(statistics.fmean(gips), 5) == ASSIGN_GIPS
