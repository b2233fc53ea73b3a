"""The benchmark's four workloads: inputs, timed phases and checks.

Every input comes from ``random.Random`` streams seeded with the run's
seed and a label, so one seed always gives the same requests, mixes
and fleets.

- ``predict_cold`` and ``predict_hot`` drive ``/v1/predict`` on a
  server child process (``serve_child.py``) from :mod:`loadgen`.
- ``price_batch`` calls :func:`repro.api.predict_mixes` in-process.
- ``assign_fleet`` calls :func:`repro.api.solve_assignment` in-process.

:func:`run` returns an :class:`Outcome` holding the end-to-end metrics
of an untraced run, or the per-layer metrics of a traced one.  A traced
run alternates untraced and traced work (every other call, or every
other second of serve traffic), which gives ``trace.overhead_share``
from one run.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.core.feature import FeatureVector, ProfileVector
from repro.io import sanitize_non_finite
from repro.serve.registry import content_digest
from repro.workloads.spec import BENCHMARKS

import speed
from loadgen import Connection, Op, PhaseResult, closed_loop, http_request, open_loop
from tracing import LayerStats, LayerTrace

HERE = pathlib.Path(__file__).resolve().parent

NAMES = tuple(sorted(BENCHMARKS))
WAYS = 16  #: the 4-core server's shared L2
FREQUENCY_HZ = 2e8
RATIOS = (1.0, 0.8, 0.6)
#: ``setup_s`` is the median of this many set-ups per run, spread over
#: the run so that one slow spell of a shared host cannot cover them
#: all: in-process, one before the timed calls and the rest evenly
#: between them; serve, half before and half after the timed phases.
SETUP_SAMPLES = 6
WARMUP_S = 1.0
#: A traced serve run alternates untraced and traced segments this long.
SEGMENT_S = 1.0
#: Share of ``--seconds`` given to the open-loop phase of the serve
#: workloads; the closed-loop phase gets the rest.
OPEN_SHARE = 0.5
#: A run is invalid when a timed phase has fewer samples than this
#: (so p95 has at least ten beyond it) ...
MIN_SAMPLES = 200
#: ... or when the generator woke later than this at its p99.
MAX_WAKE_LATE_MS = 1.0

WORKLOADS = ("predict_cold", "predict_hot", "price_batch", "assign_fleet")


def _rng(seed: int, *labels) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed,) + labels))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def build_suite(scale: float = 1.0) -> api.ProfileSuiteResult:
    """Oracle features for all ten benchmarks plus power profiles."""
    return api.ProfileSuiteResult(
        machine="4-core-server",
        features={
            name: FeatureVector.oracle(BENCHMARKS[name], FREQUENCY_HZ * scale)
            for name in NAMES
        },
        profiles={
            name: ProfileVector(
                name=name,
                p_alone=20.0 + 2.0 * index,
                l1rpi=0.4,
                l2rpi=0.05,
                brpi=0.2,
                fppi=0.01 * index,
            )
            for index, name in enumerate(NAMES)
        },
    )


def suite_document(scale: float = 1.0) -> Dict:
    return build_suite(scale).to_dict()


def _tail(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Tail latencies: recorded and compared, but not gated, because
    host noise moves them by more than the largest allowed bound."""
    return {
        "latency_p95_ms": quantile(latencies_s, 0.95) * 1e3,
        "latency_p99_ms": quantile(latencies_s, 0.99) * 1e3,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    phases: Dict[str, int] = field(default_factory=dict)
    invalid: List[str] = field(default_factory=list)
    layers: List[Tuple[str, float]] = field(default_factory=list)
    trace_sample: Optional[Dict] = None


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _span(spans: Dict, name: str) -> Dict:
    return spans.get(name) or {
        "count": 0,
        "wall_p50_s": 0.0,
        "self_p50_s": 0.0,
        "self_per_drain_p50_s": 0.0,
        "wall_total_s": 0.0,
        "self_total_s": 0.0,
        "attributes": {},
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Dict) -> Dict[str, float]:
    """The span-derived per-layer metrics shared by every workload."""
    parallel = _span(spans, "parallel.predict_mixes")
    batch = _span(spans, "performance_model.predict_batch")
    stack = _span(spans, "batch_equilibrium.solve_batch")
    prime = _span(spans, "fleet.evaluator.prime")
    state = _span(spans, "fleet.evaluator.state_metrics")
    pricer = _span(spans, "hetero.pricer.state_metrics")
    solve = _span(spans, "fleet.solve")
    rows = stack["attributes"].get("rows", 0.0)
    fallback = stack["attributes"].get("fallback_rows", 0.0)
    return {
        "serve.service.predict_ms_p50": _span(spans, "serve.service.predict")["wall_p50_s"] * 1e3,
        "serve.cache.get_us_p50": _span(spans, "serve.cache.get")["wall_p50_s"] * 1e6,
        "serve.cache.put_us_p50": _span(spans, "serve.cache.put")["wall_p50_s"] * 1e6,
        "serve.registry.publish_ms_p50": _span(spans, "serve.registry.publish")["wall_p50_s"] * 1e3,
        "io.mix_prediction_to_dict_us_p50": _span(spans, "io.mix_prediction_to_dict")["wall_p50_s"] * 1e6,
        "parallel.predict_mixes.self_ms_per_1k_mixes": 1e6 * _ratio(
            parallel["self_total_s"], parallel["attributes"].get("mixes", 0.0)
        ),
        "performance_model.predict_batch.self_ms_per_1k_mixes": 1e6 * _ratio(
            batch["self_total_s"], batch["attributes"].get("mixes", 0.0)
        ),
        "performance_model.eq_cache.hit_share": _ratio(
            parallel["attributes"].get("eq_hits", 0.0),
            parallel["attributes"].get("eq_lookups", 0.0),
        ),
        "batch_equilibrium.solve_us_per_row": 1e6 * _ratio(stack["wall_total_s"], rows),
        "batch_equilibrium.rows": _ratio(rows, stack["count"]),
        "batch_equilibrium.newton_iterations_mean": _ratio(
            stack["attributes"].get("newton_iterations", 0.0), rows - fallback
        ),
        "batch_equilibrium.fallback_share": _ratio(fallback, rows),
        "equilibrium.scalar_solve_ms_total": _span(spans, "equilibrium.solve_equilibrium")["wall_total_s"] * 1e3,
        "fleet.evaluator.prime_ms_p50": prime["wall_p50_s"] * 1e3,
        "fleet.evaluator.closure_mixes": _ratio(prime["attributes"].get("mixes", 0.0), prime["count"]),
        "fleet.evaluator.memo_hit_share": 1.0 - _ratio(
            solve["attributes"].get("evaluations", 0.0), solve["attributes"].get("lookups", 0.0)
        ) if solve["count"] else 0.0,
        "fleet.evaluator.state_metrics_us_p50": state["wall_p50_s"] * 1e6,
        "fleet.evaluator.state_metrics_calls": _ratio(state["count"], solve["count"]),
        "hetero.pricer.state_metrics_us_p50": pricer["wall_p50_s"] * 1e6,
        "hetero.pricer.calls": _ratio(pricer["count"], solve["count"]),
        "fleet.solver.self_ms_p50": solve["self_p50_s"] * 1e3,
        "fleet.solver.iterations_mean": _ratio(solve["attributes"].get("iterations", 0.0), solve["count"]),
        "fleet.solver.evaluations_mean": _ratio(solve["attributes"].get("evaluations", 0.0), solve["count"]),
    }


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
class PriceBatch:
    """``api.predict_mixes`` on 512 fresh mixes per call."""

    MIXES = 512
    SAMPLE = 64

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, index: int):
        rng = _rng(self.seed, "price_batch", index)
        mixes, ratios = [], []
        for position in range(self.MIXES):
            names = [rng.choice(NAMES) for _ in range(rng.randint(2, 8))]
            mixes.append(names)
            ratios.append(
                [rng.choice(RATIOS) for _ in names] if position % 3 == 0 else None
            )
        return mixes, ratios

    def setup(self):
        suite = build_suite()
        self.call(suite, self.inputs(0))
        return suite

    def call(self, suite, inputs):
        mixes, ratios = inputs
        return api.predict_mixes(mixes, suite, ways=WAYS, frequency_ratios=ratios)

    def ops(self, inputs) -> int:
        return len(inputs[0])

    def extra(self) -> Dict[str, float]:
        return {}

    def check(self, suite, inputs, result) -> int:
        """1 if the call returned the wrong shape of answer."""
        mixes, _ = inputs
        return int(
            len(result) != len(mixes)
            or any(tuple(p.names) != tuple(mix) for p, mix in zip(result, mixes))
        )

    def check_first(self, suite, inputs, result) -> int:
        """Wrong answers in a 64-mix sample, against ``api.predict_mix``."""
        mixes, ratios = inputs
        rng = _rng(self.seed, "price_batch", "sample")
        return sum(
            result[i] != api.predict_mix(mixes[i], suite, ways=WAYS, frequency_ratios=ratios[i])
            for i in rng.sample(range(len(mixes)), self.SAMPLE)
        )


class AssignFleet:
    """``api.solve_assignment``: anneal under a watts budget on a mixed fleet."""

    #: 48 processes, a fixed balanced multiset of the ten benchmarks.
    PROCESSES = tuple(NAMES[i % len(NAMES)] for i in range(48))
    ITERATIONS = 200
    #: The budget is this share of one unconstrained greedy draw.
    BUDGET_SHARE = 0.97
    #: ``assign_gips`` averages the plans of these first requests, so
    #: that it does not depend on how many solves fit in a run.
    GIPS_REQUESTS = 200

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.gips: Dict[int, float] = {}

    @staticmethod
    def fleet():
        from repro.api import FleetSpec, MachineGroup
        from repro.hetero import big_little_spec

        # 60 cores for 48 processes: 1.25x the slots needed.
        return FleetSpec(
            groups=(
                MachineGroup(
                    machine="4-core-server",
                    count=5,
                    sets=32,
                    hetero=big_little_spec("4-core-server"),
                ),
                MachineGroup(machine="4-core-server", count=5, sets=32),
                MachineGroup(machine="2-core-workstation", count=10, sets=32),
            )
        )

    @staticmethod
    def power_model():
        import numpy as np

        from repro.core.power_model import CorePowerModel, PowerTrainingSet
        from repro.events import Event, RATE_EVENTS

        rng = np.random.default_rng(0)
        training = PowerTrainingSet()
        for _ in range(40):
            rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
            power = 11.0 + 8e-8 * rates[Event.L1_REFS] + 2e-7 * rates[Event.L2_MISSES]
            training.add(rates, power)
        return CorePowerModel().fit(training, idle_core_watts=11.0)

    def request(self, processes, solver: str, budget: float, seed: int):
        return api.AssignmentRequest(
            processes=tuple(processes),
            fleet=self.fleet_spec,
            solver=solver,
            objective="throughput-under-watts-budget",
            power_budget_watts=budget,
            max_per_core=1,
            max_iterations=self.ITERATIONS if solver == "anneal" else None,
            seed=seed,
        )

    def inputs(self, index: int):
        processes = list(self.PROCESSES)
        _rng(self.seed, "assign_fleet", index).shuffle(processes)
        return self.request(processes, "anneal", self.budget, self.seed + index)

    def setup(self):
        suite, power = build_suite(), self.power_model()
        self.fleet_spec = self.fleet()
        loose = self.fleet_spec.total_machines * 1e6
        draw = api.solve_assignment(
            self.request(self.PROCESSES, "greedy", loose, self.seed), suite, power
        )
        self.budget = self.BUDGET_SHARE * draw.predicted_watts
        state = (suite, power)
        self.first = self.call(state, self.inputs(0))
        return state

    def call(self, state, request):
        suite, power = state
        return api.solve_assignment(request, suite, power)

    def ops(self, request) -> int:
        return 1

    def extra(self) -> Dict[str, float]:
        """Mean predicted fleet giga-instructions/s: the plan-quality guard."""
        return {"assign_gips": statistics.fmean(self.gips.values())} if self.gips else {}

    def check(self, state, request, result) -> int:
        """1 unless every process is placed, one per core, under budget."""
        index = request.seed - self.seed
        if index < self.GIPS_REQUESTS:
            self.gips[index] = result.predicted_ips / 1e9
        placed = Counter()
        for machine in result.machines:
            for names in machine.assignment.values():
                if len(names) > 1:
                    return 1
                placed.update(names)
        return int(
            placed != Counter(request.processes)
            or not result.predicted_watts <= self.budget
        )

    def check_first(self, state, request, result) -> int:
        """1 unless solving the first request again gave the same plan."""
        return int(result != self.first)


def _timing_metrics(
    setup: Sequence[float], work: float, calls: Sequence[float]
) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": _ratio(work, sum(calls)),
        "latency_p50_ms": quantile(calls, 0.5) * 1e3,
    }


def run_in_process(workload, seconds: float, trace: bool) -> Outcome:
    """Back-to-back calls for ``seconds``; a traced run traces odd calls.

    The run is pinned to one CPU with a :class:`speed.Sampler` beside
    it, and the end-to-end metrics use each set-up and call time scaled
    to the nominal host speed over that set-up or call.  Spans are
    drained after every traced call, so a layer's share of the traced
    p50 is its median self time per call over that p50.
    """
    speed.pin()
    sampler = speed.Sampler().start()
    try:
        return _run_calls(workload, seconds, trace, sampler)
    finally:
        sampler.stop()


def _run_calls(workload, seconds: float, trace: bool, sampler: speed.Sampler) -> Outcome:
    outcome = Outcome()
    setup: List[Tuple[float, float]] = []

    def set_up():
        start = time.perf_counter()
        state = workload.setup()
        setup.append((start, time.perf_counter()))
        return state

    def scaled(intervals) -> List[float]:
        return [(end - start) * sampler.speed(start, end) for start, end in intervals]

    state = set_up()
    layer_trace, stats = LayerTrace(), LayerStats()
    calls: Dict[bool, List[Tuple[float, float]]] = {False: [], True: []}
    work = 0.0
    first = None
    index = 0
    started = time.perf_counter()
    deadline = started + seconds
    setup_every = seconds / SETUP_SAMPLES
    while time.perf_counter() < deadline:
        if time.perf_counter() >= started + len(setup) * setup_every:
            set_up()
            continue
        traced = trace and index % 2 == 1
        inputs = workload.inputs(index)
        outcome.attempted += 1
        if traced:
            layer_trace.instrument()
        try:
            start = time.perf_counter()
            result = workload.call(state, inputs)
            end = time.perf_counter()
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            print(f"call {index} failed: {error!r}", file=sys.stderr)
            outcome.failed += 1
            continue
        finally:
            index += 1
            if traced:
                layer_trace.uninstall()
                stats.add(layer_trace.drain())
        calls[traced].append((start, end))
        work += workload.ops(inputs)
        outcome.wrong += workload.check(state, inputs, result)
        if first is None:
            first = (inputs, result)
    if first is not None:
        outcome.wrong += workload.check_first(state, *first)
    latencies = {key: [end - start for start, end in spans] for key, spans in calls.items()}
    timed = latencies[trace]
    outcome.phases = {"traced" if trace else "calls": len(timed)}
    if trace:
        outcome.phases["untraced"] = len(latencies[False])
    outcome.extra.update(workload.extra())
    outcome.extra["host_speed"] = sampler.speed(started, deadline)
    if not trace:
        scaled_calls = scaled(calls[False])
        wall = _timing_metrics([end - start for start, end in setup], work, timed)
        outcome.extra.update({f"wall.{name}": value for name, value in wall.items()})
        outcome.extra.update(_tail(scaled_calls))
        outcome.metrics = _timing_metrics(scaled(setup), work, scaled_calls)
        outcome.metrics["peak_rss_mb"] = _peak_rss_mb()
        return outcome
    outcome.extra.update(_tail(timed))
    spans = stats.summary()
    traced_p50 = quantile(timed, 0.5)
    outcome.layers = [
        (name, _ratio(summary["self_per_drain_p50_s"], traced_p50))
        for name, summary in spans.items()
    ]
    outcome.metrics = {
        **layer_metrics(spans),
        **SERVE_ONLY,
        "assign_gips": outcome.extra.get("assign_gips", 0.0),
        "loadgen.wake_late_ms_p99": 0.0,
        "loadgen.sent": float(outcome.attempted),
        "loadgen.failed": float(outcome.failed + outcome.wrong),
        "trace.overhead_share": _ratio(traced_p50, quantile(latencies[False], 0.5)) - 1.0,
        "trace.unaccounted_share": 1.0 - sum(share for _, share in outcome.layers),
    }
    outcome.trace_sample = stats.trace_sample()
    return outcome


#: Serve-only per-layer metrics, reported as zero where no server ran.
SERVE_ONLY = dict.fromkeys(
    (
        "serve.http.overhead_ms_p50",
        "serve.cache.hit_share",
        "serve.batcher.queue_wait_ms_p50",
        "serve.batcher.batch_size_mean",
        "serve.batcher.solve_ms_p50",
        "serve.batcher.shed",
        "serve.batcher.deadline_expired",
    ),
    0.0,
)


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------
class ServeChild:
    """The ``serve_child.py`` process and its line protocol."""

    def __init__(self) -> None:
        env = dict(os.environ)
        src = str(HERE.parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            self.kill()
            raise RuntimeError("server child did not start")
        self.port = int(line[1])

    def _command(self, text: str) -> str:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self.process.stdout.readline()

    def trace(self, on: bool) -> None:
        if self._command("trace on" if on else "trace off").strip() != "ok":
            raise RuntimeError("server child did not answer a trace command")

    def stop(self) -> Dict:
        report = json.loads(self._command("stop"))
        self.process.stdin.close()
        self.process.wait(timeout=60)
        return report

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class ServeWorkload:
    """Inputs and request tables shared by the two serve workloads."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        #: key -> (names, ratios); ratios None means unit ratios.
        self.table: List[Tuple[Tuple[str, ...], Optional[Tuple[float, ...]]]] = []
        self.bodies: List[bytes] = []
        self.documents = {}  #: digest -> suite document
        self.publish_digests: List[str] = []
        self.published = 0

    def _add(self, names, ratios=None) -> int:
        payload = {"model": "default", "names": list(names), "ways": WAYS}
        if ratios is not None:
            payload["frequency_ratios"] = list(ratios)
        self.table.append((tuple(names), None if ratios is None else tuple(ratios)))
        self.bodies.append(http_request("/v1/predict", json.dumps(payload).encode()))
        return len(self.table) - 1

    def document(self, scale: float = 1.0) -> Tuple[str, Dict]:
        document = suite_document(scale)
        digest = content_digest(document)
        self.documents[digest] = document
        return digest, document

    def publish_ops(self, duration: float) -> List[Op]:
        """Suite publishes to send during a phase this long; none here."""
        return []

    def next_key(self, rng: random.Random) -> int:
        raise NotImplementedError

    def open_streams(self, phase: str, duration: float, rate: float, streams: int):
        result = []
        for stream in range(streams):
            rng = _rng(self.seed, self.name, phase, stream)
            ops, due = [], 0.0
            while True:
                due += rng.expovariate(rate / streams)
                if due >= duration:
                    break
                key = self.next_key(rng)
                ops.append(Op(key, self.bodies[key], due))
            result.append(ops)
        result[0] = sorted(result[0] + self.publish_ops(duration), key=lambda op: op.due_s)
        return result

    def closed_streams(self, phase: str, length: int, streams: int):
        result = []
        for stream in range(streams):
            rng = _rng(self.seed, self.name, phase, stream)
            keys = [self.next_key(rng) for _ in range(length)]
            result.append([Op(key, self.bodies[key]) for key in keys])
        return result


class PredictCold(ServeWorkload):
    """Fresh 2-8 process mixes at mixed ratios: nearly every request misses."""

    RATE = 200.0
    CLOSED_OPS_PER_S = 700  #: per stream; well above what the server answers
    #: Requests wait out the batcher's 2 ms linger, which does not
    #: scale with CPU speed, so their timings stay wall-clock.
    CPU_BOUND = False

    def next_key(self, rng: random.Random) -> int:
        names = [rng.choice(NAMES) for _ in range(rng.randint(2, 8))]
        return self._add(names, [rng.choice(RATIOS) for _ in names])


class PredictHot(ServeWorkload):
    """Zipf reads over 64 fixed mixes, republishing the suite every 2 s."""

    RATE = 1000.0
    CLOSED_OPS_PER_S = 6000
    #: Cache hits are answered without waiting on a timer, so request
    #: timings are scaled to the nominal host speed.
    CPU_BOUND = True
    MIXES = 64
    ZIPF_S = 1.2
    PUBLISH_EVERY_S = 2.0

    def __init__(self, name: str, seed: int) -> None:
        super().__init__(name, seed)
        rng = _rng(seed, name, "mixes")
        for _ in range(self.MIXES):
            self._add([rng.choice(NAMES) for _ in range(4)])
        weights = [1.0 / rank**self.ZIPF_S for rank in range(1, self.MIXES + 1)]
        total = sum(weights)
        running, self.cdf = 0.0, []
        for weight in weights:
            running += weight
            self.cdf.append(running / total)

    def next_key(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self.cdf, rng.random()), self.MIXES - 1)

    def publish_ops(self, duration: float) -> List[Op]:
        ops = []
        due = self.PUBLISH_EVERY_S
        while due < duration:
            self.published += 1
            digest, document = self.document(1.0 + 0.001 * self.published)
            self.publish_digests.append(digest)
            body = json.dumps({"name": "default", "document": document}).encode()
            ops.append(
                Op(-len(self.publish_digests), http_request("/v1/models", body), due, timed=False)
            )
            due += self.PUBLISH_EVERY_S
        return ops


#: Reference mixes priced per ``api.predict_mixes`` call.  Larger
#: batches can hold more distinct mixes than the equilibrium cache's
#: 4096 entries, and a repeated mix then misses its evicted entry.
REFERENCE_CHUNK = 512


def _expected(workload: ServeWorkload, digest: str, keys: Sequence[int]) -> List[Dict]:
    """Reference prediction documents, after a JSON round trip."""
    suite = api.ProfileSuiteResult.from_dict(workload.documents[digest])
    documents = []
    for start in range(0, len(keys), REFERENCE_CHUNK):
        chunk = keys[start : start + REFERENCE_CHUNK]
        references = api.predict_mixes(
            [list(workload.table[key][0]) for key in chunk],
            suite,
            ways=WAYS,
            frequency_ratios=[workload.table[key][1] for key in chunk],
        )
        documents.extend(
            json.loads(json.dumps(sanitize_non_finite(r.to_dict()))) for r in references
        )
    return documents


def check_responses(workload: ServeWorkload, responses: Counter) -> int:
    """Count wrong answers among every distinct 200 response."""
    wrong = 0
    by_digest = defaultdict(list)
    for (key, body), count in responses.items():
        document = json.loads(body)
        if key < 0:
            published = document.get("published", {}).get("digest")
            wrong += count * (published != workload.publish_digests[-key - 1])
        elif document.get("digest") not in workload.documents:
            wrong += count
        else:
            by_digest[document["digest"]].append((key, document["prediction"], count))
    for digest, items in by_digest.items():
        expected = _expected(workload, digest, [key for key, _, _ in items])
        wrong += sum(
            count for (_, got, count), want in zip(items, expected) if got != want
        )
    return wrong


def _segments(streams: List[List[Op]], segment_s: float) -> List[List[List[Op]]]:
    """Cut a schedule into back-to-back segments, each starting at 0."""
    count = max(1, math.ceil(max(op.due_s for ops in streams for op in ops) / segment_s))
    segments = [[[] for _ in streams] for _ in range(count)]
    for stream, ops in enumerate(streams):
        for op in ops:
            index = min(int(op.due_s // segment_s), count - 1)
            op.due_s -= index * segment_s
            segments[index][stream].append(op)
    return segments


def _serve_layers(report: Dict, client: PhaseResult) -> Tuple[Dict[str, float], List]:
    spans, counters = report["spans"], report["counters"]
    sizes = report["histograms"].get("serve.batch.size", {})
    hits, misses = counters.get("serve.cache.hits", 0.0), counters.get("serve.cache.misses", 0.0)
    client_p50 = quantile(client.latencies_s, 0.5)
    predict_p50 = _span(spans, "serve.service.predict")["wall_p50_s"]
    queue_wait_p50 = quantile(report["samples"]["serve.predict.queue_wait_s"], 0.5)
    solve_p50 = quantile(report["samples"]["serve.batch.solve_s"], 0.5)
    metrics = layer_metrics(spans)
    metrics.update(
        {
            "serve.http.overhead_ms_p50": (client_p50 - predict_p50) * 1e3,
            "serve.cache.hit_share": _ratio(hits, hits + misses),
            "serve.batcher.queue_wait_ms_p50": queue_wait_p50 * 1e3,
            "serve.batcher.batch_size_mean": _ratio(sizes.get("sum", 0.0), sizes.get("count", 0)),
            "serve.batcher.solve_ms_p50": solve_p50 * 1e3,
            "serve.batcher.shed": counters.get("serve.predict.shed", 0.0),
            "serve.batcher.deadline_expired": counters.get("serve.predict.deadline_expired", 0.0),
        }
    )
    # The median request's path: every request probes the cache and
    # is serialized; a miss also queues, solves and fills the cache.
    # Loop spans interleave across requests, so the split uses each
    # layer's own median, with the miss path weighted by the miss share.
    miss_share = 1.0 - metrics["serve.cache.hit_share"]
    path = {
        "serve.http (client + server)": client_p50 - predict_p50,
        "serve.cache.get": _span(spans, "serve.cache.get")["wall_p50_s"],
        "serve.batcher.queue_wait": miss_share * queue_wait_p50,
        "serve.batcher.solve": miss_share * solve_p50,
        "serve.cache.put": miss_share * _span(spans, "serve.cache.put")["wall_p50_s"],
        "io.mix_prediction_to_dict": _span(spans, "io.mix_prediction_to_dict")["wall_p50_s"],
    }
    return metrics, [(name, _ratio(value, client_p50)) for name, value in path.items()]


def run_serve(workload: ServeWorkload, seconds: float, trace: bool) -> Outcome:
    """Warm-up, then open and closed loop; a traced run alternates
    untraced and traced segments of one open-loop schedule.

    The load generator and the server child are pinned to the same
    CPU, so the child's :class:`speed.Sampler` measures the CPU that
    all the work runs on.  Set-up times, and the p50 and throughput of a ``CPU_BOUND``
    workload, are scaled to the nominal host speed over the interval
    each was measured in.
    """
    outcome = Outcome()
    streams = min(2, os.cpu_count() or 1)
    speed.pin()
    initial, _ = workload.document()
    probe = workload.next_key(_rng(workload.seed, workload.name, "probe"))
    want = _expected(workload, initial, [probe])[0]
    rate = workload.RATE
    setup: List[float] = []
    wall_setup: List[float] = []

    def set_up() -> Tuple[ServeChild, float, float]:
        """Spawn a server child; time it to its first correct answer."""
        start = time.perf_counter()
        spawned = ServeChild()
        try:
            connection = Connection(spawned.port)
            status, body = connection.call(workload.bodies[probe])
            connection.close()
            if status != 200 or json.loads(body)["prediction"] != want:
                raise RuntimeError(f"probe request answered wrongly ({status})")
        except BaseException:
            spawned.kill()
            raise
        return spawned, start, time.perf_counter()

    def stop(spawned: ServeChild, start: float, end: float) -> Dict:
        report = spawned.stop()
        wall_setup.append(end - start)
        setup.append((end - start) * speed.speed(report["speed_samples"], start, end))
        return report

    for _ in range(SETUP_SAMPLES // 2 - 1):
        stop(*set_up())
    child, child_start, child_ready = set_up()
    try:
        warmup = open_loop(child.port, workload.open_streams("warmup", WARMUP_S, rate, streams))
        if trace:
            phases = {"untraced": PhaseResult(), "traced": PhaseResult()}
            schedule = workload.open_streams("open", seconds, rate, streams)
            for index, segment in enumerate(_segments(schedule, SEGMENT_S)):
                traced = index % 2 == 1
                if index:
                    child.trace(traced)
                phases["traced" if traced else "untraced"].merge(open_loop(child.port, segment))
        else:
            open_s = round(seconds * OPEN_SHARE, 3)
            closed_s = seconds - open_s
            closed_ops = int(workload.CLOSED_OPS_PER_S * closed_s) + 1
            phases = {
                "open": open_loop(child.port, workload.open_streams("open", open_s, rate, streams)),
                "closed": closed_loop(
                    child.port,
                    workload.closed_streams("closed", closed_ops, streams),
                    closed_s,
                    workload.publish_ops(closed_s),
                ),
            }
        report = stop(child, child_start, child_ready)
        child = None
    finally:
        if child is not None:
            child.kill()
    for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2):
        stop(*set_up())
    responses, wake_late = Counter(warmup.responses), list(warmup.wake_late_s)
    outcome.failed += warmup.failed
    for phase in phases.values():
        responses.update(phase.responses)
        wake_late.extend(phase.wake_late_s)
        outcome.attempted += phase.sent
        outcome.failed += phase.failed
    outcome.wrong = check_responses(workload, responses)
    outcome.phases = {name: len(phase.latencies_s) for name, phase in phases.items()}
    wake_late_ms_p99 = quantile(wake_late, 0.99) * 1e3
    if wake_late_ms_p99 > MAX_WAKE_LATE_MS:
        outcome.invalid.append(
            f"loadgen.wake_late_ms_p99 {wake_late_ms_p99:.3f} > {MAX_WAKE_LATE_MS}"
        )
    timed = phases["traced" if trace else "open"]
    outcome.extra.update(_tail(timed.latencies_s))
    if workload.published:
        outcome.extra["published"] = float(workload.published)
    samples = report["speed_samples"]
    outcome.extra["host_speed"] = speed.speed(samples, warmup.started_s, math.inf)
    if not trace:
        closed = phases["closed"]
        wall = {
            "setup_s": statistics.median(wall_setup),
            "throughput_ops_s": _ratio(len(closed.latencies_s), closed.duration_s),
            "latency_p50_ms": quantile(timed.latencies_s, 0.5) * 1e3,
        }
        outcome.extra.update({f"wall.{name}": value for name, value in wall.items()})

        def phase_speed(phase: PhaseResult) -> float:
            if not workload.CPU_BOUND:
                return 1.0
            return speed.speed(samples, phase.started_s, phase.started_s + phase.duration_s)

        outcome.metrics = {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": wall["throughput_ops_s"] / phase_speed(closed),
            "latency_p50_ms": wall["latency_p50_ms"] * phase_speed(timed),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
        return outcome
    metrics, outcome.layers = _serve_layers(report, timed)
    untraced_p50 = quantile(phases["untraced"].latencies_s, 0.5)
    metrics.update(
        {
            "assign_gips": 0.0,
            "loadgen.wake_late_ms_p99": wake_late_ms_p99,
            "loadgen.sent": float(outcome.attempted),
            "loadgen.failed": float(outcome.failed + outcome.wrong),
            "trace.overhead_share": _ratio(quantile(timed.latencies_s, 0.5), untraced_p50) - 1.0,
            "trace.unaccounted_share": 1.0 - sum(share for _, share in outcome.layers),
        }
    )
    outcome.metrics = metrics
    outcome.trace_sample = report["trace_sample"]
    return outcome


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    if name == "predict_cold":
        outcome = run_serve(PredictCold(name, seed), seconds, trace)
    elif name == "predict_hot":
        outcome = run_serve(PredictHot(name, seed), seconds, trace)
    elif name == "price_batch":
        outcome = run_in_process(PriceBatch(seed), seconds, trace)
    elif name == "assign_fleet":
        outcome = run_in_process(AssignFleet(seed), seconds, trace)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if not trace:
        short = {phase: n for phase, n in outcome.phases.items() if n < MIN_SAMPLES}
        outcome.invalid.extend(
            f"phase {phase} has {n} < {MIN_SAMPLES} samples" for phase, n in short.items()
        )
    outcome.extra["error_rate"] = _ratio(outcome.failed + outcome.wrong, outcome.attempted)
    return outcome
