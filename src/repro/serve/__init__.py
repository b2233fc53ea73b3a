"""repro.serve — asyncio prediction service over the model pipeline.

The paper's models exist to be queried *on-line*: a scheduler asks
"what would this tentative process-to-core assignment cost?" before
committing to it.  This subsystem turns the offline library into that
long-running surface, stdlib-only:

- :class:`ModelRegistry` — versioned, content-hashed store of served
  artifacts (profiled suites, fitted power models) with idempotent
  publish and hot swap.
- :class:`MicroBatcher` — dynamic micro-batching of concurrent
  predict requests into batches solved by a persistent
  :class:`~repro.parallel.ParallelPredictor`; dispatch whenever the
  solver is idle (an explicit linger is opt-in), bounded queue with
  explicit shedding, per-request deadlines.
- :class:`PredictionServer` / :class:`PredictionService` — the
  JSON-over-HTTP front end (``/v1/predict``, ``/v1/assign``,
  ``/v1/models``, ``/healthz``, ``/readyz``, ``/metrics``).
- :class:`ServerHandle` / :func:`start_server` — run it all from
  synchronous code (this is what :func:`repro.api.serve` and the
  ``repro serve`` CLI command use).
- :class:`ServeClient` / :func:`run_load` — stdlib client and the
  load generator behind ``benchmarks/bench_serve_throughput.py`` and
  ``benchmarks/bench_serve_scale.py`` (sustained mixed read/publish
  runs via :class:`PublishLoad`, SLO assertions via
  :meth:`LoadReport.check_slo`).
- :class:`PredictionResultCache` — bounded LRU over canonical mixes
  keyed by registry content digest; hits skip the solver entirely and
  stay bit-identical (see :mod:`repro.serve.cache`).
- :class:`WorkerPool` / :func:`start_worker_pool` — N shared-nothing
  server processes behind ``SO_REUSEPORT`` for multi-core scale-out.

Served predictions are **bit-identical** to :func:`repro.api.predict_mix`
for the same suite/mix: every equilibrium solve starts cold, so a
solution depends only on the co-run itself, never on
batching, concurrency, or request order.
"""

from repro.serve.batcher import MicroBatcher
from repro.serve.cache import PredictionResultCache, canonical_mix
from repro.serve.client import (
    LoadReport,
    PublishLoad,
    ServeClient,
    ServeClientError,
    run_load,
)
from repro.serve.errors import (
    DeadlineExpiredError,
    QueueFullError,
    ServeError,
    ServiceClosedError,
    UnknownModelError,
)
from repro.serve.handle import ServerHandle, start_server
from repro.serve.http import PredictionServer, PredictionService
from repro.serve.registry import Artifact, ModelRegistry, parse_model_ref
from repro.serve.workers import WorkerPool, start_worker_pool

__all__ = [
    "Artifact",
    "DeadlineExpiredError",
    "LoadReport",
    "MicroBatcher",
    "ModelRegistry",
    "PredictionResultCache",
    "PredictionServer",
    "PredictionService",
    "PublishLoad",
    "QueueFullError",
    "ServeClient",
    "ServeClientError",
    "ServeError",
    "ServerHandle",
    "ServiceClosedError",
    "UnknownModelError",
    "WorkerPool",
    "canonical_mix",
    "parse_model_ref",
    "run_load",
    "start_server",
    "start_worker_pool",
]
