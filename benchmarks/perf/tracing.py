"""Per-layer spans recorded around the library's public boundaries.

The library's own observer is left off: enabling it changes code paths
(``PerformanceModel.predict_batch`` falls back to per-mix solves under
an enabled observer).  Instead :class:`LayerTrace` swaps public
functions and methods for wrappers that open a :class:`repro.obs.Span`
around the original call, and puts the originals back on
:meth:`LayerTrace.uninstall`.  Spans are kept in memory in one
:class:`repro.obs.Tracer` per thread, so parent links are exact for
code that runs on one thread.  Coroutine spans on an event loop
interleave on that loop's tracer, so their parent links are not
meaningful; only their durations are used.

:class:`LayerStats` folds drained span records into per-name
durations, self times (a span's duration minus its children's) and
summed numeric attributes, and keeps each name's self time per drain:
drained after every call, that is the layer's self time per call.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.obs import TRACE_FORMAT_VERSION, Tracer

#: Spans kept per name for the exported trace sample.
SAMPLE_SPANS_PER_NAME = 64


class LayerTrace:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self) -> None:
        self._tracers: Dict[int, Tracer] = {}
        self._patches: List = []

    def _tracer(self) -> Tracer:
        ident = threading.get_ident()
        tracer = self._tracers.get(ident)
        if tracer is None:
            tracer = self._tracers[ident] = Tracer()
        return tracer

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        annotate: Optional[Callable] = None,
    ) -> None:
        """Wrap ``owner.attr`` in a span called ``name``.

        ``before(args)`` runs ahead of the call and its value is handed
        to ``annotate(span, args, result, state)``, which runs after the
        span closed (so neither hook is charged to the layer).
        """
        original = vars(owner)[attr]
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                with self._tracer().span(name):
                    return await original(*args, **kwargs)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                state = before(args) if before is not None else None
                with self._tracer().span(name) as span:
                    result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, result, state)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def instrument(self) -> None:
        """Wrap every library boundary the per-layer metrics read."""
        import repro.api
        import repro.fleet
        from repro.core import batch_equilibrium, performance_model
        from repro.fleet.evaluator import FleetEvaluator
        from repro.hetero.model import HeteroPricer
        from repro.parallel import ParallelPredictor
        from repro.serve.cache import PredictionResultCache
        from repro.serve.http import PredictionService
        from repro.serve.registry import ModelRegistry

        def cache_before(args):
            return args[0].cache_stats

        def cache_after(span, args, result, before):
            after = args[0].cache_stats
            span.annotate(
                mixes=len(result),
                eq_hits=after.hits - before.hits,
                eq_lookups=after.lookups - before.lookups,
            )

        def rows_after(span, args, result, _):
            stacked = [
                r for r in result
                if r.telemetry is not None and r.telemetry.solver == "batch_newton"
            ]
            span.annotate(
                rows=len(result),
                fallback_rows=len(result) - len(stacked),
                newton_iterations=sum(r.iterations for r in stacked),
            )

        # The evaluator is built inside fleet.solve; prime (always the
        # solve's first evaluator call) hands it to the solve's hook.
        evaluators = []

        def prime_after(span, args, result, _):
            evaluators.append(args[0])
            span.annotate(mixes=result)

        def solve_after(span, args, result, _):
            evaluator = evaluators.pop()
            span.annotate(
                iterations=result.iterations,
                evaluations=evaluator.evaluations,
                lookups=evaluator.lookups,
            )

        self.patch(repro.api, "predict_mixes", "api.predict_mixes")
        self.patch(repro.api, "solve_assignment", "api.solve_assignment")
        self.patch(repro.fleet, "solve", "fleet.solve", annotate=solve_after)
        self.patch(
            FleetEvaluator, "prime", "fleet.evaluator.prime", annotate=prime_after
        )
        self.patch(FleetEvaluator, "state_metrics", "fleet.evaluator.state_metrics")
        self.patch(HeteroPricer, "state_metrics", "hetero.pricer.state_metrics")
        self.patch(
            ParallelPredictor,
            "predict_mixes",
            "parallel.predict_mixes",
            before=cache_before,
            annotate=cache_after,
        )
        self.patch(
            performance_model.PerformanceModel,
            "predict_batch",
            "performance_model.predict_batch",
            annotate=lambda span, args, result, _: span.annotate(mixes=len(result)),
        )
        self.patch(
            batch_equilibrium.BatchNewtonSolver,
            "solve_batch",
            "batch_equilibrium.solve_batch",
            annotate=rows_after,
        )
        for module in (batch_equilibrium, performance_model):
            self.patch(module, "solve_equilibrium", "equilibrium.solve_equilibrium")
        self.patch(PredictionService, "predict", "serve.service.predict")
        self.patch(PredictionResultCache, "get", "serve.cache.get")
        self.patch(PredictionResultCache, "put", "serve.cache.put")
        self.patch(ModelRegistry, "publish", "serve.registry.publish")
        self.patch(repro.api.MixPrediction, "to_dict", "io.mix_prediction_to_dict")

    def drain(self) -> List[List[Dict]]:
        """Finished span records per thread; clears the tracers.

        Call only while no wrapped call is in flight.
        """
        drained = []
        for tracer in list(self._tracers.values()):
            records = tracer.to_dict()["spans"]
            tracer.clear()
            if records:
                drained.append(records)
        return drained


class LayerStats:
    """Per-span-name durations, self times and attribute sums."""

    def __init__(self) -> None:
        self.wall: Dict[str, array] = defaultdict(lambda: array("d"))
        self.self_time: Dict[str, array] = defaultdict(lambda: array("d"))
        self.attributes: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.sample: Dict[str, List[Dict]] = defaultdict(list)
        self.per_drain: List[Dict[str, float]] = []

    def add(self, per_thread: List[List[Dict]]) -> None:
        drained: Dict[str, float] = defaultdict(float)
        self.per_drain.append(drained)
        for records in per_thread:
            covered: Dict[int, float] = defaultdict(float)
            for record in records:
                if record["parent_id"] is not None:
                    covered[record["parent_id"]] += record["wall_s"]
            for record in records:
                name = record["name"]
                self.wall[name].append(record["wall_s"])
                self_s = record["wall_s"] - covered.get(record["id"], 0.0)
                self.self_time[name].append(self_s)
                drained[name] += self_s
                totals = self.attributes[name]
                for key, value in record["attributes"].items():
                    if isinstance(value, (int, float)):
                        totals[key] += value
                if len(self.sample[name]) < SAMPLE_SPANS_PER_NAME:
                    self.sample[name].append(record)

    def summary(self) -> Dict[str, Dict]:
        """Per span name: count, p50s, totals (seconds) and attributes.

        ``self_per_drain_p50_s`` is the median over drains of the name's
        self time in that drain (0 where it did not run).
        """
        return {
            name: {
                "count": len(wall),
                "wall_p50_s": statistics.median(wall),
                "self_p50_s": statistics.median(self.self_time[name]),
                "self_per_drain_p50_s": statistics.median(
                    drained.get(name, 0.0) for drained in self.per_drain
                ),
                "wall_total_s": sum(wall),
                "self_total_s": sum(self.self_time[name]),
                "attributes": dict(self.attributes[name]),
            }
            for name, wall in sorted(self.wall.items())
        }

    def trace_sample(self) -> Dict:
        """A bounded :class:`repro.obs.Tracer`-format export.

        Span ids are unique only within one thread's batch of one
        :meth:`LayerTrace.drain`, so parent links are for reading, not
        for joining across the sample.
        """
        spans = [record for name in sorted(self.sample) for record in self.sample[name]]
        return {"kind": "trace", "version": TRACE_FORMAT_VERSION, "spans": spans}
