"""Prediction-server child process for the serve workloads.

Run as ``python serve_child.py`` with the repository's ``src`` on
``PYTHONPATH``; it keeps the CPU affinity of the process that starts
it.  It runs a :class:`speed.Sampler` from start to stop, serves the
benchmark suite as model ``default`` through :func:`repro.api.serve`
with the library defaults and speaks a line protocol on stdin/stdout:

- prints ``ready <port>`` once the server listens;
- ``trace on`` wraps the layer boundaries (see ``tracing.py``) and
  keeps the batcher's queue-wait and solve samples; ``trace off``
  takes the wrappers out again and adds the service counters' change
  since ``trace on`` to the totals.  Both answer ``ok``;
- ``stop`` (or end of input) stops the server and prints one JSON
  line: the peak resident set, the host-speed samples and, if tracing
  was ever on, the span summary, the samples and the counter changes;
  then the child exits.
"""

from __future__ import annotations

import json
import resource
import sys
from collections import defaultdict

import speed

# Most of the set-up time is spent importing the library, so sampling
# starts before those imports.
if __name__ == "__main__":
    SAMPLER = speed.Sampler().start()

from repro import api  # noqa: E402
from repro.obs.metrics import Histogram  # noqa: E402

from tracing import LayerStats, LayerTrace  # noqa: E402
from workloads import suite_document  # noqa: E402

#: Batcher histograms whose raw samples give exact medians.
WATCHED = ("serve.predict.queue_wait_s", "serve.batch.solve_s")


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class TracedService:
    """Turns tracing of one running service on and off."""

    def __init__(self, metrics) -> None:
        self.metrics = metrics
        self.trace = LayerTrace()
        self.samples = {name: [] for name in WATCHED}
        self.counters = defaultdict(float)
        self.histograms = defaultdict(lambda: {"count": 0, "sum": 0.0})
        self._before = None
        self._observe = Histogram.observe

    def on(self) -> None:
        self._before = self.metrics.to_dict()
        by_id = {id(self.metrics.histogram(name)): self.samples[name] for name in WATCHED}
        original = self._observe

        def observe(histogram, value):
            original(histogram, value)
            samples = by_id.get(id(histogram))
            if samples is not None:
                samples.append(value)

        Histogram.observe = observe
        self.trace.instrument()

    def off(self) -> None:
        if self._before is None:
            return
        self.trace.uninstall()
        Histogram.observe = self._observe
        after = self.metrics.to_dict()
        for name, value in after["counters"].items():
            self.counters[name] += value - self._before["counters"].get(name, 0.0)
        for name, summary in after["histograms"].items():
            earlier = self._before["histograms"].get(name, {"count": 0, "sum": 0.0})
            self.histograms[name]["count"] += summary["count"] - earlier["count"]
            self.histograms[name]["sum"] += summary["sum"] - earlier["sum"]
        self._before = None

    def report(self) -> dict:
        stats = LayerStats()
        stats.add(self.trace.drain())
        return {
            "spans": stats.summary(),
            "trace_sample": stats.trace_sample(),
            "samples": self.samples,
            "counters": dict(self.counters),
            "histograms": dict(self.histograms),
        }


def main() -> int:
    handle = api.serve({"default": suite_document()})
    print(f"ready {handle.port}", flush=True)
    traced = None
    while True:
        command = sys.stdin.readline().strip()
        if command == "trace on":
            traced = traced or TracedService(handle.service.metrics)
            traced.on()
        elif command == "trace off":
            if traced is not None:
                traced.off()
        elif command in ("stop", ""):
            break
        else:
            continue
        print("ok", flush=True)
    if traced is not None:
        traced.off()
    handle.stop()
    SAMPLER.stop()
    report = traced.report() if traced is not None else {}
    report["peak_rss_kb"] = peak_rss_kb()
    report["speed_samples"] = SAMPLER.samples
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
