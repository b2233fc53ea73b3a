"""Host-speed scaling of CPU-bound timings.

On a small shared VM the speed of a vCPU changes by 30-60 % within
seconds as neighbours on the physical host come and go, and the slow
spells do not average out over a run: ten runs of one commit can
spread by a quarter to a half of their median.  Timings of CPU-bound
work are therefore scaled to a nominal host speed:

- the process doing the work, and any child process it starts, is
  pinned to one CPU (:func:`pin`), so that a thread beside it runs on
  the same CPU;
- a :class:`Sampler` thread in that process runs :func:`probe`, a
  fixed computation of the kinds this library spends its time in
  (small numpy calls, building and sorting Python objects), every
  :data:`INTERVAL_S`, and records its speed: :data:`NOMINAL_S` over
  its thread CPU time, which leaves out time spent waiting for the GIL;
- a time ``t`` measured over an interval is reported as ``t * speed``,
  with ``speed`` the mean of the samples taken in the interval: the
  time the work would have taken at the nominal speed.

Of the probe kinds tried (an integer loop, small numpy calls, object
churn, numpy over 512 x 8 arrays, random reads over 2 MB), small numpy
calls plus object churn tracked the in-process workloads best: over 14
runs on a 2-vCPU VM the quartile spread of the call p50 fell from 15 %
(``price_batch``) and 26 % (``assign_fleet``) of the median to 2-3 %.
The scaling is not exact: in some slow spells the library slows down
more than the probe.  A sample costs about 0.12 ms every 10 ms, paid
alike by both sides of a comparison.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Sequence

import numpy as np

#: Thread CPU time of one :func:`probe` at the nominal speed, about
#: its time on a quiet 2-vCPU Xeon VM.
NOMINAL_S = 1.0e-4
#: Time between two samples.
INTERVAL_S = 0.01

_SMALL = np.linspace(1.0, 2.0, 64)


def _value(item):
    return item["value"]


def probe() -> float:
    """Thread CPU seconds of the fixed reference computation: small
    numpy calls, then building and sorting a list of dicts."""
    start = time.thread_time()
    values = _SMALL
    for _ in range(24):
        values = np.sqrt(values * 1.0001 + 1.0)
    for _ in range(2):
        items = [{"key": i, "value": (i * 7) % 13} for i in range(150)]
        items.sort(key=_value)
    return time.thread_time() - start


def pin() -> None:
    """Pin the calling thread, and the threads and processes it starts
    from now on, to the lowest CPU it may run on (where the platform
    allows it)."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Sampler:
    """A thread timing :func:`probe` every :data:`INTERVAL_S`.

    ``samples`` holds ``(perf_counter at the sample, speed)`` pairs;
    ``time.perf_counter`` is the system-wide monotonic clock, so samples
    taken in a child process can be matched with intervals timed in its
    parent.
    """

    def __init__(self) -> None:
        self.samples: List[Sequence[float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append((time.perf_counter(), NOMINAL_S / probe()))

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        return speed(self.samples, start, end)


def speed(samples: Sequence[Sequence[float]], start: float, end: float) -> float:
    """Mean speed of the samples taken in ``[start, end]``.

    An interval too short to hold a sample takes the sample nearest to
    its middle; 1.0 when there are no samples at all.
    """
    inside = [value for at, value in samples if start <= at <= end]
    if inside:
        return sum(inside) / len(inside)
    if not samples:
        return 1.0
    middle = (start + end) / 2
    return min(samples, key=lambda sample: abs(sample[0] - middle))[1]
