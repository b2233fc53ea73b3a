"""Pricing machine states under heterogeneous core types and P-states.

A machine state here also carries a P-state index per busy core.  The
spec resolves each ``(core, P-state)`` to an
:class:`~repro.hetero.types.OperatingPoint`, and
``CombinedModel.estimate_state`` prices the state with those points as
per-core parameters of the one Eq. 9-11 procedure:

- **Performance** — a core's frequency ratio feeds the SPI model
  (``PerformanceModel.predict(..., frequency_ratios=...)``), so
  contention equilibria shift exactly as a faster/slower cache client
  would shift them.  Throughput follows from the ratio-scaled SPIs, no
  extra scaling needed.
- **Power** — Eq. 9 splits a core's draw into P_idle plus an
  activity-driven part.  The operating point multiplies the static term
  (design leakage x voltage) and the dynamic term (design activity
  energy x voltage^2); for the uncontended path the profiled
  ``p_alone - p_idle`` is additionally scaled by the frequency ratio
  (rates scale with the clock), while the contended path needs no such
  factor because Eq. 9 is evaluated on the ratio-scaled predicted SPI,
  which already carries the clock into the event rates.
- **Idle cores** park at the core type's deepest P-state (lowest static
  multiplier) — the race-to-idle assumption.

Parity contract: a *unit* spec (every operating point exactly 1.0)
prices with ``points=None``, the paper-machine call a plain machine
makes, so its results are bit-identical to a plain machine rather than
merely within float tolerance of one.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.combined import CombinedModel
from repro.errors import ConfigurationError
from repro.hetero.types import HeteroMachineSpec, OperatingPoint
from repro.machine.topology import MachineTopology

# A hetero machine state: (core, names, pstate_index) per busy core,
# sorted by core id (see :func:`repro.fleet.evaluator.canonical_state`).
HeteroState = Tuple[Tuple[int, Tuple[str, ...], int], ...]


class HeteroPricer:
    """Scores hetero machine states: (watts, instructions per second).

    One pricer per evaluator machine config.  It holds what the spec
    decides — the ``(core, P-state) -> OperatingPoint`` table, each
    core's idle point and the idle machine's watts — and prices every
    state through the config's ``CombinedModel``.
    """

    def __init__(
        self,
        spec: HeteroMachineSpec,
        topology: MachineTopology,
        combined: CombinedModel,
    ) -> None:
        if spec.num_cores != topology.num_cores:
            raise ConfigurationError(
                f"hetero spec for {spec.machine!r} covers {spec.num_cores} "
                f"cores but topology {topology.name!r} has "
                f"{topology.num_cores}"
            )
        self.spec = spec
        self.combined = combined
        p_idle = combined.power_model.p_idle
        # Both are fixed by the (frozen) spec, so resolve them once
        # instead of on every state.
        self.is_unit = spec.is_unit
        self._points: Dict[Tuple[int, int], OperatingPoint] = {
            (core, index): spec.operating_point(core, index)
            for core in range(spec.num_cores)
            for index in range(len(spec.core_type(core).pstates))
        }
        self.idle_points: Tuple[OperatingPoint, ...] = tuple(
            self._points[core, spec.core_type(core).idle_pstate_index]
            for core in range(spec.num_cores)
        )
        if self.is_unit:
            # Same expression the homogeneous config uses, so the two
            # idle baselines are the same float, not just equal sums.
            self.idle_watts = topology.num_cores * p_idle
        else:
            self.idle_watts = sum(
                point.static_multiplier * p_idle for point in self.idle_points
            )

    def state_metrics(self, state: HeteroState) -> Tuple[float, float]:
        """(watts, total instructions per second) of one machine state."""
        points = list(self.idle_points)
        for core, names, pstate_index in state:
            if not names:
                continue
            point = self._points.get((core, pstate_index))
            if point is None:
                # A core or index outside the spec: it raises its
                # descriptive range error.
                point = self.spec.operating_point(core, pstate_index)
            points[core] = point
        estimate = self.combined.estimate_state(
            {core: names for core, names, _ in state},
            None if self.is_unit else points,
        )
        return estimate.watts, estimate.ips
