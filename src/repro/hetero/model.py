"""Pricing machine states under heterogeneous core types and P-states.

A machine state here also carries a P-state index per busy core.  The
spec resolves each ``(core, P-state)`` to an
:class:`~repro.hetero.types.OperatingPoint`, and the combined model
prices the state with those points as per-core parameters of the one
Eq. 9-11 procedure:

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
prices with ``points=None``, the paper-machine arithmetic a plain
machine uses, so its results are bit-identical to a plain machine
rather than merely within float tolerance of one.

Memo key: :class:`HeteroPricer` binds its ``(core, P-state) ->
OperatingPoint`` table to the model once
(``CombinedModel.bind_pstates``), and ``CombinedModel.state_metrics``
memoises each cache domain's part on the state's ``(core, names,
P-state index)`` entries on that domain.  The key holds no
``OperatingPoint``; the fixed table resolves indices to points only
when a domain is priced for the first time, which is also where an
out-of-range core or index raises.  The model keeps the table, never
the pricer, so the two form no reference cycle.
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

    One pricer per evaluator machine config.  It resolves what the spec
    decides — the ``(core, P-state) -> OperatingPoint`` table and each
    core's idle point — and binds both to the config's
    ``CombinedModel``, which keeps the only copy.  The pricer keeps the
    idle machine's watts and prices every state through the model.
    A model serves one table: a pricer for another spec on the same
    model raises.
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
        # Fixed by the (frozen) spec, so resolved once instead of on
        # every state.
        points: Dict[Tuple[int, int], OperatingPoint] = {
            (core, index): spec.operating_point(core, index)
            for core in range(spec.num_cores)
            for index in range(len(spec.core_type(core).pstates))
        }
        idle_points = tuple(
            points[core, spec.core_type(core).idle_pstate_index]
            for core in range(spec.num_cores)
        )
        if spec.is_unit:
            # Same expression the homogeneous config uses, so the two
            # idle baselines are the same float, not just equal sums.
            self.idle_watts = topology.num_cores * p_idle
        else:
            self.idle_watts = sum(
                point.static_multiplier * p_idle for point in idle_points
            )
        # The model keeps the table, not the pricer: a pricer -> model
        # -> pricer cycle would outlive its suite until a collection.
        combined.bind_pstates(
            points, idle_points, spec.operating_point, unit=spec.is_unit
        )

    def state_metrics(self, state: HeteroState) -> Tuple[float, float]:
        """(watts, total instructions per second) of one machine state."""
        return self.combined.state_metrics(state)
