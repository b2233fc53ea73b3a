"""Pricing machine states under heterogeneous core types and P-states.

The homogeneous pipeline prices a machine state (who runs on which
core) via ``CombinedModel.estimate_assignment_power`` / ``..throughput``
(Eq. 9-11).  This module generalizes both estimates to states that also
carry a P-state index per busy core:

- **Performance** — a core's operating point contributes its frequency
  ratio to the SPI model (``PerformanceModel.predict(...,
  frequency_ratios=...)``), so contention equilibria shift exactly as a
  faster/slower cache client would shift them.  Throughput follows from
  the ratio-scaled SPIs, no extra scaling needed.
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

Bit-parity contract: a *unit* spec (every operating point exactly 1.0)
never touches hetero arithmetic at all — state pricing strips the
P-state indices and delegates wholesale to the homogeneous
``CombinedModel`` estimators, so results are bit-identical to a plain
machine rather than merely within float tolerance of one.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.combined import CombinedModel
from repro.core.feature import ProfileVector
from repro.core.timesharing import core_set_power, process_combinations
from repro.errors import ConfigurationError
from repro.hetero.types import HeteroMachineSpec, OperatingPoint
from repro.machine.topology import MachineTopology

# A hetero machine state: (core, names, pstate_index) per busy core,
# sorted by core id.  The homogeneous analogue drops the third element.
HeteroState = Tuple[Tuple[int, Tuple[str, ...], int], ...]


def canonical_hetero_state(
    assignment: Mapping[int, Sequence[str]],
    pstate_of: Mapping[int, int],
) -> HeteroState:
    """Canonical hashable form of a hetero machine assignment.

    Mirrors :func:`repro.fleet.evaluator.canonical_state` with the
    busy cores' P-state indices appended; idle cores carry no entry.
    """
    return tuple(
        sorted(
            (int(core), tuple(sorted(names)), int(pstate_of[core]))
            for core, names in assignment.items()
            if names
        )
    )


class HeteroPricer:
    """Scores hetero machine states: (watts, instructions per second).

    One pricer per evaluator machine config; it shares the config's
    ``CombinedModel`` (profiles, power model, per-domain performance
    models) and keeps its own co-run memo keyed by canonically sorted
    ``(name, frequency_ratio)`` pairs — name alone is not a key once
    the same program can run on two cores at different clocks.
    """

    def __init__(
        self,
        spec: HeteroMachineSpec,
        topology: MachineTopology,
        combined: CombinedModel,
        profiles: Mapping[str, ProfileVector],
    ) -> None:
        if spec.num_cores != topology.num_cores:
            raise ConfigurationError(
                f"hetero spec for {spec.machine!r} covers {spec.num_cores} "
                f"cores but topology {topology.name!r} has "
                f"{topology.num_cores}"
            )
        self.spec = spec
        self.topology = topology
        self.combined = combined
        self.profiles = profiles
        self.p_idle = combined.power_model.p_idle
        # Both are fixed by the (frozen) spec, so resolve them once
        # instead of on every state.
        self.is_unit = spec.is_unit
        self._points: Dict[Tuple[int, int], OperatingPoint] = {
            (core, index): spec.operating_point(core, index)
            for core in range(spec.num_cores)
            for index in range(len(spec.core_type(core).pstates))
        }
        self.idle_core_watts: Tuple[float, ...] = tuple(
            self._points[core, spec.core_type(core).idle_pstate_index].static_multiplier
            * self.p_idle
            for core in range(spec.num_cores)
        )
        if self.is_unit:
            # Same expression the homogeneous config uses, so the two
            # idle baselines are the same float, not just equal sums.
            self.idle_watts = topology.num_cores * self.p_idle
        else:
            self.idle_watts = sum(self.idle_core_watts)
        self._corun: Dict[Tuple, Tuple[Tuple[float, float], ...]] = {}

    def _profile(self, name: str) -> ProfileVector:
        profile = self.profiles.get(name)
        if profile is None:
            raise ConfigurationError(f"no profile registered for {name!r}")
        return profile

    def _corun_points(
        self,
        domain_idx: int,
        combo: Sequence[str],
        ratios: Sequence[float],
    ) -> Tuple[Tuple[float, float], ...]:
        """Predicted (spi, l2mpr) per position of ``combo`` at ``ratios``."""
        order = sorted(
            range(len(combo)), key=lambda i: (combo[i], ratios[i])
        )
        key = (domain_idx, tuple((combo[i], ratios[i]) for i in order))
        cached = self._corun.get(key)
        if cached is None:
            model = self.combined.performance_models[domain_idx]
            prediction = model.predict(
                [combo[i] for i in order],
                frequency_ratios=[ratios[i] for i in order],
            )
            cached = tuple((p.spi, p.l2mpr) for p in prediction.processes)
            self._corun[key] = cached
        slot = [0] * len(combo)
        for canonical_position, original_index in enumerate(order):
            slot[original_index] = canonical_position
        return tuple(cached[slot[i]] for i in range(len(combo)))

    def _solo_ips(self, domain_idx: int, name: str, ratio: float) -> float:
        model = self.combined.performance_models[domain_idx]
        if ratio == 1.0:
            return model.predict_solo(name).ips
        return model.predict([name], frequency_ratios=[ratio]).processes[0].ips

    def state_metrics(self, state: HeteroState) -> Tuple[float, float]:
        """(watts, total instructions per second) of one machine state."""
        if self.is_unit:
            # Parity-by-delegation: strip the P-state indices and run
            # the homogeneous estimators bit-for-bit.
            scoring = {core: list(names) for core, names, _ in state}
            watts = self.combined.estimate_assignment_power(scoring).watts
            ips = self.combined.estimate_assignment_throughput(scoring)
            return watts, ips
        by_core: Dict[int, Tuple[Tuple[str, ...], int]] = {}
        for core, names, pstate_index in state:
            if names:
                by_core[core] = (tuple(names), int(pstate_index))
        watts = 0.0
        total_ips = 0.0
        for domain_idx, domain in enumerate(self.topology.domains):
            busy = [c for c in domain.core_ids if c in by_core]
            for core in domain.core_ids:
                if core not in by_core:
                    watts += self.idle_core_watts[core]
            if not busy:
                continue
            try:
                points = [self._points[core, by_core[core][1]] for core in busy]
            except KeyError:
                # An index outside the core's table: the spec raises
                # its descriptive range error.
                points = [
                    self.spec.operating_point(core, by_core[core][1])
                    for core in busy
                ]
            per_core_lists: List[List[str]] = [
                list(by_core[core][0]) for core in busy
            ]
            if len(busy) == 1:
                # Scenario 1/2: no cache contention, processes run as
                # profiled but at the core's clock.  p_alone splits as
                # p_idle + active; the active part scales with the
                # clock (rates) and the dynamic multiplier (voltage^2
                # x design), the idle part with the static multiplier.
                point = points[0]
                names = per_core_lists[0]
                active = (
                    sum(
                        self._profile(name).p_alone - self.p_idle
                        for name in names
                    )
                    / len(names)
                )
                watts += (
                    point.static_multiplier * self.p_idle
                    + point.dynamic_multiplier
                    * point.frequency_ratio
                    * active
                )
                time_share = 1.0 / len(names)
                for name in names:
                    total_ips += time_share * self._solo_ips(
                        domain_idx, name, point.frequency_ratio
                    )
                continue
            # Scenario 3/4: Eq. 10 combination averaging, with each
            # position priced at its own core's operating point.  The
            # predicted SPI already reflects the frequency ratio, so
            # Eq. 9's event rates carry the clock — only the voltage /
            # design multipliers are applied on top.
            ratios = tuple(point.frequency_ratio for point in points)

            def combination_power(combo: Tuple[str, ...]) -> float:
                predicted = self._corun_points(domain_idx, combo, ratios)
                total = 0.0
                for point, (spi, l2mpr), name in zip(
                    points, predicted, combo
                ):
                    power = self.combined.process_power(name, spi, l2mpr)
                    total += (
                        point.static_multiplier * self.p_idle
                        + point.dynamic_multiplier * (power - self.p_idle)
                    )
                return total

            watts += core_set_power(per_core_lists, combination_power)
            combos = process_combinations(per_core_lists)
            combo_ips = 0.0
            for combo in combos:
                predicted = self._corun_points(domain_idx, combo, ratios)
                combo_ips += sum(1.0 / spi for spi, _ in predicted)
            total_ips += combo_ips / len(combos)
        return watts, total_ips
