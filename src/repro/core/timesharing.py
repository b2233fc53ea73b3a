"""Time-sharing and multi-core power composition (paper Section 4.2).

Two rules close the gap between single-process core power and a
multi-programmed machine:

1. **Within a core** — context-switch transients are negligible (the
   paper measures the post-switch cache refill at ~1 % of a 20 ms
   timeslice), so a core's power is the timeslice-weighted mean of its
   processes' powers; with equal timeslices, the plain mean.
2. **Across cache-sharing cores** — with more than one process per
   core, each cross-core *process combination* runs for roughly equal
   total time, so the cores' combined power is the mean over all
   combinations (Eq. 10).  :func:`process_combinations` gives that
   index set; ``CombinedModel`` takes the mean per cache domain.
"""

from __future__ import annotations

import itertools
from typing import Sequence, Tuple

from repro.errors import ConfigurationError


def core_power_time_shared(
    process_powers: Sequence[float],
    weights: Sequence[float] = (),
) -> float:
    """Core power under round-robin time sharing.

    Args:
        process_powers: Power of each process when it holds the core.
        weights: Optional timeslice weights; defaults to equal shares
            (the paper's simplifying assumption).
    """
    if not process_powers:
        raise ConfigurationError("need at least one process power")
    if any(p < 0 for p in process_powers):
        raise ConfigurationError("powers must be non-negative")
    if not weights:
        return float(sum(process_powers) / len(process_powers))
    if len(weights) != len(process_powers):
        raise ConfigurationError("weights must match process_powers in length")
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ConfigurationError("weights must be non-negative with positive sum")
    total = sum(weights)
    return float(
        sum(p * w for p, w in zip(process_powers, weights)) / total
    )


def process_combinations(
    per_core_processes: Sequence[Sequence[str]],
) -> Tuple[Tuple[str, ...], ...]:
    """All cross-core process combinations (Eq. 10's index set).

    One process per busy core; cores are given in a fixed order and
    each combination is an ordered tuple aligned with that order.
    """
    if not per_core_processes:
        raise ConfigurationError("need at least one core")
    for processes in per_core_processes:
        if not processes:
            raise ConfigurationError("every busy core needs at least one process")
    return tuple(itertools.product(*per_core_processes))
