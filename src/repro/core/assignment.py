"""Power-aware process-to-core assignment (the paper's use case).

With the combined model able to price any tentative mapping from
profiles alone, assignment becomes a search problem.  This module
holds the single-machine greedy searcher and the vocabulary the
``/v1`` pick shares with :mod:`repro.fleet`:

- :func:`greedy_assignment` — place processes one at a time, each on
  the core minimising the incremental power estimate (the Figure 1
  runtime flow), in O(k · N) model queries.
- :data:`OBJECTIVES` and :class:`AssignmentDecision` — the legacy
  objective names and the ``/v1`` decision document.

The exhaustive search lives in :mod:`repro.fleet` (solver
``"exhaustive"``); :func:`repro.api.pick_assignment` translates a
single-machine pick onto it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.combined import Assignment, CombinedModel
from repro.errors import ConfigurationError
from repro.io import document
from repro.obs import get_observer

#: Objective functions mapping (power_watts, throughput_ips) -> score
#: to be *minimised*.
OBJECTIVES: Dict[str, Callable[[float, float], float]] = {
    "power": lambda watts, ips: watts,
    "throughput": lambda watts, ips: -ips,
    "energy_per_instruction": lambda watts, ips: watts / ips if ips > 0 else float("inf"),
}

#: Default cap on the raw ``cores ** processes`` enumeration size of an
#: exhaustive search (see :mod:`repro.fleet.solver`).
DEFAULT_MAX_CANDIDATES = 250_000


def format_candidate_count(count: int) -> str:
    """Human-readable placement count; huge bounds print as ~10^N.

    Fleet-scale bounds overflow float and exceed CPython's int→str
    digit limit, so the decimal exponent comes from the bit length.
    """
    if count < 10**15:
        return str(count)
    exponent = int((count.bit_length() - 1) * 0.30102999566398120)
    return f"~10^{exponent}"


@document("assignment_decision")
@dataclass(frozen=True)
class AssignmentDecision:
    """Outcome of an assignment search."""

    assignment: Dict[int, Tuple[str, ...]]
    predicted_watts: float
    predicted_ips: float
    objective: str
    score: float
    candidates_evaluated: int


def score_assignment(
    model: CombinedModel, assignment: Assignment, objective: str
) -> Tuple[float, float, float]:
    """``(score, watts, ips)`` of one candidate under an objective."""
    estimate = model.estimate_state(assignment)
    watts, ips = estimate.watts, estimate.ips
    return OBJECTIVES[objective](watts, ips), watts, ips


def _canonical(assignment: Mapping[int, Sequence[str]]) -> Dict[int, Tuple[str, ...]]:
    return {
        core: tuple(names)
        for core, names in sorted(assignment.items())
        if names
    }


def greedy_assignment(
    model: CombinedModel,
    process_names: Sequence[str],
    objective: str = "power",
    max_per_core: Optional[int] = None,
) -> AssignmentDecision:
    """Greedy one-at-a-time placement using incremental estimates.

    Mirrors the runtime flow of the paper's Figure 1: each arriving
    process is assigned to the core whose incremental estimate is
    best, given the placements already made.
    """
    if objective not in OBJECTIVES:
        raise ConfigurationError(
            f"unknown objective {objective!r}; choose from {sorted(OBJECTIVES)}"
        )
    if not process_names:
        raise ConfigurationError("need at least one process to assign")
    observer = get_observer()
    if not observer.enabled:
        return _greedy_impl(model, process_names, objective, max_per_core)
    with observer.span(
        "assign.greedy", processes=len(process_names), objective=objective
    ) as span:
        decision = _greedy_impl(model, process_names, objective, max_per_core)
        span.annotate(
            candidates=decision.candidates_evaluated, score=decision.score
        )
        observer.counter("assign.searches").inc()
        observer.counter("assign.candidates").inc(decision.candidates_evaluated)
        return decision


def _greedy_impl(
    model: CombinedModel,
    process_names: Sequence[str],
    objective: str,
    max_per_core: Optional[int],
) -> AssignmentDecision:
    assignment: Dict[int, List[str]] = {}
    evaluated = 0
    for name in process_names:
        best_core = None
        best_score = float("inf")
        for core in range(model.topology.num_cores):
            if max_per_core is not None and len(assignment.get(core, [])) >= max_per_core:
                continue
            trial = {c: list(v) for c, v in assignment.items()}
            trial.setdefault(core, []).append(name)
            score, _, _ = score_assignment(model, _canonical(trial), objective)
            evaluated += 1
            if score < best_score:
                best_score = score
                best_core = core
        if best_core is None:
            raise ConfigurationError("no feasible core for process under constraints")
        assignment.setdefault(best_core, []).append(name)
    canonical = _canonical(assignment)
    score, watts, ips = score_assignment(model, canonical, objective)
    return AssignmentDecision(
        assignment=canonical,
        predicted_watts=watts,
        predicted_ips=ips,
        objective=objective,
        score=score,
        candidates_evaluated=evaluated,
    )
