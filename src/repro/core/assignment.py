"""Power-aware process-to-core assignment (the paper's use case).

With the combined model able to price any tentative mapping from
profiles alone, assignment becomes a search problem.  Two searchers
are provided:

- :func:`exhaustive_assignment` — enumerate every mapping of the
  given processes onto cores (feasible for the paper's 2–4 core
  machines; equilibrium solutions are cached across mappings).
- :func:`greedy_assignment` — place processes one at a time, each on
  the core minimising the incremental power estimate (the Figure 1
  runtime flow), in O(k · N) model queries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.combined import Assignment, CombinedModel
from repro.errors import AssignmentTooLargeError, ConfigurationError
from repro.io import document
from repro.obs import get_observer

#: Objective functions mapping (power_watts, throughput_ips) -> score
#: to be *minimised*.
OBJECTIVES: Dict[str, Callable[[float, float], float]] = {
    "power": lambda watts, ips: watts,
    "throughput": lambda watts, ips: -ips,
    "energy_per_instruction": lambda watts, ips: watts / ips if ips > 0 else float("inf"),
}

#: Default cap on the raw enumeration size of an exhaustive search.
#: ``enumerate_candidates`` walks ``num_cores ** num_processes``
#: placements even when canonical dedup keeps the scored set smaller,
#: so the guard bounds the enumeration itself.
DEFAULT_MAX_CANDIDATES = 250_000


def candidate_bound(num_cores: int, num_processes: int) -> int:
    """Raw enumeration size of an exhaustive search (before dedup)."""
    return num_cores ** num_processes


def format_candidate_count(count: int) -> str:
    """Human-readable placement count; huge bounds print as ~10^N.

    Fleet-scale bounds overflow float and exceed CPython's int→str
    digit limit, so the decimal exponent comes from the bit length.
    """
    if count < 10**15:
        return str(count)
    exponent = int((count.bit_length() - 1) * 0.30102999566398120)
    return f"~10^{exponent}"


def check_enumeration_size(
    num_cores: int,
    num_processes: int,
    max_candidates: Optional[int] = None,
) -> int:
    """Guard an exhaustive enumeration against combinatorial blow-up.

    Returns the raw placement count when it is within ``max_candidates``
    (default :data:`DEFAULT_MAX_CANDIDATES`); raises
    :class:`~repro.errors.AssignmentTooLargeError` otherwise, *before*
    any candidate is generated or scored.
    """
    cap = DEFAULT_MAX_CANDIDATES if max_candidates is None else int(max_candidates)
    if cap < 1:
        raise ConfigurationError("max_candidates must be >= 1")
    count = candidate_bound(num_cores, num_processes)
    if count > cap:
        raise AssignmentTooLargeError(
            f"exhaustive enumeration of {num_processes} processes over "
            f"{num_cores} cores is {format_candidate_count(count)} "
            f"placements, above the cap of "
            f"{cap}; raise max_candidates if you really want this, or use "
            f'the scalable searchers (greedy=True here, or solver="greedy"'
            f' / solver="anneal" via repro.fleet)',
            candidate_count=count,
            max_candidates=cap,
        )
    return count


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
    """``(score, watts, ips)`` of one candidate under an objective.

    Shared by both searchers here and by the :mod:`repro.parallel`
    chunk evaluator, so every path prices a candidate identically.
    """
    estimate = model.estimate_state(assignment)
    watts, ips = estimate.watts, estimate.ips
    return OBJECTIVES[objective](watts, ips), watts, ips


def _canonical(assignment: Mapping[int, Sequence[str]]) -> Dict[int, Tuple[str, ...]]:
    return {
        core: tuple(names)
        for core, names in sorted(assignment.items())
        if names
    }


def enumerate_candidates(
    num_cores: int,
    process_names: Sequence[str],
    max_per_core: Optional[int] = None,
) -> Iterator[Dict[int, Tuple[str, ...]]]:
    """Canonical candidate assignments in a deterministic order.

    Every function from processes to cores, canonicalised (idle cores
    dropped) and deduplicated so symmetric placements appear once.
    Both the serial exhaustive searcher and the parallel evaluator in
    :mod:`repro.parallel` consume this stream; sharing it is what
    keeps their candidate indices — and therefore their tie-breaking —
    aligned.
    """
    cores = range(num_cores)
    seen = set()
    for placement in itertools.product(cores, repeat=len(process_names)):
        assignment: Dict[int, List[str]] = {}
        for name, core in zip(process_names, placement):
            assignment.setdefault(core, []).append(name)
        if max_per_core is not None and any(
            len(names) > max_per_core for names in assignment.values()
        ):
            continue
        canonical = _canonical(assignment)
        key = tuple(
            sorted((core, tuple(sorted(names))) for core, names in canonical.items())
        )
        if key in seen:
            continue
        seen.add(key)
        yield canonical


def exhaustive_assignment(
    model: CombinedModel,
    process_names: Sequence[str],
    objective: str = "power",
    max_per_core: Optional[int] = None,
    max_candidates: Optional[int] = None,
) -> AssignmentDecision:
    """Best mapping of the processes onto the machine's cores.

    Every function from processes to cores is evaluated (symmetric
    duplicates are pruned via canonicalisation).  With k processes and
    N cores that is at most N^k model queries, heavily amortised by
    the combined model's equilibrium cache.

    Args:
        model: A fitted combined model for the target machine.
        process_names: Processes to place (duplicates allowed).
        objective: One of ``power``, ``throughput``,
            ``energy_per_instruction``.
        max_per_core: Optional cap on processes per core.
        max_candidates: Cap on the raw N^k enumeration size (default
            :data:`DEFAULT_MAX_CANDIDATES`); exceeding it raises
            :class:`~repro.errors.AssignmentTooLargeError` up front
            instead of hanging.
    """
    if objective not in OBJECTIVES:
        raise ConfigurationError(
            f"unknown objective {objective!r}; choose from {sorted(OBJECTIVES)}"
        )
    if not process_names:
        raise ConfigurationError("need at least one process to assign")
    check_enumeration_size(
        model.topology.num_cores, len(process_names), max_candidates
    )
    observer = get_observer()
    if not observer.enabled:
        return _exhaustive_impl(model, process_names, objective, max_per_core)
    with observer.span(
        "assign.exhaustive",
        processes=len(process_names),
        objective=objective,
    ) as span:
        decision = _exhaustive_impl(model, process_names, objective, max_per_core)
        span.annotate(
            candidates=decision.candidates_evaluated, score=decision.score
        )
        observer.counter("assign.searches").inc()
        observer.counter("assign.candidates").inc(decision.candidates_evaluated)
        return decision


def _exhaustive_impl(
    model: CombinedModel,
    process_names: Sequence[str],
    objective: str,
    max_per_core: Optional[int],
) -> AssignmentDecision:
    best: Optional[AssignmentDecision] = None
    evaluated = 0
    for canonical in enumerate_candidates(
        model.topology.num_cores, process_names, max_per_core
    ):
        score, watts, ips = score_assignment(model, canonical, objective)
        evaluated += 1
        if best is None or score < best.score:
            best = AssignmentDecision(
                assignment=canonical,
                predicted_watts=watts,
                predicted_ips=ips,
                objective=objective,
                score=score,
                candidates_evaluated=evaluated,
            )
    if best is None:
        raise ConfigurationError("no feasible assignment under the given constraints")
    return AssignmentDecision(
        assignment=best.assignment,
        predicted_watts=best.predicted_watts,
        predicted_ips=best.predicted_ips,
        objective=best.objective,
        score=best.score,
        candidates_evaluated=evaluated,
    )


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
