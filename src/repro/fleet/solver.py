"""Fleet assignment search: exhaustive oracle plus anytime heuristics.

Three solvers share one memoised evaluator (:mod:`repro.fleet.evaluator`)
and one canonical scoring routine, so their scores are directly
comparable bit-for-bit:

- ``exhaustive`` — enumerate every placement of the processes onto the
  fleet's ``(machine, core)`` slots, deduplicated by canonical fleet
  state (machines of a group are interchangeable, as are identical
  process instances).  Guarded by
  :class:`~repro.errors.AssignmentTooLargeError` *before* enumeration.
- ``greedy`` — seeded packing: place processes one at a time on the
  candidate slot minimising the fleet objective, enumerating one
  representative per distinct (group, machine state, core content).
  Scales to 10k+ processes because each step prices only a handful of
  never-seen machine states.
- ``anneal`` — simulated-annealing refinement of the greedy solution
  using :data:`repro.seeding.STREAM_FLEET` streams, with an iteration
  budget (the deterministic knob) and an optional wall-clock budget
  (anytime best-so-far).  On instances small enough to enumerate it
  runs a deterministic exhaustive sweep instead, so it *equals* the
  oracle there by construction; everywhere it is never worse than
  greedy (the incumbent starts as the greedy solution).

The two heuristics know each machine only by its canonical state
(:func:`~repro.fleet.evaluator.canonical_state`: per busy core, its
sorted names and, on hetero groups, its P-state index).  Each trial
state, a greedy placement or an anneal move, swap or P-state flip, is
spliced from the machine's known state: the edited core's entry is
rebuilt and the entries around it are reused, so no trial copies an
assignment or sorts a machine again.  Only the exhaustive oracle and
the final report build states from placements.

Every tie is broken by ``(score, candidate index)`` — the first
candidate in the deterministic enumeration order wins — and all state
pricing goes through cold-start solves, so for a fixed request the
result is bit-identical across runs.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import DEFAULT_MAX_CANDIDATES, format_candidate_count
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.power_model import CorePowerModel
from repro.errors import AssignmentTooLargeError, ConfigurationError
from repro.fleet.evaluator import (
    FleetEvaluator,
    MachineState,
    SolvedCoRuns,
    canonical_objective,
    canonical_state,
    fleet_score,
)
from repro.fleet.spec import FleetSpec
from repro.fleet.types import AssignmentRequest, FleetAssignment, MachineAssignment
from repro.hetero.types import HeteroMachineSpec
from repro.obs import get_observer
from repro.seeding import STREAM_FLEET, stream_seed

__all__ = [
    "DEFAULT_ANNEAL_ITERATIONS",
    "DEFAULT_SWEEP_LIMIT",
    "solve",
]

#: Raw enumeration sizes up to this run the deterministic exhaustive
#: sweep inside ``anneal`` (and steer ``auto`` to ``exhaustive``).
DEFAULT_SWEEP_LIMIT = 65_536

#: Default annealing iteration budget when the request sets none.
DEFAULT_ANNEAL_ITERATIONS = 2_000

#: One fleet slot: (group index, machine index within group, core id).
Slot = Tuple[int, int, int]

#: Chosen P-states of the busy hetero cores: ``(group, machine) ->
#: {core: pstate index}``.  Cores absent from a machine's map default
#: to index 0 (the nominal state); homogeneous machines never appear.
PStateMap = Dict[Tuple[int, int], Dict[int, int]]


@dataclass
class _Context:
    """Everything the solver implementations share for one request."""

    request: AssignmentRequest
    evaluator: FleetEvaluator
    fleet: FleetSpec
    processes: Tuple[str, ...]
    objective: str  #: canonical objective name
    caps: List[Optional[float]]  #: effective per-machine cap per group
    budget: Optional[float]
    max_per_core: Optional[int]
    slots: List[Slot]
    sweep_limit: int
    #: Per group: the hetero spec, or ``None`` for homogeneous groups.
    hetero: Tuple[Optional[HeteroMachineSpec], ...] = ()
    #: Per group: per-core P-state counts (``None`` when homogeneous).
    pstate_counts: Tuple[Optional[Tuple[int, ...]], ...] = ()

    @property
    def has_pstate_choice(self) -> bool:
        """True when any core anywhere has more than one P-state."""
        return any(
            counts is not None and any(count > 1 for count in counts)
            for counts in self.pstate_counts
        )

    @property
    def pstate_bound(self) -> int:
        """Upper bound on per-placement P-state combinations.

        At most ``min(processes, hetero cores)`` hetero cores can be
        busy at once, and each busy core multiplies the enumeration by
        its P-state count; the product of the largest such counts is a
        safe (reachable) upper bound.
        """
        counts: List[int] = []
        for group_index, group in enumerate(self.fleet.groups):
            per_core = self.pstate_counts[group_index]
            if per_core is None:
                continue
            counts.extend(per_core for _ in range(group.count))
        flat = sorted(
            (count for per_core in counts for count in per_core),
            reverse=True,
        )
        factor = 1
        for count in flat[: len(self.processes)]:
            factor *= count
        return factor

    @property
    def bound(self) -> int:
        """Raw enumeration size of the fleet exhaustive search."""
        return len(self.slots) ** len(self.processes) * self.pstate_bound


def _machine_state(
    ctx: _Context,
    group_index: int,
    assignment: Mapping[int, Sequence[str]],
    pstate_of: Mapping[int, int],
):
    """Canonical state of one machine; hetero groups carry P-states."""
    return canonical_state(
        assignment, None if ctx.hetero[group_index] is None else pstate_of
    )


def _split(state: MachineState, core: int):
    """``(prefix, entry or None, suffix)`` of ``core`` in a canonical state.

    The state's entries are sorted by core, so ``prefix + (entry,) +
    suffix`` is the state again, with the core's new entry spliced in
    (or ``prefix + suffix`` when the core goes idle).
    """
    for position, entry in enumerate(state):
        if entry[0] >= core:
            if entry[0] == core:
                return state[:position], entry, state[position + 1:]
            return state[:position], None, state[position:]
    return state, None, ()


def _entry(core: int, names: Tuple[str, ...], pstate: Optional[int]):
    """A core's canonical entry; ``pstate`` is ``None`` on plain groups."""
    return (core, names) if pstate is None else (core, names, pstate)


def _edit(
    state: MachineState,
    core: int,
    plain: bool,
    drop: Optional[str] = None,
    add: Optional[str] = None,
    pstate: Optional[int] = None,
) -> MachineState:
    """``state`` with one core edited: ``drop`` leaves, ``add`` joins.

    On hetero groups (``plain`` false) the core takes ``pstate`` when
    given.  Otherwise it keeps its P-state, also when one name leaves
    and another joins; an idle core starts at index 0.
    """
    prefix, entry, suffix = _split(state, core)
    names = () if entry is None else entry[1]
    if drop is not None:
        position = names.index(drop)
        names = names[:position] + names[position + 1:]
    if add is not None:
        names = tuple(sorted(names + (add,)))
    if pstate is None and not plain:
        pstate = 0 if entry is None else entry[2]
    if not names:
        return prefix + suffix
    return prefix + (_entry(core, names, pstate),) + suffix


def _pstate_map(
    ctx: _Context, states: Mapping[Tuple[int, int], MachineState]
) -> PStateMap:
    """The busy hetero cores' P-states, read from machine states."""
    return {
        machine_key: {core: pstate for core, _names, pstate in state}
        for machine_key, state in states.items()
        if state and ctx.hetero[machine_key[0]] is not None
    }


def _machine_states(
    ctx: _Context,
    placements: Sequence[Slot],
    pstates: Optional[PStateMap] = None,
) -> Dict[Tuple[int, int], MachineState]:
    """Canonical state of every busy machine of a placement."""
    per_machine: Dict[Tuple[int, int], Dict[int, List[str]]] = {}
    for name, (group_index, machine_index, core) in zip(ctx.processes, placements):
        per_machine.setdefault((group_index, machine_index), {}).setdefault(
            core, []
        ).append(name)
    pstates = pstates or {}
    return {
        machine_key: _machine_state(
            ctx, machine_key[0], assignment, pstates.get(machine_key, {})
        )
        for machine_key, assignment in per_machine.items()
    }


def _fleet_states(
    states: Mapping[Tuple[int, int], MachineState]
) -> Tuple[Tuple[int, MachineState], ...]:
    """The sorted busy-machine multiset :func:`_score_states` takes."""
    return tuple(
        sorted(
            (machine_key[0], state)
            for machine_key, state in states.items()
            if state
        )
    )


def _effective_caps(
    fleet: FleetSpec, machine_cap: Optional[float]
) -> List[Optional[float]]:
    caps: List[Optional[float]] = []
    for group in fleet.groups:
        cap = group.power_cap_watts
        if machine_cap is not None:
            cap = machine_cap if cap is None else min(cap, machine_cap)
        caps.append(cap)
    return caps


def _score_states(
    ctx: _Context, states: Sequence[Tuple[int, MachineState]]
) -> Tuple[float, float, float]:
    """Canonical ``(score, watts, ips)`` of a busy-machine multiset.

    ``states`` must be sorted; summing in that fixed order is what
    makes reported scores identical no matter which solver (or which
    incremental arithmetic) found the configuration.
    """
    evaluator = ctx.evaluator
    watts = evaluator.total_idle_watts()
    ips = 0.0
    for group_index, state in states:
        config = evaluator.group_configs[group_index]
        machine_watts, machine_ips = evaluator.state_metrics(config, state)
        cap = ctx.caps[group_index]
        if cap is not None and machine_watts > cap:
            return float("inf"), watts, ips
        watts += machine_watts - config.idle_watts
        ips += machine_ips
    return fleet_score(ctx.objective, watts, ips, ctx.budget), watts, ips


# ----------------------------------------------------------------------
# Exhaustive oracle
# ----------------------------------------------------------------------
def _solve_exhaustive(
    ctx: _Context, max_candidates: Optional[int] = None
) -> Tuple[List[Slot], PStateMap, int, List[Tuple[int, float]]]:
    """Globally optimal (placement x P-state) choice (small instances).

    Returns ``(placements, pstates, candidates_scored, improvements)``.
    For each placement, every combination of P-state indices over the
    busy hetero cores is enumerated — the oracle the P-state-aware
    heuristics are pinned against.
    """
    cap = DEFAULT_MAX_CANDIDATES if max_candidates is None else int(max_candidates)
    if cap < 1:
        raise ConfigurationError("max_candidates must be >= 1")
    bound = ctx.bound
    if bound > cap:
        pstate_note = (
            " (including per-core P-state choices)"
            if ctx.has_pstate_choice
            else ""
        )
        raise AssignmentTooLargeError(
            f"exhaustive fleet search over {len(ctx.processes)} processes "
            f"and {len(ctx.slots)} (machine, core) slots enumerates "
            f"{format_candidate_count(bound)} placements{pstate_note}, "
            f"above the cap of "
            f"{cap}; raise max_candidates or "
            f'use solver="greedy" / solver="anneal", which scale to fleets '
            f"this size",
            candidate_count=bound,
            max_candidates=cap,
        )
    processes = ctx.processes
    slots = ctx.slots
    seen = set()
    best: Optional[Tuple[float, int, Tuple[int, ...], PStateMap]] = None
    improvements: List[Tuple[int, float]] = []
    scored = 0
    for placement in itertools.product(range(len(slots)), repeat=len(processes)):
        per_machine: Dict[Tuple[int, int], Dict[int, List[str]]] = {}
        feasible = True
        for name, slot_index in zip(processes, placement):
            group_index, machine_index, core = slots[slot_index]
            assignment = per_machine.setdefault((group_index, machine_index), {})
            names = assignment.setdefault(core, [])
            names.append(name)
            if ctx.max_per_core is not None and len(names) > ctx.max_per_core:
                feasible = False
                break
        if not feasible:
            continue
        # Busy cores of hetero machines each multiply the candidate by
        # their P-state count; homogeneous placements take the single
        # empty combination and skip the machinery entirely.
        hetero_cores: List[Tuple[Tuple[int, int], int]] = []
        for machine_key in sorted(per_machine):
            counts = ctx.pstate_counts[machine_key[0]]
            if counts is None:
                continue
            for core in sorted(per_machine[machine_key]):
                hetero_cores.append((machine_key, core))
        if hetero_cores:
            choice_iter = itertools.product(
                *(
                    range(ctx.pstate_counts[machine_key[0]][core])
                    for machine_key, core in hetero_cores
                )
            )
        else:
            choice_iter = iter(((),))
        for choices in choice_iter:
            pstate_of: PStateMap = {}
            for (machine_key, core), pstate_index in zip(hetero_cores, choices):
                pstate_of.setdefault(machine_key, {})[core] = pstate_index
            states = tuple(
                sorted(
                    (
                        machine_key[0],
                        _machine_state(
                            ctx,
                            machine_key[0],
                            assignment,
                            pstate_of.get(machine_key, {}),
                        ),
                    )
                    for machine_key, assignment in per_machine.items()
                )
            )
            if states in seen:
                continue
            seen.add(states)
            score, _watts, _ips = _score_states(ctx, states)
            index = scored
            scored += 1
            if math.isinf(score):
                continue
            if best is None or (score, index) < (best[0], best[1]):
                best = (score, index, placement, pstate_of)
                improvements.append((index, score))
    if best is None:
        raise ConfigurationError(
            "no feasible fleet assignment under the given power caps / "
            "budget / max_per_core constraints"
        )
    return [slots[i] for i in best[2]], best[3], scored, improvements


# ----------------------------------------------------------------------
# Greedy packing
# ----------------------------------------------------------------------
def _heap_representative(
    heap_map: Dict[MachineState, List[int]],
    state: MachineState,
    states_of: List[MachineState],
) -> Optional[int]:
    """Lowest machine index currently in ``state`` (lazy-invalidating).

    Heap entries go stale when a machine changes state; they are
    dropped on sight, keeping each lookup amortised O(log n).
    """
    heap = heap_map.get(state)
    while heap:
        machine_index = heap[0]
        if states_of[machine_index] == state:
            return machine_index
        heapq.heappop(heap)
    if heap is not None:
        del heap_map[state]
    return None


def _with_name(candidate: Tuple, name: str) -> MachineState:
    """A greedy candidate's trial state: ``name`` joins its core."""
    core, option, _full, prefix, names, suffix, _priced = candidate
    entry = _entry(core, tuple(sorted(names + (name,))), option)
    return prefix + (entry,) + suffix


def _candidate_scan(
    state: MachineState,
    num_cores: int,
    hetero: Optional[HeteroMachineSpec],
    max_per_core: Optional[int],
) -> List[Tuple]:
    """The distinct-content greedy candidates of one machine state.

    Each candidate is ``(core, P-state option, full, prefix, names,
    suffix, priced)``: ``full`` says the core is at ``max_per_core``,
    ``names`` are its sorted names, ``prefix`` / ``suffix`` the state's
    entries around it (see :func:`_split`), and ``priced`` maps a
    process name to the trial's ``(watts, ips)``, empty at first.
    """
    scan: List[Tuple] = []
    seen_contents = set()
    for core in range(num_cores):
        prefix, entry, suffix = _split(state, core)
        names = () if entry is None else entry[1]
        if hetero is None:
            content = names
            pstate_options: Tuple[Optional[int], ...] = (None,)
        else:
            current = None if entry is None else entry[2]
            content = (hetero.core_type_of[core], current, names)
            if entry is None:
                pstate_options = tuple(range(hetero.pstate_counts[core]))
            else:
                pstate_options = (current,)
        if content in seen_contents:
            continue
        seen_contents.add(content)
        full = max_per_core is not None and len(names) >= max_per_core
        scan.extend(
            (core, option, full, prefix, names, suffix, {})
            for option in pstate_options
        )
    return scan


def _solve_greedy(ctx: _Context) -> Tuple[List[Slot], PStateMap]:
    """One-at-a-time packing over deduplicated candidate slots.

    Machines of a group in identical states are interchangeable, as
    are a machine's cores with identical contents — so each step
    scores one representative per distinct (group, state, content),
    keeping the per-step candidate count small and independent of the
    fleet's machine count.

    On hetero groups, placing onto an *idle* core also chooses its
    P-state (every index is a candidate); placing onto a busy core
    keeps the core's existing P-state.  Core-content deduplication
    then keys on (core type, current P-state, names) so distinct
    operating points are never conflated.

    Each machine is known only by its canonical state.  Processes are
    placed in request order.  For the length of one call, each
    ``(group, state)``'s candidate scan is built once, and each
    candidate's trial state, spliced from the scan's prefix and
    suffix, is priced once per process name: a state seen again at a
    later step re-scores its candidates without rebuilding or
    re-pricing them.  Full candidates still take their index, so the
    ``(score, index)`` tie-break and the evaluator's ``evaluations``
    count are unchanged.
    """
    evaluator = ctx.evaluator
    fleet = ctx.fleet
    metrics: List[List[Tuple[float, float]]] = [
        [(config.idle_watts, 0.0)] * group.count
        for config, group in zip(evaluator.group_configs, fleet.groups)
    ]
    states_of: List[List[MachineState]] = [
        [()] * group.count for group in fleet.groups
    ]
    heaps: List[Dict[MachineState, List[int]]] = [
        {(): list(range(group.count))} for group in fleet.groups
    ]
    total_watts = evaluator.total_idle_watts()
    total_ips = 0.0
    placements: List[Slot] = []
    # (group, state) -> the state's candidate scan; see _candidate_scan.
    scans: Dict[Tuple[int, MachineState], List[Tuple]] = {}
    for name in ctx.processes:
        best = None
        candidate_index = 0
        for group_index, config in enumerate(evaluator.group_configs):
            cap = ctx.caps[group_index]
            for state in sorted(heaps[group_index]):
                rep = _heap_representative(
                    heaps[group_index], state, states_of[group_index]
                )
                if rep is None:
                    continue
                scan = scans.get((group_index, state))
                if scan is None:
                    scan = _candidate_scan(
                        state, config.num_cores, ctx.hetero[group_index],
                        ctx.max_per_core,
                    )
                    scans[(group_index, state)] = scan
                old_watts, old_ips = metrics[group_index][rep]
                for candidate in scan:
                    index = candidate_index
                    candidate_index += 1
                    _core, _option, full, _prefix, _names, _suffix, priced = candidate
                    if full:
                        continue
                    trial_metrics = priced.get(name)
                    if trial_metrics is None:
                        trial_metrics = evaluator.state_metrics(
                            config, _with_name(candidate, name)
                        )
                        priced[name] = trial_metrics
                    watts, ips = trial_metrics
                    if cap is not None and watts > cap:
                        continue
                    new_total_watts = total_watts - old_watts + watts
                    new_total_ips = total_ips - old_ips + ips
                    score = fleet_score(
                        ctx.objective, new_total_watts, new_total_ips,
                        ctx.budget,
                    )
                    if math.isinf(score):
                        continue
                    key = (score, index)
                    if best is None or key < best[0]:
                        best = (
                            key, group_index, rep, candidate,
                            watts, ips, new_total_watts, new_total_ips,
                        )
        if best is None:
            raise ConfigurationError(
                f"greedy packing found no feasible slot for {name!r} under "
                "the given power caps / budget / max_per_core constraints"
            )
        (_key, group_index, rep, candidate,
         watts, ips, total_watts, total_ips) = best
        new_state = _with_name(candidate, name)
        states_of[group_index][rep] = new_state
        metrics[group_index][rep] = (watts, ips)
        heapq.heappush(heaps[group_index].setdefault(new_state, []), rep)
        placements.append((group_index, rep, candidate[0]))
    return placements, _pstate_map(
        ctx,
        {
            (group_index, machine_index): state
            for group_index, group_states in enumerate(states_of)
            for machine_index, state in enumerate(group_states)
        },
    )


# ----------------------------------------------------------------------
# Simulated-annealing refinement
# ----------------------------------------------------------------------
def _solve_anneal(
    ctx: _Context,
) -> Tuple[List[Slot], PStateMap, str, int, List[Tuple[int, float]]]:
    """Greedy construction plus refinement.

    Returns ``(placements, pstates, refinement, iterations,
    improvements)``.  Small instances (raw enumeration — including the
    per-core P-state combinations — within ``sweep_limit``) take the
    deterministic exhaustive sweep — the heuristic then *is* the
    oracle.  Larger ones run seeded simulated annealing from the
    greedy incumbent; the incumbent only ever improves, so the result
    is never worse than greedy.
    """
    greedy, greedy_pstates = _solve_greedy(ctx)
    if ctx.bound <= ctx.sweep_limit:
        placements, pstates, scored, improvements = _solve_exhaustive(
            ctx, max_candidates=ctx.sweep_limit
        )
        return placements, pstates, "sweep", scored, improvements
    return _anneal_from(ctx, greedy, greedy_pstates)


def _anneal_from(
    ctx: _Context, start: List[Slot], start_pstates: PStateMap
) -> Tuple[List[Slot], PStateMap, str, int, List[Tuple[int, float]]]:
    evaluator = ctx.evaluator
    processes = ctx.processes
    slots = ctx.slots
    k = len(processes)
    # Every machine is known by its canonical state; trials splice it.
    states: Dict[Tuple[int, int], MachineState] = {}
    metrics: Dict[Tuple[int, int], Tuple[float, float]] = {}
    busy = _machine_states(ctx, start, start_pstates)
    for group_index, group in enumerate(ctx.fleet.groups):
        config = evaluator.group_configs[group_index]
        for machine_index in range(group.count):
            machine_key = (group_index, machine_index)
            states[machine_key] = busy.get(machine_key, ())
            metrics[machine_key] = evaluator.state_metrics(
                config, states[machine_key]
            )
    start_states = _fleet_states(states)
    current_score, total_watts, total_ips = _score_states(ctx, start_states)
    placement = list(start)
    best_placement = list(start)
    best_states = dict(states)
    best_score = current_score
    improvements: List[Tuple[int, float]] = [(0, current_score)]
    has_pstate_choice = ctx.has_pstate_choice
    # Trial states of the (at most two) machines the move touches.
    trial: Dict[Tuple[int, int], MachineState] = {}

    def splice(slot: Slot, **edit) -> None:
        machine_key = slot[:2]
        trial[machine_key] = _edit(
            trial.get(machine_key, states[machine_key]),
            slot[2],
            ctx.hetero[slot[0]] is None,
            **edit,
        )

    iterations = (
        DEFAULT_ANNEAL_ITERATIONS
        if ctx.request.max_iterations is None
        else int(ctx.request.max_iterations)
    )
    rng = np.random.default_rng(stream_seed(ctx.request.seed, STREAM_FLEET, 0))
    t_start = 0.02 * max(1.0, abs(current_score))
    t_end = 1e-3 * t_start
    deadline = (
        None
        if ctx.request.budget_s is None
        else time.monotonic() + float(ctx.request.budget_s)
    )
    executed = 0
    for iteration in range(1, iterations + 1):
        if deadline is not None and time.monotonic() > deadline:
            break
        executed = iteration
        temperature = t_start * (t_end / t_start) ** (
            (iteration - 1) / max(1, iterations - 1)
        )
        # Move selection.  Without P-state choice anywhere, the draw
        # sequence below is exactly the pre-hetero one — homogeneous
        # requests stay bit-identical seed for seed.  With P-states, a
        # third move kind flips one busy hetero core's P-state.
        if has_pstate_choice:
            roll = rng.random()
            if k >= 2 and roll < 1.0 / 3.0:
                kind = "swap"
            elif roll < 2.0 / 3.0:
                kind = "flip"
            else:
                kind = "move"
        else:
            kind = "swap" if (k >= 2 and rng.random() < 0.5) else "move"
        trial.clear()
        if kind == "swap":
            p = int(rng.integers(k))
            q = int(rng.integers(k))
            if p == q or processes[p] == processes[q] or placement[p] == placement[q]:
                continue
            # Each core swaps one name for another: its count and its
            # P-state stay, so the trial is as feasible as the live plan.
            moves = [(p, placement[q]), (q, placement[p])]
            splice(placement[p], drop=processes[p], add=processes[q])
            splice(placement[q], drop=processes[q], add=processes[p])
        elif kind == "flip":
            p = int(rng.integers(k))
            group_index, machine_index, core = placement[p]
            counts = ctx.pstate_counts[group_index]
            if counts is None or counts[core] <= 1:
                continue
            new_pstate = int(rng.integers(counts[core]))
            _prefix, entry, _suffix = _split(
                states[(group_index, machine_index)], core
            )
            if new_pstate == entry[2]:
                continue
            moves = []
            splice(placement[p], pstate=new_pstate)
        else:
            p = int(rng.integers(k))
            target = slots[int(rng.integers(len(slots)))]
            if placement[p] == target:
                continue
            if ctx.max_per_core is not None:
                _prefix, entry, _suffix = _split(states[target[:2]], target[2])
                if entry is not None and len(entry[1]) >= ctx.max_per_core:
                    continue
            moves = [(p, target)]
            splice(placement[p], drop=processes[p])
            splice(target, add=processes[p])
        new_total_watts = total_watts
        new_total_ips = total_ips
        new_metrics: Dict[Tuple[int, int], Tuple[float, float]] = {}
        feasible = True
        for machine_key in sorted(trial):
            group_index = machine_key[0]
            config = evaluator.group_configs[group_index]
            watts, ips = evaluator.state_metrics(config, trial[machine_key])
            cap = ctx.caps[group_index]
            if cap is not None and watts > cap:
                feasible = False
                break
            old_watts, old_ips = metrics[machine_key]
            new_total_watts += watts - old_watts
            new_total_ips += ips - old_ips
            new_metrics[machine_key] = (watts, ips)
        if not feasible:
            continue
        trial_score = fleet_score(
            ctx.objective, new_total_watts, new_total_ips, ctx.budget
        )
        if math.isinf(trial_score):
            continue
        delta = trial_score - current_score
        if delta > 0 and rng.random() >= math.exp(-delta / temperature):
            continue
        # Accept: the trial states become the live ones.
        states.update(trial)
        metrics.update(new_metrics)
        for proc, target in moves:
            placement[proc] = target
        total_watts, total_ips = new_total_watts, new_total_ips
        current_score = trial_score
        if current_score < best_score:
            best_score = current_score
            best_placement = list(placement)
            best_states = dict(states)
            improvements.append((iteration, current_score))
    # Guard against pathological float drift between the incremental
    # search arithmetic and the canonical report: never return a
    # configuration whose canonical score is worse than the start's.
    final_score, _w, _i = _score_states(ctx, _fleet_states(best_states))
    start_score, _w, _i = _score_states(ctx, start_states)
    if final_score > start_score:
        return list(start), start_pstates, "anneal", executed, [(0, start_score)]
    return (
        best_placement, _pstate_map(ctx, best_states), "anneal", executed,
        improvements,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _materialize(
    ctx: _Context,
    placements: Sequence[Slot],
    pstates: Optional[PStateMap],
    solver_name: str,
    refinement: str,
    iterations: int,
    improvements: Optional[Sequence[Tuple[int, float]]],
) -> FleetAssignment:
    evaluator = ctx.evaluator
    busy = _machine_states(ctx, placements, pstates)
    states = _fleet_states(busy)
    score, watts, ips = _score_states(ctx, states)
    machine_assignments: List[MachineAssignment] = []
    for group_index, group in enumerate(ctx.fleet.groups):
        config = evaluator.group_configs[group_index]
        for machine_index in range(group.count):
            state = busy.get((group_index, machine_index), ())
            machine_watts, machine_ips = evaluator.state_metrics(config, state)
            if ctx.hetero[group_index] is None:
                assignment = {core: names for core, names in state}
                machine_pstates = None
            else:
                assignment = {core: names for core, names, _p in state}
                machine_pstates = {core: p for core, _names, p in state}
            machine_assignments.append(
                MachineAssignment(
                    machine=group.machine,
                    group=group_index,
                    index=machine_index,
                    assignment=assignment,
                    predicted_watts=machine_watts,
                    predicted_ips=machine_ips,
                    pstates=machine_pstates,
                )
            )
    if improvements is None:
        improvements = [(0, score)]
    return FleetAssignment(
        objective=ctx.request.objective,
        solver=solver_name,
        refinement=refinement,
        fleet=ctx.fleet,
        processes=ctx.processes,
        machines=tuple(machine_assignments),
        predicted_watts=watts,
        predicted_ips=ips,
        score=score,
        evaluations=evaluator.evaluations,
        iterations=iterations,
        improvements=tuple(improvements),
        seed=ctx.request.seed,
    )


def solve(
    request: AssignmentRequest,
    features: Mapping[str, FeatureVector],
    profiles: Mapping[str, ProfileVector],
    power_model: CorePowerModel,
    *,
    max_candidates: Optional[int] = None,
    sweep_limit: Optional[int] = None,
    models: Optional[SolvedCoRuns] = None,
) -> FleetAssignment:
    """Solve a declarative fleet-assignment request.

    The request says *what* to solve; everything here is an execution
    knob (enumeration caps, the store of solved co-runs to reuse) that
    cannot change the returned bits — only how fast they arrive.
    """
    fleet = request.resolved_fleet()
    objective = canonical_objective(request.objective)
    evaluator = FleetEvaluator(
        features,
        profiles,
        power_model,
        fleet,
        models=models,
    )
    ctx = _Context(
        request=request,
        evaluator=evaluator,
        fleet=fleet,
        processes=request.processes,
        objective=objective,
        caps=_effective_caps(fleet, request.machine_power_cap_watts),
        budget=request.power_budget_watts,
        max_per_core=request.max_per_core,
        slots=[
            (group_index, machine_index, core)
            for group_index, group in enumerate(fleet.groups)
            for machine_index in range(group.count)
            for core in range(evaluator.group_configs[group_index].num_cores)
        ],
        sweep_limit=DEFAULT_SWEEP_LIMIT if sweep_limit is None else int(sweep_limit),
        hetero=tuple(group.hetero for group in fleet.groups),
        pstate_counts=tuple(
            group.hetero.pstate_counts if group.hetero is not None else None
            for group in fleet.groups
        ),
    )
    if ctx.max_per_core is not None and len(ctx.processes) > len(ctx.slots) * ctx.max_per_core:
        raise ConfigurationError(
            f"{len(ctx.processes)} processes cannot fit {len(ctx.slots)} cores "
            f"at max_per_core={ctx.max_per_core}"
        )
    solver_name = request.solver
    if solver_name == "auto":
        solver_name = "exhaustive" if ctx.bound <= ctx.sweep_limit else "anneal"
    observer = get_observer()
    if not observer.enabled:
        return _solve_impl(ctx, solver_name, max_candidates)
    with observer.span(
        "fleet.solve",
        solver=solver_name,
        objective=objective,
        processes=len(ctx.processes),
        machines=fleet.total_machines,
    ) as span:
        result = _solve_impl(ctx, solver_name, max_candidates)
        span.annotate(
            score=result.score,
            evaluations=result.evaluations,
            iterations=result.iterations,
        )
        observer.counter("fleet.solves").inc()
        observer.counter("fleet.machine_evals").inc(result.evaluations)
        observer.counter("fleet.iterations").inc(result.iterations)
        observer.histogram("fleet.score").observe(result.score)
        return result


def _solve_impl(
    ctx: _Context, solver_name: str, max_candidates: Optional[int]
) -> FleetAssignment:
    ctx.evaluator.prime(ctx.processes)
    if solver_name == "exhaustive":
        placements, pstates, scored, improvements = _solve_exhaustive(
            ctx, max_candidates
        )
        return _materialize(
            ctx, placements, pstates, "exhaustive", "none", scored, improvements
        )
    if solver_name == "greedy":
        placements, pstates = _solve_greedy(ctx)
        return _materialize(
            ctx, placements, pstates, "greedy", "none", len(ctx.processes), None
        )
    placements, pstates, refinement, iterations, improvements = _solve_anneal(ctx)
    return _materialize(
        ctx, placements, pstates, "anneal", refinement, iterations, improvements
    )
