"""The combined performance + power model (paper Section 5, Figure 1).

Estimates processor power for a *tentative* process-to-core assignment
before it runs, using only per-process profiling data.  The key
decomposition splits Eq. 9 by what cache contention can touch:

    P_process = P_idle + P1 + P2
    P1 = (c1·L1RPI + c4·BRPI + c5·FPPI) / SPI
    P2 = (c2·L2RPI + c3·L2RPI·L2MPR) / SPI

The per-instruction rates are fixed process properties recorded during
profiling; contention only moves SPI and L2MPR, and those two are
exactly what the performance model predicts.  Power for an assignment
then follows Figure 1: per cache domain, average the per-combination
powers over every cross-core process combination (Eq. 10), add idle
cores at ``P_idle``, and sum the domains (Eq. 11, where the other
domains are ``P_rest``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.feature import ProfileVector
from repro.core.performance_model import PerformanceModel, canonical_order
from repro.core.power_model import CorePowerModel
from repro.core.solver_cache import CacheStats, EquilibriumCache
from repro.core.timesharing import process_combinations
from repro.errors import ConfigurationError
from repro.events import Event
from repro.machine.topology import MachineTopology
from repro.obs import get_observer

if TYPE_CHECKING:
    from repro.hetero.types import OperatingPoint

Assignment = Mapping[int, Sequence[str]]

#: One cache domain's part of a state estimate: its watts terms, its IPS
#: increments and its Eq. 10 combination count.
DomainPart = Tuple[Tuple[float, ...], Tuple[float, ...], int]

#: A canonical machine state: ``((core, names), ...)`` sorted by core,
#: idle cores dropped; with a bound P-state table each entry also
#: carries the core's P-state index, ``(core, names, index)``.
State = Tuple[tuple, ...]

#: Per-domain parts a model keeps before it drops its least recently used.
DOMAIN_MEMO_ENTRIES = 4096


class _PStateTable(NamedTuple):
    """What :meth:`CombinedModel.bind_pstates` fixes for the model's life."""

    points: Dict[Tuple[int, int], "OperatingPoint"]
    idle_points: Tuple["OperatingPoint", ...]
    #: Raises the descriptive range error for a pair ``points`` lacks.
    resolve: Callable[[int, int], "OperatingPoint"]
    unit: bool  #: every point multiplies by exactly 1.0


@dataclass(frozen=True)
class PowerSplit:
    """The P_idle / P1 / P2 decomposition of one process's power."""

    p_idle: float
    p1: float
    p2: float

    @property
    def total(self) -> float:
        return self.p_idle + self.p1 + self.p2


@dataclass(frozen=True)
class AssignmentPowerEstimate:
    """Predicted power and throughput of one tentative assignment."""

    watts: float
    per_domain_watts: Tuple[float, ...]
    combinations_evaluated: int
    ips: float  #: total instructions per second


def classify_scenario(
    topology: MachineTopology, assignment: Assignment, core: int
) -> int:
    """Figure 1's four-way case split for assigning to ``core``.

    1: core and its partner set both idle; 2: core busy, partners
    idle; 3: core idle, partners busy; 4: both busy.
    """
    core_busy = bool(assignment.get(core))
    partners_busy = any(assignment.get(p) for p in topology.partners_of(core))
    if not core_busy and not partners_busy:
        return 1
    if core_busy and not partners_busy:
        return 2
    if not core_busy and partners_busy:
        return 3
    return 4


class CombinedModel:
    """Profiles-only processor-power estimator for assignments.

    Args:
        topology: The target machine.
        performance_models: One fitted
            :class:`~repro.core.performance_model.PerformanceModel`
            per cache domain (index-aligned with
            ``topology.domains``).  A single model may be passed if
            all domains share a geometry.
        power_model: Fitted Eq. 9 core power model.
        profiles: Per-process profiling vectors PF_i.
        corun_cache: Optional shared :class:`EquilibriumCache` for
            per-combination operating points.  Assignment searches
            revisit the same co-run combinations across candidate
            assignments, so passing one cache to several
            ``CombinedModel`` instances (or reusing it across
            searches) pools that work.  Omitted, the model owns a
            private cache.

    Each cache domain's part of a canonical state's estimate is
    memoised too, keyed on the state's entries on that domain, so a
    model that lives across searches re-prices only domains it has
    never seen.  That memo assumes the power model and profiles stay as
    they were at construction: build a new model after refitting either.
    """

    def __init__(
        self,
        topology: MachineTopology,
        performance_models: Sequence[PerformanceModel],
        power_model: CorePowerModel,
        profiles: Mapping[str, ProfileVector],
        corun_cache: Optional[EquilibriumCache] = None,
    ):
        if len(performance_models) == 1:
            performance_models = list(performance_models) * len(topology.domains)
        if len(performance_models) != len(topology.domains):
            raise ConfigurationError(
                "need one performance model per cache domain (or a single "
                "shared one)"
            )
        for model, domain in zip(performance_models, topology.domains):
            if model.ways != domain.geometry.ways:
                raise ConfigurationError(
                    f"performance model ways ({model.ways}) do not match "
                    f"domain associativity ({domain.geometry.ways})"
                )
        self.topology = topology
        self.performance_models = list(performance_models)
        self.power_model = power_model
        self.profiles = dict(profiles)
        # Predicted operating points keyed by (domain, sorted co-run
        # multiset); bounded LRU with hit/miss telemetry, shareable
        # across models and assignment searches.
        self._corun_cache = (
            corun_cache if corun_cache is not None else EquilibriumCache()
        )
        self._domain_of: Dict[int, int] = {
            core: index
            for index, domain in enumerate(topology.domains)
            for core in domain.core_ids
        }
        # DomainPart keyed by (tag, the state's entries on the domain).
        # The tag is the domain index, plus the number of domains for
        # P-state entries, so the two kinds of state never share a key
        # (an idle domain's entries are () in both).  A plain dict
        # keeps lookups to one C-level hash, without the lock; inserts,
        # the counters (once per state) and, on a full memo, re-inserting
        # hits take it, and an insert drops the least recently used
        # entry beyond DOMAIN_MEMO_ENTRIES.
        self._domain_memo: Dict[Tuple[int, State], DomainPart] = {}
        self._memo_lock = threading.Lock()
        self._memo_hits = 0
        self._memo_misses = 0
        self._memo_evictions = 0
        count = len(topology.domains)
        self._paper_tags = tuple(range(count))
        self._pstate_tags = tuple(range(count, 2 * count))
        self._pstates: Optional[_PStateTable] = None

    @property
    def corun_cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the co-run operating-point cache."""
        return self._corun_cache.stats

    @property
    def domain_cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the per-domain pricing memo."""
        with self._memo_lock:
            return CacheStats(
                hits=self._memo_hits,
                misses=self._memo_misses,
                evictions=self._memo_evictions,
                entries=len(self._domain_memo),
                max_entries=DOMAIN_MEMO_ENTRIES,
            )

    def bind_pstates(
        self,
        points: Mapping[Tuple[int, int], OperatingPoint],
        idle_points: Sequence[OperatingPoint],
        resolve: Callable[[int, int], OperatingPoint],
        unit: bool,
    ) -> None:
        """Price :meth:`state_metrics` states at a P-state table.

        ``points`` maps every valid ``(core, P-state index)`` to its
        :class:`~repro.hetero.types.OperatingPoint`, ``idle_points``
        gives each core's parked point, and ``resolve`` raises the
        descriptive range error for a pair ``points`` lacks.  The memo
        keys entries on the P-state *index*, so the table is fixed for
        the model's life: binding a different one raises.  ``unit``
        says every point is exactly 1.0; such a table prices with
        ``points=None``, the paper machine's arithmetic, after checking
        each index.
        """
        if self._pstates is not None:
            if self._pstates.points == points:
                return
            raise ConfigurationError(
                "this CombinedModel already prices another P-state table; "
                "build one model per spec"
            )
        self._pstates = _PStateTable(
            dict(points),
            tuple(idle_points),
            resolve,
            unit,
        )

    # ------------------------------------------------------------------
    # Process power from predicted SPI / L2MPR
    # ------------------------------------------------------------------
    def _profile(self, name: str) -> ProfileVector:
        try:
            return self.profiles[name]
        except KeyError:
            raise KeyError(
                f"no profile vector for {name!r}; known: {sorted(self.profiles)}"
            ) from None

    def process_power(self, name: str, spi: float, l2mpr: float) -> float:
        """Power of a core running ``name`` at a predicted operating point."""
        if spi <= 0:
            raise ConfigurationError("spi must be positive")
        profile = self._profile(name)
        ips = 1.0 / spi
        rates = {
            Event.L1_REFS: profile.l1rpi * ips,
            Event.L2_REFS: profile.l2rpi * ips,
            Event.L2_MISSES: profile.l2rpi * l2mpr * ips,
            Event.BRANCHES: profile.brpi * ips,
            Event.FP_OPS: profile.fppi * ips,
        }
        return self.power_model.core_power(rates)

    def power_split(self, name: str, spi: float, l2mpr: float) -> PowerSplit:
        """The Section 5 decomposition P_idle + P1 + P2 (for analysis)."""
        profile = self._profile(name)
        coeffs = self.power_model.coefficients
        ips = 1.0 / spi
        p1 = (
            coeffs["L1RPS"] * profile.l1rpi
            + coeffs["BRPS"] * profile.brpi
            + coeffs["FPPS"] * profile.fppi
        ) * ips
        p2 = (
            coeffs["L2RPS"] * profile.l2rpi
            + coeffs["L2MPS"] * profile.l2rpi * l2mpr
        ) * ips
        return PowerSplit(p_idle=self.power_model.p_idle, p1=p1, p2=p2)

    # ------------------------------------------------------------------
    # Co-run prediction with caching
    # ------------------------------------------------------------------
    def _predict_corun(
        self,
        domain_idx: int,
        combo: Sequence[str],
        ratios: Optional[Sequence[float]] = None,
    ) -> Tuple[Tuple[float, float], ...]:
        """Predicted (SPI, L2MPR) per position of ``combo`` at ``ratios``.

        ``ratios`` are the per-position clock ratios (``None``: all
        unit).  Name alone is not a key once one program can run on
        two cores at different clocks, so entries key on the
        :func:`~repro.core.performance_model.canonical_order` of the
        ``(name, ratio)`` pairs and hold the canonical solution.
        """
        if ratios is None:
            ratios = (1.0,) * len(combo)
        pairs, slot = canonical_order(combo, ratios)
        key = (domain_idx, pairs)
        cached = self._corun_cache.get(key)
        if cached is None:
            prediction = self.performance_models[domain_idx].predict(
                [name for name, _ in pairs],
                frequency_ratios=[ratio for _, ratio in pairs],
            )
            cached = tuple((p.spi, p.l2mpr) for p in prediction.processes)
            self._corun_cache.put(key, cached)
        return tuple(cached[pos] for pos in slot)

    # ------------------------------------------------------------------
    # Machine-state estimate (Figure 1 + Eq. 10 + Eq. 11)
    # ------------------------------------------------------------------
    def estimate_state(
        self,
        assignment: Assignment,
        points: Optional[Sequence[OperatingPoint]] = None,
    ) -> AssignmentPowerEstimate:
        """Predicted power and throughput of a full tentative assignment.

        ``assignment`` maps core id to the process names time-sharing
        that core; cores may be omitted or empty (idle).  ``points``
        gives every core its operating point (see
        :class:`~repro.hetero.types.OperatingPoint`), idle cores
        included; ``None`` is the paper's machine, every core at the
        profiled clock, and is served from the per-domain memo.  Each
        co-run combination is looked up once and yields both its watts
        and its IPS.
        """
        observer = get_observer()
        if observer.enabled:
            watts, per_domain, combos, ips = self._observed(
                observer,
                assignment.values(),
                self._estimate_state_impl,
                assignment,
                points,
            )
        else:
            watts, per_domain, combos, ips = self._estimate_state_impl(
                assignment, points
            )
        return AssignmentPowerEstimate(
            watts=watts,
            per_domain_watts=tuple(per_domain),
            combinations_evaluated=combos,
            ips=ips,
        )

    def state_metrics(self, state: State) -> Tuple[float, float]:
        """(watts, instructions per second) of a canonical machine state.

        ``state`` is ``((core, names), ...)`` sorted by core with idle
        cores dropped (see :func:`repro.fleet.evaluator.canonical_state`),
        priced on the paper's machine; on a model bound by
        :meth:`bind_pstates` each entry is ``(core, names, P-state
        index)``, priced at the table's points.  Either way it is the
        :meth:`estimate_state` arithmetic, served from the per-domain
        memo.
        """
        observer = get_observer()
        if observer.enabled:
            watts, _, _, ips = self._observed(
                observer,
                (entry[1] for entry in state),
                self._price_state,
                state,
                self._pstates,
            )
        else:
            watts, _, _, ips = self._price_state(state, self._pstates)
        return float(watts), float(ips)

    @staticmethod
    def _observed(
        observer,
        residents: Iterable[Sequence[str]],
        price: Callable[..., Tuple[float, List[float], int, float]],
        *args,
    ) -> Tuple[float, List[float], int, float]:
        """``price(*args)`` inside a ``combined.power`` span."""
        residents = list(residents)
        with observer.span(
            "combined.power",
            cores=len(residents),
            processes=sum(len(names) for names in residents),
        ) as span:
            result = price(*args)
            watts, _, combos, ips = result
            span.annotate(watts=watts, ips=ips, combinations=combos)
            observer.counter("combined.power_estimates").inc()
            observer.counter("combined.throughput_estimates").inc()
            observer.counter("combined.combinations").inc(combos)
            return result

    def _estimate_state_impl(
        self,
        assignment: Assignment,
        points: Optional[Sequence[OperatingPoint]],
    ) -> Tuple[float, List[float], int, float]:
        num_cores = self.topology.num_cores
        for core in assignment:
            if not 0 <= core < num_cores:
                raise ConfigurationError(f"core {core} out of range")
        if points is None:
            state = tuple(
                sorted(
                    (core, tuple(names))
                    for core, names in assignment.items()
                    if names
                )
            )
            return self._price_state(state, None)
        # Explicit points are not a table the memo can key on, so each
        # domain is priced afresh (its co-runs still come from the cache).
        return self._total(
            (
                self._price_domain(
                    domain_idx,
                    tuple(tuple(assignment.get(c) or ()) for c in domain.core_ids),
                    tuple(points[c] for c in domain.core_ids),
                )
                for domain_idx, domain in enumerate(self.topology.domains)
            ),
            paper=False,
        )

    def _price_state(
        self, state: State, pstates: Optional[_PStateTable]
    ) -> Tuple[float, List[float], int, float]:
        """Replay a canonical state's memoised per-domain parts.

        A miss resolves the domain's operating points and prices it;
        an entry outside the machine or the P-state table raises before
        anything keyed on it is stored.
        """
        domain_of = self._domain_of
        slices: List[list] = [[] for _ in self._paper_tags]
        for entry in state:
            try:
                slices[domain_of[entry[0]]].append(entry)
            except KeyError:
                if pstates is not None:
                    pstates.resolve(entry[0], entry[2])
                raise ConfigurationError(f"core {entry[0]} out of range") from None
        tags = self._paper_tags if pstates is None else self._pstate_tags
        memo = self._domain_memo
        # Once the memo is full, hits are re-inserted so that the
        # oldest entry an insert drops is the least recently used.
        used: Optional[list] = [] if len(memo) >= DOMAIN_MEMO_ENTRIES else None
        parts: List[DomainPart] = []
        hits = 0
        for domain_idx, entries in enumerate(slices):
            key = (tags[domain_idx], tuple(entries))
            part = memo.get(key)
            if part is None:
                part = self._price_slice(domain_idx, entries, pstates)
                self._remember(key, part)
            else:
                hits += 1
                if used is not None:
                    used.append(key)
            parts.append(part)
        if hits:
            with self._memo_lock:
                self._memo_hits += hits
                for key in used or ():
                    part = memo.pop(key, None)
                    if part is not None:
                        memo[key] = part
        return self._total(parts, paper=pstates is None or pstates.unit)

    @staticmethod
    def _total(
        parts: Iterable[DomainPart], paper: bool
    ) -> Tuple[float, List[float], int, float]:
        """(watts, per-domain watts, combinations, IPS) of domain parts.

        Two summation orders, each pinned by the answer corpus: the
        paper's machine totals each domain and sums the domains (Eq.
        11); with operating points one running total takes every term
        in turn.  Reassociating either moves answers, so the parts are
        replayed term by term.
        """
        running = 0.0
        per_domain: List[float] = []
        total_ips = 0.0
        combos_evaluated = 0
        for terms, increments, combos in parts:
            for increment in increments:
                total_ips += increment
            combos_evaluated += combos
            per_domain.append(sum(terms))
            if not paper:
                for term in terms:
                    running += term
        watts = float(sum(per_domain)) if paper else running
        return watts, per_domain, combos_evaluated, total_ips

    def _price_slice(
        self, domain_idx: int, entries: list, pstates: Optional[_PStateTable]
    ) -> DomainPart:
        """Price one domain from a canonical state's entries on it."""
        cores = self.topology.domains[domain_idx].core_ids
        residents: List[Tuple[str, ...]] = [()] * len(cores)
        points = None
        if pstates is not None:
            points = [pstates.idle_points[core] for core in cores]
        for entry in entries:
            core, names = entry[0], entry[1]
            position = cores.index(core)
            residents[position] = tuple(names)
            if points is not None and names:
                point = pstates.points.get((core, entry[2]))
                points[position] = (
                    point if point is not None else pstates.resolve(core, entry[2])
                )
        return self._price_domain(
            domain_idx,
            tuple(residents),
            None if points is None or pstates.unit else tuple(points),
        )

    def _remember(self, key: Tuple[int, State], part: DomainPart) -> None:
        with self._memo_lock:
            self._memo_misses += 1
            memo = self._domain_memo
            if key not in memo and len(memo) >= DOMAIN_MEMO_ENTRIES:
                del memo[next(iter(memo))]
                self._memo_evictions += 1
            memo[key] = part

    def _price_domain(
        self,
        domain_idx: int,
        residents: Tuple[Tuple[str, ...], ...],
        points: Optional[Tuple[OperatingPoint, ...]],
    ) -> DomainPart:
        """One cache domain's watts terms, IPS increments and combinations.

        ``residents`` and ``points`` are per core of the domain, in
        ``core_ids`` order.  A domain's part depends on nothing else,
        so the caller memoises it and replays both lists in order.
        """
        p_idle = self.power_model.p_idle
        busy = [i for i, names in enumerate(residents) if names]
        if points is None:
            terms = [(len(residents) - len(busy)) * p_idle]
        else:
            # Idle cores draw P_idle scaled to their parked point.
            terms = [
                point.static_multiplier * p_idle
                for point, names in zip(points, residents)
                if not names
            ]
        increments: List[float] = []
        combos_evaluated = 0
        if len(busy) == 1:
            # No cross-core cache contention in this domain: each
            # process runs as profiled; use the recorded P_alone
            # (Figure 1, scenario 1/2) averaged over timeslices.
            names = residents[busy[0]]
            if points is None:
                ratio = 1.0
                terms.append(
                    sum(self._profile(n).p_alone for n in names) / len(names)
                )
            else:
                # P_alone = P_idle + active: the idle part scales
                # with the static multiplier, the active part with
                # the clock (event rates) and the dynamic one.
                point = points[busy[0]]
                ratio = point.frequency_ratio
                active = (
                    sum(self._profile(n).p_alone - p_idle for n in names)
                    / len(names)
                )
                terms.append(
                    point.static_multiplier * p_idle
                    + point.dynamic_multiplier * point.frequency_ratio * active
                )
            # A process time-sharing with k - 1 others runs 1/k
            # of the time.
            time_share = 1.0 / len(names)
            for name in names:
                ((spi, _),) = self._predict_corun(domain_idx, (name,), (ratio,))
                increments.append(time_share * (1.0 / spi))
        elif busy:
            # Scenario 3/4: Eq. 10 averages over every cross-core
            # combination.  The predicted SPI already carries each
            # core's clock into Eq. 9's event rates, so an
            # operating point only adds its power multipliers.
            per_core_lists = [residents[i] for i in busy]
            ratios = (
                None
                if points is None
                else tuple(points[i].frequency_ratio for i in busy)
            )
            combos = process_combinations(per_core_lists)
            combos_evaluated = len(combos)
            combo_watts = 0.0
            combo_ips = 0.0
            for combo in combos:
                operating = self._predict_corun(domain_idx, combo, ratios)
                power = 0.0
                for position, (name, (spi, l2mpr)) in enumerate(
                    zip(combo, operating)
                ):
                    process = self.process_power(name, spi, l2mpr)
                    if points is None:
                        power += process
                    else:
                        point = points[busy[position]]
                        power += (
                            point.static_multiplier * p_idle
                            + point.dynamic_multiplier * (process - p_idle)
                        )
                if power < 0:
                    raise ConfigurationError(
                        "combination power must be non-negative"
                    )
                combo_watts += power
                combo_ips += sum(1.0 / spi for spi, _ in operating)
            terms.append(combo_watts / len(combos))
            # The uniform average over combinations already encodes
            # the per-core time shares: a process on a core with k
            # residents appears in exactly len(combos)/k combinations
            # (every choice of its partners), so dividing the summed
            # per-combination IPS by len(combos) weights its mean
            # contended IPS by 1/k — the same weight the single-core
            # branch applies explicitly.
            increments.append(combo_ips / len(combos))
        return tuple(terms), tuple(increments), combos_evaluated

    def estimate_assignment_power(self, assignment: Assignment) -> AssignmentPowerEstimate:
        """Predicted processor power for a full tentative assignment.

        The paper-machine view of :meth:`estimate_state`.
        """
        return self.estimate_state(assignment)

    def estimate_after_assigning(
        self, assignment: Assignment, name: str, core: int
    ) -> Tuple[AssignmentPowerEstimate, int]:
        """Figure 1's incremental query: power if ``name`` joins ``core``.

        Returns the new-assignment estimate together with the Figure 1
        scenario number that applied.
        """
        scenario = classify_scenario(self.topology, assignment, core)
        new_assignment = {c: list(names) for c, names in assignment.items()}
        new_assignment.setdefault(core, []).append(name)
        return self.estimate_assignment_power(new_assignment), scenario

    def estimate_assignment_throughput(self, assignment: Assignment) -> float:
        """Predicted total instructions per second of an assignment.

        The IPS view of :meth:`estimate_state`: within a domain each
        cross-core combination is weighted equally (the Eq. 10
        assumption), and a process time-sharing a core with ``k - 1``
        others runs ``1/k`` of the time.
        """
        return self.estimate_state(assignment).ips
