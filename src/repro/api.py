"""One-stop facade over the paper's full methodology.

The library's workflows span several subsystems (profiling, the
performance model, power training, assignment search).  This module
exposes each as a single function returning a frozen result bundle, so
scripts, notebooks and the CLI all drive the same four entry points:

- :func:`profile_suite` — stressmark-profile benchmarks on a machine,
- :func:`predict_mix` — price a co-run combination from profiles,
- :func:`train_power` — fit the Eq. 9 power model for a machine,
- :func:`solve_assignment` — solve a declarative
  :class:`AssignmentRequest` (single machine or a whole
  :class:`~repro.fleet.FleetSpec` fleet) into a
  :class:`FleetAssignment`,
- :func:`pick_assignment` — the original positional assignment entry
  point, kept as a deprecated shim over the same machinery,
- :func:`serve` — run all of the above as an asyncio HTTP service
  with a model registry and dynamic micro-batching
  (:mod:`repro.serve`).

Every result type round-trips through plain JSON via ``to_dict()`` /
``from_dict()`` (one codec in :mod:`repro.io`), and all functions
honour the process-wide observer installed with
:func:`repro.obs.use_observer`.
"""

from __future__ import annotations

import pathlib
import warnings
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.config import (
    BENCH_SCALE,
    PROFILE_SCALE,
    SimulationScale,
    TEST_SCALE,
)
from repro.core.assignment import (
    AssignmentDecision,
    OBJECTIVES,
    format_candidate_count,
    greedy_assignment,
)
from repro.core.combined import CombinedModel
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.performance_model import CoRunPrediction, PerformanceModel
from repro.core.power_model import CorePowerModel
from repro.errors import AssignmentTooLargeError, ConfigurationError
from repro.fleet.evaluator import SolvedCoRuns
from repro.fleet.spec import FleetSpec, MachineGroup
from repro.fleet.types import (
    AssignmentRequest,
    FleetAssignment,
    MachineAssignment,
)
from repro.io import (
    document,
    load_fleet_assignment,
    load_json,
    load_power_model,
    save_json,
    save_power_model,
)
from repro.machine.topology import STANDARD_MACHINES
from repro.workloads.spec import BENCHMARKS

Pathish = Union[str, pathlib.Path]

__all__ = [
    "ProfileSuiteResult",
    "MixPrediction",
    "PowerTrainingResult",
    "AssignmentPick",
    "AssignmentRequest",
    "FleetAssignment",
    "FleetSpec",
    "MachineAssignment",
    "MachineGroup",
    "profile_suite",
    "predict_mix",
    "predict_mixes",
    "train_power",
    "pick_assignment",
    "solve_assignment",
    "load_suite",
    "load_prediction",
    "load_pick",
    "load_fleet_assignment",
    "serve",
    "ServerHandle",
]


def __getattr__(name: str):
    # Lazy re-export: pulling the serving stack (asyncio server,
    # batcher, registry) into every `import repro` would be waste.
    if name == "ServerHandle":
        from repro.serve import ServerHandle

        return ServerHandle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# Result bundles
# ----------------------------------------------------------------------
@document("profile_suite", defaults={"machine": "", "features": {}, "profiles": {}})
@dataclass(frozen=True)
class ProfileSuiteResult:
    """Everything :func:`profile_suite` learned about a benchmark set.

    A suite object also keeps the co-runs its fleet solves priced (see
    :class:`~repro.fleet.SolvedCoRuns`), outside the dataclass fields:
    they are not part of ``to_dict``, ``==``, ``repr`` or pickled state,
    and they are freed together with the suite.
    """

    machine: str
    features: Dict[str, FeatureVector]
    profiles: Dict[str, ProfileVector]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.features))

    @property
    def solved_coruns(self) -> SolvedCoRuns:
        """This suite's store of solved co-runs (built on first use)."""
        try:
            return self.__dict__["_solved_coruns"]
        except KeyError:
            return self.__dict__.setdefault("_solved_coruns", SolvedCoRuns())

    def __getstate__(self) -> dict:
        # A copy (pickled, or copy.copy) starts with an empty store.
        state = self.__dict__.copy()
        state.pop("_solved_coruns", None)
        return state

    def save(self, path: Pathish) -> None:
        """Write the suite to JSON (loadable by :func:`load_suite`)."""
        save_json(self.to_dict(), path)


@document("mix_prediction")
@dataclass(frozen=True)
class MixPrediction:
    """Predicted co-run steady state from :func:`predict_mix`."""

    ways: int
    names: Tuple[str, ...]
    prediction: CoRunPrediction

    def save(self, path: Pathish) -> None:
        """Write the prediction to JSON (loadable by :func:`load_prediction`)."""
        save_json(self.to_dict(), path)


@document("power_training_result")
@dataclass(frozen=True)
class PowerTrainingResult:
    """Fitted Eq. 9 model plus its training provenance."""

    machine: str
    model: CorePowerModel
    training_windows: int
    r_squared: float

    def save(self, path: Pathish) -> None:
        """Write just the fitted model to JSON (io conventions)."""
        save_power_model(self.model, path)


@document("assignment_pick")
@dataclass(frozen=True)
class AssignmentPick:
    """Outcome of :func:`pick_assignment`."""

    machine: str
    strategy: str
    decision: AssignmentDecision

    @property
    def assignment(self) -> Dict[int, Tuple[str, ...]]:
        return self.decision.assignment

    def save(self, path: Pathish) -> None:
        """Write the pick to JSON (loadable by :func:`load_pick`)."""
        save_json(self.to_dict(), path)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _topology(machine: str, sets: int):
    try:
        factory = STANDARD_MACHINES[machine]
    except KeyError:
        raise ConfigurationError(
            f"unknown machine {machine!r}; choose from {sorted(STANDARD_MACHINES)}"
        ) from None
    return factory(sets=sets)


def _resolve_benchmarks(names: Optional[Sequence[str]]):
    if names is None:
        names = sorted(BENCHMARKS)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        raise ConfigurationError(
            f"unknown benchmarks {unknown}; available: {sorted(BENCHMARKS)}"
        )
    return [BENCHMARKS[n] for n in names]


def _resolve_suite(
    suite: Union["ProfileSuiteResult", Pathish]
) -> "ProfileSuiteResult":
    """Accept a result bundle or a path to a saved suite."""
    if isinstance(suite, ProfileSuiteResult):
        return suite
    return load_suite(suite)


def load_suite(path: Pathish) -> ProfileSuiteResult:
    """Load a suite saved by the facade or by ``save_profile_suite``.

    Both writers emit ``kind: profile_suite`` documents; the facade
    additionally records the machine name (absent → empty string).
    """
    return ProfileSuiteResult.from_dict(load_json(path))


def load_prediction(path: Pathish) -> MixPrediction:
    """Load a prediction saved by :meth:`MixPrediction.save`."""
    return MixPrediction.from_dict(load_json(path))


def load_pick(path: Pathish) -> AssignmentPick:
    """Load a decision saved by :meth:`AssignmentPick.save`."""
    return AssignmentPick.from_dict(load_json(path))


# ----------------------------------------------------------------------
# Facade entry points
# ----------------------------------------------------------------------
def profile_suite(
    names: Optional[Sequence[str]] = None,
    machine: str = "4-core-server",
    *,
    sets: int = 128,
    seed: int = 42,
    power: bool = False,
    quick: bool = False,
    scale: Optional[SimulationScale] = None,
) -> ProfileSuiteResult:
    """Stressmark-profile benchmarks on a machine (paper Section 3.4).

    Args:
        names: Benchmark names (default: the full synthetic suite).
        machine: A :data:`STANDARD_MACHINES` name.
        sets: Cache set scaling.
        seed: Master RNG seed.
        power: Also measure P_alone (required by the combined model).
        quick: Use tiny simulation budgets (fast, less accurate).
        scale: Explicit simulation scale (overrides ``quick``).
    """
    from repro.machine.simulator import PowerEnvironment
    from repro.profiling.profiler import profile_suite as run_profiling

    topology = _topology(machine, sets)
    benchmarks = _resolve_benchmarks(names)
    if scale is None:
        scale = TEST_SCALE if quick else PROFILE_SCALE
    power_env = (
        PowerEnvironment.for_topology(topology, seed=seed) if power else None
    )
    results = run_profiling(
        benchmarks, topology, scale=scale, seed=seed, power_env=power_env
    )
    return ProfileSuiteResult(
        machine=machine,
        features={p.feature.name: p.feature for p in results},
        profiles={p.profile.name: p.profile for p in results},
    )


def predict_mix(
    names: Sequence[str],
    suite: Union[ProfileSuiteResult, Pathish],
    *,
    ways: int,
    frequency_ratios: Optional[Sequence[float]] = None,
) -> MixPrediction:
    """Price a co-run combination from saved profiles (Section 3.3).

    Args:
        names: Processes sharing the cache (duplicates allowed).
        suite: A :class:`ProfileSuiteResult` or path to a saved suite.
        ways: Associativity of the shared cache being modelled.
        frequency_ratios: Optional per-process core-clock ratios
            relative to the profiled clock (heterogeneous machines /
            DVFS P-states); ``None`` or all-1.0 is the homogeneous
            path, bit for bit.
    """
    resolved = _resolve_suite(suite)
    model = PerformanceModel(ways=ways)
    model.register_all(list(resolved.features.values()))
    prediction = model.predict(
        list(names),
        frequency_ratios=(
            list(frequency_ratios) if frequency_ratios is not None else None
        ),
    )
    return MixPrediction(ways=ways, names=tuple(names), prediction=prediction)


def predict_mixes(
    mixes: Sequence[Sequence[str]],
    suite: Union[ProfileSuiteResult, Pathish],
    *,
    ways: int,
    frequency_ratios: Optional[Sequence[Optional[Sequence[float]]]] = None,
) -> Tuple[MixPrediction, ...]:
    """Price a batch of co-run combinations in one stacked solve.

    Results are ordered like ``mixes`` and are bit-identical to
    independent :func:`predict_mix` calls: the batch predictor solves
    every mix from the cold start (see :mod:`repro.parallel`), which
    is also what each :func:`predict_mix` call does.

    Args:
        mixes: Co-run combinations, each a sequence of process names.
        suite: A :class:`ProfileSuiteResult` or path to a saved suite.
        ways: Associativity of the shared cache being modelled.
        frequency_ratios: Optional per-mix core-clock ratios — one
            entry per mix, each ``None`` or a per-process ratio
            sequence.
    """
    from repro.parallel import predict_mixes as batch_predict

    resolved = _resolve_suite(suite)
    predictions = batch_predict(
        resolved.features,
        mixes,
        ways=ways,
        frequency_ratios=frequency_ratios,
    )
    # One record per mix, built like PerformanceModel._restore's: a
    # bare instance whose __dict__ gets every field, equal field for
    # field to ``MixPrediction(...)`` without the frozen ``__init__``'s
    # per-field ``object.__setattr__``.
    new = object.__new__
    records = []
    for mix, prediction in zip(mixes, predictions):
        record = new(MixPrediction)
        fields = record.__dict__
        fields["ways"] = ways
        fields["names"] = tuple(mix)
        fields["prediction"] = prediction
        records.append(record)
    return tuple(records)


def train_power(
    machine: str = "4-core-server",
    *,
    sets: int = 128,
    seed: int = 42,
    quick: bool = False,
) -> PowerTrainingResult:
    """Train the Eq. 9 per-core power model for a machine (Section 4).

    Uses the shared :class:`~repro.experiments.context.ExperimentContext`
    cache, so repeated calls with the same configuration are free.
    """
    from repro.experiments.context import get_context

    if machine not in STANDARD_MACHINES:
        raise ConfigurationError(
            f"unknown machine {machine!r}; choose from {sorted(STANDARD_MACHINES)}"
        )
    profile_scale = TEST_SCALE if quick else PROFILE_SCALE
    run_scale = TEST_SCALE if quick else BENCH_SCALE
    context = get_context(
        machine=machine,
        sets=sets,
        seed=seed,
        profile_scale=profile_scale,
        run_scale=run_scale,
    )
    model = context.power_model()
    return PowerTrainingResult(
        machine=machine,
        model=model,
        training_windows=len(context.training_set()),
        r_squared=model.r_squared,
    )


def pick_assignment(
    names: Sequence[str],
    suite: Union[ProfileSuiteResult, Pathish],
    power_model: Union[CorePowerModel, Pathish],
    machine: str = "4-core-server",
    *,
    sets: int = 128,
    objective: str = "power",
    greedy: bool = False,
) -> AssignmentPick:
    """Deprecated positional entry point; use :func:`solve_assignment`.

    The serving layer's ``/v1`` responses are pinned byte-for-byte to
    it, but new callers should build an :class:`AssignmentRequest` and
    call :func:`solve_assignment`, which adds fleets, power budgets and
    the scalable greedy/anneal solvers.
    """
    warnings.warn(
        "pick_assignment is deprecated; build an AssignmentRequest and "
        "call solve_assignment instead",
        DeprecationWarning,
        stacklevel=2,
    )
    return _pick_assignment_impl(
        names,
        suite,
        power_model,
        machine,
        sets=sets,
        objective=objective,
        greedy=greedy,
    )


def _pick_assignment_impl(
    names: Sequence[str],
    suite: Union[ProfileSuiteResult, Pathish],
    power_model: Union[CorePowerModel, Pathish],
    machine: str = "4-core-server",
    *,
    sets: int = 128,
    objective: str = "power",
    greedy: bool = False,
) -> AssignmentPick:
    """Pick the best process-to-core mapping from profiles (Section 6).

    The exhaustive pick is a one-machine :func:`solve_assignment` with
    ``solver="exhaustive"``: it shares the suite's solved co-runs with
    ``/v2`` and, like every fleet solve, prices each candidate from the
    cold start, so its bits do not depend on earlier picks.  The greedy
    pick solves every co-run from the cold start too.

    Args:
        names: Processes to place (duplicates allowed).
        suite: A :class:`ProfileSuiteResult` or path to a saved suite.
        power_model: A fitted :class:`CorePowerModel` or path to one.
        machine: Target machine name.
        sets: Cache set scaling.
        objective: ``power`` / ``throughput`` / ``energy_per_instruction``.
        greedy: Use the O(k·N) greedy searcher instead of exhaustive.
    """
    topology = _topology(machine, sets)
    resolved = _resolve_suite(suite)
    if not isinstance(power_model, CorePowerModel):
        power_model = load_power_model(power_model)
    if greedy:
        perf = PerformanceModel(ways=topology.domains[0].geometry.ways)
        perf.register_all(list(resolved.features.values()))
        combined = CombinedModel(
            topology=topology,
            performance_models=[perf],
            power_model=power_model,
            profiles=resolved.profiles,
        )
        decision = greedy_assignment(combined, list(names), objective=objective)
        return AssignmentPick(machine=machine, strategy="greedy", decision=decision)
    if objective not in OBJECTIVES:
        # /v1 keeps the legacy names; the fleet names are /v2's.
        raise ConfigurationError(
            f"unknown objective {objective!r}; choose from {sorted(OBJECTIVES)}"
        )
    try:
        plan = solve_assignment(
            AssignmentRequest(
                processes=tuple(names),
                objective=objective,
                solver="exhaustive",
                machine=machine,
                sets=sets,
            ),
            resolved,
            power_model,
        )
    except AssignmentTooLargeError as error:
        # The fleet guard's way out (max_candidates, solver=) is not
        # on /v1; the greedy search is.
        raise AssignmentTooLargeError(
            f"exhaustive assignment of {len(names)} processes on "
            f"{machine!r} enumerates "
            f"{format_candidate_count(error.candidate_count)} placements, "
            f"above the cap of {error.max_candidates}; pass greedy=true "
            f"(repro assign --greedy) for the greedy search",
            candidate_count=error.candidate_count,
            max_candidates=error.max_candidates,
        ) from None
    (chosen,) = plan.machines
    watts, ips = chosen.predicted_watts, chosen.predicted_ips
    decision = AssignmentDecision(
        assignment=chosen.assignment,
        predicted_watts=watts,
        predicted_ips=ips,
        objective=objective,
        score=OBJECTIVES[objective](watts, ips),
        candidates_evaluated=plan.evaluations,
    )
    return AssignmentPick(machine=machine, strategy="exhaustive", decision=decision)


def solve_assignment(
    request: AssignmentRequest,
    suite: Union[ProfileSuiteResult, Pathish],
    power_model: Union[CorePowerModel, Pathish],
) -> FleetAssignment:
    """Solve a declarative assignment request (single machine or fleet).

    The successor to :func:`pick_assignment`: the problem lives in a
    frozen, JSON-round-trippable :class:`AssignmentRequest` (objective,
    fleet inventory, power caps/budget, solver and search budget), so
    the same request gives the same bits on any host.  Small instances can use the exhaustive oracle;
    ``greedy``/``anneal`` scale to fleets of thousands of machines with
    anytime best-so-far reporting (see :mod:`repro.fleet`).

    Args:
        request: What to solve.
        suite: A :class:`ProfileSuiteResult` or path to a saved suite.
            A suite object keeps the co-runs each solve prices, so
            later solves on it skip those equilibria; a path loads a
            fresh suite per call.
        power_model: A fitted :class:`CorePowerModel` or path to one.
    """
    from repro.fleet import solve

    resolved = _resolve_suite(suite)
    if not isinstance(power_model, CorePowerModel):
        power_model = load_power_model(power_model)
    return solve(
        request,
        resolved.features,
        resolved.profiles,
        power_model,
        models=resolved.solved_coruns,
    )


def serve(
    models: Optional[Mapping[str, Any]] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch_size: int = 32,
    max_linger_ms: float = 0.0,
    max_queue: int = 256,
    result_cache_size: int = 4096,
    max_body_bytes: int = 8 * 1024 * 1024,
):
    """Boot the asyncio prediction service on a background thread.

    Returns a :class:`repro.serve.ServerHandle`; use it as a context
    manager (or call ``stop()``) to drain and shut down.  Served
    ``/v1/predict`` responses are bit-identical to :func:`predict_mix`
    for the same suite/mix — see :mod:`repro.serve`.

    Args:
        models: ``name -> artifact`` published before serving: result
            bundles (:class:`ProfileSuiteResult`,
            :class:`PowerTrainingResult`), fitted
            :class:`CorePowerModel` instances, saved-JSON paths, or
            raw documents.
        host / port: Bind address (``port=0`` = ephemeral).
        max_batch_size: Dispatch a batch at this many queued requests.
        max_linger_ms: Hold a partial batch until its oldest request
            has waited this long.  The default ``0`` dispatches at
            once whenever the solver is idle; a positive linger is a
            throughput setting for saturating concurrent load.
        max_queue: Admission bound; beyond it requests are shed with
            an explicit 429-style response.
        result_cache_size: Canonical-mix result-cache capacity
            (``0`` disables caching; hits skip the solver but stay
            bit-identical — see :mod:`repro.serve.cache`).
        max_body_bytes: Reject request bodies declared larger than
            this with 413 before reading them.
    """
    from repro.serve import start_server

    return start_server(
        models,
        host=host,
        port=port,
        max_batch_size=max_batch_size,
        max_linger_ms=max_linger_ms,
        max_queue=max_queue,
        result_cache_size=result_cache_size,
        max_body_bytes=max_body_bytes,
    )
