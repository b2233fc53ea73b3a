"""Ablation experiments for the design choices DESIGN.md calls out.

- Solver: Newton–Raphson (the paper's choice) vs the robust nested
  bisection scheme — agreement and runtime.
- Histogram resolution: profiling accuracy vs number of stressmark
  sweep points.
- Sampling period: power-model validation error vs HPC window length.
- Replacement policy: model error when the ground-truth cache violates
  the LRU assumption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.errors import relative_error_pct
from repro.core.equilibrium import BisectionSolver, NewtonSolver, SolverTelemetry
from repro.core.performance_model import PerformanceModel
from repro.core.solver_cache import EquilibriumCache
from repro.errors import ConvergenceError
from repro.machine.simulator import MachineSimulation
from repro.profiling.profiler import profile_process
from repro.workloads.spec import BENCHMARKS

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.context import ExperimentContext


# ----------------------------------------------------------------------
# Solver ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolverCase:
    pair: Tuple[str, str]
    newton_sizes: Optional[Tuple[float, ...]]
    bisection_sizes: Tuple[float, ...]
    newton_seconds: float
    bisection_seconds: float
    newton_converged: bool
    newton_telemetry: Optional[SolverTelemetry] = None
    bisection_telemetry: Optional[SolverTelemetry] = None
    newton_failure: Optional[str] = None

    @property
    def max_size_disagreement(self) -> float:
        if self.newton_sizes is None:
            return float("nan")
        return max(
            abs(a - b) for a, b in zip(self.newton_sizes, self.bisection_sizes)
        )


@dataclass(frozen=True)
class SolverAblationResult:
    cases: Tuple[SolverCase, ...]

    @property
    def convergence_rate(self) -> float:
        return float(np.mean([c.newton_converged for c in self.cases]))

    @property
    def mean_disagreement(self) -> float:
        values = [
            c.max_size_disagreement for c in self.cases if c.newton_converged
        ]
        return float(np.mean(values)) if values else float("nan")

    @property
    def newton_speedup(self) -> float:
        newton = sum(c.newton_seconds for c in self.cases if c.newton_converged)
        bisect = sum(c.bisection_seconds for c in self.cases if c.newton_converged)
        return bisect / newton if newton > 0 else float("nan")

    @property
    def mean_newton_iterations(self) -> float:
        values = [
            c.newton_telemetry.iterations
            for c in self.cases
            if c.newton_telemetry is not None
        ]
        return float(np.mean(values)) if values else float("nan")

    @property
    def max_residual_norm(self) -> float:
        values = [
            c.newton_telemetry.residual_norm
            for c in self.cases
            if c.newton_telemetry is not None
        ]
        return float(np.max(values)) if values else float("nan")


def run_solver_ablation(
    context: "ExperimentContext",
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
) -> SolverAblationResult:
    """Compare both equilibrium solvers over co-run pairs."""
    model = context.performance_model()
    ways = model.ways
    if pairs is None:
        names = list(context.benchmark_names)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
    cases: List[SolverCase] = []
    for pair in pairs:
        inputs = model._equilibrium_inputs(list(pair))
        start = time.perf_counter()
        newton_telemetry: Optional[SolverTelemetry] = None
        newton_failure: Optional[str] = None
        try:
            newton = NewtonSolver().solve(inputs, ways)
            newton_sizes: Optional[Tuple[float, ...]] = newton.sizes
            newton_telemetry = newton.telemetry
            converged = True
        except ConvergenceError as err:
            newton_sizes = None
            newton_failure = f"{err} (iterations={err.iterations})"
            converged = False
        newton_seconds = time.perf_counter() - start
        start = time.perf_counter()
        bisection = BisectionSolver().solve(inputs, ways)
        bisection_seconds = time.perf_counter() - start
        cases.append(
            SolverCase(
                pair=pair,
                newton_sizes=newton_sizes,
                bisection_sizes=bisection.sizes,
                newton_seconds=newton_seconds,
                bisection_seconds=bisection_seconds,
                newton_converged=converged,
                newton_telemetry=newton_telemetry,
                bisection_telemetry=bisection.telemetry,
                newton_failure=newton_failure,
            )
        )
    return SolverAblationResult(cases=tuple(cases))


# ----------------------------------------------------------------------
# Predict hot-path ablation (bare solve vs cold and cached predict)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PredictHotPathResult:
    """Timing of the predict hot path on one co-run mix.

    ``newton_ms`` times the Newton solve itself; ``predict_ms`` times
    the full uncached ``PerformanceModel.predict`` call;
    ``warm_predict_ms`` the same call answered from a hot
    :class:`EquilibriumCache`.
    """

    mix: Tuple[str, ...]
    contended: bool
    newton_ms: float
    predict_ms: float
    warm_predict_ms: float
    cache_hit_rate: float
    telemetry: Optional[SolverTelemetry]

    @property
    def cached_speedup(self) -> float:
        return (
            self.predict_ms / self.warm_predict_ms
            if self.warm_predict_ms > 0
            else float("nan")
        )


def _median_ms(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)) * 1e3


def run_predict_hot_path(
    context: "ExperimentContext",
    mix: Optional[Sequence[str]] = None,
    repeats: int = 30,
) -> PredictHotPathResult:
    """Time the equilibrium hot path on a contended multi-process mix.

    Times the bare Newton solve, then the full ``predict`` call cold
    (cache disabled) and warm (cache hit).
    """
    if mix is None:
        names = list(context.benchmark_names)
        mix = tuple(names[:4]) if len(names) >= 4 else tuple(names)
    mix = tuple(mix)
    base = context.performance_model()
    ways = base.ways
    inputs = base._equilibrium_inputs(list(mix))

    solver = NewtonSolver()
    solved = solver.solve(inputs, ways)
    newton_ms = _median_ms(lambda: solver.solve(inputs, ways), repeats)

    # Full predict() timings: cold path with caching disabled, then
    # the cache-hit path of a default model.
    cold = PerformanceModel(
        ways=ways, cache=EquilibriumCache(max_entries=0)
    )
    cold.register_all(list(context.feature_vectors().values()))
    predict_ms = _median_ms(lambda: cold.predict(list(mix)), repeats)

    warm = PerformanceModel(ways=ways)
    warm.register_all(list(context.feature_vectors().values()))
    warm.predict(list(mix))  # populate
    warm_predict_ms = _median_ms(lambda: warm.predict(list(mix)), repeats)

    return PredictHotPathResult(
        mix=mix,
        contended=solved.contended,
        newton_ms=newton_ms,
        predict_ms=predict_ms,
        warm_predict_ms=warm_predict_ms,
        cache_hit_rate=warm.cache_stats.hit_rate,
        telemetry=solved.telemetry,
    )


# ----------------------------------------------------------------------
# Histogram (sweep) resolution ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResolutionCase:
    stride: int
    sweep_points: int
    mean_spi_error_pct: float


def run_histogram_resolution(
    context: "ExperimentContext",
    name: str = "mcf",
    partners: Sequence[str] = ("art", "twolf", "gzip"),
    strides: Sequence[int] = (1, 2, 4),
) -> List[ResolutionCase]:
    """Profiling sweep density vs downstream SPI prediction error.

    ``name`` is re-profiled with every ``stride``-th stressmark point;
    its co-run SPI against each partner is predicted and compared to
    the simulated truth (partners use the full-resolution profiles).
    """
    ways = context.topology.domains[0].geometry.ways
    base_model = context.performance_model()
    # Ground-truth co-runs (shared across strides).
    truths: Dict[str, float] = {}
    for index, partner in enumerate(partners):
        result = context.run_assignment(
            {0: (name,), 1: (partner,)}, seed_offset=9_000 + index, collect_power=False
        )
        truths[partner] = result.processes[0].spi

    cases: List[ResolutionCase] = []
    for stride in strides:
        sweep = list(range(ways - 1, 0, -stride))
        profile = profile_process(
            BENCHMARKS[name],
            context.topology,
            scale=context.profile_scale,
            seed=context.seed + 555 + stride,
            sweep_ways=sweep,
        )
        model = PerformanceModel(ways=ways)
        model.register_all(list(context.feature_vectors().values()))
        model.register(profile.feature)  # replace with the coarse profile
        errors = []
        for partner in partners:
            predicted = model.predict([name, partner])[0].spi
            errors.append(relative_error_pct(predicted, truths[partner]))
        cases.append(
            ResolutionCase(
                stride=stride,
                sweep_points=len(sweep),
                mean_spi_error_pct=float(np.mean(errors)),
            )
        )
    return cases


# ----------------------------------------------------------------------
# HPC sampling-period ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SamplingPeriodCase:
    period_s: float
    windows: int
    mean_sample_error_pct: float
    avg_power_error_pct: float


def run_sampling_period(
    context: "ExperimentContext",
    assignment: Optional[Dict[int, Tuple[str, ...]]] = None,
    periods_s: Sequence[float] = (0.00125, 0.0025, 0.005),
) -> List[SamplingPeriodCase]:
    """Power-model error vs HPC sampling period on one assignment."""
    from repro.experiments.power_validation import estimate_power_series

    if assignment is None:
        assignment = {0: ("mcf",), 1: ("gzip",), 2: ("art",), 3: ("twolf",)}
    cases: List[SamplingPeriodCase] = []
    for index, period in enumerate(periods_s):
        scale = replace(context.run_scale, hpc_period_s=period)
        result = context.run_assignment(
            assignment, seed_offset=9_500 + index, scale=scale
        )
        estimated, measured = estimate_power_series(context, result)
        sample_errors = np.abs(estimated - measured) / measured * 100.0
        cases.append(
            SamplingPeriodCase(
                period_s=period,
                windows=int(measured.size),
                mean_sample_error_pct=float(sample_errors.mean()),
                avg_power_error_pct=relative_error_pct(
                    float(estimated.mean()), float(measured.mean())
                ),
            )
        )
    return cases


# ----------------------------------------------------------------------
# Replacement-policy ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PolicyCase:
    policy: str
    mean_spi_error_pct: float
    mean_mpa_error_pts: float


def run_replacement_policy(
    context: "ExperimentContext",
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    policies: Sequence[str] = ("lru", "tree-plru", "fifo", "random"),
) -> List[PolicyCase]:
    """LRU-assuming model vs ground truth under other policies."""
    model = context.performance_model()
    if pairs is None:
        pairs = [("mcf", "art"), ("mcf", "twolf"), ("vpr", "ammp"), ("gzip", "mcf")]
    cases: List[PolicyCase] = []
    for policy in policies:
        spi_errors = []
        mpa_errors = []
        for index, (left, right) in enumerate(pairs):
            sim = MachineSimulation(
                context.topology,
                {0: [BENCHMARKS[left]], 1: [BENCHMARKS[right]]},
                scale=context.run_scale,
                seed=context.seed + 17 * (index + 1),
                policy=policy,
            )
            result = sim.run_accesses()
            prediction = model.predict([left, right])
            for slot in range(2):
                measured = result.processes[slot]
                predicted = prediction[slot]
                spi_errors.append(relative_error_pct(predicted.spi, measured.spi))
                mpa_errors.append(abs(predicted.mpa - measured.mpa) * 100.0)
        cases.append(
            PolicyCase(
                policy=policy,
                mean_spi_error_pct=float(np.mean(spi_errors)),
                mean_mpa_error_pts=float(np.mean(mpa_errors)),
            )
        )
    return cases
