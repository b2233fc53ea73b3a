"""The paper's contribution: performance, power, and combined models.

- Performance (Section 3): :class:`~repro.core.performance_model.PerformanceModel`
  over :class:`~repro.core.histogram.ReuseDistanceHistogram`,
  :class:`~repro.core.occupancy.OccupancyModel` and the equilibrium
  solvers in :mod:`~repro.core.equilibrium`.
- Power (Section 4): :class:`~repro.core.power_model.CorePowerModel`
  (MVLR, Eq. 9), :class:`~repro.core.neural.NeuralPowerModel`
  (comparator), and the time-sharing rules in
  :mod:`~repro.core.timesharing`.
- Combined (Section 5): :class:`~repro.core.combined.CombinedModel`
  and the greedy assignment searcher in :mod:`~repro.core.assignment`
  (the exhaustive search is :mod:`repro.fleet`'s).
"""

from repro.core.assignment import (
    AssignmentDecision,
    OBJECTIVES,
    greedy_assignment,
)
from repro.core.combined import (
    AssignmentPowerEstimate,
    CombinedModel,
    PowerSplit,
    classify_scenario,
)
from repro.core.batch_equilibrium import BatchNewtonSolver
from repro.core.equilibrium import (
    BisectionSolver,
    EquilibriumProcess,
    EquilibriumResult,
    NewtonSolver,
    SolverTelemetry,
    solve_equilibrium,
)
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.histogram import ReuseDistanceHistogram
from repro.core.mpa import MissRatioCurve
from repro.core.neural import NeuralPowerModel
from repro.core.occupancy import OccupancyModel
from repro.core.online import OnlineSpiCalibrator, windows_to_observations
from repro.core.partitioning import (
    PartitionPlan,
    even_partition,
    optimal_partition,
)
from repro.core.performance_model import (
    CoRunPrediction,
    PerformanceModel,
    ProcessPrediction,
)
from repro.core.power_model import CorePowerModel, PowerTrainingSet, rate_vector
from repro.core.regression import LinearRegression
from repro.core.solver_cache import CacheStats, EquilibriumCache
from repro.core.spi import SpiModel, fit_spi_model
from repro.core.timesharing import (
    core_power_time_shared,
    process_combinations,
)

__all__ = [
    "ReuseDistanceHistogram",
    "MissRatioCurve",
    "OccupancyModel",
    "EquilibriumProcess",
    "EquilibriumResult",
    "NewtonSolver",
    "BatchNewtonSolver",
    "BisectionSolver",
    "SolverTelemetry",
    "solve_equilibrium",
    "EquilibriumCache",
    "CacheStats",
    "SpiModel",
    "fit_spi_model",
    "FeatureVector",
    "ProfileVector",
    "PerformanceModel",
    "CoRunPrediction",
    "ProcessPrediction",
    "LinearRegression",
    "CorePowerModel",
    "PowerTrainingSet",
    "rate_vector",
    "NeuralPowerModel",
    "core_power_time_shared",
    "process_combinations",
    "CombinedModel",
    "PowerSplit",
    "AssignmentPowerEstimate",
    "classify_scenario",
    "AssignmentDecision",
    "OBJECTIVES",
    "greedy_assignment",
    "OnlineSpiCalibrator",
    "windows_to_observations",
    "PartitionPlan",
    "optimal_partition",
    "even_partition",
]
