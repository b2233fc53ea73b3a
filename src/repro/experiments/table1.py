"""Table 1: performance-model validation on the 4-core server.

All 36 unordered pairs of the 8 SPEC benchmarks (self-pairs included)
are run on two cache-sharing cores; the model predicts each process's
MPA and SPI from its profiled feature vector, and errors are
aggregated per benchmark as in the paper: average absolute MPA error
(percentage points), average relative SPI error, and the fraction of a
benchmark's 8 test cases exceeding 5 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.errors import absolute_error_pct, relative_error_pct
from repro.analysis.tables import render_table
from repro.analysis.validation import pairs_with_replacement

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.context import ExperimentContext


@dataclass(frozen=True)
class PairCase:
    """Model-vs-measurement for one process inside one pair."""

    pair: Tuple[str, str]
    name: str
    measured_mpa: float
    predicted_mpa: float
    measured_spi: float
    predicted_spi: float
    measured_occupancy: float
    predicted_occupancy: float

    @property
    def mpa_error_pct(self) -> float:
        return absolute_error_pct(self.predicted_mpa, self.measured_mpa)

    @property
    def spi_error_pct(self) -> float:
        return relative_error_pct(self.predicted_spi, self.measured_spi)


@dataclass(frozen=True)
class BenchmarkRow:
    """One column of the paper's Table 1."""

    name: str
    mpa_error_pct: float
    mpa_over_5pct: float
    spi_error_pct: float
    spi_over_5pct: float
    cases: int


@dataclass
class Table1Result:
    """Full Table 1 reproduction output."""

    rows: List[BenchmarkRow]
    cases: List[PairCase]

    @property
    def average(self) -> BenchmarkRow:
        return BenchmarkRow(
            name="Avg.",
            mpa_error_pct=float(np.mean([r.mpa_error_pct for r in self.rows])),
            mpa_over_5pct=float(np.mean([r.mpa_over_5pct for r in self.rows])),
            spi_error_pct=float(np.mean([r.spi_error_pct for r in self.rows])),
            spi_over_5pct=float(np.mean([r.spi_over_5pct for r in self.rows])),
            cases=sum(r.cases for r in self.rows),
        )

    def render(self) -> str:
        rows = [
            (r.name, r.mpa_error_pct, r.mpa_over_5pct, r.spi_error_pct, r.spi_over_5pct)
            for r in self.rows + [self.average]
        ]
        return render_table(
            headers=["Benchmark", "MPA E(%)", "MPA >5%(%)", "SPI E(%)", "SPI >5%(%)"],
            rows=rows,
            title="Table 1: Performance Model Validation",
        )


def run_pairwise_validation(
    context: "ExperimentContext",
    cores: Tuple[int, int] = (0, 1),
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
) -> Table1Result:
    """Run the pairwise co-run validation on cache-sharing cores.

    Args:
        context: Experiment context (machine, suite, scales).
        cores: Two cores sharing a last-level cache.
        pairs: Pairs to evaluate; defaults to all unordered pairs of
            the context's suite.
    """
    model = context.performance_model()
    if pairs is None:
        pairs = pairs_with_replacement(context.benchmark_names)
    pairs = list(pairs)
    measurements = _ground_truth_runs(context, cores, pairs)
    cases: List[PairCase] = []
    for index, (left, right) in enumerate(pairs):
        result = measurements[index]
        prediction = model.predict([left, right])
        instances = []
        for slot, name in enumerate((left, right)):
            measured = result.processes[slot]
            predicted = prediction[slot]
            instances.append(
                PairCase(
                    pair=(left, right),
                    name=name,
                    measured_mpa=measured.mpa,
                    predicted_mpa=predicted.mpa,
                    measured_spi=measured.spi,
                    predicted_spi=predicted.spi,
                    measured_occupancy=measured.occupancy_ways,
                    predicted_occupancy=predicted.effective_size,
                )
            )
        if left == right:
            # A self-pair is one test case for the benchmark: average
            # its two (statistically identical) instances.
            a, b = instances
            instances = [
                PairCase(
                    pair=(left, right),
                    name=left,
                    measured_mpa=(a.measured_mpa + b.measured_mpa) / 2,
                    predicted_mpa=(a.predicted_mpa + b.predicted_mpa) / 2,
                    measured_spi=(a.measured_spi + b.measured_spi) / 2,
                    predicted_spi=(a.predicted_spi + b.predicted_spi) / 2,
                    measured_occupancy=(a.measured_occupancy + b.measured_occupancy) / 2,
                    predicted_occupancy=(a.predicted_occupancy + b.predicted_occupancy) / 2,
                )
            ]
        cases.extend(instances)

    rows = []
    for name in context.benchmark_names:
        mine = [c for c in cases if c.name == name]
        if not mine:
            continue
        mpa_errors = np.array([c.mpa_error_pct for c in mine])
        spi_errors = np.array([c.spi_error_pct for c in mine])
        rows.append(
            BenchmarkRow(
                name=name,
                mpa_error_pct=float(mpa_errors.mean()),
                mpa_over_5pct=float((mpa_errors > 5.0).mean() * 100.0),
                spi_error_pct=float(spi_errors.mean()),
                spi_over_5pct=float((spi_errors > 5.0).mean() * 100.0),
                cases=len(mine),
            )
        )
    return Table1Result(rows=rows, cases=cases)


def _ground_truth_runs(
    context: "ExperimentContext",
    cores: Tuple[int, int],
    pairs: Sequence[Tuple[str, str]],
):
    """Measured results for every pair, each run under its own seed."""
    return [
        context.run_assignment(
            {cores[0]: [left], cores[1]: [right]},
            seed_offset=index,
            collect_power=False,
        )
        for index, (left, right) in enumerate(pairs)
    ]
