"""Process feature and profile vectors.

Section 3.4: profiling a process yields its *feature vector* — the
reuse-distance histogram, the L2 access-per-instruction rate (API),
and the Eq. 3 constants α, β.  That is everything the performance
model needs.

Section 5 additionally records a *profiling vector*
``PF_i = (P_alone, L1RPI, L2RPI, BRPI, FPPI)`` per process, which is
everything the combined model needs to estimate power for tentative
assignments without running them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.histogram import ReuseDistanceHistogram
from repro.core.occupancy import OccupancyModel
from repro.core.spi import SpiModel
from repro.errors import ConfigurationError
from repro.io import decode_field, document
from repro.workloads.spec import SyntheticBenchmark


def _feature_to_dict(feature: "FeatureVector") -> Dict:
    # The document flattens spi_model into alpha / beta / spi_fit_r2.
    return {
        "name": feature.name,
        "api": feature.api,
        "alpha": feature.alpha,
        "beta": feature.beta,
        "spi_fit_r2": feature.spi_model.r_squared,
        "histogram": feature.histogram.to_dict(),
    }


def _feature_from_dict(data: Dict, path: str) -> "FeatureVector":
    return FeatureVector(
        name=decode_field(data, "name", str, path),
        histogram=decode_field(data, "histogram", ReuseDistanceHistogram, path),
        api=decode_field(data, "api", float, path),
        spi_model=SpiModel(
            alpha=decode_field(data, "alpha", float, path),
            beta=decode_field(data, "beta", float, path),
            r_squared=decode_field(data, "spi_fit_r2", float, path, 1.0),
        ),
    )


@document("feature_vector", encode=_feature_to_dict, decode=_feature_from_dict)
@dataclass(frozen=True)
class FeatureVector:
    """Performance-model inputs for one process (Section 3.4)."""

    name: str
    histogram: ReuseDistanceHistogram
    api: float
    spi_model: SpiModel

    def __post_init__(self) -> None:
        if self.api <= 0:
            raise ConfigurationError("api must be positive")

    @property
    def alpha(self) -> float:
        return self.spi_model.alpha

    @property
    def beta(self) -> float:
        return self.spi_model.beta

    def occupancy_model(self, max_ways: int) -> OccupancyModel:
        """Growth model of this process on an ``max_ways``-way cache."""
        return OccupancyModel(self.histogram, max_ways)

    def with_frequency_ratio(self, ratio: float) -> "FeatureVector":
        """Rescale the Eq. 3 constants to a different core clock.

        α and β are times (seconds) per instruction, so a core running
        at ``ratio`` times the profiled clock divides both by
        ``ratio``.  The reuse-distance histogram and API are clock
        independent.  This is how one profile covers heterogeneous
        cores.
        """
        if ratio <= 0:
            raise ConfigurationError("ratio must be positive")
        return FeatureVector(
            name=self.name,
            histogram=self.histogram,
            api=self.api,
            spi_model=SpiModel(
                alpha=self.spi_model.alpha / ratio,
                beta=self.spi_model.beta / ratio,
                r_squared=self.spi_model.r_squared,
            ),
        )

    @classmethod
    def oracle(
        cls, benchmark: SyntheticBenchmark, frequency_hz: float
    ) -> "FeatureVector":
        """Ground-truth features straight from a benchmark definition.

        Used by tests and ablations to separate model error from
        profiling error; real deployments use
        :func:`repro.profiling.profiler.profile_process` instead.
        """
        alpha, beta = benchmark.alpha_beta(frequency_hz)
        return cls(
            name=benchmark.name,
            histogram=benchmark.intrinsic_histogram(),
            api=benchmark.api,
            spi_model=SpiModel(alpha=alpha, beta=beta),
        )


@document("profile_vector")
@dataclass(frozen=True)
class ProfileVector:
    """Power-side profiling record PF_i for one process (Section 5).

    Attributes:
        name: Process name.
        p_alone: Core power (W) when the process runs alone.
        l1rpi: L1 references per instruction.
        l2rpi: L2 references per instruction.
        brpi: Branches per instruction.
        fppi: FP operations per instruction.
    """

    name: str
    p_alone: float
    l1rpi: float
    l2rpi: float
    brpi: float
    fppi: float

    def __post_init__(self) -> None:
        if self.p_alone < 0:
            raise ConfigurationError("p_alone must be non-negative")
        for field_name in ("l1rpi", "l2rpi", "brpi", "fppi"):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{field_name} must be non-negative")
