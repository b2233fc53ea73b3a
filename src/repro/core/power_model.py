"""The HPC-rate power model of paper Section 4 (Eq. 9).

Per-core power is modeled as

    P_core = P_idle + c1·L1RPS + c2·L2RPS + c3·L2MPS + c4·BRPS + c5·FPPS

with the six constants obtained by multi-variable linear regression
against measured processor power.  Training follows the paper: runs
where all N cores execute the same workload (so per-core rates equal
the measured per-core rates and per-core power is processor power / N)
plus the 6-phase micro-benchmark; the uncore share is folded into the
per-core intercept.  Processor power for an arbitrary assignment is
the sum of per-core predictions, idle cores contributing ``P_idle``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.regression import LinearRegression
from repro.errors import ConfigurationError, ModelNotFittedError
from repro.events import PAPER_NAMES, RATE_EVENTS, Event
from repro.io import decode_field, document

RateVector = Tuple[float, float, float, float, float]


def rate_vector(rates: Mapping[Event, float]) -> RateVector:
    """Extract the Eq. 9 regressor tuple from a rate mapping."""
    return tuple(rates.get(event, 0.0) for event in RATE_EVENTS)  # type: ignore[return-value]


@dataclass
class PowerTrainingSet:
    """Accumulates (per-core rates, per-core power) training rows."""

    rows: List[RateVector]
    targets: List[float]

    def __init__(self) -> None:
        self.rows = []
        self.targets = []

    def add(self, rates: Mapping[Event, float], core_power_watts: float) -> None:
        """Add one observation of a single core."""
        if core_power_watts < 0:
            raise ConfigurationError("core power must be non-negative")
        self.rows.append(rate_vector(rates))
        self.targets.append(core_power_watts)

    def add_uniform_run(
        self,
        per_core_rates: Sequence[Mapping[Event, float]],
        processor_power_watts: float,
    ) -> None:
        """Add a paper-style training sample: N identical cores.

        The paper runs N instances of one benchmark and assumes each
        core contributes equally, so each core's target power is the
        measured processor power divided by N.
        """
        n = len(per_core_rates)
        if n == 0:
            raise ConfigurationError("need at least one core")
        share = processor_power_watts / n
        for rates in per_core_rates:
            self.add(rates, share)

    def __len__(self) -> int:
        return len(self.rows)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.rows, dtype=float), np.asarray(self.targets, dtype=float)


def _power_model_to_dict(model: "CorePowerModel") -> Dict:
    return {
        "p_idle": model.p_idle,
        "coefficients": model.coefficients,
        "r_squared": model.r_squared,
    }


def _power_model_from_dict(data: Dict, path: str) -> "CorePowerModel":
    # Restore the fitted state directly (the document *is* the model:
    # slopes, pinned intercept, training R²), so documents round-trip
    # bit-exactly — the repro.api property tests rely on that.
    p_idle = decode_field(data, "p_idle", float, path)
    coefficients = decode_field(data, "coefficients", Dict[str, float], path)
    slopes = [
        decode_field(coefficients, PAPER_NAMES[event], float, f"{path}.coefficients")
        for event in RATE_EVENTS
    ]
    recorded_r2 = decode_field(data, "r_squared", Optional[float], path, None)
    model = CorePowerModel()
    model._regression.coefficients = np.asarray(slopes, dtype=float)
    model._regression.intercept = p_idle
    model._regression.r_squared = 1.0 if recorded_r2 is None else recorded_r2
    return model


@document("power_model", encode=_power_model_to_dict, decode=_power_model_from_dict)
class CorePowerModel:
    """Fitted Eq. 9 model with per-core intercept (idle power)."""

    def __init__(self) -> None:
        self._regression = LinearRegression()

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self, training: PowerTrainingSet, idle_core_watts: Optional[float] = None
    ) -> "CorePowerModel":
        """MVLR fit; returns self for chaining.

        Args:
            training: The (rates, core power) rows.
            idle_core_watts: If given, pins P_idle to this directly
                measured value (the paper's micro-benchmark records
                idle power in its first phase); only c1..c5 are then
                fitted.  Anchoring matters for assignments with unused
                cores, whose power is ``P_idle`` by construction.
        """
        if len(training) < 7:
            raise ConfigurationError(
                "need at least 7 training rows (6 coefficients + 1)"
            )
        x, y = training.as_arrays()
        self._regression.fit(x, y, fixed_intercept=idle_core_watts)
        return self

    @property
    def fitted(self) -> bool:
        return self._regression.fitted

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise ModelNotFittedError("power model is not fitted yet")

    # ------------------------------------------------------------------
    # Coefficients (paper notation)
    # ------------------------------------------------------------------
    @property
    def p_idle(self) -> float:
        """Per-core idle power, uncore share included (the intercept)."""
        self._require_fitted()
        return float(self._regression.intercept)

    @property
    def coefficients(self) -> Dict[str, float]:
        """c1..c5 keyed by the paper's rate names (L1RPS, ... FPPS)."""
        self._require_fitted()
        return {
            PAPER_NAMES[event]: float(c)
            for event, c in zip(RATE_EVENTS, self._regression.coefficients)
        }

    @property
    def r_squared(self) -> float:
        self._require_fitted()
        return float(self._regression.r_squared)

    def accuracy(self, training: PowerTrainingSet) -> float:
        """The paper's accuracy metric on a (held-out) set."""
        x, y = training.as_arrays()
        return self._regression.accuracy(x, y)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def core_power(self, rates: Mapping[Event, float]) -> float:
        """Predicted power of one core from its event rates (Eq. 9)."""
        self._require_fitted()
        return self._regression.predict_one(rate_vector(rates))

    def idle_core_power(self) -> float:
        """Predicted power of an idle core (all rates zero)."""
        return self.p_idle

    def processor_power(
        self, per_core_rates: Sequence[Mapping[Event, float]]
    ) -> float:
        """Predicted processor power: sum over every core's Eq. 9.

        Pass one rate mapping per physical core; idle cores should be
        present with zero rates (or use :meth:`processor_power_padded`).
        """
        self._require_fitted()
        return float(sum(self.core_power(rates) for rates in per_core_rates))

    def processor_power_padded(
        self,
        busy_core_rates: Sequence[Mapping[Event, float]],
        total_cores: int,
    ) -> float:
        """Processor power with ``total_cores - busy`` idle cores."""
        if total_cores < len(busy_core_rates):
            raise ConfigurationError("total_cores smaller than busy core count")
        idle_cores = total_cores - len(busy_core_rates)
        return self.processor_power(busy_core_rates) + idle_cores * self.p_idle
