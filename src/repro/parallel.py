"""repro.parallel — batched co-run prediction.

Pricing many co-run mixes at once must keep the project's core
guarantee: deterministic results.  :class:`ParallelPredictor` solves
each batch in-process with the stacked solver of
:meth:`~repro.core.performance_model.PerformanceModel.predict_batch`
over an :class:`~repro.core.solver_cache.EquilibriumCache`.  Every
cache miss is solved from the cold proportional-demand guess, so the
result depends only on the co-run itself, never on which solves
happened before.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.core.feature import FeatureVector
from repro.core.performance_model import CoRunPrediction, PerformanceModel
from repro.core.solver_cache import CacheStats, EquilibriumCache
from repro.obs import get_observer

__all__ = ["ParallelPredictor", "predict_mixes"]


class ParallelPredictor:
    """Reusable batched co-run predictor.

    Every batch is solved in-process by
    :meth:`PerformanceModel.predict_batch` — the stacked Newton solver,
    which falls back to the scalar solver row by row where it must —
    over one cache.  Every solve starts cold, so results are
    bit-identical to a scalar :meth:`PerformanceModel.predict` loop.
    The model is built on first use and kept across
    :meth:`predict_mixes` calls.  Use as a context manager (or call
    :meth:`close`) to retire the predictor.

    Args:
        features: Feature vectors of every process mixes may name
            (a sequence, or a ``name -> FeatureVector`` mapping).
        ways: Associativity of the shared cache being modelled.
        cache: :class:`EquilibriumCache` that accumulates every
            solution and its telemetry.
    """

    def __init__(
        self,
        features: Union[Sequence[FeatureVector], Mapping[str, FeatureVector]],
        *,
        ways: int,
        cache: Optional[EquilibriumCache] = None,
    ):
        if isinstance(features, Mapping):
            features = [features[name] for name in sorted(features)]
        self.features = list(features)
        self.ways = ways
        self.cache = EquilibriumCache() if cache is None else cache
        self._model: Optional[PerformanceModel] = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "ParallelPredictor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Retire the predictor (idempotent).

        A closed predictor stays closed: later :meth:`predict_mixes` /
        :meth:`warm_up` calls raise :class:`RuntimeError` (long-lived
        holders like the serving layer rely on a stopped engine
        refusing work).
        """
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "ParallelPredictor is closed; create a new predictor "
                "instead of reusing this one"
            )

    def warm_up(self) -> None:
        """Build the model before timing anything."""
        self._check_open()
        self._performance_model()

    # -- prediction -----------------------------------------------------
    def _performance_model(self) -> PerformanceModel:
        if self._model is None:
            model = PerformanceModel(ways=self.ways, cache=self.cache)
            model.register_all(self.features)
            self._model = model
        return self._model

    @property
    def cache_stats(self) -> CacheStats:
        """Telemetry of the predictor's cache."""
        return self.cache.stats

    def predict_mixes(
        self,
        mixes: Sequence[Sequence[str]],
        frequency_ratios: Optional[
            Sequence[Optional[Sequence[float]]]
        ] = None,
    ) -> Tuple[CoRunPrediction, ...]:
        """Predict every mix, in order, bit-equal to the scalar loop.

        Args:
            mixes: One name sequence per mix.
            frequency_ratios: Optional per-mix core-clock ratios: one
                entry per mix, each either ``None`` (homogeneous) or a
                per-process ratio sequence.
        """
        self._check_open()
        observer = get_observer()
        if not observer.enabled:
            return self._predict(mixes, frequency_ratios)
        with observer.span("parallel.predict_mixes", mixes=len(mixes)):
            results = self._predict(mixes, frequency_ratios)
            observer.counter("parallel.mixes").inc(len(mixes))
            return results

    def _predict(
        self,
        mixes: Sequence[Sequence[str]],
        ratios: Optional[Sequence[Optional[Sequence[float]]]],
    ) -> Tuple[CoRunPrediction, ...]:
        return self._performance_model().predict_batch(
            mixes, frequency_ratios=ratios
        )


def predict_mixes(
    features: Union[Sequence[FeatureVector], Mapping[str, FeatureVector]],
    mixes: Sequence[Sequence[str]],
    *,
    ways: int,
    cache: Optional[EquilibriumCache] = None,
    frequency_ratios: Optional[Sequence[Optional[Sequence[float]]]] = None,
) -> Tuple[CoRunPrediction, ...]:
    """One-shot batched prediction (see :class:`ParallelPredictor`)."""
    with ParallelPredictor(features, ways=ways, cache=cache) as predictor:
        return predictor.predict_mixes(mixes, frequency_ratios=frequency_ratios)
