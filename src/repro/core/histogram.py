"""Reuse-distance histograms (paper Section 3.1, Eq. 2).

The paper defines the *reuse distance* of a cache line as the number of
distinct lines in the same set accessed between two consecutive
accesses to it.  Under LRU, an access with reuse distance ``d`` hits
iff the process holds more than ``d`` ways, so for an effective cache
size ``S`` (ways) the misses-per-access is the histogram's upper tail:

    MPA(S) = P(distance >= S)        (discrete form of Eq. 2)

Cold (first-touch) and streaming accesses have no finite reuse
distance; their probability mass is tracked separately as
:attr:`ReuseDistanceHistogram.inf_mass` and always counts as a miss.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Mapping,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.errors import ConfigurationError

Distance = Union[int, float]  # float only for math.inf
T = TypeVar("T")


class ReuseDistanceHistogram:
    """Discrete reuse-distance distribution with an infinity bucket.

    Args:
        probs: ``probs[d]`` is the probability of reuse distance ``d``
            (distinct same-set lines between consecutive accesses).
        inf_mass: Probability of an infinite reuse distance (cold or
            streaming accesses that can never hit).

    The distribution is normalised on construction; supplying all-zero
    mass is an error.
    """

    def __init__(self, probs: Sequence[float], inf_mass: float = 0.0):
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1:
            raise ConfigurationError("probs must be one-dimensional")
        if arr.size == 0:
            arr = np.zeros(1)
        if np.any(arr < -1e-12) or inf_mass < -1e-12:
            raise ConfigurationError("histogram mass must be non-negative")
        arr = np.clip(arr, 0.0, None)
        inf_mass = max(0.0, float(inf_mass))
        total = arr.sum() + inf_mass
        if total <= 0.0:
            raise ConfigurationError("histogram has no probability mass")
        self._probs = arr / total
        self._inf_mass = inf_mass / total
        # Upper tail: _tail[d] = P(distance >= d), finite part only.
        finite_tail = np.concatenate(
            [np.cumsum(self._probs[::-1])[::-1], [0.0]]
        )
        self._tail = finite_tail + self._inf_mass
        # Hot-path helpers: the equilibrium solvers evaluate mpa()
        # millions of times with scalar arguments, where plain-float
        # indexing beats numpy scalar arithmetic by ~5x; batched
        # callers interpolate on the integer support instead.
        self._tail_list = self._tail.tolist()
        self._support = np.arange(self._tail.size, dtype=float)
        self._memo: Dict[Hashable, object] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(
        cls, counts: Mapping[Distance, float], inf_count: float = 0.0
    ) -> "ReuseDistanceHistogram":
        """Build from raw ``distance -> count`` observations.

        Keys of ``math.inf`` are folded into the infinity bucket.
        """
        finite: Dict[int, float] = {}
        inf_total = float(inf_count)
        for distance, count in counts.items():
            if count < 0:
                raise ConfigurationError("counts must be non-negative")
            if distance == float("inf"):
                inf_total += count
            else:
                d = int(distance)
                if d < 0:
                    raise ConfigurationError("distances must be non-negative")
                finite[d] = finite.get(d, 0.0) + count
        max_d = max(finite) if finite else 0
        probs = np.zeros(max_d + 1)
        for d, count in finite.items():
            probs[d] = count
        return cls(probs, inf_total)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[Distance, float]]
    ) -> "ReuseDistanceHistogram":
        """Build from ``(distance, probability)`` pairs."""
        return cls.from_counts(dict(pairs))

    @classmethod
    def point_mass(cls, distance: int) -> "ReuseDistanceHistogram":
        """Distribution concentrated at a single distance.

        This is exactly the histogram of the stressmark: a cyclic sweep
        over ``w`` lines per set has every reuse distance equal to
        ``w - 1``.
        """
        probs = np.zeros(distance + 1)
        probs[distance] = 1.0
        return cls(probs)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def probs(self) -> np.ndarray:
        """Finite-distance probabilities (read-only view)."""
        view = self._probs.view()
        view.flags.writeable = False
        return view

    @property
    def inf_mass(self) -> float:
        """Probability of cold/streaming (never-hitting) accesses."""
        return self._inf_mass

    @property
    def max_distance(self) -> int:
        """Largest finite distance with support."""
        nonzero = np.nonzero(self._probs)[0]
        return int(nonzero[-1]) if nonzero.size else 0

    def probability(self, distance: int) -> float:
        """P(distance == d)."""
        if distance < 0:
            raise ConfigurationError("distance must be non-negative")
        if distance >= self._probs.size:
            return 0.0
        return float(self._probs[distance])

    @property
    def tail_table(self) -> np.ndarray:
        """Upper tail ``P(distance >= d)`` for ``d = 0..top`` (read-only).

        ``mpa(size)`` linearly interpolates this table on the integer
        support and flattens at ``tail_table[-1]`` (= :attr:`inf_mass`)
        beyond it.  The batched equilibrium kernels
        (:mod:`repro.core.batch_equilibrium`) gather from this table to
        replicate :meth:`mpa` / :meth:`mpa_slope` bit-for-bit.
        """
        view = self._tail.view()
        view.flags.writeable = False
        return view

    def memo(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per ``key`` and kept on this histogram.

        For tables derived from the (immutable) distribution, such as
        the occupancy growth curve per associativity
        (:class:`~repro.core.occupancy.OccupancyModel`): every consumer
        holding this histogram shares one result, which lives exactly
        as long as the histogram does.  Concurrent first calls may both
        build; the first stored result wins and is returned to both.
        """
        try:
            return self._memo[key]  # type: ignore[return-value]
        except KeyError:
            return self._memo.setdefault(key, build())  # type: ignore[return-value]

    def __getstate__(self) -> dict:
        # A copy (e.g. one pickled to a worker process) builds its own
        # memoised tables, which keeps them read-only there too.
        state = self.__dict__.copy()
        state["_memo"] = {}
        return state

    def mpa(self, size: float) -> float:
        """Misses per access at effective cache size ``size`` (ways).

        Implements the discrete Eq. 2 with linear interpolation between
        integer sizes so the equilibrium solver sees a continuous,
        monotonically non-increasing function.  ``mpa(0)`` is 1.0 (no
        space means every access misses); beyond the histogram support
        it flattens at :attr:`inf_mass`.
        """
        if size < 0:
            raise ConfigurationError("size must be non-negative")
        tail = self._tail_list
        top = len(tail) - 1
        if size >= top:
            return tail[top]
        lo = int(size)
        frac = size - lo
        return tail[lo] * (1.0 - frac) + tail[lo + 1] * frac

    def mpa_batch(self, sizes) -> np.ndarray:
        """Vectorized :meth:`mpa` over an array of sizes.

        Element-wise identical to calling :meth:`mpa` per entry;
        clamps at :attr:`inf_mass` beyond the histogram support.
        """
        arr = np.asarray(sizes, dtype=float)
        if np.any(arr < 0):
            raise ConfigurationError("size must be non-negative")
        return np.interp(arr, self._support, self._tail)

    def mpa_slope(self, size: float) -> float:
        """Right-hand derivative of the piecewise-linear MPA curve.

        The slope of the tail segment ``[floor(size), floor(size)+1)``
        — the convention :meth:`mpa` interpolates with — and 0 beyond
        the histogram support where the curve is flat at
        :attr:`inf_mass`.  Used by the equilibrium solver's analytic
        Jacobian.
        """
        if size < 0:
            raise ConfigurationError("size must be non-negative")
        tail = self._tail_list
        top = len(tail) - 1
        if size >= top:
            return 0.0
        lo = int(size)
        return tail[lo + 1] - tail[lo]

    def mpa_curve(self, max_size: int) -> np.ndarray:
        """Vector of ``mpa(s)`` for integer ``s`` in ``0..max_size``."""
        return self.mpa_batch(np.arange(max_size + 1, dtype=float))

    def mean_distance(self) -> float:
        """Mean finite reuse distance, conditioned on being finite.

        Returns ``inf`` if all mass is in the infinity bucket.
        """
        finite = self._probs.sum()
        if finite <= 0.0:
            return float("inf")
        distances = np.arange(self._probs.size)
        return float((distances * self._probs).sum() / finite)

    def percentile(self, q: float) -> float:
        """Smallest size S with MPA(S) <= 1 - q (the q-quantile).

        Returns ``inf`` when even an unbounded cache cannot reach hit
        probability ``q`` because of the infinity bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("q must be within [0, 1]")
        target = 1.0 - q
        if self._inf_mass > target + 1e-15:
            return float("inf")
        for s, tail in enumerate(self._tail):
            if tail <= target + 1e-15:
                return float(s)
        return float(len(self._tail) - 1)

    def footprint(self, coverage: float = 0.999) -> int:
        """Distance covering ``coverage`` of the finite mass.

        A proxy for the process's working-set size in ways per set.
        """
        finite = self._probs.sum()
        if finite <= 0.0:
            return 0
        cum = np.cumsum(self._probs) / finite
        return int(np.searchsorted(cum, coverage) + 1)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def truncated(self, max_distance: int) -> "ReuseDistanceHistogram":
        """Fold all mass beyond ``max_distance`` into the inf bucket.

        This is what stressmark profiling can actually observe: a sweep
        over an ``A``-way cache cannot distinguish distances >= ``A``.
        """
        if max_distance < 0:
            raise ConfigurationError("max_distance must be non-negative")
        keep = self._probs[: max_distance + 1]
        folded = self._probs[max_distance + 1:].sum() + self._inf_mass
        return ReuseDistanceHistogram(keep.copy(), folded)

    def mixed_with(
        self, other: "ReuseDistanceHistogram", weight: float
    ) -> "ReuseDistanceHistogram":
        """Convex mixture: ``weight`` of ``self``, rest of ``other``."""
        if not 0.0 <= weight <= 1.0:
            raise ConfigurationError("weight must be within [0, 1]")
        size = max(self._probs.size, other._probs.size)
        mixed = np.zeros(size)
        mixed[: self._probs.size] += weight * self._probs
        mixed[: other._probs.size] += (1.0 - weight) * other._probs
        inf_mixed = weight * self._inf_mass + (1.0 - weight) * other._inf_mass
        return ReuseDistanceHistogram(mixed, inf_mixed)

    def close_to(self, other: "ReuseDistanceHistogram", atol: float = 1e-9) -> bool:
        """True if both distributions match within ``atol`` per bucket."""
        size = max(self._probs.size, other._probs.size)
        mine = np.zeros(size)
        mine[: self._probs.size] = self._probs
        theirs = np.zeros(size)
        theirs[: other._probs.size] = other._probs
        return bool(
            np.allclose(mine, theirs, atol=atol)
            and abs(self._inf_mass - other._inf_mass) <= atol
        )

    def __repr__(self) -> str:
        return (
            f"ReuseDistanceHistogram(max_distance={self.max_distance}, "
            f"inf_mass={self._inf_mass:.4f})"
        )
