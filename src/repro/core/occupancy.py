"""Effective-cache-size growth model (paper Section 3.2, Eqs. 4–5).

Starting from an empty cache, the probability ``P_{i,n}`` that a
process occupies ``i`` ways of a set after ``n`` of its own accesses
obeys the recursion

    P_{i,n} = P_{i,n-1} * (1 - MPA(i)) + P_{i-1,n-1} * MPA(i-1)

(a miss grows the occupancy by one way, a hit leaves it unchanged),
with ``P_{1,1} = 1`` and the top size absorbing (a full process evicts
its own lines).  The expected occupancy ``G(n) = Σ i·P_{i,n}`` is a
monotone growth curve; its inverse ``G⁻¹(S)`` — the number of accesses
needed to reach occupancy ``S`` — is what the equilibrium condition of
Section 3.3 ratios between co-running processes.

The curve is tabulated once per (histogram, associativity, recursion
budget) and memoised on the histogram itself
(:meth:`ReuseDistanceHistogram.memo`): every model built from the same
histogram — across performance models, engines and fleet evaluators —
shares one read-only table, which lives as long as the histogram.  All
queries are table interpolations.  Scalar queries use plain-float
arithmetic with :mod:`bisect` (the equilibrium solvers call them in a
tight loop), batched queries use :func:`numpy.interp`, and the solver's
analytic Jacobian reads the tabulated derivative via
:meth:`OccupancyModel.g_inverse_slope`.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core.histogram import ReuseDistanceHistogram
from repro.errors import ConfigurationError

#: Steps of the growth recursion run between saturation checks.  The
#: recursion is inherently sequential, so the win is amortising the
#: Python-level bookkeeping (stop-condition checks, buffer growth)
#: over a block of pure-numpy updates.
_GROWTH_CHUNK = 512


class OccupancyModel:
    """Growth curve G(n) and inverse for one process.

    Args:
        histogram: The process's reuse-distance histogram.
        max_ways: Associativity ``A`` of the shared cache; occupancy
            is capped here (absorbing state).
        max_accesses: Iteration budget for the recursion.  The curve
            stops early once it saturates (either at ``A`` or at the
            process's finite footprint where MPA reaches zero).
        saturation_tol: Growth-per-access threshold below which the
            curve is considered saturated.
    """

    def __init__(
        self,
        histogram: ReuseDistanceHistogram,
        max_ways: int,
        max_accesses: int = 400_000,
        saturation_tol: float = 1e-9,
    ):
        if max_ways < 1:
            raise ConfigurationError("max_ways must be >= 1")
        if max_accesses < 1:
            raise ConfigurationError("max_accesses must be >= 1")
        self.histogram = histogram
        self.max_ways = max_ways
        (
            self._mpa,
            self._growth,
            self._growth_list,
            self._g_xp,
            self._g_fp,
        ) = histogram.memo(
            ("growth", max_ways, max_accesses, saturation_tol),
            lambda: self._build_tables(max_accesses, saturation_tol),
        )

    def _build_tables(self, max_accesses: int, tol: float) -> tuple:
        """The shared, read-only tables behind every query."""
        # MPA at integer sizes 0..A; the recursion only uses 0..A-1
        # and reads it from ``self``.
        self._mpa = self.histogram.mpa_batch(
            np.arange(self.max_ways + 1, dtype=float)
        )
        growth = self._compute_growth(max_accesses, tol)
        # Scalar queries interpolate on a plain list (5x faster than
        # numpy scalar indexing); batched queries on padded arrays
        # that include the (n=0, S=0) origin.
        g_xp = np.arange(growth.size + 1, dtype=float)  # n = 0, 1, ..., len
        g_fp = np.concatenate(([0.0], growth))
        for table in (self._mpa, growth, g_xp, g_fp):
            table.flags.writeable = False
        return self._mpa, growth, growth.tolist(), g_xp, g_fp

    def _compute_growth(self, max_accesses: int, tol: float) -> np.ndarray:
        a = self.max_ways
        mpa = self._mpa
        # p[i] = P(occupancy == i after n accesses), i in 0..A.
        p = np.zeros(a + 1)
        p[1] = 1.0  # the first access always installs one line
        scratch = np.empty_like(p)
        sizes = np.arange(a + 1, dtype=float)
        stay = 1.0 - mpa  # probability occupancy stays (hit) at size i
        g_prev = float(sizes @ p)
        chunks = [np.array([g_prev])]
        remaining = max_accesses - 1
        chunk = 32  # ramp up so quickly-saturating curves stop early
        while remaining > 0:
            steps = min(chunk, remaining)
            chunk = min(chunk * 2, _GROWTH_CHUNK)
            buf = np.empty(steps)
            for s in range(steps):
                np.multiply(p, stay, out=scratch)
                scratch[1:] += p[:-1] * mpa[:-1]
                # Absorbing top: a full process evicts itself, stays A.
                scratch[a] = p[a] + p[a - 1] * mpa[a - 1]
                p, scratch = scratch, p
                buf[s] = sizes @ p
            # Same stop rule as the step-wise recursion: saturated at
            # A, or growth-per-access below tol.
            prev = np.concatenate(([g_prev], buf[:-1]))
            stops = np.nonzero((buf >= a - 1e-9) | (buf - prev < tol))[0]
            if stops.size:
                chunks.append(buf[: stops[0] + 1])
                break
            chunks.append(buf)
            g_prev = float(buf[-1])
            remaining -= steps
        return np.concatenate(chunks)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def saturation_size(self) -> float:
        """Occupancy the process converges to with no competition.

        Equals ``A`` for processes whose footprint exceeds the cache,
        or the finite footprint where the MPA curve reaches zero.
        """
        return float(self._growth[-1])

    @property
    def table_length(self) -> int:
        """Number of access steps tabulated before saturation."""
        return int(self._growth.shape[0])

    @property
    def growth_table(self) -> np.ndarray:
        """The tabulated growth curve G(1..table_length) (read-only).

        The same array object for every model built from one histogram
        with the same associativity and recursion budget.
        """
        return self._growth

    def g(self, n: float) -> float:
        """Expected occupancy after ``n`` accesses (Eq. 5), n >= 0.

        Linear interpolation between tabulated integer access counts;
        beyond the table the curve is flat at the saturation size.
        """
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        if n == 0:
            return 0.0
        growth = self._growth_list
        # growth[k] corresponds to n = k + 1 accesses.
        idx = n - 1.0
        if idx >= len(growth) - 1:
            return growth[-1]
        if idx < 0:
            # 0 < n < 1: interpolate from G(0) = 0 to G(1).  (Checked
            # on idx, not int(idx): int() truncates toward zero, so
            # int(-0.5) == 0 would skip this branch.)
            return growth[0] * n
        lo = int(idx)
        frac = idx - lo
        return growth[lo] * (1.0 - frac) + growth[lo + 1] * frac

    def g_batch(self, n) -> np.ndarray:
        """Vectorized :meth:`g` over an array of access counts."""
        arr = np.asarray(n, dtype=float)
        if np.any(arr < 0):
            raise ConfigurationError("n must be non-negative")
        return np.interp(arr, self._g_xp, self._g_fp)

    def g_inverse(self, size: float) -> float:
        """Accesses needed to first reach occupancy ``size`` (G⁻¹).

        Returns ``inf`` for sizes at or beyond saturation — such an
        occupancy is never reached from below in finite time.
        """
        if size < 0:
            raise ConfigurationError("size must be non-negative")
        if size == 0:
            return 0.0
        growth = self._growth_list
        if size >= growth[-1] - 1e-12:
            return float("inf")
        if size <= growth[0]:
            # Between 0 accesses (size 0) and 1 access (size growth[0]).
            return size / growth[0]
        idx = bisect_left(growth, size)
        g_lo, g_hi = growth[idx - 1], growth[idx]
        if g_hi <= g_lo:
            return float(idx + 1)
        # Table index k means n = k + 1.
        return idx + (size - g_lo) / (g_hi - g_lo)

    def g_inverse_batch(self, sizes) -> np.ndarray:
        """Vectorized :meth:`g_inverse` over an array of sizes."""
        arr = np.asarray(sizes, dtype=float)
        if np.any(arr < 0):
            raise ConfigurationError("size must be non-negative")
        growth = self._growth
        out = np.empty(arr.shape)
        saturated = arr >= growth[-1] - 1e-12
        below = (arr <= growth[0]) & ~saturated
        mid = ~(saturated | below)
        out[saturated] = np.inf
        out[below] = arr[below] / growth[0]
        if np.any(mid):
            values = arr[mid]
            idx = np.searchsorted(growth, values, side="left")
            g_lo = growth[idx - 1]
            g_hi = growth[idx]
            span = g_hi - g_lo
            flat = span <= 0
            frac = (values - g_lo) / np.where(flat, 1.0, span)
            out[mid] = np.where(flat, idx + 1.0, idx + frac)
        return out

    def g_inverse_slope(self, size: float) -> float:
        """Derivative d G⁻¹/dS of the tabulated inverse growth curve.

        The reciprocal of the growth-table increment on the segment
        :meth:`g_inverse` interpolates over; ``inf`` at or beyond
        saturation (where G⁻¹ itself is infinite) and on degenerate
        flat segments.  Used by the equilibrium solver's analytic
        Jacobian.
        """
        if size < 0:
            raise ConfigurationError("size must be non-negative")
        growth = self._growth_list
        if size >= growth[-1] - 1e-12:
            return float("inf")
        if size <= growth[0]:
            return 1.0 / growth[0]
        idx = bisect_left(growth, size)
        span = growth[idx] - growth[idx - 1]
        if span <= 0:
            return float("inf")
        return 1.0 / span

    def mpa_at(self, size: float) -> float:
        """Convenience: the histogram's MPA at a (fractional) size."""
        return self.histogram.mpa(size)
