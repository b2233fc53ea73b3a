"""Stacked-numpy batch equilibrium solver (many mixes, one Newton).

The paper's equilibrium system (Eq. 1 capacity constraint + Eq. 7
throughput-ratio conditions) is solved per co-run mix by
:class:`~repro.core.equilibrium.NewtonSolver` in plain Python floats —
the right call for one mix, but a batch of hundreds of mixes pays the
interpreter once per table lookup.  This module restates the *same*
damped Newton iteration over one ``(n_mixes, k_max)`` size matrix
holding every stackable mix of the batch, whatever its ``k``:

- the residual/Jacobian kernels gather from the profiles' tabulated
  growth curves (``OccupancyModel.growth_table``) and MPA tails
  (``ReuseDistanceHistogram.tail_table``), concatenated into flat
  arrays with per-cell offsets so one vector op serves every profile;
- the arrow-structured Jacobian (row 0 all ones, row i nonzero only
  at columns 0 and i) is eliminated column-by-column across the whole
  stack at once;
- convergence / failure are tracked per row: at the top of each
  iteration, rows that converged (their sizes and iteration count are
  recorded) or failed (retried on the scalar path) leave the stack —
  one row hitting a non-finite residual cannot poison its siblings,
  because every kernel op is element-wise.

Bit-compatibility policy
------------------------
Batched rows are **bit-identical** to the scalar
``solve_equilibrium(...)`` result for the payload fields
``sizes``, ``mpas``, ``spis``, ``solver``, ``iterations`` and
``contended``.  This is achieved by replicating the scalar path's
IEEE-754 float64 operation ordering exactly, not by a tolerance:

- table interpolation is hand-rolled as ``t[lo]*(1-frac) + t[lo+1]*frac``
  (``np.interp`` rounds differently and is *not* used);
- ``np.searchsorted(side="left")`` matches ``bisect_left``, and
  ``astype(int64)`` matches ``int()`` truncation for the non-negative
  sizes the solver iterates over;
- sums accumulate column-by-column in the scalar loop's left-to-right
  order; the damping ladder is exact powers of two; clamps apply
  ``max`` before ``min`` exactly as the scalar line search does;
- the post-convergence Eq. 1 closure reuses the *same*
  ``_redistribute_to_capacity`` routine, row by row.

The property test in ``tests/test_batch_equilibrium.py`` enforces the
policy with ``==`` on every payload field.  Telemetry is the one
documented divergence: ``telemetry.solver`` is ``"batch_newton"`` and
``telemetry.residual_norm`` is the stacked residual norm at the
converged iterate (before the Eq. 1 closure), whereas the scalar path
re-evaluates the residual after closure.  Telemetry is observability
metadata, not result payload, and is excluded from the bit-compat
guarantee.

Fallback ladder
---------------
A row leaves the stack and is solved by the ordinary scalar
:func:`~repro.core.equilibrium.solve_equilibrium` (Newton, then
bisection if Newton fails) when any of these hold:

- its curves are not sniffable as tabulated histogram/occupancy pairs
  (custom ``mpa`` callables, explicit ``mpa_slope`` overrides,
  subclassed models — anything whose scalar evaluation the kernels
  cannot replicate bit-for-bit);
- it is uncontended (the scalar short-circuit is already cheap);
- the batch has fewer than ``BATCH_MIN_STACK`` stackable rows, or
  fewer than ``BATCH_MIN_STACK`` contended ones (numpy overhead would
  exceed the win);
- its Newton iteration fails (non-finite residual, singular Jacobian,
  exhausted line search or iteration budget) — mirroring the scalar
  solver's own failure → fallback behaviour.

Padding and compaction
----------------------
Rows of different ``k`` share the stack: a row of ``k_r`` processes
fills its first ``k_r`` columns and the rest are *pad cells*, with
size, cap, saturation and demand all 0.  A pad cell's ``g_inverse``
is exactly 0, so its Eq. 7 entry fails the finite-positive test and
takes the fill value 0 instead of ``inf``; the Jacobian pass forces
``b = 1`` and ``a = 0`` there, so ``ab``, ``rb`` and ``delta`` are 0
too, and a damped step keeps the pad size at ``min(max(0, lo), 0) =
0``.  Every row reduction (capacity sum, squared norm, ``denom``,
``num`` and the endgame's cap, free and closed sums) runs left to
right over the columns, so pad columns only add ``+0.0`` after the
row's own terms, which leaves each sum bit-unchanged.  Pad cells are
kept out of the per-profile ``searchsorted`` groups, out of the
endgame's "hit a cap" test and out of every result: a row's caps use
its own ``k_r`` (``total_ways - lo * (k_r - 1)``), the scalar
``_redistribute_to_capacity`` fallback sees only its ``k_r`` entries,
and ``sizes`` / ``mpas`` / ``spis`` are cut to ``k_r``.

The point of one stack is the numpy call count: a batch's cost is
per-call overhead, not element work, so one stack of every row beats
one stack per ``k``.  Rows leave through ``_Stack.take``, one gather of
the rows' slot indices (the per-cell constants are regathered from
small per-slot tables and the stack is cut to its widest remaining
row; the Newton loop drops the old constants before regathering, so
that the two sets never coexist); uncontended rows leave the same way
before the first iteration.
The line search still evaluates the whole remaining stack once per
halving round, but almost every row accepts the full step in the
first round.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.equilibrium import (
    NEWTON_DOMAIN_FLOOR,
    NEWTON_MAX_ITERATIONS,
    NEWTON_TOL,
    EquilibriumProcess,
    EquilibriumResult,
    NewtonSolver,
    SolverTelemetry,
    _redistribute_to_capacity,
    solve_equilibrium,
)
from repro.core.histogram import ReuseDistanceHistogram
from repro.core.occupancy import OccupancyModel

__all__ = ["BATCH_MIN_STACK", "BatchNewtonSolver"]

#: Fewest stackable rows (of any ``k``) worth vectorizing; below this
#: the numpy call overhead exceeds the interpreter savings and rows
#: take the scalar path instead.
BATCH_MIN_STACK = 4

#: The one histogram method the batch kernels replicate; identity is
#: checked (not name) so subclass overrides never sneak onto the
#: vector path.
_HISTOGRAM_MPA = ReuseDistanceHistogram.mpa


class _TableRegistry:
    """Growth/tail tables of every distinct profile, concatenated flat.

    A *profile* is a (``OccupancyModel``, ``ReuseDistanceHistogram``)
    pair.  The registry pins the objects (so ``id()`` keys stay
    unique), keeps each table, and maintains flat concatenations plus
    per-profile constants so the batch kernels can gather any mix of
    profiles with plain integer offsets.
    """

    def __init__(self) -> None:
        self._index: Dict[Tuple[int, int], int] = {}
        self._pins: List[Tuple[OccupancyModel, ReuseDistanceHistogram]] = []
        self.growth_arrays: List[np.ndarray] = []
        self.tail_arrays: List[np.ndarray] = []
        self._dirty = True
        self.growth_flat: Optional[np.ndarray] = None
        self.tail_flat: Optional[np.ndarray] = None
        self.g_off: Optional[np.ndarray] = None
        self.g_len: Optional[np.ndarray] = None
        self.g_first: Optional[np.ndarray] = None
        self.g_last: Optional[np.ndarray] = None
        self.g_sat_cut: Optional[np.ndarray] = None
        self.inv_g_first: Optional[np.ndarray] = None
        self.t_off: Optional[np.ndarray] = None
        self.t_top_i: Optional[np.ndarray] = None
        self.t_top_f: Optional[np.ndarray] = None
        self.tail_at_top: Optional[np.ndarray] = None

    def lookup(self, process: EquilibriumProcess) -> Optional[int]:
        """Profile index for a batchable process, ``None`` otherwise.

        Only exact :class:`OccupancyModel` / bound
        ``ReuseDistanceHistogram.mpa`` pairs with no explicit
        ``mpa_slope`` override qualify — subclasses or custom callables
        could evaluate differently from the tables, which would break
        the bit-compat guarantee, so they take the scalar path.
        """
        occ = process.occupancy
        if type(occ) is not OccupancyModel:
            return None
        if process.mpa_slope is not None:
            return None
        mpa = process.mpa
        try:
            owner = mpa.__self__
            func = mpa.__func__
        except AttributeError:
            return None
        if func is not _HISTOGRAM_MPA or type(owner) is not ReuseDistanceHistogram:
            return None
        key = (id(occ), id(owner))
        index = self._index.get(key)
        if index is None:
            index = len(self.growth_arrays)
            self._index[key] = index
            self._pins.append((occ, owner))
            self.growth_arrays.append(np.asarray(occ.growth_table, dtype=float))
            self.tail_arrays.append(np.asarray(owner.tail_table, dtype=float))
            self._dirty = True
        return index

    def ensure_flat(self) -> None:
        if not self._dirty:
            return
        g_sizes = [g.size for g in self.growth_arrays]
        t_sizes = [t.size for t in self.tail_arrays]
        self.growth_flat = np.concatenate(self.growth_arrays)
        self.tail_flat = np.concatenate(self.tail_arrays)
        self.g_off = np.array(
            [0] + list(np.cumsum(g_sizes[:-1])), dtype=np.int64
        )
        self.g_len = np.array(g_sizes, dtype=np.int64)
        self.g_first = np.array([g[0] for g in self.growth_arrays])
        self.g_last = np.array([g[-1] for g in self.growth_arrays])
        # growth[-1] - 1e-12 / 1.0 / growth[0]: the same float64 ops the
        # scalar g_inverse performs, done once per profile.
        self.g_sat_cut = self.g_last - 1e-12
        self.inv_g_first = 1.0 / self.g_first
        self.t_off = np.array(
            [0] + list(np.cumsum(t_sizes[:-1])), dtype=np.int64
        )
        self.t_top_i = np.array([t.size - 1 for t in self.tail_arrays], dtype=np.int64)
        self.t_top_f = self.t_top_i.astype(float)
        self.tail_at_top = np.array([t[-1] for t in self.tail_arrays])
        self._dirty = False


def _sum_columns(a: np.ndarray) -> np.ndarray:
    """Row sums accumulated column by column, left to right.

    Float addition is not associative; this is the scalar loop's order
    (a tree reduction such as ``a.sum(axis=1)`` would change bits).
    """
    total = a[:, 0].copy()
    for c in range(1, a.shape[1]):
        total += a[:, c]
    return total


def _close_capacity(
    xs: np.ndarray,
    caps: np.ndarray,
    pad: np.ndarray,
    ks: np.ndarray,
    total_ways: int,
) -> np.ndarray:
    """Close Eq. 1 on converged rows, as ``NewtonSolver.solve`` does.

    The well-conditioned case of ``_redistribute_to_capacity`` — no
    entry saturates, one proportional pass closes within roundoff — is
    a fixed float64 op sequence, so it vectorizes bit-exactly: clamp,
    left-to-right free sum, one scale, gap check.  Rows that hit a cap
    or leave a gap above the 1e-12 closure threshold rerun through the
    scalar routine on their own ``k`` entries (identical bits by
    construction: the vector pass only *commits* when it took the
    scalar fast path).  Pad cells (``pad``) are 0 in every sum and never
    count as capped; what the result holds there is junk.
    """
    total_f = float(total_ways)
    with np.errstate(all="ignore"):
        need = _sum_columns(caps) > total_f
        clamped = np.minimum(xs, caps)
        free_sum = _sum_columns(clamped)
        scale = total_f / free_sum
        scaled = clamped * scale[:, None]
        gap = total_f - _sum_columns(scaled)
        tol = 1e-12 * max(1.0, abs(total_f))
        fast = (
            need
            & (free_sum > 0.0)
            & ~((scaled >= caps) & ~pad).any(axis=1)
            & (np.abs(gap) <= tol)
        )
    closed = np.where(need[:, None], scaled, xs)
    for row in np.flatnonzero(need & ~fast):
        k = int(ks[row])
        closed[row, :k] = _redistribute_to_capacity(
            xs[row, :k].tolist(), caps[row, :k].tolist(), total_f
        )
    return closed


class _StackState:
    """Residual state of one full-stack evaluation (see ``_Stack.evaluate``)."""

    __slots__ = ("res", "norm", "n", "spi", "gslope", "mslope")

    def __init__(self, res, norm, n, spi, gslope, mslope):
        self.res = res
        self.norm = norm
        self.n = n
        self.spi = spi
        self.gslope = gslope
        self.mslope = mslope

    def merge_rows(self, other: "_StackState", rows: np.ndarray) -> None:
        """Adopt ``other``'s state for the masked rows (line-search accept)."""
        cols = rows[:, None]
        np.copyto(self.res, other.res, where=cols)
        np.copyto(self.norm, other.norm, where=rows)
        np.copyto(self.n, other.n, where=cols)
        np.copyto(self.spi, other.spi, where=cols)
        np.copyto(self.gslope, other.gslope, where=cols)
        np.copyto(self.mslope, other.mslope, where=cols)

    def take(self, rows: np.ndarray, width: int) -> "_StackState":
        """The given rows' state, cut to the first ``width`` columns."""
        return _StackState(
            res=self.res[rows, :width],
            norm=self.norm[rows],
            n=self.n[rows, :width],
            spi=self.spi[rows, :width],
            gslope=self.gslope[rows, :width],
            mslope=self.mslope[rows, :width],
        )


class _Slots:
    """The distinct stackable processes of one batch, in first-seen order.

    A *slot* is one process object; cells of the stack that hold the
    same object (a model hands out one unit-ratio process per name)
    share it.  The sniff test runs once per slot, and ``row`` turns a
    mix into its slot indices, or ``None`` when any of its processes
    cannot be stacked; ``freeze`` then builds the per-slot tables the
    stack gathers from.
    """

    def __init__(self, registry: _TableRegistry) -> None:
        self.registry = registry
        self._of: Dict[int, int] = {}
        self.prof: List[int] = []
        self.api: List[float] = []
        self.alpha: List[float] = []
        self.beta: List[float] = []

    def row(self, processes: Sequence[EquilibriumProcess]) -> Optional[List[int]]:
        # Runs once per row per batch, and a model hands out one
        # process object per (name, ratio) of a call, so most rows hit
        # only known slots: that path is one C-level pass of ``id``
        # probes.  The batch holds every process, so an ``id`` cannot
        # be reused mid-call.
        of = self._of
        try:
            slots = list(map(of.__getitem__, map(id, processes)))
        except KeyError:
            slots = []
            for p in processes:
                slot = of.get(id(p))
                if slot is None:
                    slot = self._add(p)
                if slot < 0:
                    return None
                slots.append(slot)
            return slots
        return None if -1 in slots else slots

    def _add(self, p: EquilibriumProcess) -> int:
        # An id-keyed registry hit already proved the exact types at
        # registration (the registry pins both objects, so a live id
        # can only be the registered object); the per-process
        # ``mpa_slope`` / ``__func__`` identities are all that can
        # differ between processes sharing a profile.  Misses take the
        # registry's full ``lookup``.
        slot = -1
        mpa = p.mpa
        if p.mpa_slope is None and getattr(mpa, "__func__", None) is _HISTOGRAM_MPA:
            profile = self.registry._index.get((id(p.occupancy), id(mpa.__self__)))
            if profile is None:
                profile = self.registry.lookup(p)
            if profile is not None:
                slot = len(self.prof)
                self.prof.append(profile)
                self.api.append(p.api)
                self.alpha.append(p.alpha)
                self.beta.append(p.beta)
        self._of[id(p)] = slot
        return slot

    def freeze(self) -> None:
        """Build the per-slot constant tables, pad slot last.

        ``floats`` and ``ints`` are ``(fields, slots + 1)`` tables in
        the field order :class:`_Stack` unpacks; ``pad`` is the pad
        slot's index.
        """
        registry = self.registry
        registry.ensure_flat()
        prof = np.array(self.prof + [-1], dtype=np.int64)
        # The pad slot reads profile 0's tables (every gather stays in
        # bounds); the overrides below pin what it evaluates to.
        pf = np.where(prof < 0, 0, prof)
        alpha = np.array(self.alpha + [0.0])
        self.floats = np.stack(
            [
                registry.g_first[pf],
                registry.g_sat_cut[pf],
                registry.inv_g_first[pf],
                registry.t_top_f[pf],
                registry.tail_at_top[pf],
                registry.g_last[pf],
                np.array(self.api + [0.0]),
                alpha,
                np.array(self.beta + [1.0]),
                -alpha,
            ]
        )
        # g_inverse(0) = 0 / 1.0 = 0 exactly (below the first growth
        # step, never saturated), and sat = 0 makes demand and caps 0.
        self.floats[0, -1] = 1.0
        self.floats[1, -1] = np.inf
        self.floats[2, -1] = 1.0
        self.floats[5, -1] = 0.0
        g_off = registry.g_off[pf]
        self.ints = np.stack(
            [
                prof,
                g_off,
                g_off - 1,
                registry.g_len[pf] - 1,
                registry.t_off[pf],
                registry.t_top_i[pf],
            ]
        ).astype(np.int32)
        self.pad = prof.size - 1


class _Stack:
    """Every stackable row of one batch, padded to its widest row.

    ``cells`` is the ``(rows, width)`` matrix of slot indices.  A row of
    ``k`` processes fills its first ``k`` columns; the rest are *pad
    cells*, which point at the pad slot (profile ``-1``) whose constants
    make every kernel output there an exact zero or a masked junk value
    (see the module docstring).  Construction gathers the per-cell
    constants from the slots' small tables, so :meth:`take` only
    gathers rows of ``cells``.
    """

    def __init__(
        self, slots: _Slots, cells: np.ndarray, ks: np.ndarray, total_ways: int
    ):
        registry = slots.registry
        self.slots = slots
        self.registry = registry
        self.cells = cells
        self.ks = ks
        self.total_ways = total_ways
        self.m, self.k = m, k = cells.shape
        flat = cells.reshape(-1)
        (
            self.g_first,
            self.g_sat_cut,
            self.inv_g_first,
            self.t_top_f,
            self.tail_at_top,
            sat,
            self.api_flat,
            self.alpha_flat,
            self.beta_flat,
            alpha_neg,
        ) = np.take(slots.floats, flat, axis=1)
        (
            prof,
            self.g_off,
            self.g_off_m1,
            self.g_len_m1,
            self.t_off,
            self.t_top_i,
        ) = np.take(slots.ints, flat, axis=1)
        self.sat = sat.reshape(m, k)
        self.alpha_neg = alpha_neg.reshape(m, k)
        pad = prof < 0
        if pad.any():
            self.pad = pad.reshape(m, k)
            # A pad cell's size is 0, so its n is 0 and the Eq. 7 test
            # fails there; the fallback value is then 0, not inf.
            self.value_fill = np.where(self.pad[:, 1:], 0.0, np.inf)
        else:
            self.pad = None
            self.value_fill = np.inf
        # searchsorted is 1-D per table: sort the real cells by profile
        # once, so each evaluation gathers and scatters the sizes once
        # and searches contiguous per-profile slices.  A 16-bit key lets
        # the stable sort run as a radix sort.
        real = np.flatnonzero(~pad)
        key = prof[real]
        if len(registry.growth_arrays) <= np.iinfo(np.int16).max:
            key = key.astype(np.int16)
        order = real[np.argsort(key, kind="stable")]
        sorted_prof = prof[order]
        bounds = (np.flatnonzero(np.diff(sorted_prof)) + 1).tolist()
        starts = [0] + bounds
        stops = bounds + [order.size]
        self.order = order
        self.groups = [
            (registry.growth_arrays[int(sorted_prof[a])], a, b)
            for a, b in zip(starts, stops)
        ]

    @classmethod
    def build(
        cls, slots: _Slots, rows: List[List[int]], total_ways: int
    ) -> "_Stack":
        """Stack the given rows of slot indices, padded to the widest."""
        slots.freeze()
        ks = np.array([len(row) for row in rows], dtype=np.int64)
        width = int(ks.max())
        cells = np.full((len(rows), width), slots.pad, dtype=np.int64)
        cells[np.arange(width) < ks[:, None]] = np.fromiter(
            chain.from_iterable(rows), dtype=np.int64, count=int(ks.sum())
        )
        return cls(slots, cells, ks, total_ways)

    def take(self, rows: np.ndarray) -> "_Stack":
        """The given rows as a new stack, cut to their widest row."""
        ks = self.ks[rows]
        return _Stack(
            self.slots, self.cells[rows, : int(ks.max())], ks, self.total_ways
        )

    # ------------------------------------------------------------------
    # Kernels — every op mirrors the scalar path bit-for-bit
    # ------------------------------------------------------------------
    def _mpa_kernel(self, flat_sizes: np.ndarray, cells):
        """Histogram ``mpa`` and ``mpa_slope`` at the given flat cells.

        Replicates ``ReuseDistanceHistogram.mpa`` exactly: clamp to the
        tail top beyond the support, otherwise the two-sided lerp
        ``tail[lo]*(1-frac) + tail[lo+1]*frac`` with ``lo = int(size)``.
        """
        tail_flat = self.registry.tail_flat
        top_mask = flat_sizes >= self.t_top_f[cells]
        lo = np.minimum(flat_sizes.astype(np.int64), self.t_top_i[cells] - 1)
        t_lo = tail_flat[self.t_off[cells] + lo]
        t_hi = tail_flat[self.t_off[cells] + lo + 1]
        frac = flat_sizes - lo
        mval = t_lo * (1.0 - frac) + t_hi * frac
        mval = np.where(top_mask, self.tail_at_top[cells], mval)
        mslope = np.where(top_mask, 0.0, t_hi - t_lo)
        return mval, mslope

    def _ginv_kernel(self, s: np.ndarray):
        """``g_inverse`` and ``g_inverse_slope`` at every flat cell.

        Replicates ``OccupancyModel.g_inverse`` exactly: ``bisect_left``
        into the growth table (one ``searchsorted`` per profile, over
        the cells sorted by profile), then the segment lerp, with the
        flat-segment, below-first-step and saturation cases patched in
        that order.
        """
        order = self.order
        s_sorted = s[order]
        idx_sorted = np.empty(order.size, dtype=np.int64)
        for growth, a, b in self.groups:
            idx_sorted[a:b] = np.searchsorted(growth, s_sorted[a:b], side="left")
        idx = np.zeros(s.size, dtype=np.int64)
        idx[order] = idx_sorted
        sat_mask = s >= self.g_sat_cut
        below = (s <= self.g_first) & ~sat_mask
        idx_c = np.minimum(np.maximum(idx, 1), self.g_len_m1)
        growth_flat = self.registry.growth_flat
        g_lo = growth_flat[self.g_off_m1 + idx_c]
        span = growth_flat[self.g_off + idx_c] - g_lo
        nval = idx_c + (s - g_lo) / span
        gslope = 1.0 / span
        # Flat segments and saturation are rare, so their patches are
        # skipped when they would change nothing.
        flat_seg = span <= 0.0
        if flat_seg.any():
            np.copyto(nval, idx_c + 1, where=flat_seg)
            np.copyto(gslope, np.inf, where=flat_seg)
        np.copyto(nval, s / self.g_first, where=below)
        np.copyto(gslope, self.inv_g_first, where=below)
        if sat_mask.any():
            np.copyto(nval, np.inf, where=sat_mask)
            np.copyto(gslope, np.inf, where=sat_mask)
        return nval, gslope

    def evaluate(self, x: np.ndarray) -> _StackState:
        """Full-stack residual + Jacobian-ingredient evaluation.

        Mirrors the ``evaluate`` closure of
        ``NewtonSolver.solve`` (residual entries, left-to-right
        capacity sum, squared-norm accumulation order) plus the
        ``g_inverse_slope`` / ``mpa_slope`` lookups the Jacobian pass
        needs — the masks and segment indices are shared, so the extra
        slope outputs cost two vector ops, not a second table walk.
        Rows whose state is junk (failed this iteration) evaluate to
        junk harmlessly: all ops are element-wise, so no row
        contaminates another.  Pad cells get an Eq. 7 entry of exactly 0.
        """
        m, k = self.m, self.k
        s = x.reshape(-1)
        with np.errstate(all="ignore"):
            nval, gslope = self._ginv_kernel(s)
            # --- mpa + mpa_slope -------------------------------------
            mval, mslope = self._mpa_kernel(s, slice(None))
            spi = self.alpha_flat * mval + self.beta_flat
            rate = self.api_flat / spi
            # --- residual assembly (scalar accumulation order) -------
            n2 = nval.reshape(m, k)
            rate2 = rate.reshape(m, k)
            n1 = n2[:, 0]
            rate1 = rate2[:, 0]
            ok = np.isfinite(n1) & (n1 > 0.0)
            # Eq. 7 entries for all columns in one 2-D pass; the
            # element-wise products/divides are the scalar loop's ops
            # verbatim, just issued per-matrix instead of per-column.
            nc = n2[:, 1:]
            good = ok[:, None] & np.isfinite(nc) & (nc > 0.0)
            value = np.where(
                good,
                (n1[:, None] * rate2[:, 1:]) / (nc * rate1[:, None]) - 1.0,
                self.value_fill,
            )
            res = np.empty((m, k))
            res[:, 1:] = value
            # Pad columns add +0.0 to the capacity sum and the squared
            # norm, which leaves both bit-unchanged.
            res0 = _sum_columns(x) - self.total_ways
            res[:, 0] = res0
            sq = _sum_columns(value * value) if k > 1 else np.zeros(m)
            sq += res0 * res0
            norm = np.sqrt(sq)
        return _StackState(
            res=res,
            norm=norm,
            n=n2,
            spi=spi.reshape(m, k),
            gslope=gslope.reshape(m, k),
            mslope=mslope.reshape(m, k),
        )

    def newton_step(self, state: _StackState):
        """The arrow-Jacobian Newton step at ``state``, all rows at once.

        Returns ``(delta, bad)``; ``bad`` flags the rows the scalar
        solver would reject as "singular Jacobian".  Per-cell
        log-derivatives for every column take three 2-D ops (the scalar
        loop's exact expression, issued matrix-wide); only the running
        denominator/numerator stay as a column loop, because float
        addition order is part of the bit contract.  Pad cells get
        ``b = 1`` and ``a = 0``, so their ``ab``, ``rb`` and ``delta``
        are 0 as well.
        """
        m, k = self.m, self.k
        with np.errstate(all="ignore"):
            res = state.res
            nlog = state.gslope / state.n
            rlog = self.alpha_neg * state.mslope / state.spi
            head = nlog[:, 0] - rlog[:, 0]
            q = res + 1.0
            b_cols = q * (rlog - nlog)
            a_cols = q * head[:, None]
            if self.pad is not None:
                b_cols[self.pad] = 1.0
                a_cols[self.pad] = 0.0
            b_tail = b_cols[:, 1:]
            bad = ~np.isfinite(head) | (
                (b_tail == 0.0) | ~np.isfinite(b_tail)
            ).any(axis=1)
            ab = a_cols / b_cols
            rb = res / b_cols
            denom = np.ones(m)
            num = -res[:, 0]
            for c in range(1, k):
                denom = denom - ab[:, c]
                num = num + rb[:, c]
            bad |= (denom == 0.0) | ~np.isfinite(denom) | ~np.isfinite(num)
            d1 = num / denom
            delta = np.empty((m, k))
            delta[:, 0] = d1
            delta[:, 1:] = (-res[:, 1:] - a_cols[:, 1:] * d1[:, None]) / b_tail
            bad |= ~np.isfinite(delta).all(axis=1)
        return delta, bad

    def final_curves(self, x: np.ndarray):
        """``mpas``/``spis`` at the closed sizes ``x`` of every row.

        The vectorized equivalent of ``_finish``'s per-process
        ``p.mpa(s)`` / ``p.alpha * m + p.beta``; pad cells hold junk.
        """
        with np.errstate(all="ignore"):
            mval, _ = self._mpa_kernel(x.reshape(-1), slice(None))
            spis = self.alpha_flat * mval + self.beta_flat
        return mval.reshape(self.m, self.k), spis.reshape(self.m, self.k)


class BatchNewtonSolver:
    """Damped Newton over a stack of equilibrium systems at once.

    It iterates with :class:`NewtonSolver`'s default tolerance and
    budget, and stacks a batch only from ``BATCH_MIN_STACK`` contended
    rows up; rows the stack cannot or did not solve go to
    :func:`solve_equilibrium` (see the module docstring's fallback
    ladder).
    """

    name = "batch_newton"

    def __init__(self) -> None:
        self._tables = _TableRegistry()

    def solve_batch(
        self,
        batch: Sequence[Sequence[EquilibriumProcess]],
        total_ways: int,
    ) -> List[EquilibriumResult]:
        """Solve every co-run in ``batch`` against one shared cache.

        Returns one :class:`EquilibriumResult` per input row, in order,
        each bit-identical (payload fields) to
        ``solve_equilibrium(row, total_ways)``.
        Exceptions (validation errors, rows where even the fallback
        fails) propagate exactly as the equivalent scalar loop would
        raise them.
        """
        results: List[Optional[EquilibriumResult]] = [None] * len(batch)
        slots = _Slots(self._tables)
        stackable: List[int] = []
        stack_rows: List[List[int]] = []
        scalar_rows: List[int] = []
        for index, row in enumerate(batch):
            if not row or total_ways < len(row):
                # Scalar path raises the canonical validation error.
                scalar_rows.append(index)
                continue
            cells = slots.row(row)
            if cells is None:
                scalar_rows.append(index)
                continue
            stackable.append(index)
            stack_rows.append(cells)
        if len(stackable) < BATCH_MIN_STACK:
            scalar_rows.extend(stackable)
        else:
            scalar_rows.extend(
                self._solve_stack(slots, stack_rows, stackable, total_ways, results)
            )
        for index in sorted(scalar_rows):
            results[index] = solve_equilibrium(batch[index], total_ways)
        return results  # type: ignore[return-value]

    def _solve_stack(
        self,
        slots: _Slots,
        stack_rows: List[List[int]],
        members: List[int],
        total_ways: int,
        results: List[Optional[EquilibriumResult]],
    ) -> List[int]:
        """Newton-iterate every stackable row at once; returns unsolved rows."""
        stack = _Stack.build(slots, stack_rows, total_ways)
        lo = NEWTON_DOMAIN_FLOOR
        with np.errstate(all="ignore"):
            # Uncontended rows short-circuit on the (cheap) scalar path.
            demand = np.minimum(stack.sat, float(total_ways))
            total_demand = _sum_columns(demand)
            contended = total_demand > total_ways + 1e-9
            uncontended_rows = [members[i] for i in np.flatnonzero(~contended)]
            if uncontended_rows:
                keep = np.flatnonzero(contended)
                if keep.size < BATCH_MIN_STACK:
                    return list(members)
                members = [members[i] for i in keep]
                stack = stack.take(keep)
                demand = demand[keep, : stack.k]
                total_demand = total_demand[keep]
            # Start guess and domain caps: same ops as the scalar
            # _proportional_start / _newton_caps, stacked; each row's
            # floor reserve uses its own k, and pad cells get cap 0.
            caps = np.minimum(
                stack.sat - 1e-3, (total_ways - lo * (stack.ks - 1))[:, None]
            )
            if stack.pad is not None:
                caps[stack.pad] = 0.0
            scale = total_ways / total_demand
            x = np.minimum(np.maximum(demand * scale[:, None], lo), caps)

            # The iteration runs on ``stack``, which sheds rows as they
            # stop; the endgame regathers the converged rows' constants
            # from their slot indices, so only those are kept here.
            all_cells, all_ks, all_caps = stack.cells, stack.ks, caps
            converged_at = np.zeros(stack.m, dtype=np.int64)
            x_done = np.zeros((stack.m, stack.k))
            norm_done = np.zeros(stack.m)
            ids = np.arange(stack.m)
            alive = np.ones(stack.m, dtype=bool)
            state = stack.evaluate(x)
            for iteration in range(1, NEWTON_MAX_ITERATIONS + 1):
                # Scalar order: the finite check precedes the tol check
                # (a non-finite norm never compares below tol).
                norm = state.norm
                done = alive & (norm < NEWTON_TOL)
                if done.any():
                    rows = np.flatnonzero(done)
                    where = ids[rows]
                    converged_at[where] = iteration
                    norm_done[where] = norm[rows]
                    x_done[where, : stack.k] = x[rows]
                active = alive & ~done & np.isfinite(norm)
                if not active.all():
                    # Converged and failed rows leave the stack here.
                    rows = np.flatnonzero(active)
                    if rows.size == 0:
                        break
                    # ``stack.take(rows)``, with the old per-cell
                    # constants released before the new ones are
                    # gathered, so that the two never coexist.
                    ks = stack.ks[rows]
                    cells = stack.cells[rows, : int(ks.max())]
                    stack = None
                    stack = _Stack(slots, cells, ks, total_ways)
                    x = x[rows, : stack.k]
                    caps = caps[rows, : stack.k]
                    state = state.take(rows, stack.k)
                    ids = ids[rows]
                delta, bad = stack.newton_step(state)
                # --- damped line search, per-row damping ladder -------
                pending = ~bad
                if not pending.any():
                    break
                damping = np.ones(stack.m)
                x_prev = x
                for _ in range(30):
                    # Non-pending rows get junk trial values; harmless —
                    # evaluation is element-wise and only ``accepted``
                    # (⊆ pending) rows are ever merged back.
                    trial = np.minimum(
                        np.maximum(x_prev + damping[:, None] * delta, lo), caps
                    )
                    trial_state = stack.evaluate(trial)
                    accepted = pending & (trial_state.norm < state.norm)
                    if accepted.all():
                        # The common first round: every row improved.
                        x, state = trial, trial_state
                        pending = ~accepted
                        break
                    if accepted.any():
                        if x is x_prev:
                            x = x.copy()
                        x[accepted] = trial[accepted]
                        state.merge_rows(trial_state, accepted)
                        pending &= ~accepted
                    if not pending.any():
                        break
                    damping[pending] *= 0.5
                # Bad rows and rows that exhausted the 30 halvings fail
                # like the scalar "singular Jacobian" / "line search
                # failed"; they leave at the top of the next iteration.
                alive = ~bad & ~pending
            # Rows still active exhausted the iteration budget → fallback.
        solved = np.flatnonzero(converged_at > 0)
        unsolved = [members[i] for i in np.flatnonzero(converged_at == 0)]
        unsolved.extend(uncontended_rows)
        if solved.size == 0:
            return unsolved
        ks = all_ks[solved]
        width = int(ks.max())
        pad = np.arange(width) >= ks[:, None]
        closed = _close_capacity(
            x_done[solved, :width], all_caps[solved, :width], pad, ks, total_ways
        )
        mpas, spis = _Stack(
            slots, all_cells[solved, :width], ks, total_ways
        ).final_curves(closed)
        # Result construction is the batch's largest fixed per-row cost
        # (two frozen dataclasses per row, 512 per 256-mix batch), so
        # the hot loop avoids both per-row numpy indexing (one
        # ``.tolist()`` of each matrix's real cells, in row order, yields
        # the exact same Python floats as per-row ``.tolist()``) and the
        # frozen-dataclass ``__init__``, whose per-field
        # ``object.__setattr__`` calls alone cost more than the rest of
        # the loop.  Item assignment into a bare instance's ``__dict__``
        # (the idiom of ``PerformanceModel._restore``) produces
        # field-for-field identical objects (``==``/``hash`` read the
        # same attributes) at about a quarter of the cost; every field is
        # assigned explicitly, defaults included, in declaration order.
        # It beats ``__dict__.update`` on both counts: the keyword call
        # costs more per row, and the updated dict stops sharing its
        # keys with the class's other instances, which doubles its size.
        real = ~pad
        sizes_it = iter(closed[real].tolist())
        mpas_it = iter(mpas[real].tolist())
        spis_it = iter(spis[real].tolist())
        norm_l = norm_done.tolist()
        conv_l = converged_at.tolist()
        batch_name = self.name
        scalar_name = NewtonSolver.name
        new = object.__new__
        for row, k_r in zip(solved.tolist(), ks.tolist()):
            iterations = conv_l[row]
            telemetry = new(SolverTelemetry)
            fields = telemetry.__dict__
            fields["strategy"] = "auto"
            fields["solver"] = batch_name
            fields["jacobian"] = "analytic"
            fields["iterations"] = iterations
            fields["residual_norm"] = norm_l[row]
            fields["warm_started"] = False
            fields["fallback_reason"] = None
            result = new(EquilibriumResult)
            fields = result.__dict__
            fields["sizes"] = tuple(islice(sizes_it, k_r))
            fields["mpas"] = tuple(islice(mpas_it, k_r))
            fields["spis"] = tuple(islice(spis_it, k_r))
            fields["solver"] = scalar_name
            fields["iterations"] = iterations
            fields["contended"] = True
            fields["telemetry"] = telemetry
            results[members[row]] = result
        return unsolved
