"""Steady-state cache-partition solvers (paper Section 3.3).

At equilibrium each process's accesses-per-second must be consistent
with its occupancy: over any recent window of length ``T`` a process
made ``G⁻¹(S_i)`` accesses (the number needed to build its occupancy),
and its throughput is set by its miss rate via Eq. 3:

    APS_i = G_i⁻¹(S_i) / T = API_i / (α_i · MPA_i(S_i) + β_i)   (Eq. 6)

Eliminating ``T`` gives the paper's Eq. 7 ratio conditions, closed by
the capacity constraint ``Σ S_i = A`` (Eq. 1).  Two solvers are
provided:

- :class:`NewtonSolver` — damped Newton–Raphson on the Eq. 7 residual
  system, the method the paper names.  The Jacobian is analytic: both
  ``G⁻¹`` and ``MPA`` are tabulated piecewise-linear curves, so their
  derivatives are exact segment slopes.  (A finite-difference
  reference lives with the tests, which check the two agree.)
- :class:`BisectionSolver` — a robust nested fixed-point/bisection
  scheme on the window length ``T``: for a trial ``T`` each process's
  occupancy is the greatest fixed point of ``S = G(T · APS(S))``
  (monotone, so the iteration from above converges), and the total
  occupancy is monotone in ``T``.

Both return identical answers on well-behaved inputs (the solver
ablation benchmark quantifies this).  :func:`solve_equilibrium`, the
one entry point, runs Newton and falls back to bisection when Newton
fails.  Every result carries a :class:`SolverTelemetry` record
(solver, iterations, residual norm, fallback reason) so callers can
observe the solve without re-running it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.occupancy import OccupancyModel
from repro.errors import ConfigurationError, ConvergenceError
from repro.io import document
from repro.obs import get_observer


@dataclass(frozen=True)
class EquilibriumProcess:
    """Per-process inputs to the equilibrium system.

    Attributes:
        occupancy: Growth model built from the process's histogram.
        mpa: Miss-per-access curve (callable of occupancy in ways).
        api: L2 accesses per instruction.
        alpha: Eq. 3 slope (seconds per instruction per unit MPA).
        beta: Eq. 3 intercept (seconds per instruction).
        mpa_slope: Optional derivative of ``mpa``.  When omitted, the
            solver recovers it from the curve object behind ``mpa``
            (histograms and miss-ratio curves expose ``mpa_slope``) or
            falls back to a local finite difference.
    """

    occupancy: OccupancyModel
    mpa: Callable[[float], float]
    api: float
    alpha: float
    beta: float
    mpa_slope: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.api <= 0:
            raise ConfigurationError("api must be positive")
        if self.alpha < 0 or self.beta <= 0:
            raise ConfigurationError("alpha must be >= 0 and beta > 0")

    def aps(self, size: float) -> float:
        """Accesses per second at occupancy ``size`` (Eq. 6 RHS)."""
        return self.api / (self.alpha * self.mpa(size) + self.beta)


@document("solver_telemetry")
@dataclass(frozen=True)
class SolverTelemetry:
    """Per-solve observability record.

    Attributes:
        strategy: ``auto`` for :func:`solve_equilibrium` results,
            otherwise the name of the solver class called directly
            (``newton`` / ``bisection``).
        solver: Solver that actually produced the result.
        jacobian: ``analytic`` for Newton (saved documents may hold
            the retired ``fd``), ``None`` for bisection or uncontended
            short-circuits.
        iterations: Iterations spent by the producing solver.
        residual_norm: Final Eq. 1 + Eq. 7 residual norm of the
            returned sizes (0 for uncontended short-circuits).
        warm_started: Kept so saved documents keep their format.
            Every solve starts Newton from the proportional-demand
            guess, so new records always hold ``False``.
        fallback_reason: Why ``auto`` fell back to bisection (the
            Newton failure message), ``None`` when no fallback
            happened.
    """

    strategy: str
    solver: str
    jacobian: Optional[str]
    iterations: int
    residual_norm: float
    warm_started: bool = False
    fallback_reason: Optional[str] = None


@document("equilibrium_result")
@dataclass(frozen=True)
class EquilibriumResult:
    """Solved steady state of co-running, cache-sharing processes."""

    sizes: Tuple[float, ...]
    mpas: Tuple[float, ...]
    spis: Tuple[float, ...]
    solver: str
    iterations: int
    contended: bool
    telemetry: Optional[SolverTelemetry] = None

    @property
    def total_size(self) -> float:
        return float(sum(self.sizes))


def _finish(
    processes: Sequence[EquilibriumProcess],
    sizes: Sequence[float],
    solver: str,
    iterations: int,
    contended: bool,
    telemetry: Optional[SolverTelemetry] = None,
) -> EquilibriumResult:
    mpas = tuple(p.mpa(s) for p, s in zip(processes, sizes))
    spis = tuple(p.alpha * m + p.beta for p, m in zip(processes, mpas))
    return EquilibriumResult(
        sizes=tuple(float(s) for s in sizes),
        mpas=mpas,
        spis=spis,
        solver=solver,
        iterations=iterations,
        contended=contended,
        telemetry=telemetry,
    )


def _uncontended(
    processes: Sequence[EquilibriumProcess], total_ways: int
) -> Optional[List[float]]:
    """If everyone's footprint fits, there is nothing to solve."""
    saturations = [min(p.occupancy.saturation_size, total_ways) for p in processes]
    if sum(saturations) <= total_ways + 1e-9:
        return saturations
    return None


def _resolve_mpa_slope(
    process: EquilibriumProcess,
) -> Callable[[float], float]:
    """Derivative of the process's MPA curve for the analytic Jacobian.

    Preference order: an explicit ``mpa_slope`` on the process, the
    ``mpa_slope`` method of the curve object the ``mpa`` callable is
    bound to, then a local finite difference of the black-box callable.
    """
    if process.mpa_slope is not None:
        return process.mpa_slope
    owner = getattr(process.mpa, "__self__", None)
    if owner is not None and getattr(process.mpa, "__name__", None) == "mpa":
        slope = getattr(owner, "mpa_slope", None)
        if callable(slope):
            return slope
    mpa = process.mpa

    def fd_slope(size: float, _mpa=mpa, _h=1e-6) -> float:
        lo = size - _h if size >= _h else 0.0
        hi = size + _h
        return (_mpa(hi) - _mpa(lo)) / (hi - lo)

    return fd_slope


def _redistribute_to_capacity(
    sizes: Sequence[float], caps: Sequence[float], total: float
) -> List[float]:
    """Rescale ``sizes`` to sum exactly to ``total`` without breaching caps.

    Proportional rescaling alone violates Eq. 1 whenever a process hits
    its cap (the clipped excess simply vanished); instead the residual
    is redistributed over the still-uncapped processes, iterating until
    no new process saturates.  Requires ``sum(caps) >= total`` — which
    contention guarantees, since caps are the per-process saturation
    sizes clipped at ``total`` — otherwise everyone is left at cap.

    The proportional loop alone has two failure edges: when every free
    index lands exactly at its cap mid-pass the loop exits with the
    clipped overshoot unredistributed, and when the free mass is zero
    the even spread can itself breach a small cap.  A deterministic
    closure pass afterwards moves the leftover gap onto processes with
    headroom (raising) or positive mass (lowering), so the invariant
    ``|Σ out - total| <= 1e-9 · max(1, total)`` holds for any cap
    vector with ``sum(caps) >= total >= 0`` — including zero caps and
    all-capped inputs.  Well-conditioned solves close within the
    proportional loop already; the closure only runs when a gap above
    float-roundoff (1e-12 relative) survives, so ordinary Newton /
    bisection results keep their historical bit patterns.
    """
    k = len(sizes)
    caps = [float(c) for c in caps]
    out = [min(float(s), c) for s, c in zip(sizes, caps)]
    if sum(caps) <= total:
        return list(caps)
    capped = [False] * k
    for _ in range(k + 1):
        fixed = sum(s for s, c in zip(out, capped) if c)
        free = [i for i in range(k) if not capped[i]]
        if not free:
            break
        remaining = total - fixed
        if remaining <= 0.0:
            # The capped mass alone meets (or overshoots) capacity;
            # zero the free entries and let the closure pull the
            # overshoot back out of the capped ones.
            for i in free:
                out[i] = 0.0
            break
        free_sum = sum(out[i] for i in free)
        if free_sum <= 0.0:
            # Degenerate: spread the remainder evenly instead (the cap
            # clip below catches entries this pushes past their cap).
            for i in free:
                out[i] = remaining / len(free)
        else:
            scale = remaining / free_sum
            for i in free:
                out[i] *= scale
        saturated = False
        for i in free:
            if out[i] >= caps[i]:
                out[i] = caps[i]
                capped[i] = True
                saturated = True
        if not saturated:
            break
    # Exact-closure pass: deterministically absorb whatever gap the
    # proportional loop left (it can be the whole overshoot when every
    # free index saturated mid-pass).  Guarded by a roundoff threshold
    # so well-behaved results are not perturbed.
    gap = total - sum(out)
    tol = 1e-12 * max(1.0, abs(total))
    if gap > tol:
        for i in range(k):
            headroom = caps[i] - out[i]
            if headroom <= 0.0:
                continue
            out[i] += gap if gap <= headroom else headroom
            gap = total - sum(out)
            if gap <= tol:
                break
    elif gap < -tol:
        for i in range(k):
            if out[i] <= 0.0:
                continue
            out[i] -= -gap if -gap <= out[i] else out[i]
            gap = total - sum(out)
            if gap >= -tol:
                break
    return out


#: Lower bound of the Newton search domain (ways).  Sizes are kept
#: strictly positive so G⁻¹ and the logarithmic derivatives stay
#: finite; shared with :mod:`repro.core.batch_equilibrium` so both
#: paths clamp identically.
NEWTON_DOMAIN_FLOOR = 0.05

#: Newton's default convergence threshold on the residual norm and
#: iteration budget; the batch solver reads the same values, which its
#: bit parity with the scalar path depends on.
NEWTON_TOL = 1e-7
NEWTON_MAX_ITERATIONS = 120


def _newton_caps(
    processes: Sequence[EquilibriumProcess], total_ways: int, lo: float
) -> List[float]:
    """Per-process Newton domain caps (shared with the batch solver).

    Keeps iterates strictly inside the domain: ``g_inverse`` is
    infinite at saturation, so cap each size just below it, and leave
    room for every other process to sit at the floor.
    """
    k = len(processes)
    return [
        min(p.occupancy.saturation_size - 1e-3, total_ways - lo * (k - 1))
        for p in processes
    ]


def _proportional_start(
    processes: Sequence[EquilibriumProcess], total_ways: int
) -> List[float]:
    """Default Newton start: demands scaled onto the capacity plane.

    Shared with :mod:`repro.core.batch_equilibrium`; the batch kernels
    replicate these exact operations (same left-to-right summation) so
    the stacked start guess is bit-identical to this one.
    """
    demand = [
        min(p.occupancy.saturation_size, float(total_ways)) for p in processes
    ]
    scale = total_ways / sum(demand)
    return [d * scale for d in demand]


def _eq7_residual(
    processes: Sequence[EquilibriumProcess],
    sizes: Sequence[float],
    total_ways: int,
) -> np.ndarray:
    """The Eq. 1 + Eq. 7 residual vector at ``sizes``.

    Row 0 is the capacity gap ``Σ S_i - A``; row ``i`` is the Eq. 7
    ratio condition against process 0, ``inf`` where ``G⁻¹`` is not
    finite.
    """
    k = len(processes)
    res = np.empty(k)
    p1 = processes[0]
    s1 = float(sizes[0])
    n1 = p1.occupancy.g_inverse(s1)
    rate1 = p1.api / (p1.alpha * p1.mpa(s1) + p1.beta)
    total = s1
    n1_finite = math.isfinite(n1)
    for i in range(1, k):
        pi = processes[i]
        si = float(sizes[i])
        total += si
        ni = pi.occupancy.g_inverse(si)
        ratei = pi.api / (pi.alpha * pi.mpa(si) + pi.beta)
        # Eq. 7 rearranged as n1 * rate_i ... / (n_i * rate_1) - 1,
        # numerically kinder than the raw difference of ratios.
        if not n1_finite or not math.isfinite(ni):
            res[i] = np.inf
        else:
            res[i] = (n1 * ratei) / (ni * rate1) - 1.0
    res[0] = total - total_ways
    return res


def _eq7_residual_norm(
    processes: Sequence[EquilibriumProcess],
    sizes: Sequence[float],
    total_ways: int,
) -> float:
    """Norm of the Eq. 1 + Eq. 7 residual at ``sizes`` (for telemetry)."""
    res = _eq7_residual(processes, sizes, total_ways)
    finite = res[np.isfinite(res)]
    return float(np.linalg.norm(finite)) if finite.size else float("inf")


class BisectionSolver:
    """Nested fixed-point / bisection equilibrium solver."""

    name = "bisection"

    def __init__(
        self,
        size_tol: float = 1e-4,
        max_outer: int = 200,
        max_inner: int = 300,
    ):
        self.size_tol = size_tol
        self.max_outer = max_outer
        self.max_inner = max_inner

    def _size_at(self, process: EquilibriumProcess, window_t: float, cap: float) -> float:
        """Greatest fixed point of S = G(T·APS(S)) on [0, cap]."""
        g = process.occupancy.g
        mpa = process.mpa
        api, alpha, beta = process.api, process.alpha, process.beta
        inner_tol = self.size_tol * 0.1
        size = cap
        for _ in range(self.max_inner):
            accesses = window_t * api / (alpha * mpa(size) + beta)
            new_size = g(accesses)
            if new_size > cap:
                new_size = cap
            if abs(new_size - size) < inner_tol:
                return new_size
            size = new_size
        return size

    def solve(
        self, processes: Sequence[EquilibriumProcess], total_ways: int
    ) -> EquilibriumResult:
        if not processes:
            raise ConfigurationError("need at least one process")
        if total_ways < len(processes):
            raise ConfigurationError("fewer ways than processes")
        free = _uncontended(processes, total_ways)
        if free is not None:
            telemetry = SolverTelemetry(
                strategy=self.name,
                solver=self.name,
                jacobian=None,
                iterations=0,
                residual_norm=0.0,
            )
            return _finish(processes, free, self.name, 0, False, telemetry)

        caps = [min(p.occupancy.saturation_size, float(total_ways)) for p in processes]

        def total(window_t: float) -> float:
            return sum(
                self._size_at(p, window_t, cap) for p, cap in zip(processes, caps)
            )

        # Bracket T: total(T) is monotone increasing.
        t_hi = 1.0
        iterations = 0
        for _ in range(80):
            iterations += 1
            if total(t_hi) >= total_ways:
                break
            t_hi *= 4.0
        else:
            raise ConvergenceError(
                "could not bracket the equilibrium window from above",
                iterations=iterations,
            )
        t_lo = t_hi
        for _ in range(120):
            iterations += 1
            t_lo /= 4.0
            if total(t_lo) < total_ways:
                break
        else:
            raise ConvergenceError(
                "could not bracket the equilibrium window from below",
                iterations=iterations,
            )

        for _ in range(self.max_outer):
            iterations += 1
            t_mid = (t_lo * t_hi) ** 0.5  # geometric: T spans decades
            excess = total(t_mid) - total_ways
            if abs(excess) < self.size_tol:
                break
            if excess > 0:
                t_hi = t_mid
            else:
                t_lo = t_mid
        t_mid = (t_lo * t_hi) ** 0.5
        sizes = [self._size_at(p, t_mid, cap) for p, cap in zip(processes, caps)]
        # Close the Eq. 1 capacity constraint exactly.  A plain
        # proportional rescale clipped at each cap loses the clipped
        # excess whenever any process saturates; redistribute it over
        # the uncapped processes instead (see _redistribute_to_capacity).
        sizes = _redistribute_to_capacity(sizes, caps, float(total_ways))
        total_now = sum(sizes)
        assert abs(total_now - total_ways) <= 1e-9 * max(1.0, total_ways), (
            f"capacity constraint violated: sum(sizes)={total_now!r} "
            f"!= total_ways={total_ways!r}"
        )
        telemetry = SolverTelemetry(
            strategy=self.name,
            solver=self.name,
            jacobian=None,
            iterations=iterations,
            residual_norm=_eq7_residual_norm(processes, sizes, total_ways),
        )
        return _finish(processes, sizes, self.name, iterations, True, telemetry)


class NewtonSolver:
    """Damped Newton–Raphson on the Eq. 1 + Eq. 7 residual system.

    The Jacobian is built from the tabulated growth-curve and MPA-tail
    segment slopes and has arrow structure: row 0 (the capacity
    constraint) is all ones and row i has nonzeros only at columns 0
    and i.  The "arrow elimination" in :meth:`solve` solves
    J·Δ = -res by eliminating each Δ_i against row 0, in O(k) with no
    matrix assembly.

    Args:
        tol: Convergence threshold on the residual norm.
        max_iterations: Iteration budget.
    """

    name = "newton"

    def __init__(
        self, tol: float = NEWTON_TOL, max_iterations: int = NEWTON_MAX_ITERATIONS
    ):
        self.tol = tol
        self.max_iterations = max_iterations

    def solve(
        self,
        processes: Sequence[EquilibriumProcess],
        total_ways: int,
    ) -> EquilibriumResult:
        if not processes:
            raise ConfigurationError("need at least one process")
        if total_ways < len(processes):
            raise ConfigurationError("fewer ways than processes")
        free = _uncontended(processes, total_ways)
        if free is not None:
            telemetry = SolverTelemetry(
                strategy=self.name,
                solver=self.name,
                jacobian=None,
                iterations=0,
                residual_norm=0.0,
            )
            return _finish(processes, free, self.name, 0, False, telemetry)

        # The hot loop deliberately avoids numpy: for the k <= 16
        # processes a cache domain can hold, Python-float segment
        # lookups beat small-ndarray round trips by an order of
        # magnitude.
        lo = NEWTON_DOMAIN_FLOOR
        caps = _newton_caps(processes, total_ways, lo)
        start = _proportional_start(processes, total_ways)
        x = [min(max(s, lo), c) for s, c in zip(start, caps)]
        k = len(processes)
        g_inv = [p.occupancy.g_inverse for p in processes]
        g_inv_slope = [p.occupancy.g_inverse_slope for p in processes]
        mpa = [p.mpa for p in processes]
        api = [p.api for p in processes]
        alpha = [p.alpha for p in processes]
        beta = [p.beta for p in processes]
        slopes = [_resolve_mpa_slope(p) for p in processes]
        isfinite = math.isfinite

        def evaluate(xs):
            """Residual, norm and the (n, rate, spi) state behind it.

            The state is reused by the Jacobian pass, so each Newton
            iteration pays for exactly one table walk per process plus
            the two slope lookups.
            """
            s1 = xs[0]
            n1 = g_inv[0](s1)
            spi1 = alpha[0] * mpa[0](s1) + beta[0]
            rate1 = api[0] / spi1
            total = s1
            ok = isfinite(n1) and n1 > 0
            res = [0.0] * k
            ns = [n1] + [0.0] * (k - 1)
            rates = [rate1] + [0.0] * (k - 1)
            spis = [spi1] + [0.0] * (k - 1)
            sq = 0.0
            for i in range(1, k):
                si = xs[i]
                total += si
                ni = g_inv[i](si)
                spii = alpha[i] * mpa[i](si) + beta[i]
                ri = api[i] / spii
                ns[i] = ni
                rates[i] = ri
                spis[i] = spii
                if ok and isfinite(ni) and ni > 0:
                    value = (n1 * ri) / (ni * rate1) - 1.0
                else:
                    value = math.inf
                res[i] = value
                sq += value * value
            res[0] = total - total_ways
            sq += res[0] * res[0]
            return res, math.sqrt(sq), ns, rates, spis

        res, norm, ns, rates, spis = evaluate(x)
        for iteration in range(1, self.max_iterations + 1):
            if not isfinite(norm):
                raise ConvergenceError(
                    "residual left the finite domain", iterations=iteration
                )
            if norm < self.tol:
                # Newton stops at ||res|| < tol, which leaves an O(tol)
                # capacity-constraint gap; close Eq. 1 exactly by
                # redistributing the residual over uncapped processes
                # (a <= tol-sized adjustment).
                if sum(caps) > total_ways:
                    x = _redistribute_to_capacity(x, caps, float(total_ways))
                telemetry = SolverTelemetry(
                    strategy=self.name,
                    solver=self.name,
                    jacobian="analytic",
                    iterations=iteration,
                    residual_norm=_eq7_residual_norm(processes, x, total_ways),
                )
                return _finish(processes, x, self.name, iteration, True, telemetry)
            # Jacobian ingredients: only the tabulated segment slopes
            # are new; n, rate, spi come from the accepted evaluation.
            n1 = ns[0]
            rate1 = rates[0]
            nlog1 = g_inv_slope[0](x[0]) / n1
            rlog1 = -alpha[0] * slopes[0](x[0]) / spis[0]
            head = nlog1 - rlog1
            if not isfinite(head):
                raise ConvergenceError(
                    "singular Jacobian", iterations=iteration, residual=norm
                )
            a = [0.0] * k
            b = [0.0] * k
            for i in range(1, k):
                si = x[i]
                qi = res[i] + 1.0
                nlogi = g_inv_slope[i](si) / ns[i]
                rlogi = -alpha[i] * slopes[i](si) / spis[i]
                a[i] = qi * head
                b[i] = qi * (rlogi - nlogi)
            # Arrow elimination: row 0 is all ones, row i has nonzeros
            # only at columns 0 and i.
            denom = 1.0
            num = -res[0]
            singular = False
            for i in range(1, k):
                bi = b[i]
                if bi == 0.0 or not isfinite(bi):
                    singular = True
                    break
                denom -= a[i] / bi
                num += res[i] / bi
            if singular or denom == 0.0 or not isfinite(denom) or not isfinite(num):
                raise ConvergenceError(
                    "singular Jacobian", iterations=iteration, residual=norm
                )
            d1 = num / denom
            delta = [0.0] * k
            delta[0] = d1
            for i in range(1, k):
                delta[i] = (-res[i] - a[i] * d1) / b[i]
            if not all(isfinite(d) for d in delta):
                raise ConvergenceError(
                    "singular Jacobian", iterations=iteration, residual=norm
                )
            # Damped line search: halve until the residual improves.
            damping = 1.0
            for _ in range(30):
                x_new = [
                    min(max(x[i] + damping * delta[i], lo), caps[i])
                    for i in range(k)
                ]
                res_new, norm_new, ns_new, rates_new, spis_new = evaluate(x_new)
                if norm_new < norm:
                    break
                damping *= 0.5
            else:
                raise ConvergenceError(
                    "line search failed", iterations=iteration, residual=norm
                )
            x = x_new
            res, norm, ns, rates, spis = (
                res_new, norm_new, ns_new, rates_new, spis_new
            )
        raise ConvergenceError(
            "Newton iteration budget exhausted",
            iterations=self.max_iterations,
            residual=norm,
        )


def solve_equilibrium(
    processes: Sequence[EquilibriumProcess],
    total_ways: int,
) -> EquilibriumResult:
    """Solve the shared-cache equilibrium (paper Eq. 1 + Eq. 7).

    Runs the paper's Newton–Raphson and falls back to the robust
    bisection scheme if Newton fails to converge.

    Args:
        processes: One entry per cache-sharing (simultaneously
            running) process.
        total_ways: Associativity ``A`` of the shared cache.
    """
    observer = get_observer()
    if not observer.enabled:
        return _solve_equilibrium_impl(processes, total_ways)
    with observer.span(
        "equilibrium.solve",
        processes=len(processes),
        total_ways=total_ways,
    ) as span:
        result = _solve_equilibrium_impl(processes, total_ways)
        observer.counter("equilibrium.solves").inc()
        if not result.contended:
            observer.counter("equilibrium.uncontended").inc()
        telemetry = result.telemetry
        if telemetry is not None:
            span.annotate(
                solver=telemetry.solver,
                jacobian=telemetry.jacobian,
                iterations=telemetry.iterations,
                residual_norm=telemetry.residual_norm,
                fallback_reason=telemetry.fallback_reason,
            )
            observer.counter("equilibrium.iterations").inc(telemetry.iterations)
            observer.histogram("equilibrium.residual_norm").observe(
                telemetry.residual_norm
            )
            if telemetry.fallback_reason is not None:
                observer.counter("equilibrium.fallbacks").inc()
        return result


def _solve_equilibrium_impl(
    processes: Sequence[EquilibriumProcess],
    total_ways: int,
) -> EquilibriumResult:
    """The uninstrumented solve (bench baseline for obs overhead)."""
    try:
        result = NewtonSolver().solve(processes, total_ways)
        fallback_reason = None
    except ConvergenceError as newton_err:
        try:
            result = BisectionSolver().solve(processes, total_ways)
        except ConvergenceError as bisection_err:
            # Chain so the Newton diagnostics (iterations, residual)
            # survive alongside the bisection failure.
            raise ConvergenceError(
                "both solvers failed: newton: "
                f"{newton_err} (iterations={newton_err.iterations}, "
                f"residual={newton_err.residual!r}); "
                f"bisection: {bisection_err}",
                iterations=bisection_err.iterations,
                residual=bisection_err.residual,
            ) from newton_err
        fallback_reason = (
            f"newton failed after {newton_err.iterations} iterations: "
            f"{newton_err}"
        )
    return replace(
        result,
        telemetry=replace(
            result.telemetry, strategy="auto", fallback_reason=fallback_reason
        ),
    )
