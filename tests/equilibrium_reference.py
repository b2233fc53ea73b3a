"""Finite-difference reference for the analytic Newton solver.

The production :class:`~repro.core.equilibrium.NewtonSolver` builds its
Jacobian from the tabulated curves' segment slopes and never assembles
it.  This module keeps the textbook alternative the tests check it
against:

- :func:`jacobian_analytic` assembles the same analytic Jacobian as a
  dense ``k x k`` matrix;
- :func:`jacobian_fd` is the forward-difference Jacobian of the Eq. 1 +
  Eq. 7 residual;
- :func:`solve_fd` is damped Newton with the finite-difference
  Jacobian and a dense linear solve: the algorithm the analytic solver
  replaced.  Its result carries ``jacobian="fd"`` telemetry.

Everything here reuses the production residual, domain caps, start
guess and Eq. 1 closure, so the two solvers differ only in the
Jacobian.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.equilibrium import (
    NEWTON_DOMAIN_FLOOR,
    NEWTON_MAX_ITERATIONS,
    NEWTON_TOL,
    EquilibriumProcess,
    EquilibriumResult,
    SolverTelemetry,
    _eq7_residual,
    _eq7_residual_norm,
    _finish,
    _newton_caps,
    _proportional_start,
    _redistribute_to_capacity,
    _resolve_mpa_slope,
    _uncontended,
)
from repro.errors import ConvergenceError

#: Forward-difference step (ways).
FD_STEP = 1e-4


def jacobian_analytic(
    processes: Sequence[EquilibriumProcess], sizes, total_ways: int
) -> np.ndarray:
    """The analytic Jacobian of the residual at ``sizes``, assembled.

    Row 0 (the capacity constraint) is all ones; row ``i`` has
    nonzeros only at columns 0 and ``i``, built from the logarithmic
    derivatives d ln G⁻¹/dS and d ln rate/dS read off the tabulated
    segment slopes.
    """
    k = len(processes)
    x = np.asarray(sizes, dtype=float)
    res = _eq7_residual(processes, x, total_ways)
    nlog = np.empty(k)
    rlog = np.empty(k)
    for i, p in enumerate(processes):
        s = float(x[i])
        n = p.occupancy.g_inverse(s)
        spi = p.alpha * p.mpa(s) + p.beta
        slope = p.occupancy.g_inverse_slope(s)
        nlog[i] = slope / n if n > 0 and math.isfinite(n) else np.inf
        rlog[i] = -p.alpha * _resolve_mpa_slope(p)(s) / spi
    jac = np.zeros((k, k))
    jac[0, :] = 1.0
    for i in range(1, k):
        q = res[i] + 1.0
        jac[i, 0] = q * (nlog[0] - rlog[0])
        jac[i, i] = q * (rlog[i] - nlog[i])
    return jac


def jacobian_fd(
    processes: Sequence[EquilibriumProcess],
    sizes,
    total_ways: int,
    fd_step: float = FD_STEP,
) -> np.ndarray:
    """Forward-difference Jacobian of the residual at ``sizes``.

    A column whose forward step would cross its Newton domain cap
    steps backward instead.
    """
    k = len(processes)
    x = np.asarray(sizes, dtype=float)
    caps = _newton_caps(processes, total_ways, NEWTON_DOMAIN_FLOOR)
    res = _eq7_residual(processes, x, total_ways)
    jac = np.empty((k, k))
    for j in range(k):
        xh = x.copy()
        step = fd_step if x[j] + fd_step <= caps[j] else -fd_step
        xh[j] += step
        jac[:, j] = (_eq7_residual(processes, xh, total_ways) - res) / step
    return jac


def solve_fd(
    processes: Sequence[EquilibriumProcess],
    total_ways: int,
    tol: float = NEWTON_TOL,
    max_iterations: int = NEWTON_MAX_ITERATIONS,
    fd_step: float = FD_STEP,
) -> EquilibriumResult:
    """Damped Newton with the finite-difference Jacobian.

    Same start, domain, line search and convergence test as
    ``NewtonSolver().solve``; raises :class:`ConvergenceError` where
    it fails.
    """
    free = _uncontended(processes, total_ways)
    if free is not None:
        return _finish(processes, free, "newton", 0, False)
    lo = NEWTON_DOMAIN_FLOOR
    caps = np.array(_newton_caps(processes, total_ways, lo))
    start = _proportional_start(processes, total_ways)
    x = np.clip(np.asarray(start), lo, caps)
    for iteration in range(1, max_iterations + 1):
        res = _eq7_residual(processes, x, total_ways)
        if not np.all(np.isfinite(res)):
            raise ConvergenceError(
                "residual left the finite domain", iterations=iteration
            )
        norm = float(np.linalg.norm(res))
        if norm < tol:
            sizes = x.tolist()
            if caps.sum() > total_ways:
                sizes = _redistribute_to_capacity(
                    sizes, caps.tolist(), float(total_ways)
                )
            telemetry = SolverTelemetry(
                strategy="newton",
                solver="newton",
                jacobian="fd",
                iterations=iteration,
                residual_norm=_eq7_residual_norm(processes, sizes, total_ways),
            )
            return _finish(processes, sizes, "newton", iteration, True, telemetry)
        jac = jacobian_fd(processes, x, total_ways, fd_step)
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular Jacobian", iterations=iteration, residual=norm
            ) from None
        # Damped line search: halve until the residual improves.
        damping = 1.0
        for _ in range(30):
            x_new = np.clip(x + damping * delta, lo, caps)
            res_new = _eq7_residual(processes, x_new, total_ways)
            if np.all(np.isfinite(res_new)) and np.linalg.norm(res_new) < norm:
                break
            damping *= 0.5
        else:
            raise ConvergenceError(
                "line search failed", iterations=iteration, residual=norm
            )
        x = x_new
    raise ConvergenceError(
        "Newton iteration budget exhausted", iterations=max_iterations
    )
