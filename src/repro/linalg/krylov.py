"""Krylov-subspace helpers (GMRES with pluggable preconditioning).

The MPDE Jacobian for the paper's 40 x 30 grid and a handful of circuit
unknowns is small enough for a direct sparse factorisation, but the paper
(and its reference [10], Telichevesky/Kundert/White DAC 1995) emphasises
matrix-free Krylov solution for larger problems.  :func:`gmres_solve` is a
restarted GMRES preconditioned from the *right* (Saad & Schultz 1986; Saad,
*Iterative Methods for Sparse Linear Systems*, section 9.3): it minimises
the true residual ``||b - A x||``, so it stops on exactly the quantity the
inexact-Newton forcing terms bound, and it applies the preconditioner once
per inner iteration plus once per restart cycle (to map the cycle's Krylov
combination back to a correction).  Its report carries the iteration
counts and the per-iteration residual history so benchmarks and tests can
observe linear-solver effort.  Preconditioners are supplied either as plain
:class:`scipy.sparse.linalg.LinearOperator` objects or as implementations
of the :class:`~repro.linalg.preconditioners.Preconditioner` protocol
(whose ``degraded`` flag — singular harmonic systems replaced by their
pseudo-inverses — is surfaced on the :class:`GMRESReport`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..resilience.deadline import Deadline
from ..resilience.faultinject import fault_site
from ..utils.exceptions import GMRESStagnationError, SingularMatrixError
from .preconditioners import Preconditioner

__all__ = [
    "CachedPreconditionedGMRES",
    "GMRESReport",
    "gmres_solve",
]

#: Relative size below which the next Arnoldi vector counts as zero: an
#: exact breakdown, the solution lies in the Krylov space already built.
_BREAKDOWN = np.finfo(float).eps


@dataclass
class GMRESReport:
    """Diagnostics from one right-preconditioned GMRES solve.

    Attributes
    ----------
    iterations:
        Total *inner* Krylov iterations across all restart cycles.
    restart_cycles:
        Number of restart cycles the solve ran (a solve that converges
        inside the first cycle reports 1, a zero right-hand side 0).  The
        preconditioner was applied ``iterations + restart_cycles`` times.
    converged:
        Whether GMRES reached the requested tolerance on the true residual.
    residual_norm:
        The true residual norm ``||b - A x||`` of the returned solution,
        recomputed at the end of the last restart cycle, converged or not.
    residual_history:
        True relative residual ``||b - A x|| / ||b||`` after every inner
        iteration — read from the Arnoldi recurrence inside a cycle and
        recomputed explicitly at each cycle end — the per-solve convergence
        trace used by the solver-convergence test harness.
    preconditioner_degraded:
        True when the preconditioner reported that a fallback weakened it
        (singular harmonic systems replaced by their pseudo-inverses), so
        degraded preconditioning is detectable from the solve report instead
        of only from iteration counts.
    stagnated:
        True when a non-converged solve made essentially no progress over
        its last full restart cycle (relative residual improvement below
        the stagnation threshold) — a *stuck* solve, as opposed to one that
        was merely *slow* (ran out of ``maxiter`` while still converging).
        The recovery ladder treats the two differently: stagnation wants a
        refresh or a direct-LU re-solve, slowness wants a larger budget.
    build_time_s, backsub_time_s, harmonic_factorizations:
        Filled in by :meth:`CachedPreconditionedGMRES.solve`: the wall time
        of the preconditioner build, the back-substitution time inside its
        applies (a part of the GMRES time) and the harmonic systems its LU
        factored.
    """

    iterations: int
    restart_cycles: int
    converged: bool
    residual_norm: float
    residual_history: list[float] = field(default_factory=list)
    preconditioner_degraded: bool = False
    stagnated: bool = False
    build_time_s: float = 0.0
    backsub_time_s: float = 0.0
    harmonic_factorizations: int = 0


def gmres_solve(
    matrix: sp.spmatrix | spla.LinearOperator,
    rhs: np.ndarray,
    *,
    preconditioner: Preconditioner | spla.LinearOperator | None = None,
    tol: float = 1e-9,
    restart: int = 80,
    maxiter: int = 2000,
    raise_on_failure: bool = True,
    stagnation_ratio: float = 0.99,
    deadline: Deadline | None = None,
) -> tuple[np.ndarray, GMRESReport]:
    """Solve the real system ``matrix @ x = rhs`` with restarted GMRES.

    ``preconditioner`` (an approximation ``M^{-1}`` of the inverse) may be
    ``None`` (unpreconditioned GMRES), a raw
    :class:`~scipy.sparse.linalg.LinearOperator`, or any implementation of
    the :class:`~repro.linalg.preconditioners.Preconditioner` protocol; it
    is applied from the right, GMRES running on ``A M^{-1}``.  Each restart
    cycle of at most ``restart`` inner iterations orthogonalises with
    classical Gram-Schmidt and one re-orthogonalisation and reduces the
    Hessenberg matrix with Givens rotations; ``maxiter`` bounds the number
    of cycles.  The solve converges when the true residual
    ``||rhs - matrix @ x||``, recomputed at the end of a cycle, is at most
    ``tol * ||rhs||``.  Returns the solution and a :class:`GMRESReport`.

    When ``raise_on_failure`` is True a non-converged solve raises
    :class:`SingularMatrixError` — or its subclass
    :class:`GMRESStagnationError` when the solve *stagnated*: the residual
    improved by less than ``1 - stagnation_ratio`` over the last full
    restart cycle, so more iterations would not have helped.  ``deadline``
    (a started :class:`~repro.resilience.deadline.Deadline`) is checked
    after every inner iteration and aborts the solve with
    :class:`~repro.utils.exceptions.DeadlineExceededError` on expiry.
    """
    fault_site("krylov.solve", raise_on_failure=raise_on_failure)
    matvec = spla.aslinearoperator(matrix).matvec
    if preconditioner is None:
        apply = np.asarray
    elif isinstance(preconditioner, spla.LinearOperator):
        apply = preconditioner.matvec
    else:
        apply = preconditioner.solve

    b = np.asarray(rhs, dtype=float)
    b_norm = float(np.linalg.norm(b))
    target = tol * b_norm
    cycle = max(1, min(int(restart), b.size))
    basis = np.empty((cycle + 1, b.size))
    triangle = np.zeros((cycle, cycle))
    x = np.zeros_like(b)
    residual, residual_norm = b, b_norm
    history: list[float] = []
    iterations = restart_cycles = 0
    converged = residual_norm <= target
    breakdown = False
    while not (converged or breakdown) and restart_cycles < maxiter:
        restart_cycles += 1
        basis[0] = residual / residual_norm
        # ``g`` is the rotated right-hand side ``beta e_1``: its last entry
        # is the residual norm of the cycle's least-squares solution.
        g = [residual_norm]
        cosines: list[float] = []
        sines: list[float] = []
        for j in range(cycle):
            w = matvec(apply(basis[j]))
            w_norm = float(np.linalg.norm(w))
            known = basis[: j + 1]
            h = known @ w
            w = w - h @ known
            correction = known @ w
            w -= correction @ known
            h += correction
            h_next = float(np.linalg.norm(w))
            breakdown = h_next <= _BREAKDOWN * w_norm
            column = h.tolist()
            for i, (c, s) in enumerate(zip(cosines, sines)):
                column[i], column[i + 1] = (
                    c * column[i] + s * column[i + 1],
                    c * column[i + 1] - s * column[i],
                )
            magnitude = math.hypot(column[j], h_next)
            c, s = (column[j] / magnitude, h_next / magnitude) if magnitude else (1.0, 0.0)
            cosines.append(c)
            sines.append(s)
            column[j] = magnitude
            triangle[: j + 1, j] = column
            g.append(-s * g[j])
            g[j] *= c
            iterations += 1
            history.append(abs(g[j + 1]) / b_norm)
            if deadline is not None:
                deadline.check("gmres")
            if abs(g[j + 1]) <= target or breakdown:
                break
            basis[j + 1] = w / h_next
        k = len(cosines)
        if triangle[k - 1, k - 1] == 0.0:
            # A singular operator on the Krylov space: the last direction
            # cannot be used, solve with the ones before it.
            k -= 1
        y = sla.solve_triangular(triangle[:k, :k], g[:k])
        x += apply(y @ basis[:k])
        residual = b - matvec(x)
        residual_norm = float(np.linalg.norm(residual))
        history[-1] = residual_norm / b_norm
        converged = residual_norm <= target
        # An exact breakdown holds the cycle's best solution; when even
        # that misses the tolerance, or the residual is no longer finite,
        # another cycle cannot help.
        breakdown = breakdown or not math.isfinite(residual_norm)
    # Read the degraded flag *after* the solve: lazily-factoring
    # preconditioners (block_circulant_fast) may only discover a singular
    # harmonic system during their first application.
    degraded = bool(getattr(preconditioner, "degraded", False))
    stagnated = False
    if not converged:
        # No-progress detector: compare the residual across the last *full*
        # restart cycle.  A solve that never completed a cycle is "slow",
        # not "stuck" — only a whole cycle of no progress is evidence that
        # more iterations would not help.
        if len(history) > cycle:
            start_norm = history[-cycle - 1]
            end_norm = history[-1]
            stagnated = start_norm > 0.0 and end_norm > stagnation_ratio * start_norm
    report = GMRESReport(
        iterations=iterations,
        restart_cycles=restart_cycles,
        converged=converged,
        residual_norm=residual_norm,
        residual_history=history,
        preconditioner_degraded=degraded,
        stagnated=stagnated,
    )
    if not converged and raise_on_failure:
        detail = (
            f"(residual={residual_norm:.3e}, "
            f"{report.iterations} inner iterations over {report.restart_cycles} restart cycles)"
        )
        if stagnated:
            raise GMRESStagnationError(
                f"GMRES stagnated: relative residual improved less than "
                f"{1.0 - stagnation_ratio:.2g} over the last restart cycle {detail}"
            )
        raise SingularMatrixError(f"GMRES did not converge {detail}")
    return x, report


class CachedPreconditionedGMRES:
    """Build a preconditioner, then run GMRES: the Krylov front ends' linear solve.

    ``build(context)`` produces a fresh
    :class:`~repro.linalg.preconditioners.Preconditioner` from whatever
    per-iterate state the front end carries (the MPDE solver passes its
    per-point Jacobian data arrays).  Every :meth:`solve` builds one, from
    the current data, and uses it for exactly that solve: the
    ``block_circulant_fast`` preconditioner costs less to rebuild than a
    stale instance costs in GMRES iterations.  Each solve's build cost is reported on the
    :class:`GMRESReport` it returns.
    """

    def __init__(self, build) -> None:
        self._build = build

    def solve(
        self,
        matrix: sp.spmatrix | spla.LinearOperator,
        rhs: np.ndarray,
        *,
        context,
        tol: float = 1e-9,
        restart: int = 80,
        deadline: Deadline | None = None,
    ) -> tuple[np.ndarray, GMRESReport]:
        """One preconditioned linear solve with a freshly built preconditioner.

        A non-converged solve raises (see :func:`gmres_solve`); ``deadline``
        is checked at every inner iteration.
        """
        start = time.perf_counter()
        preconditioner = self._build(context)
        build_time_s = time.perf_counter() - start
        x, report = gmres_solve(
            matrix,
            rhs,
            preconditioner=preconditioner,
            tol=tol,
            restart=restart,
            deadline=deadline,
        )
        report.build_time_s = build_time_s
        report.backsub_time_s = preconditioner.apply_backsub_time_s
        report.harmonic_factorizations = preconditioner.harmonic_factorizations
        return x, report

