"""Krylov-subspace helpers (GMRES with pluggable preconditioning).

The MPDE Jacobian for the paper's 40 x 30 grid and a handful of circuit
unknowns is small enough for a direct sparse factorisation, but the paper
(and its reference [10], Telichevesky/Kundert/White DAC 1995) emphasises
matrix-free Krylov solution for larger problems.  This module wraps SciPy's
GMRES with an iteration counter and per-solve residual history so benchmarks
and tests can observe linear-solver effort.  Preconditioners are supplied
either as plain :class:`scipy.sparse.linalg.LinearOperator` objects or as
implementations of the :class:`~repro.linalg.preconditioners.Preconditioner`
protocol (whose ``degraded`` flag — singular harmonic systems replaced by
their pseudo-inverses — is surfaced on the :class:`GMRESReport`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
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


@dataclass
class GMRESReport:
    """Diagnostics from one preconditioned GMRES solve.

    Attributes
    ----------
    iterations:
        Total *inner* Krylov iterations across all restart cycles.
    restart_cycles:
        Number of restart cycles spanned by those iterations (derived from
        the restart length; a solve that converges inside the first cycle
        reports 1).
    converged:
        Whether GMRES reached the requested tolerance.
    residual_norm:
        On converged solves, the solver's own final (preconditioned,
        relative-scaled) residual norm estimate — no extra matvec is spent
        re-verifying a converged solve.  On failed solves, the true residual
        norm ``||b - A x||`` computed explicitly for diagnostics.
    residual_history:
        Preconditioned relative residual norm after every inner iteration —
        the per-solve convergence trace used by the solver-convergence test
        harness.
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


def _as_operator(
    preconditioner: Preconditioner | spla.LinearOperator | None,
) -> spla.LinearOperator | None:
    """Normalise a protocol implementation or raw operator for ``spla.gmres``."""
    if preconditioner is None:
        return None
    as_operator = getattr(preconditioner, "as_operator", None)
    if callable(as_operator):
        return as_operator()
    return preconditioner


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
    """Solve ``matrix @ x = rhs`` with restarted, preconditioned GMRES.

    ``preconditioner`` may be ``None`` (unpreconditioned GMRES), a raw
    :class:`~scipy.sparse.linalg.LinearOperator`, or any
    implementation of the :class:`~repro.linalg.preconditioners.Preconditioner`
    protocol.  Returns the solution and a :class:`GMRESReport`.  When
    ``raise_on_failure`` is True a non-converged solve raises
    :class:`SingularMatrixError` — or its subclass
    :class:`GMRESStagnationError` when the solve *stagnated*: the
    preconditioned residual improved by less than
    ``1 - stagnation_ratio`` over the last full restart cycle, so more
    iterations would not have helped.  ``deadline`` (a started
    :class:`~repro.resilience.deadline.Deadline`) is checked after every
    inner iteration and aborts the solve with
    :class:`~repro.utils.exceptions.DeadlineExceededError` on expiry.
    """
    fault_site("krylov.solve", raise_on_failure=raise_on_failure)
    counter = _IterationCounter(deadline=deadline)

    x, info = spla.gmres(
        matrix,
        rhs,
        M=_as_operator(preconditioner),
        rtol=tol,
        atol=0.0,
        restart=restart,
        maxiter=maxiter,
        callback=counter,
        callback_type="pr_norm",
    )
    converged = info == 0
    # Read the degraded flag *after* the solve: lazily-factoring
    # preconditioners (block_circulant_fast) may only discover a singular
    # harmonic system during their first application.
    degraded = bool(getattr(preconditioner, "degraded", False))
    if converged and counter.last_norm is not None:
        # GMRES's recurrence already carries the final (preconditioned,
        # relative) residual norm — reuse it instead of spending another full
        # matvec just to re-verify a converged solve.
        residual_norm = counter.last_norm * float(np.linalg.norm(rhs))
    else:
        residual = rhs - (
            matrix @ x if not callable(getattr(matrix, "matvec", None)) else matrix.matvec(x)
        )
        residual_norm = float(np.linalg.norm(residual))
    restart_cycles = -(-counter.count // max(1, int(restart))) if counter.count else 0
    stagnated = False
    if not converged:
        # No-progress detector: compare the preconditioned residual across
        # the last *full* restart cycle.  A solve that never completed a
        # cycle is "slow", not "stuck" — only a whole cycle of no progress
        # is evidence that more iterations would not help.
        cycle = max(1, int(restart))
        history = counter.history
        if len(history) > cycle:
            start_norm = history[-cycle - 1]
            end_norm = history[-1]
            stagnated = start_norm > 0.0 and end_norm > stagnation_ratio * start_norm
    report = GMRESReport(
        iterations=counter.count,
        restart_cycles=restart_cycles,
        converged=converged,
        residual_norm=residual_norm,
        residual_history=counter.history,
        preconditioner_degraded=degraded,
        stagnated=stagnated,
    )
    if not converged and raise_on_failure:
        detail = (
            f"(info={info}, residual={residual_norm:.3e}, "
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


class _IterationCounter:
    """Counts GMRES inner iterations and records the residual-norm trace.

    With ``callback_type="pr_norm"`` SciPy invokes the callback once per
    *inner* Krylov iteration with the preconditioned relative residual norm,
    so the count is the total inner-iteration effort (restart cycles are
    derived from it by the caller), ``history`` is the full per-iteration
    convergence trace and ``last_norm`` is the solver's own final convergence
    measure.

    The callback is also where the cooperative per-solve deadline is
    enforced for GMRES: an expired :class:`Deadline` raises
    :class:`~repro.utils.exceptions.DeadlineExceededError` from inside the
    callback, which SciPy propagates out of ``spla.gmres`` — the iteration
    boundary is the only safe interruption point of a Krylov solve.
    """

    def __init__(self, deadline: Deadline | None = None) -> None:
        self.count = 0
        self.history: list[float] = []
        self.last_norm: float | None = None
        self._deadline = deadline

    def __call__(self, norm: float) -> None:
        self.count += 1
        norm = float(norm)
        self.history.append(norm)
        self.last_norm = norm
        if self._deadline is not None:
            self._deadline.check("gmres")
