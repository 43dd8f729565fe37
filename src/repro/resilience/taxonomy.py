"""Failure taxonomy: classify solve failures and record recovery attempts.

Every failure a solve can hit maps to exactly one *failure kind* — a short
stable string the recovery ladder keys its applicability rules on and the
diagnostics payloads carry.  The classification is deliberately coarse:
rungs care about *what class of trouble* occurred, not about the precise
call stack.

==========================  ==================================================
kind                        raised as / meaning
==========================  ==================================================
``"divergence"``            :class:`ConvergenceError` — iteration budget
                            exhausted without converging.
``"singular"``              :class:`SingularMatrixError` — a linearisation
                            was structurally or numerically singular.
``"gmres_stagnation"``      :class:`GMRESStagnationError` — a Krylov solve
                            made no progress over a restart cycle (stuck,
                            not slow).
``"deadline"``              :class:`DeadlineExceededError` — the per-solve
                            deadline expired.  Terminal: never recovered.
``"non_finite"``            NaN/Inf contaminated a residual or iterate.
``"service"``               :class:`ServiceError` — the simulation-service
                            layer failed around a solve (cache build,
                            dispatch, admission); the job retry budget — not
                            the solver ladder — owns recovery.
``"unknown"``               anything else derived from :class:`ReproError`.
==========================  ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils.exceptions import (
    ConvergenceError,
    DeadlineExceededError,
    GMRESStagnationError,
    ServiceError,
    SingularMatrixError,
)

__all__ = ["FAILURE_KINDS", "RecoveryAttempt", "classify_failure"]

#: The enumerated failure model (see the module docstring for semantics).
FAILURE_KINDS = (
    "divergence",
    "singular",
    "gmres_stagnation",
    "deadline",
    "non_finite",
    "service",
    "unknown",
)


def classify_failure(exc: BaseException) -> str:
    """Map an exception from a solve to its failure kind.

    Order matters: the most specific subclasses are tested first
    (``GMRESStagnationError`` subclasses ``SingularMatrixError`` so
    existing ``except SingularMatrixError`` handlers keep catching it, but
    it classifies as its own kind).
    """
    if isinstance(exc, DeadlineExceededError):
        return "deadline"
    if isinstance(exc, ServiceError):
        return "service"
    if isinstance(exc, GMRESStagnationError):
        return "gmres_stagnation"
    if isinstance(exc, SingularMatrixError):
        return "singular"
    if isinstance(exc, ConvergenceError):
        return "divergence"
    if isinstance(exc, (FloatingPointError, OverflowError)):
        return "non_finite"
    return "unknown"


@dataclass(frozen=True)
class RecoveryAttempt:
    """One entry of ``MPDEStats.recovery_trace``.

    The trace starts with the failed baseline attempt (``rung="baseline"``)
    and then records every ladder rung the solver executed or skipped, so a
    recovered solve reports *how* it recovered and a failed one reports
    everything that was tried.

    Attributes
    ----------
    rung:
        ``"baseline"`` or a :data:`~repro.core.solver.RECOVERY_LADDER`
        rung name.
    trigger:
        Failure kind (:data:`FAILURE_KINDS`) that caused this attempt —
        i.e. the classification of the *previous* attempt's failure.
    outcome:
        ``"recovered"`` (this attempt produced the returned solution),
        ``"failed"`` (it ran and failed), or ``"skipped"`` (the rung did
        not apply to this failure kind / solver configuration).
    detail:
        Human-readable specifics: the failure message, what the rung
        changed (``"preconditioner block_circulant_fast -> direct LU"``),
        or why it was skipped.
    duration_s:
        Wall time this attempt consumed (0.0 for skipped rungs).
    """

    rung: str
    trigger: str
    outcome: str
    detail: str = ""
    duration_s: float = 0.0
