"""Homotopy / continuation driver.

The DAC-2002 paper notes that when Newton-Raphson on the MPDE system does not
converge from the available initial guess, *continuation* reliably obtains
solutions (Section 3, "Computational speedup": 10-20 minutes with
continuation versus ~1 minute for a converged plain Newton run).  The same
technique — classically "source stepping" — is also what SPICE-family DC
solvers fall back to.

:func:`continuation_sweep` implements the adaptive-step embedding sweep
itself: a family of problems ``F(x; lambda) = 0`` is solved for ``lambda``
moving from 0 to 1, each solve warm-started from the previous solution.  The
step in ``lambda`` starts at :data:`INITIAL_STEP`, grows after successes (by
:data:`STEP_GROWTH`, up to :data:`MAX_STEP`) and shrinks after failures (by
:data:`STEP_SHRINK`); the sweep fails below :data:`MIN_STEP` or after
:data:`MAX_STEPS` attempts.  It is the *one* continuation
driver in the library — the gmin/source-stepping fallbacks of
:func:`repro.analysis.dc.dc_operating_point`
(via :func:`continuation_solve`) and the MPDE solver's source-stepping
recovery rung both run on it, so step control, failure classification and
deadline behaviour cannot drift apart between the two.

:func:`continuation_solve` is the dense-Newton front end: it adapts a
``(x, lam)`` residual/Jacobian pair onto the sweep via
:func:`~repro.linalg.newton.newton_solve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..resilience.deadline import Deadline
from ..utils.exceptions import ConvergenceError
from ..utils.logging import get_logger
from ..utils.options import NewtonOptions
from .newton import newton_solve

__all__ = ["ContinuationResult", "continuation_solve", "continuation_sweep"]

_LOG = get_logger("linalg.continuation")

#: Factor the embedding step grows by after an accepted step (up to
#: ``MAX_STEP``) and shrinks by after a rejected one.
STEP_GROWTH = 2.0
STEP_SHRINK = 0.25
#: The first embedding step, the largest and the smallest one, and the
#: budget of embedding-step attempts.
INITIAL_STEP = 0.25
MAX_STEP = 0.5
MIN_STEP = 1e-5
MAX_STEPS = 200


@dataclass
class ContinuationResult:
    """Outcome of a continuation sweep.

    Attributes
    ----------
    x:
        Solution of the target problem (``lambda = 1``).
    lambdas:
        The accepted values of the embedding parameter, in order.
    newton_iterations:
        Total Newton iterations spent across every embedding step.
    steps:
        Number of accepted embedding steps.
    rejected_steps:
        Number of embedding steps that had to be retried with a smaller step.
    """

    x: np.ndarray
    lambdas: list[float] = field(default_factory=list)
    newton_iterations: int = 0
    steps: int = 0
    rejected_steps: int = 0


class SweepStep(Protocol):
    """What a :func:`continuation_sweep` per-lambda solve must return.

    :class:`~repro.linalg.newton.NewtonResult` satisfies it; so does the
    MPDE solver's internal Newton result.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float


def continuation_sweep(
    solve_at: Callable[[float, np.ndarray], SweepStep],
    x0: np.ndarray,
    *,
    deadline: Deadline | None = None,
) -> ContinuationResult:
    """Sweep the embedding parameter from 0 to 1.

    This is the single continuation driver shared by the DC gmin/source
    stepping fallbacks and the MPDE solver's source-stepping recovery rung.

    Parameters
    ----------
    solve_at:
        ``solve_at(lam, x_guess)`` solves the embedded problem at ``lam``
        warm-started from ``x_guess`` and returns a :class:`SweepStep`
        (must *not* raise on plain non-convergence — return
        ``converged=False`` so the sweep can shrink the step; genuinely
        unrecoverable errors may propagate).
    x0:
        Initial guess for the first (easy) problem at ``lambda = 0``.
    deadline:
        Optional started :class:`~repro.resilience.deadline.Deadline`,
        checked before every embedding step.

    Raises
    ------
    ConvergenceError
        If even the ``lambda = 0`` problem fails ("initial problem"), the
        sweep cannot reach ``lambda = 1`` within :data:`MAX_STEPS`, or the
        step size under-runs :data:`MIN_STEP`.
    """
    lam = 0.0
    step = INITIAL_STEP
    x = np.array(x0, dtype=float).copy()

    result = ContinuationResult(x=x)

    # Solve the easy problem first so the sweep starts from a consistent point.
    start = solve_at(lam, x)
    if not start.converged:
        raise ConvergenceError(
            f"continuation could not solve the initial problem at lambda={lam}",
            iterations=start.iterations,
            residual_norm=start.residual_norm,
        )
    x = np.asarray(start.x, dtype=float)
    result.newton_iterations += start.iterations
    result.lambdas.append(lam)

    attempts = 0
    while lam < 1.0:
        if deadline is not None:
            deadline.check("continuation")
        attempts += 1
        if attempts > MAX_STEPS:
            raise ConvergenceError(
                f"continuation exceeded max_steps={MAX_STEPS} before reaching lambda=1"
            )
        lam_trial = min(1.0, lam + step)
        trial = solve_at(lam_trial, x)
        result.newton_iterations += trial.iterations
        if trial.converged:
            lam = lam_trial
            x = np.asarray(trial.x, dtype=float)
            result.lambdas.append(lam)
            result.steps += 1
            step = min(MAX_STEP, step * STEP_GROWTH)
            _LOG.debug("continuation accepted lambda=%.4f (step=%.3g)", lam, step)
        else:
            result.rejected_steps += 1
            step *= STEP_SHRINK
            _LOG.debug(
                "continuation rejected lambda=%.4f, shrinking step to %.3g", lam_trial, step
            )
            if step < MIN_STEP:
                raise ConvergenceError(
                    "continuation step size underflow "
                    f"(step={step:.3e} < min_step={MIN_STEP:.3e}) at lambda={lam:.4f}",
                    residual_norm=trial.residual_norm,
                )

    result.x = x
    return result


def continuation_solve(
    residual: Callable[[np.ndarray, float], np.ndarray],
    jacobian: Callable[[np.ndarray, float], object],
    x0: np.ndarray,
    newton_options: NewtonOptions | None = None,
    *,
    deadline: Deadline | None = None,
) -> ContinuationResult:
    """Solve ``residual(x, 1.0) = 0`` by sweeping the embedding parameter.

    The dense-Newton front end of :func:`continuation_sweep`.

    Parameters
    ----------
    residual, jacobian:
        Callables taking ``(x, lam)``.  At ``lam = 0`` the problem
        should be easy (typically linear: sources off, or a heavily
        gmin-loaded system); at ``lam = 1`` it is the original problem.
    x0:
        Initial guess for the first (easy) problem.
    newton_options:
        Iteration controls of every per-lambda Newton solve.
    deadline:
        Optional started :class:`~repro.resilience.deadline.Deadline`,
        checked before every embedding step.

    Raises
    ------
    ConvergenceError
        If the sweep cannot reach ``lambda = 1`` within :data:`MAX_STEPS` or
        the step size under-runs :data:`MIN_STEP`.
    """
    nopts = newton_options or NewtonOptions()

    def solve_at(lam: float, x_guess: np.ndarray) -> SweepStep:
        return newton_solve(
            lambda v: residual(v, lam),
            lambda v: jacobian(v, lam),
            x_guess,
            nopts,
            raise_on_failure=False,
        )

    return continuation_sweep(solve_at, x0, deadline=deadline)
