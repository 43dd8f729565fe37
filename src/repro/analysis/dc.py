"""DC operating-point analysis.

Solves ``f(x) + b(t=0) = 0`` (charges do not contribute at DC) with damped
Newton.  When plain Newton fails — the normal situation for multi-transistor
circuits started from a zero guess — two classic continuation strategies are
tried automatically, in order:

1. **gmin stepping**: a conductance from every node to ground is swept from a
   large value down to (effectively) zero, and
2. **source stepping**: all independent sources are ramped up from zero,

both implemented on top of :func:`repro.linalg.continuation.continuation_solve`.
This mirrors the paper's reliance on continuation for hard nonlinear solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.mna import MNASystem
from ..linalg.continuation import continuation_solve
from ..linalg.newton import NewtonResult, newton_solve
from ..resilience.deadline import Deadline
from ..resilience.diagnostics import attach_diagnostics, build_failure_diagnostics
from ..utils.exceptions import ConvergenceError, SingularMatrixError
from ..utils.logging import get_logger
from ..utils.options import NewtonOptions
from .sweep import StateSweep

__all__ = ["DCSolution", "dc_operating_point"]

_LOG = get_logger("analysis.dc")

# gmin stepping sweeps the node-to-ground conductance from GMIN_START down to
# GMIN_FINAL; the final value is small enough not to perturb realistic
# circuits but keeps the Jacobian nonsingular for floating nodes.
_GMIN_START = 1e-2
_GMIN_FINAL = 1e-12


@dataclass(frozen=True)
class DCSolution:
    """Result of a DC operating-point analysis.

    Attributes
    ----------
    x:
        The operating point (node voltages and branch currents).
    strategy:
        Which strategy succeeded: ``"newton"``, ``"gmin-stepping"`` or
        ``"source-stepping"``.
    newton_iterations:
        Total Newton iterations spent (including continuation sub-solves).
    residual_norm:
        Infinity norm of ``f(x) + b(0)`` at the solution.
    """

    x: np.ndarray
    strategy: str
    newton_iterations: int
    residual_norm: float

    def voltage(self, mna: MNASystem, node: str) -> float:
        """Convenience accessor for a node voltage at the operating point."""
        return float(mna.voltage(self.x, node))


def _with_gmin_diagonal(conductance: np.ndarray, gmin_diag: np.ndarray) -> np.ndarray:
    """A dense conductance Jacobian plus the (sparse) gmin diagonal.

    Returns a new array: ``conductance`` belongs to a shared
    :class:`~repro.analysis.sweep.StateSweep` evaluation and stays untouched.
    """
    jacobian = conductance.copy()
    idx = np.arange(jacobian.shape[0])
    jacobian[idx, idx] += gmin_diag
    return jacobian


def _dc_residual(
    sweeps: StateSweep, x: np.ndarray, b: np.ndarray, gmin_diag: np.ndarray
) -> np.ndarray:
    # Newton asks for the Jacobian at the iterate whose residual it just
    # computed, so this sweep fetches G along with f.
    return sweeps.at(x, jacobian=True).f[0] + b + gmin_diag * x


def _dc_jacobian(sweeps: StateSweep, x: np.ndarray, gmin_diag: np.ndarray) -> np.ndarray:
    return _with_gmin_diagonal(sweeps.at(x, jacobian=True).conductance[0], gmin_diag)


def _plain_newton(
    sweeps: StateSweep, x0: np.ndarray, b0: np.ndarray, options: NewtonOptions
) -> NewtonResult:
    gmin_diag = sweeps.mna.gmin_diagonal(_GMIN_FINAL)

    def residual(x: np.ndarray) -> np.ndarray:
        return _dc_residual(sweeps, x, b0, gmin_diag)

    def jacobian(x: np.ndarray) -> np.ndarray:
        return _dc_jacobian(sweeps, x, gmin_diag)

    try:
        return newton_solve(residual, jacobian, x0, options, raise_on_failure=False)
    except SingularMatrixError as exc:
        # A singular Jacobian at some iterate is exactly what gmin stepping
        # exists to regularise; report a non-converged result so the caller
        # falls through to the stepping strategies instead of aborting.
        _LOG.info("plain DC Newton hit a singular Jacobian (%s)", exc)
        return NewtonResult(
            x=np.asarray(x0, dtype=float).copy(),
            converged=False,
            iterations=0,
            residual_norm=float("inf"),
        )


def _gmin_stepping(
    sweeps: StateSweep,
    x0: np.ndarray,
    b0: np.ndarray,
    newton_options: NewtonOptions,
    deadline: Deadline | None = None,
):
    """Sweep gmin from _GMIN_START down to _GMIN_FINAL (log-spaced embedding)."""
    log_start = np.log10(_GMIN_START)
    log_final = np.log10(_GMIN_FINAL)
    unit_diag = sweeps.mna.gmin_diagonal(1.0)

    def gmin_of(lam: float) -> float:
        return 10.0 ** (log_start + lam * (log_final - log_start))

    def residual(x: np.ndarray, lam: float) -> np.ndarray:
        return _dc_residual(sweeps, x, b0, gmin_of(lam) * unit_diag)

    def jacobian(x: np.ndarray, lam: float) -> np.ndarray:
        return _dc_jacobian(sweeps, x, gmin_of(lam) * unit_diag)

    return continuation_solve(residual, jacobian, x0, newton_options, deadline=deadline)


def _source_stepping(
    sweeps: StateSweep,
    x0: np.ndarray,
    b0: np.ndarray,
    newton_options: NewtonOptions,
    deadline: Deadline | None = None,
):
    """Ramp the full excitation vector from zero up to its nominal value."""
    gmin_diag = sweeps.mna.gmin_diagonal(_GMIN_FINAL)

    def residual(x: np.ndarray, lam: float) -> np.ndarray:
        return _dc_residual(sweeps, x, lam * b0, gmin_diag)

    def jacobian(x: np.ndarray, lam: float) -> np.ndarray:
        del lam
        return _dc_jacobian(sweeps, x, gmin_diag)

    return continuation_solve(residual, jacobian, x0, newton_options, deadline=deadline)


def dc_operating_point(
    mna: MNASystem,
    *,
    x0: np.ndarray | None = None,
    time: float = 0.0,
    newton_options: NewtonOptions | None = None,
    deadline_s: float | None = None,
) -> DCSolution:
    """Compute the DC operating point of a compiled circuit.

    Parameters
    ----------
    mna:
        The compiled circuit equations.
    x0:
        Optional initial guess (defaults to all zeros).
    time:
        Time at which the excitation ``b(t)`` is frozen (0 by default, which
        evaluates sinusoidal sources at their ``t = 0`` value).
    newton_options:
        Iteration controls of every Newton solve, plain and in the
        continuation stages (whose schedule is fixed by the constants of
        :mod:`repro.linalg.continuation`).
    deadline_s:
        Optional cooperative wall-clock budget for the whole analysis
        (all strategies together); checked between strategies and at every
        continuation step.

    Raises
    ------
    ConvergenceError
        If plain Newton, gmin stepping and source stepping all fail.  The
        raised exception carries a
        :class:`~repro.resilience.diagnostics.FailureDiagnostics` payload on
        its ``diagnostics`` attribute when localisation is possible.
    DeadlineExceededError
        If ``deadline_s`` expires before a strategy succeeds.
    """
    nopts = newton_options or NewtonOptions()
    deadline = Deadline(deadline_s)
    x_start = mna.zero_state() if x0 is None else np.asarray(x0, dtype=float).copy()
    b0 = mna.source(time)
    sweeps = StateSweep(mna)

    result = _plain_newton(sweeps, x_start, b0, nopts)
    if result.converged:
        return DCSolution(
            x=result.x,
            strategy="newton",
            newton_iterations=result.iterations,
            residual_norm=result.residual_norm,
        )
    _LOG.info("plain Newton failed for DC operating point; trying gmin stepping")
    deadline.check("dc gmin stepping")

    # Continuation embeddings can fail by divergence *or* by hitting a
    # singular embedded Jacobian; both mean "try the next strategy".
    try:
        cont = _gmin_stepping(sweeps, x_start, b0, nopts, deadline)
        residual_norm = float(np.max(np.abs(sweeps.at(cont.x).f[0] + b0)))
        return DCSolution(
            x=cont.x,
            strategy="gmin-stepping",
            newton_iterations=cont.newton_iterations + result.iterations,
            residual_norm=residual_norm,
        )
    except (ConvergenceError, SingularMatrixError):
        _LOG.info("gmin stepping failed for DC operating point; trying source stepping")
    deadline.check("dc source stepping")

    try:
        cont = _source_stepping(sweeps, x_start, b0, nopts, deadline)
        residual_norm = float(np.max(np.abs(sweeps.at(cont.x).f[0] + b0)))
        return DCSolution(
            x=cont.x,
            strategy="source-stepping",
            newton_iterations=cont.newton_iterations + result.iterations,
            residual_norm=residual_norm,
        )
    except (ConvergenceError, SingularMatrixError) as exc:
        terminal = ConvergenceError(
            f"DC operating point of {mna.circuit.name!r} failed: plain Newton, gmin stepping "
            "and source stepping all diverged",
            residual_norm=result.residual_norm,
        )
        try:
            residual = mna.f(result.x) + b0
        except Exception:  # diagnostics must never mask the real failure
            residual = None
        diagnostics = build_failure_diagnostics(mna, result.x, residual, "divergence")
        raise attach_diagnostics(terminal, diagnostics) from exc
