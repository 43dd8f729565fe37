"""Damped Newton-Raphson for small dense systems.

:func:`newton_solve` drives every dense nonlinear solve of the time-domain
and DC layer: DC operating points (plain Newton and the gmin/source-stepping
continuation stages), each implicit step of transient analysis, and so the
inner steps of shooting, whose own update solves its dense monodromy system
with :func:`solve_linear_system`.  They share the same damping and line
search and the same SPICE-style combined absolute/relative convergence test.
The discretised MPDE and its one-axis problems (collocation PSS, harmonic
balance) run their own Newton loop in :class:`~repro.core.solver.MPDESolver`.

The residual and Jacobian are supplied as callables; the Jacobian is a dense
:class:`numpy.ndarray`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..resilience.faultinject import fault_site
from ..utils.exceptions import ConvergenceError, SingularMatrixError
from ..utils.logging import get_logger
from ..utils.options import NewtonOptions

__all__ = ["NewtonResult", "newton_solve", "solve_linear_system"]

_LOG = get_logger("linalg.newton")


@dataclass
class NewtonResult:
    """Outcome of a Newton-Raphson solve.

    Attributes
    ----------
    x:
        The converged iterate (or the best iterate when ``converged`` is
        False and the caller asked not to raise).
    converged:
        Whether both the residual and the update criteria were met.
    iterations:
        Number of Newton iterations performed.
    residual_norm:
        Infinity norm of the residual at the final iterate.
    update_norm:
        Infinity norm of the last Newton update.
    residual_history:
        Residual norms per iteration (useful to verify quadratic convergence
        in tests and to diagnose stagnation).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    update_norm: float
    residual_history: list[float] = field(default_factory=list)


def solve_linear_system(jacobian: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the dense system ``jacobian @ dx = rhs``.

    Raises
    ------
    SingularMatrixError
        If the factorisation fails or the solution contains non-finite
        entries (the usual symptom of a structurally singular MNA matrix).
    """
    try:
        dx = np.linalg.solve(jacobian, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"linear solve failed: {exc}") from exc
    if not np.isfinite(dx).all():
        raise SingularMatrixError("linear solve produced non-finite values (singular Jacobian?)")
    return dx


def _norm(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float] | np.ndarray,
    options: NewtonOptions | None = None,
    *,
    raise_on_failure: bool = True,
) -> NewtonResult:
    """Solve ``residual(x) = 0`` by damped Newton-Raphson.

    Parameters
    ----------
    residual:
        Maps an iterate ``x`` to the residual vector ``F(x)``.
    jacobian:
        Maps an iterate ``x`` to the dense ``dF/dx``.
    x0:
        Initial guess.
    options:
        Iteration controls; defaults to :class:`NewtonOptions()`.
    raise_on_failure:
        When True (default) a :class:`ConvergenceError` is raised if the
        iteration budget is exhausted; when False the best iterate is
        returned with ``converged=False`` so continuation drivers can react.

    Notes
    -----
    Convergence requires *both*

    * ``||F(x)||_inf <= abstol`` and
    * ``||dx||_inf <= reltol * ||x||_inf + abstol``

    which mirrors the combined check used by SPICE-family simulators.  A
    simple backtracking line search halves the damping factor until the
    residual norm stops increasing (or ``min_damping`` is reached), which is
    what makes exponential device models (diodes, subthreshold MOSFETs)
    tractable from poor initial guesses.
    """
    opts = options or NewtonOptions()
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        x = x.ravel()

    fx = np.asarray(residual(x), dtype=float)
    res_norm = _norm(fx)
    history = [res_norm]
    update_norm = np.inf

    if res_norm <= opts.abstol:
        return NewtonResult(
            x=x,
            converged=True,
            iterations=0,
            residual_norm=res_norm,
            update_norm=0.0,
            residual_history=history,
        )

    for iteration in range(1, opts.max_iterations + 1):
        jac = jacobian(x)
        fault_site("newton.linear_solve", iteration=iteration - 1)
        dx = solve_linear_system(jac, -fx)

        if math.isfinite(opts.max_step_norm):
            step_norm = _norm(dx)
            if step_norm > opts.max_step_norm:
                dx = dx * (opts.max_step_norm / step_norm)

        # Backtracking line search on the residual norm.
        damping = opts.damping
        accepted = False
        best_x, best_fx, best_norm = x, fx, res_norm
        while damping >= opts.min_damping:
            x_trial = x + damping * dx
            fx_trial = np.asarray(residual(x_trial), dtype=float)
            trial_norm = _norm(fx_trial)
            if math.isfinite(trial_norm) and trial_norm < res_norm * (1.0 + 1e-12):
                best_x, best_fx, best_norm = x_trial, fx_trial, trial_norm
                accepted = True
                break
            if math.isfinite(trial_norm) and trial_norm < best_norm:
                best_x, best_fx, best_norm = x_trial, fx_trial, trial_norm
            damping *= 0.5
        if not accepted:
            # Accept the best trial anyway; Newton sometimes needs to pass
            # through a residual increase (e.g. crossing a device corner).
            x_trial = best_x if best_x is not x else x + opts.min_damping * dx
            fx_trial = best_fx if best_x is not x else np.asarray(residual(x_trial), dtype=float)
            trial_norm = _norm(fx_trial)
            best_x, best_fx, best_norm = x_trial, fx_trial, trial_norm
            damping = opts.min_damping

        update_norm = _norm(best_x - x)
        x, fx, res_norm = best_x, best_fx, best_norm
        history.append(res_norm)

        _LOG.debug(
            "newton iter=%d residual=%.3e update=%.3e damping=%.3g",
            iteration,
            res_norm,
            update_norm,
            damping,
        )

        # The update test reads ||x|| only once the residual test passes.
        if res_norm <= opts.abstol and update_norm <= opts.reltol * _norm(x) + opts.abstol:
            return NewtonResult(
                x=x,
                converged=True,
                iterations=iteration,
                residual_norm=res_norm,
                update_norm=update_norm,
                residual_history=history,
            )

    if raise_on_failure:
        raise ConvergenceError(
            f"Newton-Raphson did not converge in {opts.max_iterations} iterations "
            f"(residual norm {res_norm:.3e})",
            iterations=opts.max_iterations,
            residual_norm=res_norm,
        )
    return NewtonResult(
        x=x,
        converged=False,
        iterations=opts.max_iterations,
        residual_norm=res_norm,
        update_norm=update_norm,
        residual_history=history,
    )
