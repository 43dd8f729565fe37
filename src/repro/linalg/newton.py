"""Damped Newton-Raphson: the shared line search and the dense solver.

:func:`line_search` is the one backtracking line search of the library.
Both Newton loops call it: :func:`newton_solve` here, and the discretised
MPDE's loop in :class:`~repro.core.solver.MPDESolver` (MPDE, collocation
PSS, harmonic balance).  It also applies the post-step update test of the
SPICE-style combined absolute/relative convergence check.

:func:`newton_solve` drives every dense nonlinear solve of the time-domain
and DC layer: DC operating points (plain Newton and the gmin/source-stepping
continuation stages), each implicit step of transient analysis, and so the
inner steps of shooting, whose own update solves its dense monodromy system
with :func:`solve_linear_system`.  Its residual and Jacobian are supplied as
callables; the Jacobian is a dense :class:`numpy.ndarray`.
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

__all__ = ["NewtonResult", "line_search", "newton_solve", "solve_linear_system"]

_LOG = get_logger("linalg.newton")

#: Relative tolerance of the post-step update test
#: ``||dx||_inf <= RELTOL * ||x||_inf + abstol``.
RELTOL = 1e-6


@dataclass
class NewtonResult:
    """Outcome of a Newton-Raphson solve.

    Attributes
    ----------
    x:
        The converged iterate (or the last iterate when ``converged`` is
        False and the caller asked not to raise).
    converged:
        Whether both the residual and the update criteria were met.
    iterations:
        Number of Newton iterations performed.
    residual_norm:
        Infinity norm of the residual at the final iterate.
    residual_history:
        Residual norms per iteration (useful to verify quadratic convergence
        in tests and to diagnose stagnation).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
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


def line_search(
    residual: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    dx: np.ndarray,
    res_norm: float,
    options: NewtonOptions,
) -> tuple[np.ndarray, np.ndarray, float, float, bool, bool]:
    """Take one damped Newton step ``x + damping * dx``.

    Starting at ``options.damping``, the damping is halved while it is at
    least ``options.min_damping``; the first trial whose residual norm is
    finite and below ``res_norm * (1 + 1e-12)`` is taken.  When no trial
    passes, the ``min_damping`` step is taken anyway: Newton sometimes has
    to pass through a residual increase (e.g. crossing a device corner).
    Only when that step's residual is not finite is no step taken: the
    current ``x`` comes back with ``residual_new = None``, ``res_norm`` and
    damping 0, and the caller reports divergence from it.

    Returns ``(x_new, residual_new, norm_new, damping, accepted, converged)``.
    ``accepted`` says whether a trial passed the decrease test; ``converged``
    whether the new iterate passes both ``||F||_inf <= abstol`` and the
    update test ``||x_new - x||_inf <= RELTOL * ||x_new||_inf + abstol``
    (``||x_new||`` is read only once the residual test passes).
    """
    damping = options.damping
    while damping >= options.min_damping:
        x_trial = x + damping * dx
        f_trial = np.asarray(residual(x_trial), dtype=float)
        trial_norm = _norm(f_trial)
        if math.isfinite(trial_norm) and trial_norm < res_norm * (1.0 + 1e-12):
            accepted = True
            break
        damping *= 0.5
    else:
        damping = options.min_damping
        x_trial = x + damping * dx
        f_trial = np.asarray(residual(x_trial), dtype=float)
        trial_norm = _norm(f_trial)
        if not math.isfinite(trial_norm):
            return x, None, res_norm, 0.0, False, False
        accepted = False
    converged = (
        trial_norm <= options.abstol
        and _norm(x_trial - x) <= RELTOL * _norm(x_trial) + options.abstol
    )
    return x_trial, f_trial, trial_norm, damping, accepted, converged


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
        iteration budget is exhausted or a step overflows at every damping;
        when False the last (finite) iterate is returned with
        ``converged=False`` so continuation drivers can react.

    Notes
    -----
    Convergence requires *both*

    * ``||F(x)||_inf <= abstol`` and
    * ``||dx||_inf <= RELTOL * ||x||_inf + abstol``

    which mirrors the combined check used by SPICE-family simulators.  Each
    step is taken by :func:`line_search`, whose backtracking on the
    residual norm is what makes exponential device models (diodes,
    subthreshold MOSFETs) tractable from poor initial guesses.
    """
    opts = options or NewtonOptions()
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        x = x.ravel()

    fx = np.asarray(residual(x), dtype=float)
    res_norm = _norm(fx)
    history = [res_norm]

    if res_norm <= opts.abstol:
        return NewtonResult(
            x=x, converged=True, iterations=0, residual_norm=res_norm, residual_history=history
        )

    iterations = opts.max_iterations
    failure = "did not converge"
    for iteration in range(1, opts.max_iterations + 1):
        jac = jacobian(x)
        fault_site("newton.linear_solve", iteration=iteration - 1)
        dx = solve_linear_system(jac, -fx)
        x, f_new, res_norm, damping, _accepted, converged = line_search(
            residual, x, dx, res_norm, opts
        )
        if f_new is None:
            iterations = iteration
            failure = "overflowed at every damping"
            break
        fx = f_new
        history.append(res_norm)
        _LOG.debug("newton iter=%d residual=%.3e damping=%.3g", iteration, res_norm, damping)
        if converged:
            return NewtonResult(
                x=x,
                converged=True,
                iterations=iteration,
                residual_norm=res_norm,
                residual_history=history,
            )

    if raise_on_failure:
        raise ConvergenceError(
            f"Newton-Raphson {failure} in {iterations} iterations "
            f"(residual norm {res_norm:.3e})",
            iterations=iterations,
            residual_norm=res_norm,
        )
    return NewtonResult(
        x=x,
        converged=False,
        iterations=iterations,
        residual_norm=res_norm,
        residual_history=history,
    )
