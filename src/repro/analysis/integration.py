"""Implicit integration rules for the charge-oriented DAE.

All time-stepping in the library (transient analysis and the inner loop of
shooting) discretises

    d/dt q(x(t)) + f(x(t)) + b(t) = 0

with a linear multistep rule that expresses the derivative of ``q`` at the
*new* time point as

    dq/dt |_{n+1}  ~=  alpha * q(x_{n+1}) + r_n

where ``alpha`` depends only on the step size and ``r_n`` collects known
history (previous charges and, for the trapezoidal rule, the previous
derivative obtained *exactly* from the DAE itself as
``dq/dt|_n = -(f(x_n) + b(t_n))``).  The implicit step then solves

    alpha * q(x_{n+1}) + r_n + f(x_{n+1}) + b(t_{n+1}) = 0

with Newton, whose Jacobian is ``alpha * C(x) + G(x)``.

Two rules are provided, both used by the trapezoidal time stepping of
transient analysis and shooting:

* **Backward Euler** — first order, L-stable, strongly damping.  Shooting
  takes its first step with it (see :mod:`repro.analysis.shooting`).
* **Trapezoidal** — second order, A-stable, no numerical damping (but prone
  to ringing on discontinuities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import AnalysisError

__all__ = [
    "StepContext",
    "IntegrationRule",
    "BackwardEuler",
    "Trapezoidal",
]


@dataclass
class StepContext:
    """History carried from one accepted time step to the next.

    Attributes
    ----------
    q_prev:
        ``q(x_n)`` at the previous accepted point.
    qdot_prev:
        ``dq/dt`` at the previous accepted point (from the DAE identity).
    """

    q_prev: np.ndarray
    qdot_prev: np.ndarray


class IntegrationRule:
    """Base class for implicit linear-multistep rules (see module docstring)."""

    name = "abstract"
    order = 0

    def derivative_coefficients(self, h: float, context: StepContext) -> tuple[float, np.ndarray]:
        """Return ``(alpha, r)`` such that ``dq/dt|_{n+1} ~= alpha * q_{n+1} + r``."""
        raise NotImplementedError


class BackwardEuler(IntegrationRule):
    """First-order backward (implicit) Euler: ``dq/dt ~ (q_{n+1} - q_n) / h``."""

    name = "backward-euler"
    order = 1

    def derivative_coefficients(self, h: float, context: StepContext) -> tuple[float, np.ndarray]:
        if h <= 0:
            raise AnalysisError(f"step size must be positive, got {h}")
        return 1.0 / h, -context.q_prev / h


class Trapezoidal(IntegrationRule):
    """Second-order trapezoidal rule.

    ``(q_{n+1} - q_n) / h = (dq/dt|_{n+1} + dq/dt|_n) / 2`` rearranged to
    ``dq/dt|_{n+1} = 2 (q_{n+1} - q_n) / h - dq/dt|_n``.
    """

    name = "trapezoidal"
    order = 2

    def derivative_coefficients(self, h: float, context: StepContext) -> tuple[float, np.ndarray]:
        if h <= 0:
            raise AnalysisError(f"step size must be positive, got {h}")
        alpha = 2.0 / h
        r = -2.0 * context.q_prev / h - context.qdot_prev
        return alpha, r

