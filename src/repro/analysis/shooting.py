"""Periodic steady state by single shooting.

Shooting finds an initial state ``x0`` such that integrating the circuit over
one period ``T`` returns to the same state:

    H(x0) = Phi_T(x0) - x0 = 0

where ``Phi_T`` is the state-transition (one-period integration) map.  The
Newton iteration on ``H`` needs the *monodromy matrix* ``d Phi_T / d x0``,
which is accumulated step by step from the sensitivities of each implicit
integration step — the classical approach of Aprille & Trick (1972) that the
paper cites as the standard single-tone time-domain method.

Shooting across one period of the *difference* frequency, with steps fine
enough to resolve the carrier, is the "closest comparable traditional
time-domain approach" of the paper's Section 3 — the ≥300 000-step baseline
that the sheared multi-time method beats by two orders of magnitude.  The
:class:`ShootingStats` returned here feed exactly that comparison in
``benchmarks/bench_speedup_vs_shooting.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits.mna import MNASystem
from ..linalg.newton import solve_linear_system
from ..signals.waveform import Waveform
from ..utils.exceptions import AnalysisError, ConvergenceError
from ..utils.logging import get_logger
from ..utils.options import NewtonOptions, ShootingOptions
from .dc import dc_operating_point
from .integration import StepContext, make_integration_rule
from .sweep import StateSweep
from .transient import _newton_step

__all__ = ["ShootingStats", "ShootingResult", "shooting_periodic_steady_state"]

_LOG = get_logger("analysis.shooting")


@dataclass
class ShootingStats:
    """Cost accounting for a shooting run."""

    shooting_iterations: int = 0
    total_time_steps: int = 0
    newton_iterations: int = 0
    final_residual_norm: float = float("nan")


@dataclass
class ShootingResult:
    """Periodic steady state found by shooting.

    Attributes
    ----------
    times:
        Time points covering one period, shape ``(T+1,)`` (both endpoints).
    states:
        Solution along one period, shape ``(T+1, n)``.
    period:
        The period used.
    stats:
        Cost accounting (used by the speed-up benchmarks).
    """

    times: np.ndarray
    states: np.ndarray
    period: float
    mna: MNASystem
    stats: ShootingStats = field(default_factory=ShootingStats)

    def waveform(self, node: str) -> Waveform:
        """Node-voltage waveform over one period."""
        return Waveform(self.times, np.asarray(self.mna.voltage(self.states, node)), name=f"v({node})")

    def differential_waveform(self, node_pos: str, node_neg: str) -> Waveform:
        """Differential voltage waveform over one period."""
        values = np.asarray(self.mna.differential_voltage(self.states, node_pos, node_neg))
        return Waveform(self.times, values, name=f"v({node_pos},{node_neg})")

    def initial_state(self) -> np.ndarray:
        """The periodic initial state ``x0``."""
        return self.states[0].copy()


def _transition_map(
    mna: MNASystem,
    x0: np.ndarray,
    t0: float,
    period: float,
    n_steps: int,
    rule,
    newton_options: NewtonOptions,
    *,
    want_monodromy: bool,
    stats: ShootingStats,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Integrate one period and (optionally) accumulate the monodromy matrix.

    Returns ``(x_final, monodromy, times, states)``.
    """
    n = mna.n_unknowns
    h = period / n_steps
    x = np.asarray(x0, dtype=float).copy()

    # The step times, accumulated step by step, and the excitation at all of
    # them in one batched evaluation (the stimuli are elementwise in t, so
    # each row equals a one-time ``mna.source`` call).
    times = [t0]
    for _step in range(n_steps):
        times.append(times[-1] + h)
    times = np.asarray(times)
    excitation = mna.source(times)

    monodromy = np.eye(n) if want_monodromy else None
    states = [x.copy()]

    # The monodromy reads C and G at both ends of every step; one sweep per
    # state serves it, the step residuals and the charge history.
    sweeps = StateSweep(mna)
    evaluation = sweeps.at(x, jacobian=want_monodromy)
    context = StepContext(q_prev=evaluation.q[0], qdot_prev=-(evaluation.f[0] + excitation[0]))

    # The very first step always uses backward Euler.  For the trapezoidal
    # rule, the one-step map of a DAE depends on the *algebraic* part of the
    # previous state (through the stored dq/dt), which makes the full-vector
    # shooting Jacobian (monodromy - I) singular; a BE first step removes
    # that dependence, exactly as SPICE-family periodic-steady-state engines
    # do, while leaving the overall accuracy second order.
    first_rule = make_integration_rule("backward-euler")

    for step in range(n_steps):
        step_rule = first_rule if step == 0 else rule
        b_new = excitation[step + 1]
        alpha, r = step_rule.derivative_coefficients(h, context)
        x_new, iterations = _newton_step(sweeps, x, alpha, r, b_new, newton_options)
        stats.newton_iterations += iterations
        stats.total_time_steps += 1
        eval_old = evaluation
        evaluation = sweeps.at(x_new, jacobian=want_monodromy)

        if want_monodromy:
            # Sensitivity propagation.  For the implicit step
            #   alpha * q(x_{k+1}) + r(x_k) + f(x_{k+1}) + b_{k+1} = 0
            # the chain rule gives
            #   (alpha*C_{k+1} + G_{k+1}) dx_{k+1}/dx_k = -dr/dx_k.
            jac_new = alpha * evaluation.capacitance[0] + evaluation.conductance[0]
            if step_rule.name == "trapezoidal":
                # r = -2 q(x_k)/h - qdot_k with qdot_k = -(f(x_k) + b_k)
                dr_dxk = -(2.0 / h) * eval_old.capacitance[0] + eval_old.conductance[0]
            elif step_rule.name == "backward-euler":
                dr_dxk = -(1.0 / h) * eval_old.capacitance[0]
            else:
                raise AnalysisError(
                    f"monodromy propagation is not implemented for integration rule "
                    f"{step_rule.name!r}; use 'backward-euler' or 'trapezoidal'"
                )
            step_sensitivity = np.linalg.solve(jac_new, -dr_dxk)
            monodromy = step_sensitivity @ monodromy

        context = StepContext(
            q_prev=evaluation.q[0],
            qdot_prev=-(evaluation.f[0] + b_new),
            q_prev2=context.q_prev,
            h_prev=h,
        )
        x = x_new
        states.append(x.copy())

    return x, monodromy, times, np.asarray(states)


def shooting_periodic_steady_state(
    mna: MNASystem,
    period: float,
    *,
    t0: float = 0.0,
    x0: np.ndarray | None = None,
    options: ShootingOptions | None = None,
) -> ShootingResult:
    """Find the periodic steady state of a circuit driven with period ``period``.

    Parameters
    ----------
    mna:
        Compiled circuit equations (the excitation must be periodic with the
        given period).
    period:
        Steady-state period in seconds — for the closely-spaced-tone
        problems of the paper this is the *difference-frequency* period,
        which is what makes the method expensive.
    t0:
        Phase reference for the excitation.
    x0:
        Initial guess for the periodic initial state; defaults to the DC
        operating point.
    options:
        :class:`~repro.utils.options.ShootingOptions`.

    Raises
    ------
    ConvergenceError
        If the shooting Newton iteration does not converge.
    """
    opts = options or ShootingOptions()
    if period <= 0:
        raise AnalysisError("period must be positive")
    rule = make_integration_rule(opts.integration_method)
    stats = ShootingStats()

    x_guess = dc_operating_point(mna).x if x0 is None else np.asarray(x0, dtype=float).copy()

    for iteration in range(1, opts.max_shooting_iterations + 1):
        x_final, monodromy, times, states = _transition_map(
            mna,
            x_guess,
            t0,
            period,
            opts.steps_per_period,
            rule,
            opts.newton,
            want_monodromy=True,
            stats=stats,
        )
        stats.shooting_iterations = iteration
        residual = x_final - x_guess
        res_norm = float(np.max(np.abs(residual)))
        stats.final_residual_norm = res_norm
        x_scale = float(np.max(np.abs(x_guess))) if x_guess.size else 0.0
        _LOG.debug("shooting iter=%d residual=%.3e", iteration, res_norm)
        if res_norm <= opts.abstol + opts.reltol * max(1.0, x_scale):
            return ShootingResult(
                times=times, states=states, period=period, mna=mna, stats=stats
            )
        # Newton update on H(x0) = Phi(x0) - x0.
        jacobian = monodromy - np.eye(mna.n_unknowns)
        dx = solve_linear_system(jacobian, -residual)
        x_guess = x_guess + dx

    raise ConvergenceError(
        f"shooting did not converge in {opts.max_shooting_iterations} iterations "
        f"(residual {stats.final_residual_norm:.3e})",
        iterations=opts.max_shooting_iterations,
        residual_norm=stats.final_residual_norm,
    )
