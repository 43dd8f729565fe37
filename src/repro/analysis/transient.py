"""SPICE-style transient (time-stepping) analysis.

This is the "traditional time-stepping simulation" the paper compares
against: it integrates the circuit DAE step by step and therefore has to
resolve *every* carrier cycle, even when the interesting behaviour lives at a
difference frequency thousands of times slower.  It is also the workhorse
behind the shooting method's state-transition map.

Fixed-step and adaptive (local-truncation-error controlled) stepping are
provided, with backward Euler, trapezoidal or Gear-2 integration.

Every implicit step is one full-Newton solve
(:func:`~repro.linalg.newton.newton_solve`) on the dense step Jacobian
``alpha*C + G``.  Every state is swept once
(:class:`~repro.analysis.sweep.StateSweep`), so an iteration costs one device
sweep with Jacobians plus a dense solve.  Reusing one LU factorisation across
iterations and steps (chord Newton) was measured slower at this library's
circuit sizes, because chord needs more of its linearly converging
iterations: on a 2-CPU host, 1.4x on the switching mixer at disparity 5 and
up to 1.8x on the 15-unknown ``multi_lo_receiver`` cross-validation
transient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuits.mna import MNASystem
from ..linalg.newton import newton_solve
from ..signals.waveform import Waveform
from ..utils.exceptions import AnalysisError, ConvergenceError
from ..utils.logging import get_logger
from ..utils.options import NewtonOptions, TransientOptions
from .dc import dc_operating_point
from .integration import StepContext, make_integration_rule
from .sweep import StateSweep

__all__ = [
    "TransientResult",
    "TransientStepStats",
    "run_transient",
    "solve_implicit_step",
]

_LOG = get_logger("analysis.transient")


@dataclass
class TransientStepStats:
    """Cost accounting for a transient run (used by the speed-up benchmarks)."""

    accepted_steps: int = 0
    rejected_steps: int = 0
    newton_iterations: int = 0
    linear_solves: int = 0


@dataclass
class TransientResult:
    """Result of a transient analysis.

    Attributes
    ----------
    times:
        Accepted time points, shape ``(T,)``.
    states:
        Solution vectors at those times, shape ``(T, n)``.
    stats:
        Cost accounting (steps, Newton iterations).
    """

    times: np.ndarray
    states: np.ndarray
    mna: MNASystem
    stats: TransientStepStats = field(default_factory=TransientStepStats)

    def waveform(self, node: str) -> Waveform:
        """Node-voltage waveform at ``node``."""
        return Waveform(self.times, np.asarray(self.mna.voltage(self.states, node)), name=f"v({node})")

    def differential_waveform(self, node_pos: str, node_neg: str) -> Waveform:
        """Differential voltage waveform ``v(node_pos) - v(node_neg)``."""
        values = np.asarray(self.mna.differential_voltage(self.states, node_pos, node_neg))
        return Waveform(self.times, values, name=f"v({node_pos},{node_neg})")

    def final_state(self) -> np.ndarray:
        """Solution vector at the last accepted time point."""
        return self.states[-1].copy()


def solve_implicit_step(
    mna: MNASystem,
    x_guess: np.ndarray,
    t_new: float,
    h: float,
    context: StepContext,
    rule,
    newton_options: NewtonOptions,
    *,
    b_new: np.ndarray | None = None,
    sweeps: StateSweep | None = None,
) -> tuple[np.ndarray, int]:
    """Solve one implicit time step; returns the new state and Newton iterations.

    ``b_new`` lets callers that already evaluated the excitation at ``t_new``
    pass it in instead of evaluating it again.  ``sweeps`` is the caller's
    :class:`~repro.analysis.sweep.StateSweep`: sharing it across steps makes
    the first residual of a step (at the previous step's state) and the
    caller's reads at the accepted state free.
    """
    alpha, r = rule.derivative_coefficients(h, context)
    if b_new is None:
        b_new = mna.source(t_new)
    if sweeps is None:
        sweeps = StateSweep(mna)
    return _newton_step(sweeps, x_guess, alpha, r, b_new, newton_options)


def _newton_step(
    sweeps: StateSweep,
    x_guess: np.ndarray,
    alpha: float,
    r: np.ndarray,
    b_new: np.ndarray,
    newton_options: NewtonOptions,
) -> tuple[np.ndarray, int]:
    """Full Newton on ``alpha*q(x) + r + f(x) + b_new = 0`` (one implicit step)."""

    def residual(x: np.ndarray) -> np.ndarray:
        # Newton asks for the Jacobian at the iterate whose residual it just
        # computed, so this sweep fetches C and G along with q and f.
        evaluation = sweeps.at(x, jacobian=True)
        return alpha * evaluation.q[0] + r + evaluation.f[0] + b_new

    def jacobian(x: np.ndarray) -> np.ndarray:
        evaluation = sweeps.at(x, jacobian=True)
        return alpha * evaluation.capacitance[0] + evaluation.conductance[0]

    result = newton_solve(residual, jacobian, x_guess, newton_options)
    return result.x, result.iterations


def _initial_state(mna: MNASystem, x0: np.ndarray | None, use_dc: bool, t_start: float) -> np.ndarray:
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (mna.n_unknowns,):
            raise AnalysisError(
                f"initial state has shape {x0.shape}, expected ({mna.n_unknowns},)"
            )
        return x0.copy()
    if use_dc:
        return dc_operating_point(mna, time=t_start).x
    return mna.zero_state()


def run_transient(
    mna: MNASystem,
    t_stop: float,
    dt: float,
    *,
    t_start: float = 0.0,
    x0: np.ndarray | None = None,
    use_dc_initial: bool = True,
    options: TransientOptions | None = None,
) -> TransientResult:
    """Integrate the circuit DAE from ``t_start`` to ``t_stop``.

    Parameters
    ----------
    mna:
        Compiled circuit equations.
    t_stop:
        Final time in seconds.
    dt:
        Nominal (fixed mode) or initial (adaptive mode) step size.
    t_start:
        Starting time.
    x0:
        Initial state; when omitted the DC operating point at ``t_start`` is
        used (or zeros if ``use_dc_initial=False``).
    use_dc_initial:
        Whether to compute a DC operating point for the initial condition.
    options:
        :class:`~repro.utils.options.TransientOptions`.

    Notes
    -----
    Adaptive stepping estimates the local truncation error by comparing the
    implicit (corrector) solution with a linear extrapolation of the two
    previous accepted states and scales the step to keep the estimate below
    ``ltetol`` (with the usual safety factor and growth limits).  This is
    deliberately simple — the goal of the
    transient engine in this reproduction is to be a *correct and
    representative* baseline for the MPDE speed-up comparison, not a
    state-of-the-art variable-order integrator.
    """
    opts = options or TransientOptions()
    if t_stop <= t_start:
        raise AnalysisError("t_stop must be greater than t_start")
    if dt <= 0:
        raise AnalysisError("dt must be positive")

    rule = make_integration_rule(opts.method)
    stats = TransientStepStats()

    x = _initial_state(mna, x0, use_dc_initial, t_start)
    t = t_start
    h = min(dt, t_stop - t_start)

    times = [t]
    states = [x.copy()]

    sweeps = StateSweep(mna)
    # Newton's first step needs C and G at x as well: fetch them now.
    evaluation = sweeps.at(x, jacobian=True)
    context = StepContext(q_prev=evaluation.q[0], qdot_prev=-(evaluation.f[0] + mna.source(t)))
    # Only the *differential* unknowns (those appearing in q, i.e. with a
    # capacitance column in the compiled stamp pattern) are LTE-controlled —
    # algebraic unknowns follow the sources discontinuously and would
    # otherwise force the step to zero at every source corner.
    dynamic = mna.dynamic_unknowns_mask()

    # History for the local-truncation-error predictor (adaptive mode):
    # linear extrapolation from the previous two accepted points.
    x_prev_accepted: np.ndarray | None = None
    h_prev_accepted: float | None = None

    store_counter = 0
    while t < t_stop - 1e-15 * max(1.0, abs(t_stop)):
        h = min(h, t_stop - t)
        if h < opts.min_step:
            raise AnalysisError(
                f"transient step size underflow at t={t:.3e}s (h={h:.3e}s < min_step)"
            )
        t_new = t + h
        rejections = 0
        while True:
            b_new = mna.source(t_new)
            try:
                x_new, iters = solve_implicit_step(
                    mna, x, t_new, h, context, rule, opts.newton,
                    b_new=b_new, sweeps=sweeps,
                )
                stats.newton_iterations += iters
                stats.linear_solves += iters
            except ConvergenceError:
                rejections += 1
                stats.rejected_steps += 1
                if rejections > opts.max_rejections:
                    raise AnalysisError(
                        f"transient analysis failed at t={t:.3e}s: Newton did not converge "
                        f"after {opts.max_rejections} step-size reductions"
                    )
                h *= 0.25
                if h < opts.min_step:
                    raise AnalysisError(
                        f"transient step size underflow at t={t:.3e}s while recovering from "
                        "a Newton failure"
                    )
                t_new = t + h
                continue

            if not opts.adaptive:
                break

            if x_prev_accepted is None or h_prev_accepted is None:
                # No history yet: accept the first step and start controlling
                # from the second one.
                h_after = h
                break

            # LTE estimate: compare the corrector with a linear (two-point)
            # extrapolation from the previous accepted states, over the
            # differential unknowns only.
            if not np.any(dynamic):
                h_after = h
                break
            predictor = x + (h / h_prev_accepted) * (x - x_prev_accepted)
            error = float(np.max(np.abs((x_new - predictor)[dynamic])))
            scale = opts.ltetol * max(1.0, float(np.max(np.abs(x_new[dynamic]))))
            if error <= scale or h <= opts.min_step * 4:
                # Accept and propose the next step size.
                if error > 0:
                    factor = 0.9 * (scale / error) ** 0.5
                    h_next = h * min(4.0, max(0.25, factor))
                else:
                    h_next = h * 2.0
                h_after = min(opts.max_step, h_next)
                break
            rejections += 1
            stats.rejected_steps += 1
            if rejections > opts.max_rejections:
                raise AnalysisError(
                    f"transient analysis failed at t={t:.3e}s: local truncation error "
                    "could not be controlled"
                )
            h *= 0.5
            t_new = t + h

        # Accept the step.
        stats.accepted_steps += 1
        evaluation = sweeps.at(x_new)
        context = StepContext(
            q_prev=evaluation.q[0],
            qdot_prev=-(evaluation.f[0] + b_new),
            q_prev2=context.q_prev,
            h_prev=h,
        )
        x_prev_accepted = x
        h_prev_accepted = h
        x = x_new
        t = t_new
        store_counter += 1
        if store_counter % opts.store_every == 0 or t >= t_stop - 1e-15:
            times.append(t)
            states.append(x.copy())
        if opts.adaptive:
            h = h_after
        else:
            h = dt

    return TransientResult(
        times=np.asarray(times), states=np.asarray(states), mna=mna, stats=stats
    )
