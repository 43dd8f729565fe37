"""SPICE-style transient (time-stepping) analysis.

This is the "traditional time-stepping simulation" the paper compares
against: it integrates the circuit DAE step by step and therefore has to
resolve *every* carrier cycle, even when the interesting behaviour lives at a
difference frequency thousands of times slower.  It is also the workhorse
behind the shooting method's state-transition map.

Steps are fixed-size trapezoidal, as in the paper's baseline.  A step whose
Newton solve fails is retried at a quarter of its size; the next step goes
back to ``dt``.  The step times are known ahead, so the excitation is
evaluated once over all of them (once more after each cut).

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
from ..utils.options import NewtonOptions
from .dc import dc_operating_point
from .integration import StepContext, Trapezoidal
from .sweep import StateSweep

__all__ = [
    "TransientResult",
    "TransientStepStats",
    "run_transient",
    "solve_implicit_step",
]

_LOG = get_logger("analysis.transient")

#: Smallest step a Newton-failure cut may reach before the run fails.
MIN_STEP = 1e-15
#: Newton-failure cuts allowed at one time point before the run fails.
MAX_REJECTIONS = 20


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


def _step_plan(t: float, h: float, dt: float, t_stop: float) -> tuple[list[float], np.ndarray]:
    """Step sizes and times from ``t`` to ``t_stop``: first ``h``, then ``dt``.

    The last step is cut to end at ``t_stop``; ``times[0]`` is ``t``.
    """
    end = t_stop - 1e-15 * max(1.0, abs(t_stop))
    steps = []
    times = [t]
    while t < end:
        h = min(h, t_stop - t)
        t = t + h
        steps.append(h)
        times.append(t)
        h = dt
    return steps, np.asarray(times)


def run_transient(
    mna: MNASystem,
    t_stop: float,
    dt: float,
    *,
    t_start: float = 0.0,
    x0: np.ndarray | None = None,
    use_dc_initial: bool = True,
) -> TransientResult:
    """Integrate the circuit DAE from ``t_start`` to ``t_stop``.

    Parameters
    ----------
    mna:
        Compiled circuit equations.
    t_stop:
        Final time in seconds.
    dt:
        Step size; the last step is shortened to end at ``t_stop``.
    t_start:
        Starting time.
    x0:
        Initial state; when omitted the DC operating point at ``t_start`` is
        used (or zeros if ``use_dc_initial=False``).
    use_dc_initial:
        Whether to compute a DC operating point for the initial condition.

    Notes
    -----
    Every step is trapezoidal and solved by full Newton under the default
    :class:`~repro.utils.options.NewtonOptions`.  A step whose Newton solve
    raises :class:`ConvergenceError` is cut to a quarter, at most
    :data:`MAX_REJECTIONS` times and not below :data:`MIN_STEP`.  The goal of
    the transient engine in this reproduction is to be a *correct and
    representative* baseline for the MPDE speed-up comparison, not a
    state-of-the-art variable-step integrator.
    """
    if t_stop <= t_start:
        raise AnalysisError("t_stop must be greater than t_start")
    if dt <= 0:
        raise AnalysisError("dt must be positive")
    if dt < MIN_STEP:
        raise AnalysisError(f"transient step size underflow (dt={dt:.3e}s < MIN_STEP)")

    rule = Trapezoidal()
    newton_options = NewtonOptions()
    stats = TransientStepStats()

    x = _initial_state(mna, x0, use_dc_initial, t_start)
    steps, times = _step_plan(t_start, dt, dt, t_stop)
    excitation = mna.source(times)

    out_times = [t_start]
    states = [x.copy()]

    sweeps = StateSweep(mna)
    # Newton's first step needs C and G at x as well: fetch them now.
    evaluation = sweeps.at(x, jacobian=True)
    context = StepContext(q_prev=evaluation.q[0], qdot_prev=-(evaluation.f[0] + excitation[0]))

    k = 0
    rejections = 0
    while k < len(steps):
        h = steps[k]
        try:
            x_new, iters = solve_implicit_step(
                mna, x, times[k + 1], h, context, rule, newton_options,
                b_new=excitation[k + 1], sweeps=sweeps,
            )
        except ConvergenceError:
            rejections += 1
            stats.rejected_steps += 1
            if rejections > MAX_REJECTIONS:
                raise AnalysisError(
                    f"transient analysis failed at t={times[k]:.3e}s: Newton did not converge "
                    f"after {MAX_REJECTIONS} step-size reductions"
                )
            h *= 0.25
            if h < MIN_STEP:
                raise AnalysisError(
                    f"transient step size underflow at t={times[k]:.3e}s while recovering "
                    "from a Newton failure"
                )
            steps, times = _step_plan(times[k], h, dt, t_stop)
            excitation = mna.source(times)
            k = 0
            continue
        stats.newton_iterations += iters
        stats.linear_solves += iters
        stats.accepted_steps += 1
        rejections = 0
        k += 1
        evaluation = sweeps.at(x_new)
        context = StepContext(q_prev=evaluation.q[0], qdot_prev=-(evaluation.f[0] + excitation[k]))
        x = x_new
        out_times.append(times[k])
        states.append(x.copy())

    return TransientResult(
        times=np.asarray(out_times), states=np.asarray(states), mna=mna, stats=stats
    )
