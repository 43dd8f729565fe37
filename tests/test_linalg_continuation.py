"""Unit tests for the continuation (homotopy) driver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.linalg import continuation, continuation_solve, continuation_sweep
from repro.resilience import Deadline
from repro.utils import ConvergenceError, DeadlineExceededError, NewtonOptions


def _schedule(monkeypatch, **constants):
    """Override the sweep's schedule constants (``MAX_STEPS=5``, ...)."""
    for name, value in constants.items():
        monkeypatch.setattr(continuation, name, value)


def _embedded_exponential(v, lam):
    """F(x; lam) = x + lam * (exp(4 x) - 10).

    At lam = 0 the solution is x = 0; at lam = 1 it is the root of
    x + exp(4x) = 10 (~0.57), hard for plain Newton from 0 with a full step.
    """
    x = v[0]
    return np.array([x + lam * (np.exp(4.0 * x) - 10.0)])


def _embedded_exponential_jac(v, lam):
    x = v[0]
    return np.array([[1.0 + lam * 4.0 * np.exp(4.0 * x)]])


class TestContinuationSolve:
    def test_reaches_target_problem(self):
        result = continuation_solve(
            _embedded_exponential,
            _embedded_exponential_jac,
            np.array([0.0]),
        )
        # Verify the returned point solves the lam=1 problem.
        res = _embedded_exponential(result.x, 1.0)
        assert abs(res[0]) < 1e-7
        assert result.lambdas[-1] == pytest.approx(1.0)
        assert result.steps >= 1

    def test_lambda_path_is_monotone(self):
        result = continuation_solve(
            _embedded_exponential, _embedded_exponential_jac, np.array([0.0])
        )
        lams = np.asarray(result.lambdas)
        assert np.all(np.diff(lams) > 0)

    def test_linear_problem_takes_few_steps(self):
        result = continuation_solve(
            lambda v, lam: np.array([v[0] - lam * 3.0]),
            lambda v, lam: np.eye(1),
            np.array([0.0]),
        )
        np.testing.assert_allclose(result.x, [3.0], rtol=1e-9)

    def test_counts_newton_iterations(self):
        result = continuation_solve(
            _embedded_exponential, _embedded_exponential_jac, np.array([0.0])
        )
        assert result.newton_iterations > 0

    def test_unreachable_problem_raises(self, monkeypatch):
        """x^2 + lam = 0 has no real solution for lam > 0: continuation must fail."""
        _schedule(monkeypatch, MAX_STEPS=30)
        with pytest.raises(ConvergenceError):
            continuation_solve(
                lambda v, lam: np.array([v[0] ** 2 + lam]),
                lambda v, lam: np.array([[2.0 * v[0] + 1e-6]]),
                np.array([0.0]),
                NewtonOptions(max_iterations=15),
            )

    def test_initial_problem_failure_raises(self):
        """If even the lambda_start problem cannot be solved, raise immediately."""
        with pytest.raises(ConvergenceError, match="initial problem"):
            continuation_solve(
                lambda v, lam: np.array([v[0] ** 2 + 1.0]),  # no root at lam=0 either
                lambda v, lam: np.array([[2.0 * v[0] + 1e-6]]),
                np.array([0.0]),
                NewtonOptions(max_iterations=10),
            )

    def test_default_schedule_is_valid(self):
        assert 0.0 < continuation.MIN_STEP <= continuation.INITIAL_STEP
        assert continuation.INITIAL_STEP <= continuation.MAX_STEP < 1.0
        assert continuation.STEP_SHRINK < 1.0 < continuation.STEP_GROWTH
        assert continuation.MAX_STEPS > 0

    def test_respects_max_steps(self, monkeypatch):
        _schedule(monkeypatch, INITIAL_STEP=1e-4, MAX_STEP=1e-4, MAX_STEPS=5)
        with pytest.raises(ConvergenceError):
            continuation_solve(
                _embedded_exponential, _embedded_exponential_jac, np.array([0.0])
            )

    def test_step_halving_floor_raises_underflow(self, monkeypatch):
        """Every step beyond lambda_start fails: the step size must shrink
        to the ``MIN_STEP`` floor and raise, not loop forever."""
        _schedule(monkeypatch, MIN_STEP=1e-3)
        with pytest.raises(ConvergenceError, match="underflow"):
            continuation_solve(
                # Root only at lam = 0 (x = 0); no real root for any lam > 0.
                lambda v, lam: np.array([v[0] ** 2 + lam]),
                lambda v, lam: np.array([[2.0 * v[0] + 1e-6]]),
                np.array([0.0]),
                NewtonOptions(max_iterations=15),
            )


@dataclass
class _Step:
    """Minimal SweepStep implementation for driving the sweep directly."""

    x: np.ndarray
    converged: bool
    iterations: int = 1
    residual_norm: float = 0.0


class TestContinuationSweep:
    """Edge cases of the shared sweep driver itself."""

    def test_non_monotone_embedding_recovers_mid_sweep(self, monkeypatch):
        """Difficulty spiking in the *middle* of the sweep (not at the end)
        must shrink the step through the hard region and regrow after it."""
        calls: list[float] = []

        def solve_at(lam, x_guess):
            calls.append(lam)
            previous = x_guess[0]
            # The hard band [0.4, 0.6] only admits tiny steps: any step
            # landing in or crossing it fails unless it is small.  (x tracks
            # lambda, so the warm start is the previous accepted lambda.)
            touches_hard_band = previous < 0.6 and lam > 0.4
            if touches_hard_band and lam - previous > 0.05:
                return _Step(x=x_guess, converged=False)
            return _Step(x=np.array([lam]), converged=True)

        _schedule(monkeypatch, INITIAL_STEP=0.25, MIN_STEP=1e-6)
        result = continuation_sweep(solve_at, np.array([0.0]))
        assert result.lambdas[-1] == pytest.approx(1.0)
        lams = np.asarray(result.lambdas)
        assert np.all(np.diff(lams) > 0)  # lambda itself stays monotone
        assert result.rejected_steps >= 1  # the hard band forced shrinks
        steps = np.diff(lams)
        hard = steps[(lams[1:] > 0.4) & (lams[1:] <= 0.6)]
        easy_after = steps[lams[1:] > 0.7]
        assert hard.size and easy_after.size
        # Steps through the hard band are small; the sweep regrows afterwards.
        assert hard.max() <= 0.05 + 1e-12
        assert easy_after.max() > hard.max()

    def test_failure_at_lambda_start_is_immediate(self):
        attempts = []

        def solve_at(lam, x_guess):
            attempts.append(lam)
            return _Step(x=x_guess, converged=False, residual_norm=1.0)

        with pytest.raises(ConvergenceError, match="initial problem"):
            continuation_sweep(solve_at, np.array([0.0]))
        assert attempts == [0.0]  # no embedding steps were attempted

    def test_deadline_checked_between_steps(self, monkeypatch):
        now = [0.0]

        def solve_at(lam, x_guess):
            now[0] += 1.0  # each embedded solve costs one fake second
            return _Step(x=np.array([lam]), converged=True)

        deadline = Deadline(1.5, clock=lambda: now[0])
        _schedule(monkeypatch, INITIAL_STEP=0.05, MAX_STEP=0.05)
        with pytest.raises(DeadlineExceededError) as info:
            continuation_sweep(solve_at, np.array([0.0]), deadline=deadline)
        assert info.value.stage == "continuation"
