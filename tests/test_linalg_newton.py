"""Unit tests for the damped Newton solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg import newton_solve, solve_linear_system
from repro.utils import ConvergenceError, NewtonOptions, SingularMatrixError


class TestSolveLinearSystem:
    def test_dense(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        x = solve_linear_system(a, np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_singular_dense_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear_system(np.zeros((2, 2)), np.ones(2))


class TestNewtonScalarProblems:
    def test_linear_problem_converges_quickly(self):
        result = newton_solve(
            lambda x: 3.0 * x - 6.0, lambda x: np.array([[3.0]]), np.array([0.0])
        )
        assert result.converged
        # One productive step plus (at most) one confirming step.
        assert result.iterations <= 2
        np.testing.assert_allclose(result.x, [2.0])

    def test_sqrt_two(self):
        result = newton_solve(
            lambda x: x**2 - 2.0,
            lambda x: np.array([[2.0 * x[0]]]),
            np.array([1.0]),
        )
        assert result.converged
        np.testing.assert_allclose(result.x, [np.sqrt(2.0)], rtol=1e-10)

    def test_quadratic_convergence_rate(self):
        """Residual history should shrink super-linearly near the root."""
        result = newton_solve(
            lambda x: x**3 - 8.0,
            lambda x: np.array([[3.0 * x[0] ** 2]]),
            np.array([3.0]),
            NewtonOptions(abstol=1e-14),
        )
        history = result.residual_history
        # After the first couple of steps the residual should collapse fast.
        assert history[-1] < 1e-12
        assert len(history) < 10

    def test_exponential_needs_damping(self):
        """exp(x) - 1e6 = 0 from x0=0 overflows without step limiting/damping."""
        result = newton_solve(
            lambda x: np.exp(x) - 1e6,
            lambda x: np.array([[np.exp(x[0])]]),
            np.array([0.0]),
            NewtonOptions(max_iterations=200, max_step_norm=5.0),
        )
        assert result.converged
        np.testing.assert_allclose(result.x, [np.log(1e6)], rtol=1e-8)

    def test_already_converged_initial_guess(self):
        result = newton_solve(
            lambda x: x - 1.0, lambda x: np.eye(1), np.array([1.0])
        )
        assert result.converged
        assert result.iterations == 0


class TestNewtonVectorProblems:
    def test_2d_nonlinear_system(self):
        def residual(v):
            x, y = v
            return np.array([x**2 + y**2 - 4.0, x - y])

        def jacobian(v):
            x, y = v
            return np.array([[2 * x, 2 * y], [1.0, -1.0]])

        result = newton_solve(residual, jacobian, np.array([1.0, 0.5]))
        assert result.converged
        np.testing.assert_allclose(result.x, [np.sqrt(2.0), np.sqrt(2.0)], rtol=1e-9)


class TestNewtonFailures:
    def test_exhausted_iterations_raise(self):
        with pytest.raises(ConvergenceError) as excinfo:
            newton_solve(
                lambda x: np.array([np.cos(x[0]) + 2.0]),  # no root exists
                lambda x: np.array([[-np.sin(x[0])]]),
                np.array([0.5]),
                NewtonOptions(max_iterations=10),
            )
        assert excinfo.value.iterations == 10

    def test_raise_on_failure_false_returns_best_iterate(self):
        result = newton_solve(
            lambda x: np.array([np.cos(x[0]) + 2.0]),
            lambda x: np.array([[-np.sin(x[0])]]),
            np.array([0.5]),
            NewtonOptions(max_iterations=5),
            raise_on_failure=False,
        )
        assert not result.converged
        assert result.iterations == 5
        assert np.isfinite(result.residual_norm)
