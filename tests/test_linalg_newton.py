"""Unit tests for the damped Newton solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg import newton_solve, solve_linear_system
from repro.linalg.newton import line_search
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
        """exp(x) - 1e6 = 0 from x0=5: the full step of ~6.7e3 overflows exp."""
        with np.errstate(over="ignore"):
            result = newton_solve(
                lambda x: np.exp(x) - 1e6,
                lambda x: np.array([[np.exp(x[0])]]),
                np.array([5.0]),
            )
        assert result.converged
        np.testing.assert_allclose(result.x, [np.log(1e6)], rtol=1e-8)

    def test_overflow_at_every_damping_raises_convergence_error(self):
        """From x0 = 0 every trial down to min_damping overflows exp: divergence, not a singular solve."""
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError) as info:
            newton_solve(
                lambda x: np.exp(x) - 1e6,
                lambda x: np.array([[np.exp(x[0])]]),
                np.array([0.0]),
            )
        assert np.isfinite(info.value.residual_norm)
        assert info.value.residual_norm == 1e6 - 1.0

    def test_already_converged_initial_guess(self):
        result = newton_solve(
            lambda x: x - 1.0, lambda x: np.eye(1), np.array([1.0])
        )
        assert result.converged
        assert result.iterations == 0


class TestLineSearch:
    """The one backtracking line search shared by both Newton loops."""

    def test_full_step_is_accepted_at_damping_one(self):
        x_new, f_new, norm, damping, accepted, converged = line_search(
            lambda x: 3.0 * x - 6.0, np.array([0.0]), np.array([2.0]), 6.0, NewtonOptions()
        )
        assert (damping, accepted) == (1.0, True)
        # The residual is zero, but the update test still sees a step of 2.
        assert not converged
        np.testing.assert_array_equal(x_new, [2.0])
        np.testing.assert_array_equal(f_new, [0.0])
        assert norm == 0.0

    def test_overflowing_full_step_is_backtracked(self):
        """From x0 = 10 the first full step of exp(x) - 1e6 overflows."""
        with np.errstate(over="ignore"):
            result = newton_solve(
                lambda x: np.exp(x) - 1e6,
                lambda x: np.array([[np.exp(x[0])]]),
                np.array([10.0]),
            )
        assert result.converged
        assert result.iterations == 6
        np.testing.assert_allclose(result.x, [np.log(1e6)], rtol=1e-12)

    def test_no_decrease_takes_the_min_damping_step(self):
        """x^2 + 1 grows along dx = 1 from 0: every trial is rejected."""
        opts = NewtonOptions()
        x_new, _f, norm, damping, accepted, converged = line_search(
            lambda x: x**2 + 1.0, np.array([0.0]), np.array([1.0]), 1.0, opts
        )
        assert not accepted and not converged
        assert damping == opts.min_damping
        np.testing.assert_array_equal(x_new, [opts.min_damping])
        assert norm == opts.min_damping**2 + 1.0

    def test_nan_trial_is_never_accepted(self):
        """A NaN residual fails the decrease test, so the search backtracks."""

        def residual(x):
            return np.array([np.nan]) if x[0] > 1.5 else x - 1.0

        x_new, _f, norm, damping, accepted, _converged = line_search(
            residual, np.array([0.0]), np.array([2.0]), 1.0, NewtonOptions()
        )
        assert accepted and damping == 0.5
        np.testing.assert_array_equal(x_new, [1.0])
        assert norm == 0.0
        # With every trial NaN no step is taken: the current iterate comes
        # back with its own norm, no residual and damping 0.
        x_new, f_new, norm, damping, accepted, converged = line_search(
            lambda x: np.array([np.nan]), np.array([0.0]), np.array([2.0]), 1.0, NewtonOptions()
        )
        assert not accepted and not converged
        np.testing.assert_array_equal(x_new, [0.0])
        assert f_new is None and norm == 1.0 and damping == 0.0


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
