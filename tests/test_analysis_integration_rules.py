"""Unit tests for the implicit integration rules (coefficients and orders)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import BackwardEuler, StepContext, Trapezoidal
from repro.utils import AnalysisError


class TestRules:
    def test_orders(self):
        assert BackwardEuler().order == 1
        assert Trapezoidal().order == 2


class TestCoefficients:
    def test_backward_euler(self):
        context = StepContext(q_prev=np.array([2.0]), qdot_prev=np.array([0.0]))
        alpha, r = BackwardEuler().derivative_coefficients(0.1, context)
        assert alpha == pytest.approx(10.0)
        np.testing.assert_allclose(r, [-20.0])

    def test_trapezoidal(self):
        context = StepContext(q_prev=np.array([2.0]), qdot_prev=np.array([3.0]))
        alpha, r = Trapezoidal().derivative_coefficients(0.1, context)
        assert alpha == pytest.approx(20.0)
        np.testing.assert_allclose(r, [-2.0 * 2.0 / 0.1 - 3.0])

    def test_invalid_step_size(self):
        context = StepContext(q_prev=np.zeros(1), qdot_prev=np.zeros(1))
        for rule in (BackwardEuler(), Trapezoidal()):
            with pytest.raises(AnalysisError):
                rule.derivative_coefficients(0.0, context)


class TestScalarODEAccuracy:
    """Integrate dq/dt + x = 0 with q = x (i.e. x' = -x) and check the order."""

    @staticmethod
    def _integrate(rule, n_steps):
        h = 1.0 / n_steps
        x = 1.0
        q_prev = np.array([x])
        qdot_prev = np.array([-x])
        context = StepContext(q_prev=q_prev, qdot_prev=qdot_prev)
        for _ in range(n_steps):
            alpha, r = rule.derivative_coefficients(h, context)
            # Solve alpha*x_new + r + x_new = 0.
            x_new = -r[0] / (alpha + 1.0)
            context = StepContext(q_prev=np.array([x_new]), qdot_prev=np.array([-x_new]))
            x = x_new
        return x

    def test_backward_euler_first_order(self):
        exact = np.exp(-1.0)
        err_coarse = abs(self._integrate(BackwardEuler(), 50) - exact)
        err_fine = abs(self._integrate(BackwardEuler(), 100) - exact)
        assert err_fine / err_coarse == pytest.approx(0.5, rel=0.2)

    def test_trapezoidal_second_order(self):
        exact = np.exp(-1.0)
        err_coarse = abs(self._integrate(Trapezoidal(), 50) - exact)
        err_fine = abs(self._integrate(Trapezoidal(), 100) - exact)
        assert err_fine / err_coarse == pytest.approx(0.25, rel=0.25)

    def test_all_rules_are_stable_for_stiff_decay(self):
        """x' = -1000 x with a large step must not blow up (A/L stability)."""
        for rule in (BackwardEuler(), Trapezoidal()):
            h = 0.1
            x = 1.0
            context = StepContext(q_prev=np.array([x]), qdot_prev=np.array([-1000.0 * x]))
            for _ in range(20):
                alpha, r = rule.derivative_coefficients(h, context)
                x_new = -r[0] / (alpha + 1000.0)
                context = StepContext(
                    q_prev=np.array([x_new]), qdot_prev=np.array([-1000.0 * x_new])
                )
                x = x_new
            assert abs(x) < 1.0
