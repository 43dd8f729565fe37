"""Unit tests for the GMRES helper."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.linalg import gmres_solve
from repro.utils import SingularMatrixError


def _laplacian(n: int) -> sp.csr_matrix:
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], offsets=[-1, 0, 1]).tocsr()


class TestGMRES:
    def test_solves_spd_system(self):
        a = _laplacian(50)
        rng = np.random.default_rng(1)
        x_true = rng.normal(size=50)
        b = a @ x_true
        x, report = gmres_solve(a, b, tol=1e-12)
        np.testing.assert_allclose(x, x_true, rtol=1e-6, atol=1e-8)
        assert report.converged
        assert report.iterations > 0

    def test_preconditioner_reduces_iterations(self):
        a = _laplacian(50)
        b = np.ones(50)
        _, plain = gmres_solve(a, b, preconditioner=None, tol=1e-10)
        # An exact LU as a plain LinearOperator: GMRES converges at once.
        lu = spla.splu(a.tocsc())
        exact = spla.LinearOperator(a.shape, matvec=lu.solve, dtype=float)
        _, preconditioned = gmres_solve(a, b, preconditioner=exact, tol=1e-10)
        assert preconditioned.iterations < plain.iterations

    def test_non_convergence_raises(self):
        # A badly conditioned system with a tiny iteration budget.
        a = _laplacian(300)
        b = np.ones(300)
        with pytest.raises(SingularMatrixError):
            gmres_solve(a, b, preconditioner=None, tol=1e-14, restart=2, maxiter=1)

    def test_non_convergence_can_be_tolerated(self):
        a = _laplacian(300)
        b = np.ones(300)
        x, report = gmres_solve(
            a, b, preconditioner=None, tol=1e-14, restart=2, maxiter=1, raise_on_failure=False
        )
        assert not report.converged
        assert x.shape == (300,)
        # The non-convergence must be fully reported: a true residual norm
        # (computed explicitly on failure) and the per-iteration trace.
        assert np.isfinite(report.residual_norm)
        residual = np.linalg.norm(b - a @ x)
        np.testing.assert_allclose(report.residual_norm, residual, rtol=1e-12)
        assert len(report.residual_history) == report.iterations > 0
        assert report.restart_cycles >= 1

    def test_zero_rhs_converges_immediately(self):
        a = _laplacian(25)
        x, report = gmres_solve(a, np.zeros(25), tol=1e-12)
        assert report.converged
        assert report.iterations == 0
        assert report.restart_cycles == 0
        assert report.residual_history == []
        assert report.residual_norm == 0.0
        np.testing.assert_array_equal(x, np.zeros(25))

    def test_records_per_solve_iteration_history(self):
        a = _laplacian(60)
        b = np.ones(60)
        _, report = gmres_solve(a, b, preconditioner=None, tol=1e-10)
        assert len(report.residual_history) == report.iterations
        # The preconditioned residual norms must reach the requested tolerance.
        assert report.residual_history[-1] <= 1e-10
        assert min(report.residual_history) == report.residual_history[-1]

    def test_degraded_preconditioner_is_surfaced_in_report(self):
        class DegradedIdentity:
            """A preconditioner whose build fell back to something weaker."""

            degraded = True

            def as_operator(self):
                return spla.LinearOperator((3, 3), matvec=lambda v: v, dtype=float)

        a = _laplacian(3)
        _, report = gmres_solve(a, np.ones(3), preconditioner=DegradedIdentity(), tol=1e-10)
        assert report.converged
        assert report.preconditioner_degraded

    def test_healthy_preconditioner_is_not_flagged(self):
        a = _laplacian(30)
        _, report = gmres_solve(a, np.ones(30), tol=1e-10)
        assert not report.preconditioner_degraded
