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
        # The non-convergence must be fully reported: the true residual norm
        # and the per-iteration trace.
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
        # The true relative residual norms must reach the requested tolerance.
        assert report.residual_history[-1] <= 1e-10
        assert min(report.residual_history) == report.residual_history[-1]

    def test_degraded_preconditioner_is_surfaced_in_report(self):
        class DegradedIdentity:
            """A preconditioner whose build fell back to something weaker."""

            degraded = True

            def solve(self, vector):
                return vector

        a = _laplacian(3)
        _, report = gmres_solve(a, np.ones(3), preconditioner=DegradedIdentity(), tol=1e-10)
        assert report.converged
        assert report.preconditioner_degraded

    def test_healthy_preconditioner_is_not_flagged(self):
        a = _laplacian(30)
        _, report = gmres_solve(a, np.ones(30), tol=1e-10)
        assert not report.preconditioner_degraded


def _nonsymmetric_system(n: int = 40):
    """A well-conditioned nonsymmetric matrix and a right-hand side."""
    rng = np.random.default_rng(3)
    a = np.diag(np.linspace(1.0, 4.0, n)) + rng.normal(scale=0.4 / np.sqrt(n), size=(n, n))
    return a, rng.normal(size=n)


def _counting_jacobi(a: np.ndarray):
    """The inverse diagonal of ``a`` as a LinearOperator that counts its applies."""
    inverse_diagonal = 1.0 / np.diag(a)
    applies = [0]

    def matvec(vector):
        applies[0] += 1
        return inverse_diagonal * vector

    return spla.LinearOperator(a.shape, matvec=matvec, dtype=float), applies


class TestRightPreconditionedGMRES:
    """One preconditioner apply per inner iteration and per restart cycle."""

    @pytest.mark.parametrize("restart", [80, 5])
    def test_applies_equal_iterations_plus_restart_cycles(self, restart):
        a, b = _nonsymmetric_system()
        preconditioner, applies = _counting_jacobi(a)
        _, report = gmres_solve(a, b, preconditioner=preconditioner, tol=1e-10, restart=restart)
        assert report.converged
        assert applies[0] == report.iterations + report.restart_cycles
        if restart == 5:
            assert report.restart_cycles > 1
        else:
            assert report.restart_cycles == 1

    @pytest.mark.parametrize("maxiter", [2000, 2])
    def test_residual_norm_is_the_true_residual(self, maxiter):
        a, b = _nonsymmetric_system()
        preconditioner, _ = _counting_jacobi(a)
        x, report = gmres_solve(
            a, b, preconditioner=preconditioner, tol=1e-12, restart=5, maxiter=maxiter,
            raise_on_failure=False,
        )
        assert report.converged == (maxiter == 2000)
        true_norm = np.linalg.norm(b - a @ x)
        np.testing.assert_allclose(report.residual_norm, true_norm, rtol=1e-12)
        np.testing.assert_allclose(
            report.residual_history[-1], true_norm / np.linalg.norm(b), rtol=1e-12
        )

    def test_solution_matches_direct_solve(self):
        a, b = _nonsymmetric_system()
        preconditioner, _ = _counting_jacobi(a)
        tol = 1e-10
        x, report = gmres_solve(a, b, preconditioner=preconditioner, tol=tol, restart=5)
        assert report.residual_norm <= tol * np.linalg.norm(b)
        reference = np.linalg.solve(a, b)
        # Forward error is bounded by the condition number times the
        # relative residual.
        bound = np.linalg.cond(a) * tol * np.linalg.norm(reference)
        assert np.linalg.norm(x - reference) <= bound

    def test_breakdown_on_a_singular_operator_ends_the_solve(self):
        # The rank-deficient diagonal's Krylov space is exhausted after two
        # iterations; the cycle's least-squares solution misses the
        # tolerance, so the solve stops there instead of restarting.
        a = sp.diags([1.0] * 9 + [0.0]).tocsr()
        b = np.ones(10)
        x, report = gmres_solve(a, b, tol=1e-10, raise_on_failure=False)
        assert not report.converged
        assert (report.iterations, report.restart_cycles) == (2, 1)
        np.testing.assert_allclose(report.residual_norm, np.linalg.norm(b - a @ x), rtol=1e-12)
        with pytest.raises(SingularMatrixError):
            gmres_solve(sp.csr_matrix((10, 10)), b)
