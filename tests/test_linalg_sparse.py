"""Unit tests for sparse assembly helpers and periodic differentiation matrices."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import (
    block_diag_from_array,
    kron_identity,
    periodic_backward_difference,
    periodic_bdf2_difference,
    periodic_central_difference,
    periodic_fourier_differentiation,
)


class TestBlockDiagonal:
    def test_block_diag_from_array(self):
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(4, 3, 3))
        mat = block_diag_from_array(blocks)
        expected = sp.block_diag(list(blocks)).toarray()
        np.testing.assert_allclose(mat.toarray(), expected)

    def test_block_diag_from_array_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            block_diag_from_array(np.zeros((4, 2, 3)))


class TestKronHelpers:
    def test_kron_identity(self):
        mat = np.array([[0.0, 1.0], [2.0, 0.0]])
        result = kron_identity(mat, 3).toarray()
        expected = np.kron(mat, np.eye(3))
        np.testing.assert_allclose(result, expected)


class TestPeriodicDifferentiation:
    period = 2.0

    def _samples(self, n):
        return np.arange(n) * (self.period / n)

    @pytest.mark.parametrize(
        "builder",
        [
            periodic_backward_difference,
            periodic_bdf2_difference,
            periodic_central_difference,
            periodic_fourier_differentiation,
        ],
    )
    def test_annihilates_constants(self, builder):
        mat = builder(16, self.period)
        result = np.asarray(mat @ np.ones(16)).ravel()
        np.testing.assert_allclose(result, 0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "builder, rtol",
        [
            (periodic_backward_difference, 0.25),
            (periodic_bdf2_difference, 0.08),
            (periodic_central_difference, 0.08),
            (periodic_fourier_differentiation, 1e-9),
        ],
    )
    def test_differentiates_sine(self, builder, rtol):
        n = 32
        t = self._samples(n)
        omega = 2.0 * np.pi / self.period
        y = np.sin(omega * t)
        expected = omega * np.cos(omega * t)
        result = np.asarray(builder(n, self.period) @ y).ravel()
        assert np.max(np.abs(result - expected)) <= rtol * omega

    def test_backward_difference_first_order_convergence(self):
        errors = []
        omega = 2.0 * np.pi / self.period
        for n in (32, 64, 128):
            t = self._samples(n)
            y = np.sin(omega * t)
            d = np.asarray(periodic_backward_difference(n, self.period) @ y).ravel()
            errors.append(np.max(np.abs(d - omega * np.cos(omega * t))))
        assert errors[1] / errors[0] == pytest.approx(0.5, rel=0.2)
        assert errors[2] / errors[1] == pytest.approx(0.5, rel=0.2)

    def test_bdf2_second_order_convergence(self):
        errors = []
        omega = 2.0 * np.pi / self.period
        for n in (32, 64, 128):
            t = self._samples(n)
            y = np.sin(omega * t)
            d = np.asarray(periodic_bdf2_difference(n, self.period) @ y).ravel()
            errors.append(np.max(np.abs(d - omega * np.cos(omega * t))))
        assert errors[1] / errors[0] == pytest.approx(0.25, rel=0.35)
        assert errors[2] / errors[1] == pytest.approx(0.25, rel=0.35)

    def test_fourier_is_exact_for_resolvable_harmonics(self):
        n = 16
        t = self._samples(n)
        omega = 2.0 * np.pi / self.period
        y = np.cos(3 * omega * t)
        expected = -3 * omega * np.sin(3 * omega * t)
        d = periodic_fourier_differentiation(n, self.period) @ y
        np.testing.assert_allclose(d, expected, atol=1e-9)

    def test_row_sums_vanish(self):
        """Each differentiation row is a derivative stencil: weights sum to zero."""
        for builder in (
            periodic_backward_difference,
            periodic_bdf2_difference,
            periodic_central_difference,
        ):
            mat = builder(10, self.period).toarray()
            np.testing.assert_allclose(mat.sum(axis=1), 0.0, atol=1e-12)

    def test_too_few_points_raise(self):
        with pytest.raises(ValueError):
            periodic_backward_difference(1, 1.0)
        with pytest.raises(ValueError):
            periodic_bdf2_difference(2, 1.0)
        with pytest.raises(ValueError):
            periodic_central_difference(2, 1.0)
