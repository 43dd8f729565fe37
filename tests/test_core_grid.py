"""Unit tests for the periodic multi-time grid and its differentiation operators."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import MultiTimeGrid
from repro.core.mpde import MPDEProblem
from repro.linalg import (
    kron_sum,
    periodic_backward_difference,
    periodic_bdf2_difference,
    periodic_central_difference,
    periodic_fourier_differentiation,
)
from repro.utils import MPDEError, MPDEOptions

METHODS = ("backward-euler", "bdf2", "central", "fourier")

#: (offset, weight) taps of each finite-difference rule: row ``k`` holds
#: ``weight / h`` at column ``(k + offset) % n``.
STENCILS = {
    "backward-euler": ((0, 1.0), (-1, -1.0)),
    "bdf2": ((0, 1.5), (-1, -2.0), (-2, 0.5)),
    "central": ((1, 0.5), (-1, -0.5)),
}
BUILDERS = {
    "backward-euler": periodic_backward_difference,
    "bdf2": periodic_bdf2_difference,
    "central": periodic_central_difference,
}


def _dense_rule(method: str, n: int, period: float) -> np.ndarray:
    """A rule's axis matrix written out entry by entry from its stencil."""
    if method == "fourier":
        return periodic_fourier_differentiation(n, period)
    h = period / n
    dense = np.zeros((n, n))
    for k in range(n):
        for offset, weight in STENCILS[method]:
            dense[k, (k + offset) % n] = weight / h
    return dense


def _kron_reference(d_fast, d_slow) -> sp.csr_matrix:
    """``kron(D_fast, I) + kron(I, D_slow)`` by scipy's ``kron`` and ``+``."""
    d_fast, d_slow = sp.csr_matrix(d_fast), sp.csr_matrix(d_slow)
    return (
        sp.kron(d_fast, sp.identity(d_slow.shape[0], format="csr"), format="csr")
        + sp.kron(sp.identity(d_fast.shape[0], format="csr"), d_slow, format="csr")
    ).tocsr()


def _assert_bitwise(actual: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@pytest.fixture
def grid():
    return MultiTimeGrid(period_fast=1e-9, period_slow=1e-4, n_fast=8, n_slow=6)


class TestGeometry:
    def test_point_count_and_axes(self, grid):
        assert grid.n_points == 48
        assert grid.fast_axis.shape == (8,)
        assert grid.slow_axis.shape == (6,)
        assert grid.fast_axis[-1] < grid.period_fast
        assert grid.slow_axis[1] == pytest.approx(grid.period_slow / 6)

    def test_paper_grid_size(self):
        """The paper's 40 x 30 grid has 1200 points."""
        grid = MultiTimeGrid(1 / 450e6, 1 / 15e3, 40, 30)
        assert grid.n_points == 1200

    def test_mesh_ordering_matches_point_index(self, grid):
        t1, t2 = grid.mesh
        for i in (0, 3, 7):
            for j in (0, 2, 5):
                p = grid.point_index(i, j)
                assert t1[p] == pytest.approx(grid.fast_axis[i])
                assert t2[p] == pytest.approx(grid.slow_axis[j])

    def test_point_index_bounds(self, grid):
        with pytest.raises(MPDEError):
            grid.point_index(8, 0)
        with pytest.raises(MPDEError):
            grid.point_index(0, -1)

    def test_reshape_roundtrip(self, grid):
        flat = np.arange(grid.n_points * 3.0).reshape(grid.n_points, 3)
        gridded = grid.reshape_to_grid(flat)
        assert gridded.shape == (8, 6, 3)
        np.testing.assert_allclose(grid.flatten_from_grid(gridded), flat)

    def test_reshape_validates_sizes(self, grid):
        with pytest.raises(MPDEError):
            grid.reshape_to_grid(np.zeros(5))
        with pytest.raises(MPDEError):
            grid.flatten_from_grid(np.zeros((3, 3)))

    def test_minimum_size(self):
        from repro.utils import ConfigurationError, ReproError

        with pytest.raises(MPDEError):
            MultiTimeGrid(1.0, 1.0, 2, 8)
        with pytest.raises((MPDEError, ConfigurationError, ReproError)):
            MultiTimeGrid(1.0, -1.0, 8, 8)


class TestDifferentiationOperators:
    def _sample(self, grid, func):
        t1, t2 = grid.mesh
        return func(t1, t2)

    @pytest.mark.parametrize("method", ["backward-euler", "bdf2", "central", "fourier"])
    def test_fast_derivative_ignores_slow_variation(self, method):
        grid = MultiTimeGrid(1.0, 1.0, 16, 12)
        values = self._sample(grid, lambda t1, t2: np.sin(2 * np.pi * t2))
        d = grid.fast_derivative(method) @ values
        np.testing.assert_allclose(d, 0.0, atol=1e-9)

    @pytest.mark.parametrize("method", ["backward-euler", "bdf2", "central", "fourier"])
    def test_slow_derivative_ignores_fast_variation(self, method):
        grid = MultiTimeGrid(1.0, 1.0, 16, 12)
        values = self._sample(grid, lambda t1, t2: np.cos(2 * np.pi * t1))
        d = grid.slow_derivative(method) @ values
        np.testing.assert_allclose(d, 0.0, atol=1e-9)

    def test_fast_derivative_fourier_exactness(self):
        grid = MultiTimeGrid(2.0, 3.0, 16, 8)
        omega = 2 * np.pi / grid.period_fast
        values = self._sample(grid, lambda t1, t2: np.sin(omega * t1))
        expected = self._sample(grid, lambda t1, t2: omega * np.cos(omega * t1))
        d = grid.fast_derivative("fourier") @ values
        np.testing.assert_allclose(d, expected, atol=1e-9)

    def test_slow_derivative_fourier_exactness(self):
        grid = MultiTimeGrid(2.0, 3.0, 8, 16)
        omega = 2 * np.pi / grid.period_slow
        values = self._sample(grid, lambda t1, t2: np.cos(omega * t2))
        expected = self._sample(grid, lambda t1, t2: -omega * np.sin(omega * t2))
        d = grid.slow_derivative("fourier") @ values
        np.testing.assert_allclose(d, expected, atol=1e-9)

    def test_combined_operator_is_sum(self):
        grid = MultiTimeGrid(1.0, 2.0, 8, 8)
        combined = grid.combined_derivative("bdf2", "central").toarray()
        expected = (grid.fast_derivative("bdf2") + grid.slow_derivative("central")).toarray()
        np.testing.assert_allclose(combined, expected)

    def test_combined_derivative_on_mpde_warped_product(self):
        """The MPDE operator applied to the warped product reproduces dz/dt on the diagonal.

        With z_hat(t1, t2) = cos(w1 t1) * cos(w1 t1 - wd t2), the MPDE
        identity says (d/dt1 + d/dt2) z_hat evaluated on the diagonal equals
        the ordinary derivative of z(t) = z_hat(t, t).  We verify the
        operator numerically at the grid origin where the diagonal intersects
        the grid exactly.
        """
        grid = MultiTimeGrid(1.0, 10.0, 64, 64)
        w1 = 2 * np.pi / grid.period_fast
        wd = 2 * np.pi / grid.period_slow
        t1, t2 = grid.mesh
        values = np.cos(w1 * t1) * np.cos(w1 * t1 - wd * t2)
        d = grid.combined_derivative("fourier", "fourier") @ values
        # Analytic derivative of z(t) = cos(w1 t) cos((w1 - wd) t) at t = 0 is 0.
        origin = grid.point_index(0, 0)
        assert d[origin] == pytest.approx(0.0, abs=1e-6)

    def test_unknown_method_rejected(self, grid):
        with pytest.raises(MPDEError):
            grid.fast_derivative("simpson")

    def test_operator_shapes(self, grid):
        assert grid.fast_derivative().shape == (48, 48)
        assert grid.slow_derivative().shape == (48, 48)


class TestStencilBuiltOperators:
    """The stencil-built operators equal scipy's ``kron`` construction bit for bit."""

    @pytest.mark.parametrize(
        "method, n",
        [(method, n) for method in sorted(STENCILS) for n in (3, 4, 7, 64)]
        + [("backward-euler", 2)],
    )
    def test_axis_matrix_matches_its_stencil(self, method, n):
        matrix = BUILDERS[method](n, 3.7e-6)
        _assert_bitwise(matrix, sp.csr_matrix(_dense_rule(method, n, 3.7e-6)))
        assert matrix.has_canonical_format

    @pytest.mark.parametrize("slow_method", METHODS)
    @pytest.mark.parametrize("fast_method", METHODS)
    @pytest.mark.parametrize("shape", [(3, 3), (4, 5), (7, 6), (12, 64)])
    def test_combined_derivative_matches_kron_sum_of_scipy(self, shape, fast_method, slow_method):
        grid = MultiTimeGrid(1.3e-6, 7.1e-5, *shape)
        expected = _kron_reference(
            _dense_rule(fast_method, shape[0], grid.period_fast),
            _dense_rule(slow_method, shape[1], grid.period_slow),
        )
        _assert_bitwise(grid.combined_derivative(fast_method, slow_method), expected)

    def test_minimal_axes(self):
        d2 = periodic_backward_difference(2, 1.0)
        d3 = periodic_bdf2_difference(3, 5.0)
        _assert_bitwise(kron_sum(d2, d2), _kron_reference(d2, d2))
        _assert_bitwise(kron_sum(d2, d3), _kron_reference(d2, d3))
        _assert_bitwise(kron_sum(d3, d2), _kron_reference(d3, d2))

    def test_diagonal_summing_to_zero_is_dropped(self):
        fast = sp.csr_matrix(np.array([[1.0, 2.0], [3.0, -4.0]]))
        slow = sp.csr_matrix(np.array([[-1.0, 0.0, 5.0], [0.0, 4.0, 0.0], [6.0, 0.0, 0.0]]))
        expected = _kron_reference(fast, slow)
        assert expected.nnz == 12 + 8 - 4 - 2  # 4 shared diagonal slots, 2 of them cancel
        _assert_bitwise(kron_sum(fast, slow), expected)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n_samples", [6, 7])
    def test_one_axis_periodic_derivative(self, rc_lowpass, method, n_samples):
        problem = MPDEProblem.periodic(rc_lowpass.compile(), 1e-3, n_samples, method=method)
        expected = _kron_reference(_dense_rule(method, n_samples, 1e-3), np.zeros((1, 1)))
        _assert_bitwise(problem._operators.derivative, expected)

    @pytest.mark.parametrize("slow_method", METHODS)
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n", [7, 8, 64])
    def test_one_point_axis_is_the_zero_operator(self, method, slow_method, n):
        grid = MultiTimeGrid(1e-3, 1e-3, n, 1)
        zero = grid.axis_matrix("slow", slow_method)
        assert zero.shape == (1, 1) and zero.nnz == 0
        assert grid.slow_derivative(slow_method).nnz == 0
        _assert_bitwise(
            grid.combined_derivative(method, slow_method), grid.axis_matrix("fast", method)
        )

    @pytest.mark.parametrize("fast_method, slow_method", [("bdf2", "bdf2"), ("fourier", "central")])
    def test_jacobian_equals_dense_reference(self, fast_method, slow_method):
        from repro.rf import unbalanced_switching_mixer

        mixer = unbalanced_switching_mixer(lo_frequency=1e6, difference_frequency=5e4)
        options = MPDEOptions(
            n_fast=7, n_slow=6, fast_method=fast_method, slow_method=slow_method
        )
        problem = MPDEProblem(mixer.compile(), mixer.scales, options)
        x = np.random.default_rng(5).normal(scale=0.3, size=problem.n_total_unknowns)
        np.testing.assert_array_equal(
            problem.jacobian(x).toarray(), problem.jacobian_dense_reference(x).toarray()
        )
