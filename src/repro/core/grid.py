"""Two-dimensional periodic multi-time grids.

The MPDE is discretised on a uniform tensor grid over one period of each
artificial time axis:

* the fast axis covers ``[0, T1)`` with ``n_fast`` samples (the LO cycle),
* the slow axis covers ``[0, Td)`` with ``n_slow`` samples (the
  difference-frequency / baseband cycle),

both with periodic boundary conditions, so the wrap-around points are not
duplicated.  A grid with ``n_slow = 1`` is the one-axis (single-tone
collocation) specialisation: the slow axis collapses to the single sample
``t2 = 0``.  The paper's balanced-mixer example uses a 40 x 30 grid — 1200
grid points in place of the >= 300 000 time steps single-time shooting needs.

Grid points are flattened in row-major order: point ``p = i * n_slow + j``
corresponds to ``(t1_i, t2_j)``.  The differentiation matrices returned by
:meth:`MultiTimeGrid.fast_derivative` / :meth:`MultiTimeGrid.slow_derivative`
act on vectors of per-point samples in that ordering.

Nothing is cached: every ``MPDEProblem`` builds its operators afresh, so
:meth:`MultiTimeGrid.combined_derivative` lays out ``d/dt1 + d/dt2`` from the
axis matrices' CSR arrays (:func:`~repro.linalg.sparse.kron_sum`), bit for
bit ``kron(D_fast, I) + kron(I, D_slow)`` at a fraction of its cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ..linalg.sparse import (
    kron_sum,
    periodic_backward_difference,
    periodic_bdf2_difference,
    periodic_central_difference,
    periodic_fourier_differentiation,
)
from ..utils.exceptions import MPDEError
from ..utils.validation import check_positive

__all__ = ["DIFFERENTIATION", "MultiTimeGrid"]

#: Periodic differentiation rules by method name (shared with the 1-D PSS front end).
DIFFERENTIATION = {
    "backward-euler": periodic_backward_difference,
    "bdf2": periodic_bdf2_difference,
    "central": periodic_central_difference,
    "fourier": periodic_fourier_differentiation,
}


@dataclass(frozen=True)
class MultiTimeGrid:
    """A uniform periodic grid over the two artificial time axes.

    Attributes
    ----------
    period_fast, period_slow:
        Axis periods ``T1`` and ``Td`` in seconds.
    n_fast, n_slow:
        Number of samples per axis (``n_slow = 1`` for a one-axis grid).
    """

    period_fast: float
    period_slow: float
    n_fast: int
    n_slow: int

    def __post_init__(self) -> None:
        check_positive("period_fast", self.period_fast)
        check_positive("period_slow", self.period_slow)
        if self.n_fast < 3 or (self.n_slow < 3 and self.n_slow != 1):
            raise MPDEError(
                "multi-time grids need at least 3 samples per axis (or n_slow = 1)"
            )

    # -- geometry -------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Total number of grid points ``n_fast * n_slow``."""
        return self.n_fast * self.n_slow

    @cached_property
    def fast_axis(self) -> np.ndarray:
        """Sample positions along the fast axis, ``[0, T1)``."""
        return np.arange(self.n_fast) * (self.period_fast / self.n_fast)

    @cached_property
    def slow_axis(self) -> np.ndarray:
        """Sample positions along the slow axis, ``[0, Td)``."""
        return np.arange(self.n_slow) * (self.period_slow / self.n_slow)

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened coordinate arrays ``(T1, T2)`` of length ``n_points``.

        Ordering matches the flattening convention ``p = i * n_slow + j``.
        """
        t1, t2 = np.meshgrid(self.fast_axis, self.slow_axis, indexing="ij")
        return t1.ravel(), t2.ravel()

    def point_index(self, i: int, j: int) -> int:
        """Flattened index of grid point ``(i, j)``."""
        if not (0 <= i < self.n_fast and 0 <= j < self.n_slow):
            raise MPDEError(
                f"grid index ({i}, {j}) out of range for a {self.n_fast} x {self.n_slow} grid"
            )
        return i * self.n_slow + j

    def reshape_to_grid(self, flat: np.ndarray) -> np.ndarray:
        """Reshape per-point data ``(n_points, ...)`` to ``(n_fast, n_slow, ...)``."""
        flat = np.asarray(flat)
        if flat.shape[0] != self.n_points:
            raise MPDEError(
                f"expected {self.n_points} leading entries, got {flat.shape[0]}"
            )
        return flat.reshape(self.n_fast, self.n_slow, *flat.shape[1:])

    def flatten_from_grid(self, gridded: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`reshape_to_grid`."""
        gridded = np.asarray(gridded)
        if gridded.shape[:2] != (self.n_fast, self.n_slow):
            raise MPDEError(
                f"expected leading shape ({self.n_fast}, {self.n_slow}), got {gridded.shape[:2]}"
            )
        return gridded.reshape(self.n_points, *gridded.shape[2:])

    # -- differentiation operators ---------------------------------------------
    def _axis_matrix(self, axis: str, method: str) -> sp.csr_matrix:
        if method not in DIFFERENTIATION:
            raise MPDEError(
                f"unknown differentiation method {method!r}; available: {sorted(DIFFERENTIATION)}"
            )
        if axis == "fast":
            n, period = self.n_fast, self.period_fast
        elif axis == "slow":
            n, period = self.n_slow, self.period_slow
        else:
            raise MPDEError(f"axis must be 'fast' or 'slow', got {axis!r}")
        if n == 1:
            # A one-point periodic axis carries no variation: its derivative
            # is the 1x1 zero matrix (circulant eigenvalue 0).
            return sp.csr_matrix((1, 1))
        matrix = DIFFERENTIATION[method](n, period)
        return matrix if sp.issparse(matrix) else sp.csr_matrix(matrix)

    def axis_matrix(self, axis: str, method: str) -> sp.csr_matrix:
        """The 1-D periodic differentiation matrix of one axis.

        ``axis`` is ``"fast"`` (shape ``(n_fast, n_fast)``) or ``"slow"``
        (``(n_slow, n_slow)``).  On a uniform periodic grid every supported
        rule produces a *circulant* matrix — the structure the per-harmonic
        (block-circulant) preconditioner diagonalises by FFT.  A one-point
        axis (``n_slow = 1``) gets the ``1 x 1`` zero matrix under every
        rule.
        """
        return self._axis_matrix(axis, method)

    def fast_derivative(self, method: str = "backward-euler") -> sp.csr_matrix:
        """Sparse ``(n_points, n_points)`` operator for ``d/dt1`` on flattened data."""
        d_fast = self._axis_matrix("fast", method)
        return sp.kron(d_fast, sp.identity(self.n_slow, format="csr"), format="csr")

    def slow_derivative(self, method: str = "backward-euler") -> sp.csr_matrix:
        """Sparse ``(n_points, n_points)`` operator for ``d/dt2`` on flattened data."""
        d_slow = self._axis_matrix("slow", method)
        return sp.kron(sp.identity(self.n_fast, format="csr"), d_slow, format="csr")

    def combined_derivative(
        self, fast_method: str = "backward-euler", slow_method: str = "backward-euler"
    ) -> sp.csr_matrix:
        """The MPDE derivative operator ``d/dt1 + d/dt2`` on flattened data."""
        return kron_sum(
            self._axis_matrix("fast", fast_method), self._axis_matrix("slow", slow_method)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiTimeGrid(T1={self.period_fast:.3e}s x {self.n_fast}, "
            f"Td={self.period_slow:.3e}s x {self.n_slow})"
        )
