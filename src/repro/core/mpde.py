"""Discretisation of the multi-time partial differential equation (MPDE).

Starting from the circuit DAE ``d/dt q(x) + f(x) + b(t) = 0``, the MPDE
(Eq. (4) of the paper) reads

    d q(x_hat)/dt1 + d q(x_hat)/dt2 + f(x_hat) + b_hat(t1, t2) = 0

with periodic boundary conditions in both artificial times.  Any solution
``x_hat(t1, t2)`` yields a solution of the original equations through the
diagonal ``x(t) = x_hat(t, t)``.

:class:`MPDEProblem` assembles the discrete form of this equation on a
:class:`~repro.core.grid.MultiTimeGrid`:

* the unknown is the flattened array ``X`` of shape ``(P, n)`` (``P`` grid
  points, ``n`` circuit unknowns),
* the time derivatives are applied with sparse periodic differentiation
  matrices acting on the grid-point index,
* the excitation grid ``B_hat`` is built once from the circuit's stimuli via
  the sheared time-scale map (:mod:`repro.core.timescales`),
* the residual and the sparse Jacobian

      R(X) = D (q per point) + f per point + B_hat
      J(X) = (D  kron  I_n) . blockdiag(C_p) + blockdiag(G_p)

  are produced for the Newton solver in :mod:`repro.core.solver`.

The ``"fourier"`` differentiation option on both axes turns the very same
machinery into a two-tone harmonic-balance solver (spectral collocation in
both artificial times), which the benchmarks use for the HB comparison.
:meth:`MPDEProblem.periodic` builds the one-axis ``(n_samples, 1)`` problem
that collocation PSS and single-tone HB solve with the same solver.

Performance architecture (symbolic-once assembly)
-------------------------------------------------
The Jacobian ``J = (D kron I_n) . blockdiag(C_p) + blockdiag(G_p)`` has a
structure fixed by the grid operator ``D`` and the circuit's compiled stamp
patterns; only the numeric values of the per-point blocks change between
Newton iterations.  At construction the problem therefore precomputes

* the merged CSC skeleton of ``J`` and the scatter map of every contribution
  onto it (:class:`~repro.linalg.sparse.CollocationJacobianAssembler`), and,
  on first use by the matrix-free operator,
* block-diagonal CSR index structures for ``blockdiag(C_p)`` /
  ``blockdiag(G_p)`` (:class:`~repro.linalg.sparse.BlockDiagStructure`).

Per Newton iteration, ``residual_and_values`` runs one sparse device sweep
(``MNASystem.evaluate_sparse``) and ``assemble_jacobian`` one vectorised
scatter — no dense
``(P, n, n)`` stacks, no ``kron`` products, no COO->CSR conversions.
Residual-only calls (line search, continuation ramping) use the
``need_jacobian=False`` device fast path.  ``jacobian_operator`` exposes the
same Jacobian *matrix-free* as ``v -> (D kron I)(C_blk v) + G_blk v`` for the
Krylov solver, with ``build_preconditioner`` providing the slow-axis
averaged block-circulant preconditioner in the spirit of
Telichevesky/Kundert/White (DAC 1995).
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..circuits.mna import MNASystem
from ..linalg.preconditioners import (
    BlockCirculantFastPreconditioner,
    BlockCirculantFastStructure,
    circulant_eigenvalues,
    slow_averaged_data,
)
from ..linalg.sparse import (
    BlockDiagStructure,
    CollocationJacobianAssembler,
    block_diag_from_array,
    kron_identity,
)
from ..resilience.faultinject import fault_site
from ..utils.exceptions import MPDEError
from ..utils.logging import get_logger
from ..utils.options import MPDEOptions
from .grid import MultiTimeGrid
from .timescales import ShearedTimeScales, UnshearedTimeScales

__all__ = ["MPDEProblem"]

_LOG = get_logger("core.mpde")


class _DiscreteOperators:
    """Cached sparse operators and symbolic structures of the discretised MPDE.

    The derivative and the Jacobian assembler are built up front (every
    residual and every direct-mode Newton step needs them); the ``kron``
    product, the block-diagonal skeletons and the ``block_circulant_fast``
    structure only serve the matrix-free operator, its preconditioner and
    the dense reference path, so they are built on first use.
    """

    def __init__(
        self, derivative: sp.csr_matrix, mna: MNASystem, grid: MultiTimeGrid, fast_method: str
    ) -> None:
        self.derivative = derivative  # (P, P) acting on the grid-point index
        self._mna = mna
        self._grid = grid
        self._fast_method = fast_method
        self._n_points = grid.n_points
        self.assembler = CollocationJacobianAssembler(
            derivative, mna.dynamic_pattern, mna.static_pattern, mna.n_unknowns
        )

    @cached_property
    def derivative_kron(self) -> sp.csr_matrix:
        """``(P*n, P*n)``: the derivative ``kron I_n``."""
        return kron_identity(self.derivative, self._mna.n_unknowns)

    @cached_property
    def c_blocks(self) -> BlockDiagStructure:
        """``blockdiag(C_p)`` CSR skeleton."""
        return BlockDiagStructure(self._mna.dynamic_pattern, self._n_points)

    @cached_property
    def g_blocks(self) -> BlockDiagStructure:
        """``blockdiag(G_p)`` CSR skeleton."""
        return BlockDiagStructure(self._mna.static_pattern, self._n_points)

    @cached_property
    def fast_structure(self) -> BlockCirculantFastStructure:
        """Symbolic structure of the ``block_circulant_fast`` harmonic systems."""
        return BlockCirculantFastStructure(
            self._mna.dynamic_pattern,
            self._mna.static_pattern,
            self._grid.axis_matrix("fast", self._fast_method),
            self._grid.n_slow,
        )


class MPDEProblem:
    """The discretised MPDE for one circuit, one shear map and one grid.

    Parameters
    ----------
    mna:
        Compiled circuit equations.
    scales:
        A :class:`~repro.core.timescales.ShearedTimeScales` (or
        :class:`UnshearedTimeScales`) describing the artificial time axes.
    options:
        Grid resolution and discretisation choices
        (:class:`~repro.utils.options.MPDEOptions`).
    """

    def __init__(
        self,
        mna: MNASystem,
        scales: ShearedTimeScales | UnshearedTimeScales,
        options: MPDEOptions | None = None,
    ) -> None:
        options = options or MPDEOptions()
        grid = MultiTimeGrid(
            period_fast=scales.fast_period,
            period_slow=scales.difference_period,
            n_fast=options.n_fast,
            n_slow=options.n_slow,
        )
        t1, t2 = grid.mesh
        self._setup(
            mna,
            scales,
            options,
            grid,
            grid.combined_derivative(
                fast_method=options.fast_method, slow_method=options.slow_method
            ),
            mna.source_bivariate(t1, t2, scales),
        )

    @classmethod
    def periodic(
        cls,
        mna: MNASystem,
        period: float,
        n_samples: int,
        *,
        method: str = "backward-euler",
        t0: float = 0.0,
        options: MPDEOptions | None = None,
    ) -> "MPDEProblem":
        """The one-axis problem: single-tone collocation periodic steady state.

        The grid is ``(n_samples, 1)`` over one ``period``, so the derivative
        is the fast-axis differentiation matrix of ``method`` itself (the
        one-point slow axis contributes the ``1 x 1`` zero operator) and the
        source is the circuit excitation ``b(t0 + t)`` at the samples.  The
        grid-resolution fields of ``options`` are not read; both axis rules
        become ``method``, so the solve fingerprint records only what is used.
        """
        options = replace(options or MPDEOptions(), fast_method=method, slow_method=method)
        grid = MultiTimeGrid(period_fast=period, period_slow=period, n_fast=n_samples, n_slow=1)
        problem = cls.__new__(cls)
        problem._setup(
            mna,
            None,
            options,
            grid,
            grid.combined_derivative(fast_method=method, slow_method=method),
            mna.source(t0 + grid.fast_axis),
            t0=t0,
        )
        return problem

    def _setup(self, mna, scales, options, grid, derivative, source, *, t0: float = 0.0) -> None:
        self.mna = mna
        self.scales = scales
        self.options = options
        self.grid = grid
        #: Phase reference of the excitation (non-zero only for one-axis problems).
        self.t0 = float(t0)
        self._operators = _DiscreteOperators(derivative, mna, grid, options.fast_method)
        if source.shape != (grid.n_points, mna.n_unknowns):
            raise MPDEError(
                f"source grid has shape {source.shape}, expected "
                f"({grid.n_points}, {mna.n_unknowns})"
            )
        if not np.all(np.isfinite(source)):
            raise MPDEError("excitation contains non-finite values")
        self._source_grid = source

    # -- sizes -------------------------------------------------------------------
    @property
    def n_circuit_unknowns(self) -> int:
        """Number of circuit unknowns ``n``."""
        return self.mna.n_unknowns

    @property
    def n_grid_points(self) -> int:
        """Number of multi-time grid points ``P``."""
        return self.grid.n_points

    @property
    def n_total_unknowns(self) -> int:
        """Size of the global nonlinear system ``P * n``."""
        return self.grid.n_points * self.mna.n_unknowns

    @property
    def source_grid(self) -> np.ndarray:
        """The excitation ``b_hat`` sampled on the grid, shape ``(P, n)``."""
        return self._source_grid

    # -- residual / Jacobian -------------------------------------------------------
    def reshape_states(self, x_flat: np.ndarray) -> np.ndarray:
        """View a flat unknown vector as a ``(P, n)`` array of per-point states."""
        x_flat = np.asarray(x_flat, dtype=float)
        if x_flat.size != self.n_total_unknowns:
            raise MPDEError(
                f"flat state vector has {x_flat.size} entries, expected {self.n_total_unknowns}"
            )
        return x_flat.reshape(self.grid.n_points, self.mna.n_unknowns)

    def residual(self, x_flat: np.ndarray, *, source_grid: np.ndarray | None = None) -> np.ndarray:
        """Residual of the discretised MPDE for the flattened state ``x_flat``.

        Uses the residual-only device fast path (no Jacobian storage), which
        is what makes line searches and continuation ramps cheap.
        """
        states = self.reshape_states(x_flat)
        evaluation = self.mna.evaluate(states, need_jacobian=False)
        b_grid = self._source_grid if source_grid is None else source_grid
        dq = self._operators.derivative @ evaluation.q
        return (dq + evaluation.f + b_grid).ravel()

    def residual_and_values(
        self, x_flat: np.ndarray, *, source_grid: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residual plus the per-point Jacobian data arrays, one device sweep.

        Returns ``(residual, c_data, g_data)`` where the data arrays are
        aligned with the circuit's compiled stamp patterns and feed either
        :meth:`assemble_jacobian` (explicit sparse matrix) or
        :meth:`jacobian_operator` (matrix-free).
        """
        states = self.reshape_states(x_flat)
        evaluation = self.mna.evaluate_sparse(states)
        b_grid = self._source_grid if source_grid is None else source_grid
        dq = self._operators.derivative @ evaluation.q
        residual = (dq + evaluation.f + b_grid).ravel()
        return residual, evaluation.c_data, evaluation.g_data

    def assemble_jacobian(self, c_data: np.ndarray, g_data: np.ndarray) -> sp.csc_matrix:
        """Numeric-only CSC assembly of the Jacobian from per-point data."""
        return self._operators.assembler.assemble(c_data, g_data)

    @property
    def jacobian_assembler(self) -> CollocationJacobianAssembler:
        """The Jacobian's symbolic structure, with its sparse-LU column order."""
        return self._operators.assembler

    def jacobian_values(self, x_flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The per-point Jacobian data ``(c_data, g_data)`` at ``x_flat``."""
        evaluation = self.mna.evaluate_sparse(self.reshape_states(x_flat))
        return evaluation.c_data, evaluation.g_data

    def jacobian(self, x_flat: np.ndarray) -> sp.csc_matrix:
        """Sparse Jacobian of :meth:`residual` (independent of the source grid)."""
        return self.assemble_jacobian(*self.jacobian_values(x_flat))

    def jacobian_dense_reference(self, x_flat: np.ndarray) -> sp.csc_matrix:
        """The seed's dense-stack Jacobian path, kept as a validation reference.

        Builds dense ``(P, n, n)`` Jacobian stacks and converts them through
        ``block_diag_from_array`` + the ``kron`` product — the hot path this
        module used to run on every Newton iteration.  Property tests and the
        assembly benchmark compare :meth:`jacobian` against it.
        """
        states = self.reshape_states(x_flat)
        evaluation = self.mna.evaluate(states)
        c_block = block_diag_from_array(evaluation.capacitance)
        g_block = block_diag_from_array(evaluation.conductance)
        return (self._operators.derivative_kron @ c_block + g_block).tocsc()

    def residual_and_jacobian(
        self, x_flat: np.ndarray, *, source_grid: np.ndarray | None = None
    ) -> tuple[np.ndarray, sp.csc_matrix]:
        """Evaluate residual and Jacobian with a single device sweep."""
        residual, c_data, g_data = self.residual_and_values(x_flat, source_grid=source_grid)
        return residual, self.assemble_jacobian(c_data, g_data)

    # -- matrix-free Jacobian ---------------------------------------------------
    def jacobian_operator(self, c_data: np.ndarray, g_data: np.ndarray) -> spla.LinearOperator:
        """Matrix-free Jacobian ``v -> (D kron I_n)(C_blk v) + G_blk v``.

        The block-diagonal factors are rebuilt from the data arrays using
        precomputed CSR skeletons (pure data relabelling); the full Jacobian
        is never formed, which is the Krylov mode the paper's reference
        (Telichevesky/Kundert/White, DAC 1995) advocates for large problems.
        """
        c_blk = self._operators.c_blocks.matrix(c_data)
        g_blk = self._operators.g_blocks.matrix(g_data)
        d_kron = self._operators.derivative_kron
        size = self.n_total_unknowns

        def matvec(v: np.ndarray) -> np.ndarray:
            return d_kron @ (c_blk @ v) + g_blk @ v

        return spla.LinearOperator((size, size), matvec=matvec, dtype=float)

    # -- preconditioning ---------------------------------------------------------
    @cached_property
    def slow_axis_eigenvalues(self) -> np.ndarray:
        """Circulant eigenvalues of the slow-axis derivative operator.

        The 1-D periodic differentiation matrix is circulant on the uniform
        multi-time grid, so it is diagonalised by the DFT along the slow
        axis; the eigenvalues are ordered as :func:`numpy.fft.fft` output
        (a single zero on a one-axis problem).
        """
        return circulant_eigenvalues(self.grid.axis_matrix("slow", self.options.slow_method))

    def build_preconditioner(
        self, c_data: np.ndarray, g_data: np.ndarray
    ) -> BlockCirculantFastPreconditioner:
        """The matrix-free preconditioner at per-point Jacobian data ``(c_data, g_data)``.

        Built from the slow-axis means of the data, the slow-axis circulant
        eigenvalues and the problem's cached
        :class:`~repro.linalg.preconditioners.BlockCirculantFastStructure`
        (built from the fast-axis differentiation matrix on first use).
        """
        fault_site("preconditioner.build", kind=self.options.preconditioner)
        n_fast, n_slow = self.grid.n_fast, self.grid.n_slow
        return BlockCirculantFastPreconditioner(
            slow_averaged_data(c_data, n_fast, n_slow),
            slow_averaged_data(g_data, n_fast, n_slow),
            self.mna.dynamic_pattern,
            self.mna.static_pattern,
            fast_operator=None,
            eigenvalues_slow=self.slow_axis_eigenvalues,
            structure=self._operators.fast_structure,
        )

    # -- continuation embedding -----------------------------------------------------
    def embedded_source_grid(self, lam: float) -> np.ndarray:
        """Source grid with the time-varying part scaled by ``lam``.

        Used by the continuation fallback: at ``lam = 0`` the excitation is
        flattened to its grid average (essentially a DC problem, easy for
        Newton), at ``lam = 1`` it is the true multi-time excitation.  This
        is the source-stepping homotopy the paper's Section 3 alludes to
        ("using continuation reliably obtained solutions").
        """
        if not 0.0 <= lam <= 1.0:
            raise MPDEError(f"embedding parameter must be in [0, 1], got {lam}")
        mean = self._source_grid.mean(axis=0, keepdims=True)
        return mean + lam * (self._source_grid - mean)

    # -- initial guesses ---------------------------------------------------------------
    def initial_guess_from_state(self, x0: np.ndarray) -> np.ndarray:
        """Tile a single circuit state over the whole grid (flattened)."""
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.mna.n_unknowns,):
            raise MPDEError(
                f"initial state must have shape ({self.mna.n_unknowns},), got {x0.shape}"
            )
        return np.tile(x0, (self.grid.n_points, 1)).ravel()

    def initial_guess_zero(self) -> np.ndarray:
        """An all-zero initial guess."""
        return np.zeros(self.n_total_unknowns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MPDEProblem({self.mna.circuit.name!r}, grid={self.grid.n_fast}x{self.grid.n_slow}, "
            f"unknowns={self.n_total_unknowns})"
        )
