"""Preconditioners for the matrix-free MPDE / harmonic-balance Krylov solves.

The matrix-free Newton mode never assembles the MPDE Jacobian

    J = (D kron I_n) . blockdiag(C_p) + blockdiag(G_p)

so GMRES convergence is entirely determined by the preconditioner.  This
module provides one, :class:`BlockCirculantFastPreconditioner`, behind the
small :class:`Preconditioner` protocol the Krylov layer expects.

Averaging the per-point device blocks over both grid axes is a poor model
for strongly LO-switched circuits, where the device operating points (and
hence the Jacobian blocks) swing hard within one fast (LO) cycle.  The
preconditioner therefore averages the per-point blocks only along the
*slow* axis, so the preconditioned operator

    J_pa = (D1 kron I_ns kron I_n) blkdiag(C_i) + (I_nf kron D2 kron I_n)
           blkdiag(C_i) + blkdiag(G_i)

keeps one block ``(C_i, G_i)`` per fast point ``i``.  Only the slow axis is
constant-coefficient (circulant), so only the slow axis is FFT-diagonalised;
per slow harmonic ``k`` that leaves one sparse complex system of size
``n_fast * n``

    B_k = (D1 kron I_n) blkdiag(C_i) + mu_k blkdiag(C_i) + blkdiag(G_i)

The ``K + 1 = n_slow // 2 + 1`` distinct systems (conjugate symmetry of
real data supplies the rest) are factored together, as one sparse complex
LU of ``blkdiag(B_0 .. B_K)``, *lazily* on the first apply; an apply is
one ``rfft`` along the slow axis, one back-substitution and one
``irfft``.  The symbolic part — the union pattern of the ``B_k``, the
scatter maps of the averaged data onto it and the stacked block-diagonal
index arrays — is a :class:`BlockCirculantFastStructure`, built once per
problem.  The factorisation effort stays observable through
:attr:`BlockCirculantFastPreconditioner.harmonic_factorizations` and
``MPDEStats.preconditioner_harmonic_builds``.  On a one-axis problem
(``n_slow = 1``) the single ``B_0`` is the collocation Jacobian itself.

The preconditioner is rebuilt from fresh Jacobian data at every Newton
iterate.
"""

from __future__ import annotations

import time
from typing import Callable, Protocol, runtime_checkable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..utils.logging import get_logger
from .sparse import ColumnOrder

__all__ = [
    "Preconditioner",
    "BlockCirculantFastPreconditioner",
    "BlockCirculantFastStructure",
    "circulant_eigenvalues",
    "slow_averaged_data",
]

_LOG = get_logger("linalg.preconditioners")

@runtime_checkable
class Preconditioner(Protocol):
    """What the Krylov layer expects from a preconditioner.

    A preconditioner approximates ``A^{-1}`` for the system matrix ``A``:
    :meth:`solve` applies that approximation to a vector.  ``degraded`` is
    True when a fallback weakened the approximation (singular harmonic
    systems replaced by their pseudo-inverses), so solvers and tests can detect
    silently-degraded preconditioning through
    :attr:`~repro.linalg.krylov.GMRESReport.preconditioner_degraded`.
    """

    kind: str
    shape: tuple[int, int]
    degraded: bool

    def solve(self, vector: np.ndarray) -> np.ndarray:
        """Apply the approximate inverse to ``vector``."""
        ...


def slow_averaged_data(
    data: np.ndarray, n_fast: int, n_slow: int
) -> np.ndarray:
    """Average per-point Jacobian data along the slow axis only.

    ``data`` is a ``(P, nnz)`` array from ``MNASystem.evaluate_sparse``, with
    the grid flattened as ``p = i * n_slow + j`` (fast index outermost, the
    :class:`~repro.core.grid.MultiTimeGrid` convention).  The result is the
    ``(n_fast, nnz)`` slow-axis mean — one pattern-aligned data row per fast
    point, the building block of the partially-averaged preconditioner.  No
    dense ``(n, n)`` per-point blocks are ever formed.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] != n_fast * n_slow:
        raise ValueError(
            f"per-point data must have shape ({n_fast * n_slow}, nnz), got {data.shape}"
        )
    return data.reshape(n_fast, n_slow, -1).mean(axis=1)


def circulant_eigenvalues(
    matrix: sp.spmatrix | np.ndarray, *, check: bool = True, rtol: float = 1e-9
) -> np.ndarray:
    """Eigenvalues of a circulant matrix, ordered to match ``numpy.fft``.

    A circulant matrix ``A`` with first column ``c`` (``A[j, k] = c[(j - k)
    mod N]``) is diagonalised by the DFT: ``fft(A @ x) = fft(c) * fft(x)``.
    Every periodic differentiation operator in this library (backward Euler,
    BDF2, central, spectral Fourier) is circulant on a uniform grid, which is
    the structural fact the block-circulant preconditioner exploits.

    With ``check=True`` (the default) the matrix is verified to actually be
    circulant; a non-circulant operator (e.g. from a non-uniform grid) raises
    ``ValueError`` rather than silently producing a wrong preconditioner.
    """
    dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError(f"circulant operator must be square, got shape {dense.shape}")
    n = dense.shape[0]
    first_column = dense[:, 0]
    if check:
        # Column k of a circulant matrix is the first column rolled down by k.
        indices = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        reconstructed = first_column[indices]
        scale = max(np.abs(first_column).max(), 1e-300)
        if not np.allclose(dense, reconstructed, rtol=0.0, atol=rtol * scale):
            raise ValueError(
                "matrix is not circulant (non-uniform grid or non-periodic "
                "differentiation operator?)"
            )
    return np.fft.fft(first_column)


class BlockCirculantFastStructure:
    """Symbolic part of the ``block_circulant_fast`` preconditioner.

    Everything about the harmonic systems

        B_k = ((D1 kron I_n) + mu_k I) blkdiag(C_i) + blkdiag(G_i),
        k = 0 .. K,  K = n_slow // 2,

    that does not depend on the Jacobian values is fixed by the stamp
    patterns, the fast-axis differentiation matrix ``D1`` and ``n_slow``, so
    it is computed here once per problem (``MPDEProblem`` caches one
    instance for all its Newton iterates):

    * the union CSC pattern shared by every ``B_k`` (the pattern of
      ``(D1 kron I_n) blkdiag(C_i)``, ``blkdiag(C_i)`` and
      ``blkdiag(G_i)`` merged);
    * two scatter maps from the slow-averaged data ``(c_bar, g_bar)`` onto
      that pattern: one for the real base ``(D1 kron I_n) blkdiag(C_i) +
      blkdiag(G_i)`` and one for ``blkdiag(C_i)``;
    * the CSC ``indices``/``indptr`` of the stacked block-diagonal matrix
      ``blkdiag(B_0 .. B_K)``.

    :meth:`stacked_data` then reduces a build to two ``bincount`` scatters
    and one broadcast ``base + mu_k * c`` over all harmonics.

    The sparse-LU column order of ``blkdiag(B_0 .. B_K)`` is computed once
    per problem as well: the first build's factorisation records it in
    :attr:`column_order`, and every later build factors
    :meth:`ordered_matrix`, which is already in that order.
    """

    def __init__(
        self,
        dynamic_pattern,
        static_pattern,
        fast_operator: sp.spmatrix | np.ndarray,
        n_slow: int,
    ) -> None:
        coo = sp.coo_matrix(sp.csr_matrix(fast_operator))
        if coo.shape[0] != coo.shape[1]:
            raise ValueError(f"fast operator must be square, got shape {coo.shape}")
        if n_slow < 1:
            raise ValueError(f"n_slow must be positive, got {n_slow}")
        self.n_unknowns = int(dynamic_pattern.n)
        self.n_fast = int(coo.shape[0])
        self.n_slow = int(n_slow)
        #: Distinct harmonic systems ``B_0 .. B_K`` (conjugate symmetry of
        #: real data supplies the rest).
        self.n_blocks = self.n_slow // 2 + 1
        #: Size ``n_fast * n`` of one harmonic system.
        self.block_size = self.n_fast * self.n_unknowns
        self._d_cols = coo.col.astype(np.int64)
        self._d_vals = coo.data.astype(float)

        n = np.int64(self.n_unknowns)
        size = np.int64(self.block_size)
        point = np.arange(self.n_fast, dtype=np.int64)[:, None] * n
        # (D1 kron I_n) blkdiag(C_i): D1 entry (a, i) scales C_i into block
        # position (a, i); blkdiag(G_i) and blkdiag(C_i) sit on the diagonal.
        dc_rows = (coo.row.astype(np.int64)[:, None] * n + dynamic_pattern.rows).ravel()
        dc_cols = (self._d_cols[:, None] * n + dynamic_pattern.cols).ravel()
        g_rows = (point + static_pattern.rows).ravel()
        g_cols = (point + static_pattern.cols).ravel()
        c_rows = (point + dynamic_pattern.rows).ravel()
        c_cols = (point + dynamic_pattern.cols).ravel()
        # Column-major keys put the merged entries directly into CSC order.
        keys = np.concatenate(
            [dc_cols * size + dc_rows, g_cols * size + g_rows, c_cols * size + c_rows]
        )
        unique_keys, slot = np.unique(keys, return_inverse=True)
        n_base = dc_rows.size + g_rows.size
        self._base_slot = slot[:n_base].astype(np.int64)
        self._c_slot = slot[n_base:].astype(np.int64)
        #: Structural nonzeros of one harmonic system.
        self.nnz = int(unique_keys.size)

        rows = unique_keys % size
        counts = np.bincount(unique_keys // size, minlength=self.block_size)
        block = np.arange(self.n_blocks, dtype=np.int64)[:, None]
        self.indices = (rows[None, :] + block * size).ravel().astype(np.int32)
        self.indptr = np.concatenate(
            [[0], (np.cumsum(counts)[None, :] + block * self.nnz).ravel()]
        ).astype(np.int32)
        #: Sparse-LU column order of ``blkdiag(B_0 .. B_K)``, recorded by
        #: the first build's factorisation.
        self.column_order = ColumnOrder(self.indices, self.indptr)

    def stacked_data(
        self, c_bar: np.ndarray, g_bar: np.ndarray, mu: np.ndarray
    ) -> np.ndarray:
        """CSC data of ``blkdiag(B_0 .. B_K)`` for slow eigenvalues ``mu``.

        ``c_bar``/``g_bar`` are the ``(n_fast, nnz)`` slow-averaged data rows
        and ``mu`` holds ``mu_0 .. mu_K``.
        """
        contributions = (self._d_vals[:, None] * c_bar[self._d_cols, :]).ravel()
        base = np.bincount(
            self._base_slot,
            weights=np.concatenate([contributions, g_bar.ravel()]),
            minlength=self.nnz,
        )
        c_on = np.bincount(self._c_slot, weights=c_bar.ravel(), minlength=self.nnz)
        return (base[None, :] + mu[:, None] * c_on[None, :]).ravel()

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """``blkdiag(B_0 .. B_K)`` from :meth:`stacked_data` output."""
        size = self.n_blocks * self.block_size
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(size, size))

    def ordered_matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """:meth:`matrix` in :attr:`column_order`, for ``splu(..., permc_spec="NATURAL")`` only.

        One gather of the stacked data per build: folding the order into
        :meth:`stacked_data` would need a gather of ``base`` and of ``c`` per
        entry instead, which saves nothing.
        """
        return self.column_order.matrix(data[self.column_order.layout()[0]])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockCirculantFastStructure(n_fast={self.n_fast}, n_slow={self.n_slow}, "
            f"n={self.n_unknowns}, nnz={self.nnz})"
        )


class BlockCirculantFastPreconditioner:
    """Slow-axis partially-averaged per-harmonic preconditioner.

    Solves the *partially-averaged* operator

        J_pa = (D1 kron I_ns kron I_n) blkdiag(C_i)
             + (I_nf kron D2 kron I_n) blkdiag(C_i) + blkdiag(G_i)

    exactly, where ``(C_i, G_i)`` are the slow-axis means of the per-point
    device Jacobians at fast point ``i`` — the fast-axis (LO-phase) variation
    of the circuit is kept, which is what makes this a close Jacobian model
    for strongly switched mixers.  Only the slow axis is constant-coefficient
    (circulant), so only the slow axis is FFT-diagonalised: per slow harmonic
    ``k`` one sparse complex system

        B_k = (D1 kron I_n + mu_k I) blkdiag(C_i) + blkdiag(G_i)

    of size ``n_fast * n`` remains, coupled along the fast axis by the
    differentiation matrix ``D1`` (block-banded for the finite-difference
    rules, block-dense for the spectral rule).

    Parameters
    ----------
    c_bar_fast, g_bar_fast:
        Slow-averaged dynamic / static Jacobian data, shape
        ``(n_fast, pattern.nnz)`` and aligned with the patterns (produced by
        :func:`slow_averaged_data` from ``evaluate_sparse`` output — no dense
        per-point blocks are formed).
    dynamic_pattern, static_pattern:
        The circuit's compiled :class:`~repro.linalg.sparse.StampPattern`
        objects.
    fast_operator:
        The fast-axis differentiation matrix ``D1``, shape
        ``(n_fast, n_fast)``.  Not read when ``structure`` is given.
    eigenvalues_slow:
        Circulant eigenvalues ``mu_k`` of the slow-axis operator (length
        ``n_slow``), ordered as :func:`numpy.fft.fft` output.  Omit (or pass
        a single zero) for one-dimensional collocation problems, where the
        single ``B_0`` equals the unaveraged Jacobian itself.
    structure:
        The problem's :class:`BlockCirculantFastStructure`; built here from
        the patterns and ``fast_operator`` when omitted.

    Notes
    -----
    Only the ``K + 1 = n_slow // 2 + 1`` distinct harmonics are solved —
    conjugate symmetry (``B_{n-k} = conj(B_k)``, real-input spectra obey
    ``v_{n-k} = conj(v_k)``) supplies the rest, so an apply is one ``rfft``
    along the slow axis, one back-substitution with the sparse complex LU of
    ``blkdiag(B_0 .. B_K)`` and one ``irfft``.  That one LU is factored
    *lazily*, on the first apply; :attr:`harmonic_factorizations` then counts
    the ``K + 1`` harmonic systems it covers (surfaced as
    ``MPDEStats.preconditioner_harmonic_builds``).  Its fill-reducing column
    ordering is computed once per problem: the first build's LU records it
    on the structure, and every later build factors in that order without
    ordering again.  A complex vector splits
    into its real and imaginary parts, which share one FFT call and one
    two-column back-substitution, bitwise equal to — and half the cost of —
    applying the preconditioner to each part separately.

    The solver rebuilds this mode from fresh Jacobian data at every Newton
    iterate.  That is a measured trade: a build is one sparse LU of the
    ``K + 1`` harmonic systems, i.e. a few GMRES iterations' worth of
    back-substitutions, while a stale instance is invalidated by a single
    Newton step precisely because it tracks the per-fast-point operating
    points (on the 36x18 LO-switched balanced mixer a cached instance under
    an iteration-trend refresh policy cost 2578 total GMRES iterations
    against 362 for fresh rebuilds — the first post-build Newton step set the
    policy's baseline at 1 iteration while the stale solve burned 1918).  If
    the block-diagonal LU finds the system singular, every harmonic block
    falls back to a dense pseudo-inverse and the instance is flagged
    ``degraded``.
    """

    kind = "block_circulant_fast"

    def __init__(
        self,
        c_bar_fast: np.ndarray,
        g_bar_fast: np.ndarray,
        dynamic_pattern,
        static_pattern,
        fast_operator: sp.spmatrix | np.ndarray | None,
        eigenvalues_slow: np.ndarray | None = None,
        *,
        structure: BlockCirculantFastStructure | None = None,
    ) -> None:
        c_bar_fast = np.asarray(c_bar_fast, dtype=float)
        g_bar_fast = np.asarray(g_bar_fast, dtype=float)
        if c_bar_fast.ndim != 2 or g_bar_fast.ndim != 2:
            raise ValueError("slow-averaged data arrays must be 2-D (n_fast, nnz)")
        if c_bar_fast.shape[0] != g_bar_fast.shape[0]:
            raise ValueError(
                f"c/g slow-averaged data disagree on n_fast: "
                f"{c_bar_fast.shape[0]} vs {g_bar_fast.shape[0]}"
            )
        lam_slow = (
            np.zeros(1, dtype=complex)
            if eigenvalues_slow is None
            else np.asarray(eigenvalues_slow, dtype=complex).ravel()
        )
        if lam_slow.size == 0:
            raise ValueError("eigenvalue arrays must be non-empty")
        if structure is None:
            structure = BlockCirculantFastStructure(
                dynamic_pattern, static_pattern, fast_operator, lam_slow.size
            )
        if structure.n_fast != c_bar_fast.shape[0]:
            raise ValueError(
                f"fast operator shape {(structure.n_fast,) * 2} does not match "
                f"n_fast = {c_bar_fast.shape[0]}"
            )
        if structure.n_slow != lam_slow.size:
            raise ValueError(
                f"structure built for n_slow = {structure.n_slow} got "
                f"{lam_slow.size} slow-axis eigenvalue(s)"
            )
        self.structure = structure
        self.n_unknowns = structure.n_unknowns
        self.n_fast = structure.n_fast
        self.n_slow = structure.n_slow
        size = self.n_fast * self.n_slow * self.n_unknowns
        self.shape = (size, size)
        self.degraded = False

        self._data = structure.stacked_data(
            c_bar_fast, g_bar_fast, lam_slow[: structure.n_blocks]
        )
        self._backsolve: Callable[[np.ndarray], np.ndarray] | None = None
        #: Harmonic systems factored so far: 0 until the first apply, then
        #: ``n_slow // 2 + 1`` (all of them, in one sparse LU).
        self.harmonic_factorizations = 0
        #: Harmonic back-substitutions dispatched so far: ``n_slow // 2 + 1``
        #: per :meth:`solve` call — a complex apply shares a single
        #: back-substitution (it does not double-count against a real apply).
        self.harmonic_applies = 0
        #: Wall time spent inside the back-substitutions of every apply.
        self.apply_backsub_time_s = 0.0

    @property
    def n_harmonics(self) -> int:
        """Number of slow harmonics (distinct per-harmonic systems)."""
        return self.n_slow

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", degraded" if self.degraded else ""
        return f"{type(self).__name__}(size={self.shape[0]}{flag})"

    def _factor(self) -> Callable[[np.ndarray], np.ndarray]:
        """Factor ``blkdiag(B_0 .. B_K)`` once; returns its back-substitution.

        The problem's first build computes the COLAMD column order and
        records it on the structure; every later build factors the system
        already in that order (``permc_spec="NATURAL"``, the same LU bit for
        bit, see :class:`~repro.linalg.sparse.ColumnOrder`).  The callable
        solves a ``(rows, m)`` right-hand side.  A singular
        system falls back to one dense pseudo-inverse per harmonic block and
        flags the instance ``degraded``.
        """
        structure = self.structure
        data, self._data = self._data, None
        order = structure.column_order
        try:
            if order.perm_c is None:
                factor = spla.splu(structure.matrix(data))
                order.record(factor.perm_c)
                backsolve = factor.solve
            else:
                factor = spla.splu(structure.ordered_matrix(data), permc_spec="NATURAL")

                def backsolve(rhs: np.ndarray) -> np.ndarray:
                    return order.solve(factor, rhs)

        except RuntimeError:
            _LOG.warning(
                "block-circulant-fast preconditioner: the harmonic systems are "
                "singular; using dense pseudo-inverses (degraded preconditioning)"
            )
            matrix = structure.matrix(data)
            size, n_blocks = structure.block_size, structure.n_blocks
            pinvs = np.stack(
                [
                    np.linalg.pinv(
                        matrix[k * size : (k + 1) * size, k * size : (k + 1) * size].toarray()
                    )
                    for k in range(n_blocks)
                ]
            )

            def backsolve(rhs: np.ndarray) -> np.ndarray:
                # Column by column, so a two-column (complex) apply stays
                # bitwise equal to two real applies, as SuperLU's does: a
                # matrix-matrix product may use other kernels.
                blocks = rhs.reshape(n_blocks, size, -1)
                columns = [pinvs @ blocks[:, :, j : j + 1] for j in range(blocks.shape[2])]
                return np.concatenate(columns, axis=2).reshape(rhs.shape)

            self.degraded = True
        self.harmonic_factorizations = structure.n_blocks
        return backsolve

    def solve(self, vector: np.ndarray) -> np.ndarray:
        values = np.asarray(vector)
        if np.iscomplexobj(values):
            # The apply is linear, so a complex vector splits exactly into
            # real and imaginary applies, which share one FFT call and one
            # two-column back-substitution (SuperLU back-substitutes columns
            # independently): bitwise what ``solve(real) + 1j * solve(imag)``
            # gives at half the cost.
            grids = np.stack([values.real, values.imag]).reshape(
                2, self.n_fast, self.n_slow, self.n_unknowns
            )
            solved = self._solve_real_grids(grids)
            return (solved[0] + 1j * solved[1]).reshape(np.shape(vector))
        grid = values.reshape(1, self.n_fast, self.n_slow, self.n_unknowns)
        return self._solve_real_grids(grid)[0].reshape(np.shape(vector))

    def _solve_real_grids(self, grids: np.ndarray) -> np.ndarray:
        """Apply the preconditioner to ``m`` stacked real grids at once.

        ``grids`` has shape ``(m, n_fast, n_slow, n_unknowns)``.  Real input
        makes the slow-axis spectrum conjugate-symmetric, and ``B_{n-k} =
        conj(B_k)``, so only harmonics ``0 .. K`` are solved: one ``rfft``,
        one ``m``-column back-substitution ordered as ``blkdiag(B_0 ..
        B_K)``, one ``irfft``.
        """
        if self._backsolve is None:
            self._backsolve = self._factor()
        m = grids.shape[0]
        spectrum = np.fft.rfft(grids, axis=2)
        # Column j stacks harmonic blocks k = 0..K of grid j, each ordered
        # (fast point, unknown); the transposed copy is Fortran-ordered.
        rhs = spectrum.transpose(0, 2, 1, 3).reshape(m, -1).T
        start = time.perf_counter()
        solution = self._backsolve(rhs)
        self.apply_backsub_time_s += time.perf_counter() - start
        self.harmonic_applies += self.structure.n_blocks
        solved = solution.T.reshape(m, -1, self.n_fast, self.n_unknowns)
        return np.fft.irfft(solved.transpose(0, 2, 1, 3), n=self.n_slow, axis=2)
