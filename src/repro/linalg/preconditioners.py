"""Preconditioners for the matrix-free MPDE / harmonic-balance Krylov solves.

The matrix-free Newton mode never assembles the MPDE Jacobian

    J = (D kron I_n) . blockdiag(C_p) + blockdiag(G_p)

so GMRES convergence is entirely determined by the preconditioner.  This
module collects the available choices behind one small :class:`Preconditioner`
protocol:

* :class:`BlockCirculantPreconditioner` — the structure-exploiting choice for
  the periodic (circulant) differentiation operators.  Replacing every
  per-point device block by its grid average turns the Jacobian into

      J_avg = D kron C_bar + I_P kron G_bar

  and because every periodic differentiation matrix on a uniform grid is
  circulant, the multi-dimensional FFT diagonalises ``D`` exactly.  In the
  Fourier basis ``J_avg`` falls apart into one small complex ``(n, n)`` block

      B_{mk} = (lambda1_m + lambda2_k) C_bar + G_bar

  per harmonic (mixing product) ``(m, k)`` — the frequency-domain
  preconditioner classically used for harmonic balance.  Applying the
  preconditioner is two FFTs plus ``P`` tiny back-substitutions, and it
  solves the averaged operator *exactly*; a build costs a few matvecs.
* :class:`BlockCirculantFastPreconditioner` — the *partially-averaged*
  refinement of the block-circulant mode.  Averaging over both grid axes is a
  poor model for strongly LO-switched circuits, where the device operating
  points (and hence the Jacobian blocks) swing hard within one fast (LO)
  cycle; the averaged-vs-true Jacobian distance, not preconditioner quality,
  then limits GMRES.  This mode averages the per-point blocks only along the
  *slow* axis, so the preconditioned operator

      J_pa = (D1 kron I_ns kron I_n) blkdiag(C_i) + (I_nf kron D2 kron I_n)
             blkdiag(C_i) + blkdiag(G_i)

  keeps one block ``(C_i, G_i)`` per fast point ``i``.  Only the slow axis is
  still constant-coefficient (circulant), so only the slow axis is
  FFT-diagonalised; per slow harmonic ``k`` that leaves one sparse complex
  system of size ``n_fast * n``

      B_k = (D1 kron I_n) blkdiag(C_i) + mu_k blkdiag(C_i) + blkdiag(G_i)

  which is LU-factored *lazily* on first use (and only for the first
  ``n_slow // 2 + 1`` harmonics — conjugate symmetry of real data supplies
  the rest for free).  The factorisation effort stays observable through
  :attr:`BlockCirculantFastPreconditioner.harmonic_factorizations` and
  ``MPDEStats.preconditioner_harmonic_builds``.

Both kinds are rebuilt from fresh Jacobian data at every Newton iterate.
"""

from __future__ import annotations

import time
from typing import Callable, Protocol, runtime_checkable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..utils.logging import get_logger
from ..utils.options import PRECONDITIONER_KINDS
from .sparse import BlockDiagStructure, kron_identity

__all__ = [
    "PRECONDITIONER_KINDS",
    "Preconditioner",
    "BlockCirculantPreconditioner",
    "BlockCirculantFastPreconditioner",
    "averaged_dense_blocks",
    "build_averaged_preconditioner",
    "circulant_eigenvalues",
    "slow_averaged_data",
]

_LOG = get_logger("linalg.preconditioners")

@runtime_checkable
class Preconditioner(Protocol):
    """What the Krylov layer expects from a preconditioner.

    A preconditioner approximates ``A^{-1}`` for the system matrix ``A``:
    :meth:`solve` applies that approximation to a vector.  ``degraded`` is
    True when a fallback weakened the approximation (a singular harmonic
    block replaced by its pseudo-inverse), so solvers and tests can detect
    silently-degraded preconditioning through
    :attr:`~repro.linalg.krylov.GMRESReport.preconditioner_degraded`.
    """

    kind: str
    shape: tuple[int, int]
    degraded: bool

    def solve(self, vector: np.ndarray) -> np.ndarray:
        """Apply the approximate inverse to ``vector``."""
        ...

    def as_operator(self) -> spla.LinearOperator:
        """The preconditioner as a SciPy ``LinearOperator`` (for ``gmres``)."""
        ...


class _PreconditionerBase:
    """Shared plumbing: shape bookkeeping and the ``LinearOperator`` view."""

    kind: str = "base"

    def __init__(self, size: int) -> None:
        self.shape = (int(size), int(size))
        self.degraded = False

    def solve(self, vector: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def as_operator(self) -> spla.LinearOperator:
        # The explicit dtype matters: without it LinearOperator probes the
        # matvec with a full-size zero vector to infer one, i.e. a wasted
        # preconditioner application per GMRES solve.
        return spla.LinearOperator(self.shape, matvec=self.solve, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", degraded" if self.degraded else ""
        return f"{type(self).__name__}(size={self.shape[0]}{flag})"


def averaged_dense_blocks(
    dynamic_pattern, static_pattern, c_data: np.ndarray, g_data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-averaged device Jacobians as dense ``(n, n)`` blocks.

    ``(C_bar, G_bar)`` are the per-harmonic building blocks of the
    block-circulant preconditioner, on the 2-D MPDE grid and the one-axis
    periodic steady state alike.  The patterns are the
    circuit's compiled :class:`~repro.linalg.sparse.StampPattern` objects and
    the data arrays come from ``MNASystem.evaluate_sparse``.
    """
    c_bar = dynamic_pattern.csr_from_data(
        np.asarray(c_data, dtype=float).mean(axis=0)
    ).toarray()
    g_bar = static_pattern.csr_from_data(
        np.asarray(g_data, dtype=float).mean(axis=0)
    ).toarray()
    return c_bar, g_bar


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


def build_averaged_preconditioner(
    kind: str,
    *,
    dynamic_pattern,
    static_pattern,
    c_data: np.ndarray,
    g_data: np.ndarray,
    eigenvalues_fast: np.ndarray | None = None,
    eigenvalues_slow: np.ndarray | None = None,
    fast_operator=None,
    grid_shape: tuple[int, int] | None = None,
) -> Preconditioner:
    """Kind dispatch over the two grid-averaged-operator preconditioners.

    :meth:`~repro.core.mpde.MPDEProblem.build_preconditioner` builds every
    matrix-free preconditioner through this factory, for the 2-D MPDE and
    the one-axis periodic steady state (``grid_shape = (n, 1)``) alike:

    * ``"block_circulant"`` — per-harmonic blocks from the averaged dense
      device Jacobians and the supplied circulant axis ``eigenvalues_*``.
    * ``"block_circulant_fast"`` — slow-axis partially-averaged blocks from
      :func:`slow_averaged_data` (``grid_shape`` supplies the
      ``(n_fast, n_slow)`` split), the fast-axis differentiation matrix
      ``fast_operator`` and the slow-axis ``eigenvalues_slow``.
    """
    if kind == "block_circulant_fast":
        if fast_operator is None or grid_shape is None:
            raise ValueError(
                "preconditioner kind 'block_circulant_fast' needs the fast-axis "
                "differentiation matrix (fast_operator) and the (n_fast, n_slow) "
                "grid shape"
            )
        n_fast, n_slow = grid_shape
        # Catch an omitted / mismatched slow-eigenvalue array here, where the
        # grid split is known, instead of letting a wrong-size preconditioner
        # fail with an opaque reshape error on its first application.
        n_lam = 1 if eigenvalues_slow is None else np.asarray(eigenvalues_slow).size
        if n_lam != n_slow:
            raise ValueError(
                f"preconditioner kind 'block_circulant_fast' got {n_lam} slow-axis "
                f"eigenvalue(s) for a grid with n_slow = {n_slow}"
            )
        return BlockCirculantFastPreconditioner(
            slow_averaged_data(c_data, n_fast, n_slow),
            slow_averaged_data(g_data, n_fast, n_slow),
            dynamic_pattern,
            static_pattern,
            fast_operator,
            eigenvalues_slow,
        )
    if kind == "block_circulant":
        if eigenvalues_fast is None:
            raise ValueError(
                "preconditioner kind 'block_circulant' needs the circulant "
                "eigenvalues of the (fast) axis differentiation operator"
            )
        c_bar, g_bar = averaged_dense_blocks(
            dynamic_pattern, static_pattern, c_data, g_data
        )
        return BlockCirculantPreconditioner(c_bar, g_bar, eigenvalues_fast, eigenvalues_slow)
    raise ValueError(
        f"unknown preconditioner kind {kind!r}; use one of {PRECONDITIONER_KINDS}"
    )


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


class BlockCirculantPreconditioner(_PreconditionerBase):
    """Per-harmonic (frequency-domain) preconditioner for circulant operators.

    Solves the grid-averaged operator

        J_avg = (D1 oplus D2) kron C_bar + I_P kron G_bar

    *exactly* by FFT-diagonalising the periodic axes: for each harmonic pair
    ``(m, k)`` the small complex block ``B_mk = (lambda1_m + lambda2_k) C_bar
    + G_bar`` is inverted once at construction, and every application is two
    FFTs plus a batched block multiply.

    Parameters
    ----------
    c_bar, g_bar:
        Grid-averaged dynamic / static device Jacobians, dense ``(n, n)``.
    eigenvalues_fast:
        Circulant eigenvalues of the fast-axis differentiation matrix
        (length ``n_fast``), ordered as :func:`numpy.fft.fft` output.
    eigenvalues_slow:
        Circulant eigenvalues of the slow-axis operator (length ``n_slow``).
        Pass the default (a single zero) for one-dimensional collocation
        problems (single-tone periodic steady state).

    Notes
    -----
    Harmonic blocks that are exactly singular (e.g. a singular ``G_bar`` at
    the DC harmonic) are replaced by their pseudo-inverse; the instance is
    then flagged ``degraded`` and a warning is logged.
    """

    kind = "block_circulant"

    def __init__(
        self,
        c_bar: np.ndarray,
        g_bar: np.ndarray,
        eigenvalues_fast: np.ndarray,
        eigenvalues_slow: np.ndarray | None = None,
    ) -> None:
        c_bar = np.asarray(c_bar, dtype=float)
        g_bar = np.asarray(g_bar, dtype=float)
        if c_bar.ndim != 2 or c_bar.shape[0] != c_bar.shape[1]:
            raise ValueError(f"c_bar must be square, got shape {c_bar.shape}")
        if g_bar.shape != c_bar.shape:
            raise ValueError(
                f"g_bar shape {g_bar.shape} does not match c_bar shape {c_bar.shape}"
            )
        lam_fast = np.asarray(eigenvalues_fast, dtype=complex).ravel()
        lam_slow = (
            np.zeros(1, dtype=complex)
            if eigenvalues_slow is None
            else np.asarray(eigenvalues_slow, dtype=complex).ravel()
        )
        if lam_fast.size == 0 or lam_slow.size == 0:
            raise ValueError("eigenvalue arrays must be non-empty")
        self.n_unknowns = c_bar.shape[0]
        self.n_fast = lam_fast.size
        self.n_slow = lam_slow.size
        super().__init__(self.n_fast * self.n_slow * self.n_unknowns)

        # One (n, n) complex block per harmonic (m, k).
        lam = lam_fast[:, None] + lam_slow[None, :]
        blocks = lam[:, :, None, None] * c_bar[None, None] + g_bar[None, None]
        try:
            self._inverse_blocks = np.linalg.inv(blocks)
        except np.linalg.LinAlgError:
            self._inverse_blocks = self._invert_with_fallback(blocks)

    @property
    def n_harmonics(self) -> int:
        """Number of per-harmonic blocks (``n_fast * n_slow``)."""
        return self.n_fast * self.n_slow

    def _invert_with_fallback(self, blocks: np.ndarray) -> np.ndarray:
        """Invert blocks one by one, pseudo-inverting the singular ones."""
        flat = blocks.reshape(-1, self.n_unknowns, self.n_unknowns)
        inverses = np.empty_like(flat)
        singular = 0
        for index, block in enumerate(flat):
            try:
                inverses[index] = np.linalg.inv(block)
            except np.linalg.LinAlgError:
                inverses[index] = np.linalg.pinv(block)
                singular += 1
        _LOG.warning(
            "block-circulant preconditioner: %d of %d harmonic blocks are singular; "
            "using pseudo-inverses (degraded preconditioning)",
            singular,
            flat.shape[0],
        )
        self.degraded = True
        return inverses.reshape(blocks.shape)

    def solve(self, vector: np.ndarray) -> np.ndarray:
        grid = np.asarray(vector).reshape(self.n_fast, self.n_slow, self.n_unknowns)
        spectrum = np.fft.fft2(grid, axes=(0, 1))
        solved = np.einsum("fsij,fsj->fsi", self._inverse_blocks, spectrum)
        result = np.fft.ifft2(solved, axes=(0, 1))
        return np.ascontiguousarray(result.real).reshape(np.shape(vector))


class BlockCirculantFastPreconditioner(_PreconditionerBase):
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
        ``(n_fast, n_fast)``.
    eigenvalues_slow:
        Circulant eigenvalues ``mu_k`` of the slow-axis operator (length
        ``n_slow``), ordered as :func:`numpy.fft.fft` output.  Omit (or pass
        a single zero) for one-dimensional collocation problems, where the
        single ``B_0`` equals the unaveraged Jacobian itself.
    Notes
    -----
    Factorisations are *lazy* by default: ``B_k`` is LU-factored on the
    first solve that touches harmonic ``k``, and only the first
    ``n_slow // 2 + 1`` harmonics are ever factored — conjugate symmetry
    (``B_{n-k} = conj(B_k)``, real-input spectra obey ``v_{n-k} =
    conj(v_k)``) supplies the mirrored solutions by conjugation.  A complex
    vector splits into its real and imaginary parts, which share one FFT
    call and one sweep over the harmonic solvers (two-column RHS), bitwise
    equal to — and half the cost of — applying the preconditioner to each
    part separately.  :attr:`harmonic_factorizations` counts the sparse LU
    factorisations performed so far (surfaced as
    ``MPDEStats.preconditioner_harmonic_builds``).

    The solver rebuilds this mode from fresh Jacobian data at every Newton
    iterate.  That is a measured trade: a build is ~``n_slow // 2`` sparse
    LUs, i.e. a few GMRES iterations' worth of back-substitutions, while a
    stale instance is invalidated by a single Newton step precisely because
    it tracks the per-fast-point operating points (on the 36x18 LO-switched
    balanced mixer a cached instance under an iteration-trend refresh policy
    cost 2578 total GMRES iterations against 362 for fresh rebuilds — the
    first post-build Newton step set the policy's baseline at 1 iteration
    while the stale solve burned 1918).  Singular harmonic systems fall back
    to a dense pseudo-inverse and flag the instance ``degraded``.
    """

    kind = "block_circulant_fast"

    def __init__(
        self,
        c_bar_fast: np.ndarray,
        g_bar_fast: np.ndarray,
        dynamic_pattern,
        static_pattern,
        fast_operator: sp.spmatrix | np.ndarray,
        eigenvalues_slow: np.ndarray | None = None,
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
        fast = sp.csr_matrix(fast_operator)
        if fast.shape != (c_bar_fast.shape[0],) * 2:
            raise ValueError(
                f"fast operator shape {fast.shape} does not match n_fast = "
                f"{c_bar_fast.shape[0]}"
            )
        lam_slow = (
            np.zeros(1, dtype=complex)
            if eigenvalues_slow is None
            else np.asarray(eigenvalues_slow, dtype=complex).ravel()
        )
        if lam_slow.size == 0:
            raise ValueError("eigenvalue arrays must be non-empty")
        self.n_unknowns = int(dynamic_pattern.n)
        self.n_fast = int(c_bar_fast.shape[0])
        self.n_slow = int(lam_slow.size)
        super().__init__(self.n_fast * self.n_slow * self.n_unknowns)

        c_blk = BlockDiagStructure(dynamic_pattern, self.n_fast).matrix(c_bar_fast)
        g_blk = BlockDiagStructure(static_pattern, self.n_fast).matrix(g_bar_fast)
        d_kron = kron_identity(fast, self.n_unknowns)
        # B_k = base + mu_k * C_blk; both factors are real, so the complex
        # per-harmonic systems are assembled by one scalar-times-sparse add.
        self._base = (d_kron @ c_blk + g_blk).tocsc()
        self._c_blk = c_blk.tocsc()
        self._lam_slow = lam_slow
        self._solvers: dict[int, Callable[[np.ndarray], np.ndarray]] = {}
        #: Sparse LU factorisations performed so far (conjugate-symmetric:
        #: at most ``n_slow // 2 + 1``).
        self.harmonic_factorizations = 0
        #: Harmonic back-substitutions dispatched so far: one per distinct
        #: harmonic per :meth:`solve` call — a complex apply shares a single
        #: sweep (it does not double-count against a real apply).
        self.harmonic_applies = 0
        #: Wall time spent inside the per-harmonic back-substitutions of
        #: every apply.
        self.apply_backsub_time_s = 0.0

    @property
    def n_harmonics(self) -> int:
        """Number of slow harmonics (distinct per-harmonic systems)."""
        return self.n_slow

    def _harmonic_solver(self, k: int) -> Callable[[np.ndarray], np.ndarray]:
        """The solver for slow harmonic ``k``, LU-factored on first use.

        The returned callable back-substitutes 1-D or 2-D (multi-column)
        right-hand sides.  A singular harmonic system falls back to a dense
        pseudo-inverse and flags the instance ``degraded``.
        """
        solver = self._solvers.get(k)
        if solver is not None:
            return solver
        matrix = (self._base + self._lam_slow[k] * self._c_blk).tocsc()
        try:
            solver = spla.splu(matrix).solve
        except RuntimeError:
            _LOG.warning(
                "block-circulant-fast preconditioner: slow harmonic %d is "
                "singular; using a dense pseudo-inverse (degraded "
                "preconditioning)",
                k,
            )
            pinv = np.linalg.pinv(matrix.toarray())

            def solver(rhs: np.ndarray, _pinv=pinv) -> np.ndarray:
                # Column-wise on 2-D RHS so a batched apply stays bitwise
                # equal to per-column applies (dense GEMM picks different
                # kernels than GEMV; SuperLU back-substitution does not).
                if rhs.ndim == 1:
                    return _pinv @ rhs
                out = np.empty((_pinv.shape[0], rhs.shape[1]), dtype=complex)
                for column in range(rhs.shape[1]):
                    out[:, column] = _pinv @ rhs[:, column]
                return out

            self.degraded = True
        self._solvers[k] = solver
        self.harmonic_factorizations += 1
        return solver

    def solve(self, vector: np.ndarray) -> np.ndarray:
        values = np.asarray(vector)
        if np.iscomplexobj(values):
            # The apply is linear, so a complex vector splits exactly into
            # real and imaginary applies — but those share one FFT call and
            # one sweep over the harmonic solvers (two-column RHS; SuperLU
            # back-substitutes columns independently), so the result is
            # bitwise what the former two-pass
            # ``solve(real) + 1j * solve(imag)`` recursion produced at half
            # the FFT and solver-sweep cost.
            grids = np.stack([values.real, values.imag]).reshape(
                2, self.n_fast, self.n_slow, self.n_unknowns
            )
            solved = self._solve_real_grids(grids)
            return (solved[0] + 1j * solved[1]).reshape(np.shape(vector))
        grid = values.reshape(1, self.n_fast, self.n_slow, self.n_unknowns)
        return self._solve_real_grids(grid)[0].reshape(np.shape(vector))

    def _solve_real_grids(self, grids: np.ndarray) -> np.ndarray:
        """Apply the preconditioner to ``m`` stacked real grids at once.

        ``grids`` has shape ``(m, n_fast, n_slow, n_unknowns)``; the slow
        axis of every grid is FFT-transformed in one call and each distinct
        harmonic system is solved once with an ``m``-column RHS.
        """
        m = grids.shape[0]
        spectrum = np.fft.fft(grids, axis=2)
        solved = np.empty_like(spectrum)
        # Real input: the slow-axis spectrum is conjugate-symmetric and the
        # per-harmonic systems satisfy B_{n-k} = conj(B_k), so the upper half
        # of the harmonics is solved by conjugating the lower half.
        half = self.n_slow // 2
        size = self.n_fast * self.n_unknowns
        for k in range(half + 1):
            solver = self._harmonic_solver(k)
            self.harmonic_applies += 1
            if m == 1:
                rhs = np.ascontiguousarray(spectrum[0, :, k, :]).ravel()
                start = time.perf_counter()
                solution = solver(rhs)
                self.apply_backsub_time_s += time.perf_counter() - start
                solved[0, :, k, :] = solution.reshape(self.n_fast, self.n_unknowns)
            else:
                rhs = np.ascontiguousarray(spectrum[:, :, k, :].reshape(m, size).T)
                start = time.perf_counter()
                solution = solver(rhs)
                self.apply_backsub_time_s += time.perf_counter() - start
                solved[:, :, k, :] = solution.T.reshape(m, self.n_fast, self.n_unknowns)
        for k in range(half + 1, self.n_slow):
            solved[:, :, k, :] = np.conj(solved[:, :, self.n_slow - k, :])
        return np.ascontiguousarray(np.fft.ifft(solved, axis=2).real)
