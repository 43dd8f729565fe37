"""Sparse-matrix assembly helpers.

MNA matrices and the block-structured MPDE Jacobian are assembled from many
small contributions ("stamps").  :class:`COOBuilder` accumulates triplets and
converts them to CSR/CSC once; :func:`block_diagonal` and
:func:`kron_identity` build the structured operators the MPDE discretisation
needs (per-grid-point device Jacobians combined with differentiation matrices
acting along the time axes).

The compiled-assembly fast path lives here too:

* :class:`StampPattern` — the symbolic side of stamped assembly: the raw
  (row, col) sequence a circuit's devices produce, deduplicated once into a
  CSR structure, with a vectorised numeric scatter (``dedup``) that turns
  per-point raw stamp values into CSR data arrays without touching symbolic
  work again.
* :class:`BlockDiagStructure` — precomputed CSR index arrays for
  ``blockdiag(A_0 .. A_{P-1})`` when all blocks share one pattern, so the
  block-diagonal matrix is a pure data-relabelling per Newton iteration.
* :class:`CollocationJacobianAssembler` — the symbolic structure of
  ``(D kron I_n) . blockdiag(C_p) + blockdiag(G_p)`` (the MPDE / collocation
  Jacobian), computed once per problem; per-iteration assembly is a single
  ``bincount`` scatter into a ready-made CSC skeleton.
* :class:`ColumnOrder` — the fill-reducing column order of a fixed CSC
  pattern, found by its first sparse LU and reused by every later one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "COOBuilder",
    "StampPattern",
    "BlockDiagStructure",
    "CollocationJacobianAssembler",
    "ColumnOrder",
    "block_diagonal",
    "block_diag_from_array",
    "kron_identity",
    "identity_kron",
    "periodic_backward_difference",
    "periodic_bdf2_difference",
    "periodic_central_difference",
    "periodic_fourier_differentiation",
]


class COOBuilder:
    """Accumulates (row, col, value) triplets for a sparse matrix.

    Device stamps call :meth:`add` with possibly repeated (row, col) pairs;
    duplicate entries are summed when the matrix is materialised, exactly the
    semantics MNA stamping needs.  Entries addressed to the "ground row/col"
    (index < 0) are silently dropped, which lets device code stamp without
    special-casing the ground node.
    """

    def __init__(self, n_rows: int, n_cols: int | None = None) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols if n_cols is not None else n_rows)
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []

    def add(self, row: int, col: int, value: float) -> None:
        """Add ``value`` at (row, col); ignored if either index is negative."""
        if row < 0 or col < 0 or value == 0.0:
            return
        self._rows.append(row)
        self._cols.append(col)
        self._vals.append(float(value))

    def add_block(self, rows: Sequence[int], cols: Sequence[int], block: np.ndarray) -> None:
        """Add a dense ``block`` at the (rows x cols) positions."""
        block = np.asarray(block, dtype=float)
        for i, r in enumerate(rows):
            if r < 0:
                continue
            for j, c in enumerate(cols):
                if c < 0:
                    continue
                v = block[i, j]
                if v != 0.0:
                    self._rows.append(r)
                    self._cols.append(c)
                    self._vals.append(float(v))

    def tocsr(self) -> sp.csr_matrix:
        """Materialise the accumulated triplets as a CSR matrix."""
        return sp.coo_matrix(
            (self._vals, (self._rows, self._cols)), shape=(self.n_rows, self.n_cols)
        ).tocsr()

    def tocsc(self) -> sp.csc_matrix:
        """Materialise the accumulated triplets as a CSC matrix."""
        return self.tocsr().tocsc()

    def __len__(self) -> int:
        return len(self._vals)


class StampPattern:
    """Compiled sparsity pattern of a stamped (MNA-style) matrix.

    ``raw_rows`` / ``raw_cols`` record every ``add`` call the devices make,
    in stamp order; ``slot`` maps each raw entry onto its deduplicated CSR
    slot.  The unique entries are kept in row-major (CSR) order so that
    ``(data, indices, indptr)`` can be handed to :class:`scipy.sparse.csr_matrix`
    without any per-call sorting or duplicate summation.

    ``dedup`` sums the raw per-point values into CSR data arrays with a
    single ``bincount``; the summation visits raw entries in stamp order, so
    the result is bit-for-bit identical to dense ``+=`` accumulation.
    """

    def __init__(self, raw_rows: Sequence[int], raw_cols: Sequence[int], n: int) -> None:
        self.n = int(n)
        self.raw_rows = np.asarray(raw_rows, dtype=np.int64)
        self.raw_cols = np.asarray(raw_cols, dtype=np.int64)
        if self.raw_rows.shape != self.raw_cols.shape or self.raw_rows.ndim != 1:
            raise ValueError("raw_rows and raw_cols must be 1-D arrays of equal length")
        if self.raw_rows.size and (
            self.raw_rows.min() < 0
            or self.raw_cols.min() < 0
            or self.raw_rows.max() >= n
            or self.raw_cols.max() >= n
        ):
            raise ValueError("stamp pattern indices out of range")
        keys = self.raw_rows * self.n + self.raw_cols
        unique_keys, slot = np.unique(keys, return_inverse=True)
        self.slot = slot.astype(np.int64)
        self.rows = (unique_keys // self.n).astype(np.int32)
        self.cols = (unique_keys % self.n).astype(np.int32)
        self.indices = self.cols.copy()
        counts = np.bincount(self.rows, minlength=self.n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self._dedup_index_cache: dict[int, np.ndarray] = {}

    @property
    def nnz_raw(self) -> int:
        """Number of raw stamp contributions (before duplicate merging)."""
        return int(self.raw_rows.size)

    @property
    def nnz(self) -> int:
        """Number of structural nonzeros after duplicate merging."""
        return int(self.rows.size)

    def dedup(self, raw_values: np.ndarray) -> np.ndarray:
        """Sum raw per-point stamp values ``(P, nnz_raw)`` into ``(P, nnz)`` CSR data."""
        raw_values = np.asarray(raw_values, dtype=float)
        if raw_values.ndim != 2 or raw_values.shape[1] != self.nnz_raw:
            raise ValueError(
                f"raw values must have shape (P, {self.nnz_raw}), got {raw_values.shape}"
            )
        n_points = raw_values.shape[0]
        if self.nnz == 0:
            return np.zeros((n_points, 0))
        index = self._dedup_index_cache.get(n_points)
        if index is None:
            offsets = np.arange(n_points, dtype=np.int64) * self.nnz
            index = (offsets[:, None] + self.slot[None, :]).ravel()
            if len(self._dedup_index_cache) > 4:
                self._dedup_index_cache.clear()
            self._dedup_index_cache[n_points] = index
        summed = np.bincount(index, weights=raw_values.ravel(), minlength=n_points * self.nnz)
        return summed.reshape(n_points, self.nnz)

    def csr_from_data(self, data: np.ndarray) -> sp.csr_matrix:
        """CSR matrix for one point's deduplicated data row (shape ``(nnz,)``)."""
        data = np.asarray(data, dtype=float)
        if data.shape != (self.nnz,):
            raise ValueError(f"data must have shape ({self.nnz},), got {data.shape}")
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StampPattern(n={self.n}, nnz={self.nnz}, raw={self.nnz_raw})"


class BlockDiagStructure:
    """Precomputed CSR structure of ``blockdiag(A_0 .. A_{P-1})`` with a shared pattern.

    All blocks share one :class:`StampPattern`; building the block-diagonal
    matrix for new numeric values is then a single :class:`scipy.sparse.csr_matrix`
    construction from precomputed index arrays (no COO conversion, no symbolic
    work per call).
    """

    def __init__(self, pattern: StampPattern, n_blocks: int) -> None:
        self.pattern = pattern
        self.n_blocks = int(n_blocks)
        n = pattern.n
        self.size = self.n_blocks * n
        nnz = pattern.nnz
        offsets = np.repeat(np.arange(self.n_blocks, dtype=np.int64) * n, nnz)
        self.indices = (np.tile(pattern.indices.astype(np.int64), self.n_blocks) + offsets).astype(
            np.int32
        )
        row_counts = np.tile(np.diff(pattern.indptr), self.n_blocks)
        self.indptr = np.concatenate([[0], np.cumsum(row_counts)]).astype(np.int64)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """Block-diagonal CSR from deduplicated per-point data ``(P, nnz)``."""
        data = np.asarray(data, dtype=float)
        if data.shape != (self.n_blocks, self.pattern.nnz):
            raise ValueError(
                f"data must have shape ({self.n_blocks}, {self.pattern.nnz}), got {data.shape}"
            )
        return sp.csr_matrix(
            (data.ravel(), self.indices, self.indptr), shape=(self.size, self.size)
        )


class ColumnOrder:
    """Sparse-LU column order of one fixed CSC pattern, computed once.

    SuperLU's default COLAMD ordering reads only the sparsity pattern, so
    every ``splu`` of matrices sharing a pattern computes the same
    ``perm_c``.  The owner of the pattern records the ``perm_c`` of its
    first factorisation (:meth:`record`).  Every later factorisation is
    ``splu(order.matrix(data), permc_spec="NATURAL")``, solved through
    :meth:`solve`: the same ``L``, ``U`` and row pivots as ``splu(A)``, bit
    for bit, without the ordering.

    :meth:`matrix` is ``Pc^T A Pc``, not ``A Pc``: SuperLU breaks an exact
    tie for the largest entry of a pivot column in favour of the diagonal
    of ``Pc^T A Pc``, and with only the columns reordered it would favour
    other entries (the ``L/h`` stamps of an inductor under backward Euler
    tie this way).  Each column keeps its entries in their storage order in
    ``A``, which is the order SuperLU's symbolic factorisation visits them.
    """

    def __init__(self, indices: np.ndarray, indptr: np.ndarray) -> None:
        self._indices = indices
        self._indptr = indptr
        self.size = int(indptr.size - 1)
        #: ``perm_c`` of the pattern's first ``splu`` (None before it):
        #: row and column ``i`` of ``A`` are row and column ``perm_c[i]`` of
        #: ``Pc^T A Pc``.
        self.perm_c: np.ndarray | None = None
        self._columns: np.ndarray | None = None
        self._layout: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def record(self, perm_c: np.ndarray) -> None:
        """Keep the column permutation of the pattern's first factorisation."""
        self.perm_c = np.array(perm_c, dtype=np.int64, copy=True)
        self._columns = np.argsort(self.perm_c)

    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(source, indices, indptr)`` of ``Pc^T A Pc``.

        Entry ``k`` of the reordered matrix is entry ``source[k]`` of ``A``.
        Built on the first call, so a pattern factored only once never pays
        for it.
        """
        if self.perm_c is None:
            raise ValueError("no column order recorded yet")
        if self._layout is None:
            columns = self._columns  # column j of Pc^T A Pc is column columns[j] of A
            counts = np.diff(self._indptr)[columns]
            indptr = np.concatenate([[0], np.cumsum(counts)]).astype(self._indptr.dtype)
            source = np.repeat(self._indptr[columns] - indptr[:-1], counts) + np.arange(
                indptr[-1], dtype=np.int64
            )
            indices = self.perm_c[self._indices[source]].astype(self._indices.dtype)
            self._layout = (source, indices, indptr)
        return self._layout

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """``Pc^T A Pc`` from data in :meth:`layout` order, for ``splu`` only.

        Its row indices are not sorted within a column, and the matrix is
        marked canonical so that ``splu`` keeps them in that order; other
        sparse operations would misread it.
        """
        _, indices, indptr = self.layout()
        matrix = sp.csc_matrix((data, indices, indptr), shape=(self.size, self.size))
        matrix.has_canonical_format = True
        return matrix

    def solve(self, factor, rhs: np.ndarray) -> np.ndarray:
        """``A^{-1} rhs`` by the LU ``factor`` of :meth:`matrix` (columns of a 2-D ``rhs``)."""
        return factor.solve(rhs[self._columns])[self.perm_c]


class CollocationJacobianAssembler:
    """Symbolic-once / numeric-per-iteration assembly of the collocation Jacobian.

    The Jacobian of every collocation-in-time discretisation in the library
    (the 2-D MPDE grid and the 1-D periodic-steady-state solver alike) has
    the form::

        J = (D kron I_n) . blockdiag(C_0 .. C_{P-1}) + blockdiag(G_0 .. G_{P-1})

    with ``D`` a constant ``(P, P)`` differentiation operator and ``C_p`` /
    ``G_p`` the per-point device Jacobians.  Because ``D`` and the stamp
    patterns never change, the *structure* of ``J`` — the merged CSC index
    arrays and the mapping of every contribution onto its CSC slot — is
    computed once here.  :meth:`assemble` then reduces each Newton iteration
    to one broadcast multiply plus one ``bincount`` scatter.

    The pattern's sparse-LU column order is computed once per problem too:
    the first factorisation records it in :attr:`column_order`, and
    :meth:`assemble_ordered` scatters every later Jacobian straight into
    that column order, for a ``permc_spec="NATURAL"`` factorisation.
    """

    def __init__(
        self,
        derivative: sp.spmatrix | np.ndarray,
        dynamic_pattern: StampPattern,
        static_pattern: StampPattern,
        n: int,
    ) -> None:
        coo = sp.coo_matrix(sp.csr_matrix(derivative))
        if coo.shape[0] != coo.shape[1]:
            raise ValueError("derivative operator must be square")
        self.n = int(n)
        self.n_points = int(coo.shape[0])
        self.size = self.n_points * self.n
        self.dynamic_pattern = dynamic_pattern
        self.static_pattern = static_pattern
        self._d_rows = coo.row.astype(np.int64)
        self._d_cols = coo.col.astype(np.int64)
        self._d_vals = coo.data.astype(float).copy()

        n64 = np.int64(self.n)
        size64 = np.int64(self.size)
        # (D kron I) . blockdiag(C): D entry (i, j) scales block C_j into
        # global block position (i, j).
        c_rows = (self._d_rows[:, None] * n64 + dynamic_pattern.rows[None, :]).ravel()
        c_cols = (self._d_cols[:, None] * n64 + dynamic_pattern.cols[None, :]).ravel()
        # blockdiag(G): block p sits at global block position (p, p).
        p_off = np.arange(self.n_points, dtype=np.int64) * n64
        g_rows = (p_off[:, None] + static_pattern.rows[None, :]).ravel()
        g_cols = (p_off[:, None] + static_pattern.cols[None, :]).ravel()
        # Column-major keys put the merged entries directly into CSC order.
        keys = np.concatenate([c_cols * size64 + c_rows, g_cols * size64 + g_rows])
        unique_keys, slot = np.unique(keys, return_inverse=True)
        self._slot = slot.astype(np.int64)
        self.nnz = int(unique_keys.size)
        self._csc_rows = (unique_keys % size64).astype(np.int32)
        col_of = (unique_keys // size64).astype(np.int64)
        counts = np.bincount(col_of, minlength=self.size)
        self._csc_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        #: Sparse-LU column order of ``J``, recorded by its first factorisation.
        self.column_order = ColumnOrder(self._csc_rows, self._csc_indptr)
        self._ordered_slot: np.ndarray | None = None

    def _contributions(self, c_data: np.ndarray, g_data: np.ndarray) -> np.ndarray:
        """Every contribution to ``J``, aligned with the scatter map ``_slot``."""
        c_data = np.asarray(c_data, dtype=float)
        g_data = np.asarray(g_data, dtype=float)
        expected_c = (self.n_points, self.dynamic_pattern.nnz)
        expected_g = (self.n_points, self.static_pattern.nnz)
        if c_data.shape != expected_c:
            raise ValueError(f"c_data must have shape {expected_c}, got {c_data.shape}")
        if g_data.shape != expected_g:
            raise ValueError(f"g_data must have shape {expected_g}, got {g_data.shape}")
        contrib_c = (self._d_vals[:, None] * c_data[self._d_cols, :]).ravel()
        return np.concatenate([contrib_c, g_data.ravel()])

    def assemble(self, c_data: np.ndarray, g_data: np.ndarray) -> sp.csc_matrix:
        """Numeric assembly of ``J`` from per-point CSR data arrays.

        ``c_data`` has shape ``(P, dynamic_pattern.nnz)`` and ``g_data``
        ``(P, static_pattern.nnz)``, both aligned with the patterns given at
        construction (the arrays produced by ``MNASystem.evaluate_sparse``).
        """
        contributions = self._contributions(c_data, g_data)
        data = np.bincount(self._slot, weights=contributions, minlength=self.nnz)
        return sp.csc_matrix(
            (data, self._csc_rows, self._csc_indptr), shape=(self.size, self.size)
        )

    def assemble_ordered(self, c_data: np.ndarray, g_data: np.ndarray) -> sp.csc_matrix:
        """``J`` in :attr:`column_order`, for ``splu(..., permc_spec="NATURAL")`` only.

        The contributions are scattered straight onto the reordered
        skeleton (:meth:`ColumnOrder.matrix`), in the same order per entry
        as :meth:`assemble`, so every entry is bitwise the same.  The
        reordered scatter map is built on the first call.
        """
        source = self.column_order.layout()[0]
        if self._ordered_slot is None:
            position = np.empty_like(source)
            position[source] = np.arange(source.size)
            self._ordered_slot = position[self._slot]
        contributions = self._contributions(c_data, g_data)
        data = np.bincount(self._ordered_slot, weights=contributions, minlength=self.nnz)
        return self.column_order.matrix(data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CollocationJacobianAssembler(P={self.n_points}, n={self.n}, nnz={self.nnz})"
        )


def block_diagonal(blocks: Iterable[sp.spmatrix | np.ndarray]) -> sp.csr_matrix:
    """Stack ``blocks`` on the diagonal of one sparse matrix."""
    return sp.block_diag(list(blocks), format="csr")


def block_diag_from_array(blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal sparse matrix from a 3-D array of equal-size blocks.

    ``blocks`` has shape ``(P, n, n)``; block ``p`` occupies rows/columns
    ``p*n ... (p+1)*n - 1``.  This is the fast path used by the MPDE
    assembly, which needs a block-diagonal matrix of per-grid-point device
    Jacobians (1200 blocks for the paper's 40 x 30 grid) on every Newton
    iteration.
    """
    blocks = np.asarray(blocks, dtype=float)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ValueError(f"blocks must have shape (P, n, n), got {blocks.shape}")
    n_blocks, n, _ = blocks.shape
    local_rows, local_cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    offsets = (np.arange(n_blocks) * n)[:, None, None]
    rows = (offsets + local_rows[None, :, :]).ravel()
    cols = (offsets + local_cols[None, :, :]).ravel()
    values = blocks.ravel()
    size = n_blocks * n
    return sp.coo_matrix((values, (rows, cols)), shape=(size, size)).tocsr()


def kron_identity(matrix: sp.spmatrix | np.ndarray, n: int) -> sp.csr_matrix:
    """Return ``kron(matrix, I_n)`` in CSR format.

    Used to lift a differentiation matrix acting on grid points to one acting
    on grid points x circuit unknowns (unknowns are stored contiguously per
    grid point).
    """
    return sp.kron(sp.csr_matrix(matrix), sp.identity(n, format="csr"), format="csr")


def identity_kron(n: int, matrix: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """Return ``kron(I_n, matrix)`` in CSR format."""
    return sp.kron(sp.identity(n, format="csr"), sp.csr_matrix(matrix), format="csr")


def periodic_backward_difference(n: int, period: float) -> sp.csr_matrix:
    """First-derivative matrix for a uniform periodic grid, backward Euler.

    For samples ``y_k = y(k * h)`` with ``h = period / n`` and periodic wrap
    ``y_{-1} = y_{n-1}``, row ``k`` approximates ``y'(k h) ~ (y_k - y_{k-1}) / h``.
    Backward differencing is unconditionally stable and damps the spurious
    oscillations that central differencing produces on the sharp switching
    waveforms the paper targets.
    """
    if n < 2:
        raise ValueError("periodic difference matrices need at least 2 points")
    h = period / n
    builder = COOBuilder(n, n)
    for k in range(n):
        builder.add(k, k, 1.0 / h)
        builder.add(k, (k - 1) % n, -1.0 / h)
    return builder.tocsr()


def periodic_bdf2_difference(n: int, period: float) -> sp.csr_matrix:
    """Second-order backward (BDF2) first-derivative matrix on a periodic grid.

    Row ``k`` approximates ``y'(k h) ~ (1.5 y_k - 2 y_{k-1} + 0.5 y_{k-2}) / h``
    with periodic wrap-around.  Like backward Euler it damps high-frequency
    error modes (important for the switching waveforms the MPDE method
    targets), but it is second-order accurate, which matters for extracting
    small difference-frequency components without excessive grid resolution.
    """
    if n < 3:
        raise ValueError("BDF2 differences need at least 3 points")
    h = period / n
    builder = COOBuilder(n, n)
    for k in range(n):
        builder.add(k, k, 1.5 / h)
        builder.add(k, (k - 1) % n, -2.0 / h)
        builder.add(k, (k - 2) % n, 0.5 / h)
    return builder.tocsr()


def periodic_central_difference(n: int, period: float) -> sp.csr_matrix:
    """Second-order central first-derivative matrix on a uniform periodic grid."""
    if n < 3:
        raise ValueError("central differences need at least 3 points")
    h = period / n
    builder = COOBuilder(n, n)
    for k in range(n):
        builder.add(k, (k + 1) % n, 0.5 / h)
        builder.add(k, (k - 1) % n, -0.5 / h)
    return builder.tocsr()


def periodic_fourier_differentiation(n: int, period: float) -> np.ndarray:
    """Spectral (Fourier) differentiation matrix on a uniform periodic grid.

    Dense (n x n); exact for trigonometric polynomials resolvable on the
    grid.  Offered for smooth problems and for cross-validating the
    finite-difference operators in tests; the time-domain methods of the
    paper deliberately avoid relying on it.
    """
    if n < 2:
        raise ValueError("Fourier differentiation needs at least 2 points")
    k = np.fft.fftfreq(n, d=period / n) * 2.0 * np.pi  # angular wavenumbers
    # Differentiate each unit basis vector via FFT; column j of the result is
    # D @ e_j, i.e. the j-th column of the differentiation matrix.
    eye = np.eye(n)
    spectra = np.fft.fft(eye, axis=0)
    derivative = np.real(np.fft.ifft(1j * k[:, None] * spectra, axis=0))
    return derivative
