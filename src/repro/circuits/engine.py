"""Batched device-class evaluation engine.

The per-device stamp loop in :class:`~repro.circuits.mna.MNASystem` costs one
Python-dispatched ``stamp_static`` / ``stamp_dynamic`` call per device per
evaluation — and once the assembly pipeline is compiled (PR 1) and the linear
solves are preconditioned (PR 2), that interpreter dispatch plus the
per-device slice arithmetic dominates the whole residual/Jacobian evaluation
for realistic netlists.  This module removes it with a classic
*gather / compute / scatter* design, compiled once per circuit:

gather
    Devices are grouped by class (more precisely by their
    :class:`~repro.circuits.devices.base.BatchSpec` key, which also encodes
    structural parameter flags).  Each group precomputes one terminal-major
    index array; at evaluation time one row ``take`` of the transposed
    padded state yields a ``(T, n_group, P)`` block whose terminal slices
    are C-contiguous ``(n_group, P)`` arrays.

compute
    The group's elementwise kernel — contributed by the device class itself
    in ``devices/*.py`` — evaluates all stamp values over the full
    ``(n_group, P)`` block in a handful of NumPy ufunc calls.  The kernels
    mirror the loop stamps expression for expression (and may skip work the
    loop path discards, e.g. cut-off MOSFET branches, via region masking —
    elementwise ufuncs make the surviving values identical), so the numbers
    they produce are bit-for-bit equal to the per-device path.

scatter
    Everything is laid out *transposed* (one raw buffer row per
    contribution), and each kernel slot owns a contiguous block of raw rows,
    so writing a slot is a plain slice assignment.  Accumulation order is
    the subtle part: duplicate contributions must sum in device insertion
    order to reproduce the loop path's ``+=`` sequence bit for bit.
    :class:`_AccumLayout` achieves that without any per-evaluation
    ``bincount``: one ``take`` gathers the first contribution to every
    residual row / Jacobian slot, and the later duplicates are folded in
    with ``+=`` in precomputed rounds that keep each target's raw order.
    Jacobian rows follow the compiled stamp patterns (the same contribution
    order :class:`~repro.circuits.devices.base.PatternValueFiller` sees on
    the loop path); linear devices declare their Jacobian values
    ``x``-independent, and those rows are written once into each raw
    buffer, so only nonlinear Jacobian values are recomputed per call.

Devices without a :meth:`batch_spec` fall back to running their loop stamps
into the very same buffers, so arbitrary (user-defined) devices keep working
inside the batched backend; every spec is validated against the device's
recorded stamp patterns at compile time, so a kernel that disagrees with the
loop stamps fails loudly.
"""

from __future__ import annotations

import numpy as np

from ..utils.exceptions import CircuitError, DeviceError
from .devices.base import (
    BatchSpec,
    Device,
    NullStamps,
    PatternRecorder,
    VectorRecorder,
)

__all__ = ["BatchedEvaluationEngine"]

_NULL_STAMPS = NullStamps()


class _AccumLayout:
    """Raw-buffer layout and order-preserving reduction of one output kind.

    The parts write their stamp values into a *raw* buffer of ``height``
    rows: one contiguous block of ``n_group`` rows per kernel slot (members
    whose slot resolves to ground write a row nobody reads), one row per
    contribution of a fallback device, and a last row that stays zero.  Raw
    contribution ``k`` (in the compiled stamp order) lives in raw row
    ``sources[k]`` and adds to output row ``targets[k]``.

    :meth:`finalize` gathers, for every output row, the raw row of its
    *first* contribution in one ``take`` (untouched output rows read the
    zero row), then folds the later duplicates in with ``+=`` in raw order.
    The folds run in rounds: round ``j`` adds the ``j``-th duplicate of every
    target that has one, and the targets of one round are distinct, so one
    fancy ``+=`` per round reproduces the loop path's per-target
    accumulation order exactly.  Constant rows (``fills``) are written once
    per buffer: :meth:`finalize` never writes into the raw buffer.
    """

    __slots__ = ("height", "first", "folds", "fills")

    def __init__(self, sources, targets, n_out: int, height: int) -> None:
        self.height = int(height)
        zero_row = self.height - 1
        first = np.full(int(n_out), zero_row, dtype=np.intp)
        seen: dict[int, int] = {}
        rounds: list[tuple[list[int], list[int]]] = []
        for source, target in zip(np.asarray(sources).tolist(), np.asarray(targets).tolist()):
            count = seen.get(target, 0)
            seen[target] = count + 1
            if count == 0:
                first[target] = source
                continue
            if len(rounds) < count:
                rounds.append(([], []))
            rounds[count - 1][0].append(target)
            rounds[count - 1][1].append(source)
        self.first = first
        # A one-duplicate round indexes with plain ints (a row view, no
        # fancy-index temporaries).
        self.folds = tuple(
            (rows[0], raw[0]) if len(rows) == 1
            else (np.asarray(rows, dtype=np.intp), np.asarray(raw, dtype=np.intp))
            for rows, raw in rounds
        )
        #: (start, stop, value) constant rows, written once per raw buffer
        self.fills: list = []

    def new_buffer(self, n_points: int) -> np.ndarray:
        """A raw buffer with its zero row and constant rows written."""
        buffer = np.empty((self.height, n_points))
        buffer[-1] = 0.0
        for start, stop, value in self.fills:
            buffer[start:stop] = value
        return buffer

    def finalize(self, raw: np.ndarray) -> np.ndarray:
        """Reduce a raw buffer to the contiguous ``(P, n_out)`` result.

        The result is a new array (the ``take``), never a view of the reused
        raw buffer: callers keep results across evaluations (e.g. the
        integration rules' charge history).
        """
        out = raw.take(self.first, axis=0)
        for rows, sources in self.folds:
            out[rows] += raw[sources]
        return np.ascontiguousarray(out.T)


class _TransposedScatter:
    """Order-preserving ``bincount`` reduction of raw contributions to ``(P, n)``.

    ``raw_rows`` lists the target row of every raw contribution in device
    insertion order; ``bincount``'s per-bin accumulation visits entries in
    input order — the order the per-device loop executes its ``+=`` updates.
    Used by the (cold) excitation path; the hot residual/Jacobian path uses
    :class:`_AccumLayout` instead.
    """

    def __init__(self, raw_rows: np.ndarray, n: int) -> None:
        self.raw_rows = np.asarray(raw_rows, dtype=np.int64)
        self.n = int(n)
        self._index_cache: dict[int, np.ndarray] = {}

    @property
    def nnz_raw(self) -> int:
        return int(self.raw_rows.size)

    def scatter(self, raw_t: np.ndarray) -> np.ndarray:
        n_points = raw_t.shape[1]
        if self.nnz_raw == 0:
            return np.zeros((n_points, self.n))
        index = self._index_cache.get(n_points)
        if index is None:
            offsets = np.arange(n_points, dtype=np.int64) * self.n
            index = (self.raw_rows[:, None] + offsets[None, :]).ravel()
            if len(self._index_cache) > 4:
                self._index_cache.clear()
            self._index_cache[n_points] = index
        summed = np.bincount(
            index, weights=raw_t.ravel(), minlength=n_points * self.n
        )
        return summed.reshape(n_points, self.n)


class _VectorValueFiller:
    """Residual accumulator writing loop-stamp values into mapped buffer rows.

    Used by the fallback path for devices without a batch spec and by the
    batched excitation evaluation; the expected row sequence is verified so
    a stamp whose structure silently depended on ``x`` (or ``t``) fails
    loudly.
    """

    __slots__ = ("buffer", "_rows", "_positions", "_cursor")

    def __init__(self, buffer: np.ndarray, rows: np.ndarray, positions: np.ndarray) -> None:
        self.buffer = buffer
        self._rows = rows
        self._positions = positions
        self._cursor = 0

    def add(self, index: int, value) -> None:
        k = self._cursor
        if k >= self._rows.size or self._rows[k] != index:
            raise DeviceError(
                "device residual stamp structure changed between engine compilation "
                f"and evaluation (got row {index} at position {k})"
            )
        self.buffer[self._positions[k]] = value
        self._cursor += 1

    @property
    def cursor(self) -> int:
        return self._cursor


class _PatternValueFiller:
    """Jacobian accumulator writing loop-stamp values into mapped buffer rows.

    The batched-layout analogue of
    :class:`~repro.circuits.devices.base.PatternValueFiller`.
    """

    __slots__ = ("buffer", "_rows", "_cols", "_positions", "_cursor")

    def __init__(
        self, buffer: np.ndarray, rows: np.ndarray, cols: np.ndarray, positions: np.ndarray
    ) -> None:
        self.buffer = buffer
        self._rows = rows
        self._cols = cols
        self._positions = positions
        self._cursor = 0

    def add(self, row: int, col: int, value) -> None:
        k = self._cursor
        if k >= self._rows.size or self._rows[k] != row or self._cols[k] != col:
            raise DeviceError(
                "device stamp structure changed between engine compilation and "
                f"evaluation (got entry ({row}, {col}) at position {k})"
            )
        self.buffer[self._positions[k]] = value
        self._cursor += 1

    @property
    def cursor(self) -> int:
        return self._cursor


class _GroupPart:
    """One kernel invocation: a device group's static *or* dynamic stamps."""

    __slots__ = ("kernel", "gather", "n_terminals", "params", "vec_blocks", "mat_blocks",
                 "mat_constant")

    def __init__(self, kernel, gather, params, vec_blocks, mat_blocks, mat_constant) -> None:
        self.kernel = kernel
        #: (T * n_group,) terminal-major index array into the padded state rows
        self.gather = np.ascontiguousarray(gather, dtype=np.intp).ravel()
        self.n_terminals = gather.shape[0]
        self.params = params  # tuple of (n_group, 1) parameter arrays
        self.vec_blocks = vec_blocks  # [(start, stop)] raw rows per kernel vec output
        self.mat_blocks = mat_blocks  # [(start, stop)] raw rows per kernel mat output
        self.mat_constant = mat_constant

    def terminal_values(self, padded_t: np.ndarray) -> np.ndarray:
        """``(T, n_group, P)`` terminal values: ``V[t]`` is C-contiguous.

        One row ``take`` for the whole group keeps every ``(n_group, P)``
        block contiguous, which is what lets the kernel ufuncs hit their
        SIMD fast paths.
        """
        return padded_t.take(self.gather, axis=0).reshape(
            self.n_terminals, -1, padded_t.shape[1]
        )

    def constant_mat_fills(self, probe_t: np.ndarray):
        """(start, stop, value) raw-row fills of an ``x``-independent Jacobian."""
        _vec, mat_values = self.kernel(self.terminal_values(probe_t), self.params, True)
        return [
            (start, stop, value)
            for (start, stop), value in zip(self.mat_blocks, mat_values)
        ]

    def run(self, X, padded_t, vec_buf, mat_buf) -> None:
        need_mat = mat_buf is not None and not self.mat_constant
        vec_values, mat_values = self.kernel(
            self.terminal_values(padded_t), self.params, need_mat
        )
        # Each slot owns a contiguous block of n_group raw rows: a plain
        # slice write, which broadcasts scalar and (n_group, 1) values.
        for (start, stop), value in zip(self.vec_blocks, vec_values):
            vec_buf[start:stop] = value
        if need_mat:
            for (start, stop), value in zip(self.mat_blocks, mat_values):
                mat_buf[start:stop] = value


class _FallbackPart:
    """Loop-stamp execution of one spec-less device into the raw buffers."""

    __slots__ = ("device", "static", "vec_rows", "vec_positions", "mat_rows", "mat_cols", "mat_positions")

    def __init__(self, device, static, vec_rows, vec_positions, mat_rows, mat_cols, mat_positions):
        self.device = device
        self.static = static
        self.vec_rows = vec_rows
        self.vec_positions = vec_positions
        self.mat_rows = mat_rows
        self.mat_cols = mat_cols
        self.mat_positions = mat_positions

    def run(self, X, padded_t, vec_buf, mat_buf) -> None:
        vec_acc = _VectorValueFiller(vec_buf, self.vec_rows, self.vec_positions)
        if mat_buf is None:
            mat_acc: object = _NULL_STAMPS
        else:
            mat_acc = _PatternValueFiller(
                mat_buf, self.mat_rows, self.mat_cols, self.mat_positions
            )
        if self.static:
            self.device.stamp_static(X, vec_acc, mat_acc)
        else:
            self.device.stamp_dynamic(X, vec_acc, mat_acc)
        if vec_acc.cursor != self.vec_rows.size or (
            mat_buf is not None and mat_acc.cursor != self.mat_rows.size
        ):
            raise DeviceError(
                f"device {self.device.name!r} made fewer stamp contributions than "
                "the engine compiled; stamp structure must not depend on x"
            )


class _SourcePattern:
    """Lazily compiled batched excitation evaluation (``b`` / ``b_hat``).

    The row pattern of the source stamps is structural but can only be
    recorded with representative time arguments, so compilation happens on
    the first call; later calls reuse the scatter and per-device buffer
    rows.  Per-device stimulus evaluation necessarily stays a Python loop
    (stimuli are heterogeneous objects) — the engine batches the scatter.
    """

    __slots__ = ("_devices", "_n", "_entries", "_scatter")

    def __init__(self, devices, n) -> None:
        self._devices = devices
        self._n = n
        self._entries = None
        self._scatter = None

    def _compile(self, stamp, args) -> None:
        entries = []
        rows_all: list[int] = []
        offset = 0
        for device in self._devices:
            recorder = VectorRecorder()
            stamp(device, args, recorder)
            count = len(recorder.rows)
            if count:
                rows = np.asarray(recorder.rows, dtype=np.int64)
                positions = np.arange(offset, offset + count, dtype=np.intp)
                entries.append((device, rows, positions))
                rows_all.extend(recorder.rows)
                offset += count
        self._entries = entries
        self._scatter = _TransposedScatter(np.asarray(rows_all, dtype=np.int64), self._n)

    def evaluate(self, stamp, args, n_points: int) -> np.ndarray:
        if self._entries is None:
            self._compile(stamp, args)
        raw = np.empty((self._scatter.nnz_raw, n_points))
        for device, rows, positions in self._entries:
            filler = _VectorValueFiller(raw, rows, positions)
            stamp(device, args, filler)
            if filler.cursor != rows.size:
                raise DeviceError(
                    f"device {device.name!r} made fewer source contributions than recorded"
                )
        return self._scatter.scatter(raw)


def _kept_vec_rows(indices, slots) -> list[int]:
    return [indices[s] for s in slots if indices[s] >= 0]


def _kept_mat_entries(indices, slots) -> list[tuple[int, int]]:
    return [
        (indices[r], indices[c])
        for r, c in slots
        if indices[r] >= 0 and indices[c] >= 0
    ]


def _slot_blocks(idx_matrix, slots, offsets, counts, sources, base, *, matrix):
    """Raw row blocks per slot, honouring ground elimination.

    ``idx_matrix`` is the group's ``(n_group, T)`` terminal-index array (with
    ``-1`` for ground), ``offsets``/``counts`` each member's segment of the
    compiled contribution sequence.  Slot ``j`` owns raw rows
    ``base + j * n_group + member``.  Walking the slots in declaration order
    advances a per-member cursor exactly as the loop stamps advance through
    the contribution sequence, which is what aligns kernel output with the
    compiled patterns: ``sources`` records the raw row of every contribution
    a kept (non-ground) slot makes.  Returns the ``(start, stop)`` blocks
    and the next free raw row.
    """
    n_group = idx_matrix.shape[0]
    members = np.arange(n_group)
    cursors = offsets.astype(np.int64).copy()
    blocks = []
    for slot in slots:
        if matrix:
            r, c = slot
            keep = (idx_matrix[:, r] >= 0) & (idx_matrix[:, c] >= 0)
        else:
            keep = idx_matrix[:, slot] >= 0
        sources[cursors[keep]] = base + members[keep]
        cursors[keep] += 1
        blocks.append((base, base + n_group))
        base += n_group
    if not np.array_equal(cursors, offsets + counts):
        raise DeviceError(
            "batch spec slots do not cover the device's recorded stamp pattern"
        )
    return blocks, base


class BatchedEvaluationEngine:
    """Compiled gather/compute/scatter evaluation of a circuit's equations.

    Built lazily by :class:`~repro.circuits.mna.MNASystem` (once per
    compiled circuit); see the module docstring for the design.  Instances
    reuse internal scratch buffers between evaluations and are therefore not
    re-entrant — consistent with the rest of the evaluation pipeline.
    """

    def __init__(self, system) -> None:
        self._system = system
        n = system.n_unknowns
        devices = system.devices

        # -- per-device stamp recording (once) ----------------------------
        probe = np.full((1, n), 0.1)
        records = []
        for device in devices:
            f_rec, g_rec = VectorRecorder(), PatternRecorder()
            device.stamp_static(probe, f_rec, g_rec)
            q_rec, c_rec = VectorRecorder(), PatternRecorder()
            device.stamp_dynamic(probe, q_rec, c_rec)
            records.append((f_rec, g_rec, q_rec, c_rec))

        # The concatenated per-device Jacobian patterns must reproduce the
        # system's compiled patterns — the engine's buffer layouts are built
        # on the pattern's raw contribution order.
        for rec_idx, pattern, what in (
            (1, system.static_pattern, "static"),
            (3, system.dynamic_pattern, "dynamic"),
        ):
            rows = [r for rec in records for r in rec[rec_idx].rows]
            cols = [c for rec in records for c in rec[rec_idx].cols]
            if not (
                np.array_equal(rows, pattern.raw_rows)
                and np.array_equal(cols, pattern.raw_cols)
            ):
                raise CircuitError(
                    f"internal error: engine-recorded {what} stamp pattern disagrees "
                    "with the system's compiled pattern"
                )

        # -- per-device contribution offsets -------------------------------
        def _offsets(counts):
            counts = np.asarray(counts, dtype=np.int64)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            return starts, counts

        f_off, f_cnt = _offsets([len(rec[0].rows) for rec in records])
        g_off, g_cnt = _offsets([len(rec[1].rows) for rec in records])
        q_off, q_cnt = _offsets([len(rec[2].rows) for rec in records])
        c_off, c_cnt = _offsets([len(rec[3].rows) for rec in records])

        # -- grouping -----------------------------------------------------
        groups: dict[tuple, list[int]] = {}
        fallback: list[int] = []
        specs: list[BatchSpec | None] = []
        for i, device in enumerate(devices):
            spec = device.batch_spec()
            specs.append(spec)
            if spec is None:
                # Inert devices (no stamps at all) need no fallback slot.
                if f_cnt[i] or g_cnt[i] or q_cnt[i] or c_cnt[i]:
                    fallback.append(i)
                continue
            self._validate_spec(devices[i], spec, records[i])
            groups.setdefault(spec.key, []).append(i)

        # -- raw row allocation ---------------------------------------------
        # Per output kind: the raw row of every compiled contribution, and
        # the next free raw row.
        sources = {
            "f": np.empty(int(f_cnt.sum()), dtype=np.intp),
            "g": np.empty(int(g_cnt.sum()), dtype=np.intp),
            "q": np.empty(int(q_cnt.sum()), dtype=np.intp),
            "c": np.empty(int(c_cnt.sum()), dtype=np.intp),
        }
        base = dict.fromkeys(sources, 0)

        def _blocks(kind, idx_matrix, slots, off, cnt, *, matrix):
            blocks, base[kind] = _slot_blocks(
                idx_matrix, slots, off, cnt, sources[kind], base[kind], matrix=matrix
            )
            return blocks

        def _rows(kind, start, count):
            rows = np.arange(base[kind], base[kind] + count, dtype=np.intp)
            sources[kind][start : start + count] = rows
            base[kind] += count
            return rows

        self._static_parts: list[_GroupPart | _FallbackPart] = []
        self._dynamic_parts: list[_GroupPart | _FallbackPart] = []
        for key, members in groups.items():
            first = specs[members[0]]
            idx_matrix = np.asarray([specs[i].indices for i in members], dtype=np.int64)
            gather = np.where(idx_matrix < 0, n, idx_matrix).T  # (T, n_group)

            def _stack_params(values_of):
                return tuple(
                    np.asarray([values_of(specs[i])[j] for i in members])[:, None]
                    for j in range(len(values_of(first)))
                )

            # A part none of whose Jacobian slots survives ground
            # elimination needs no per-evaluation Jacobian either.
            if first.static_kernel is not None:
                self._static_parts.append(
                    _GroupPart(
                        first.static_kernel,
                        gather,
                        _stack_params(lambda s: s.static_params),
                        _blocks("f", idx_matrix, first.static_vec, f_off[members],
                                f_cnt[members], matrix=False),
                        _blocks("g", idx_matrix, first.static_mat, g_off[members],
                                g_cnt[members], matrix=True),
                        first.static_mat_constant or not g_cnt[members].any(),
                    )
                )
            if first.dynamic_kernel is not None:
                self._dynamic_parts.append(
                    _GroupPart(
                        first.dynamic_kernel,
                        gather,
                        _stack_params(lambda s: s.dynamic_params),
                        _blocks("q", idx_matrix, first.dynamic_vec, q_off[members],
                                q_cnt[members], matrix=False),
                        _blocks("c", idx_matrix, first.dynamic_mat, c_off[members],
                                c_cnt[members], matrix=True),
                        first.dynamic_mat_constant or not c_cnt[members].any(),
                    )
                )

        for i in fallback:
            device = devices[i]
            if f_cnt[i] or g_cnt[i]:
                self._static_parts.append(
                    _FallbackPart(
                        device,
                        True,
                        np.asarray(records[i][0].rows, dtype=np.int64),
                        _rows("f", f_off[i], f_cnt[i]),
                        system.static_pattern.raw_rows[g_off[i] : g_off[i] + g_cnt[i]],
                        system.static_pattern.raw_cols[g_off[i] : g_off[i] + g_cnt[i]],
                        _rows("g", g_off[i], g_cnt[i]),
                    )
                )
            if q_cnt[i] or c_cnt[i]:
                self._dynamic_parts.append(
                    _FallbackPart(
                        device,
                        False,
                        np.asarray(records[i][2].rows, dtype=np.int64),
                        _rows("q", q_off[i], q_cnt[i]),
                        system.dynamic_pattern.raw_rows[c_off[i] : c_off[i] + c_cnt[i]],
                        system.dynamic_pattern.raw_cols[c_off[i] : c_off[i] + c_cnt[i]],
                        _rows("c", c_off[i], c_cnt[i]),
                    )
                )

        # One extra raw row per kind stays zero (untouched output rows).
        self._f_layout = _AccumLayout(
            sources["f"], [r for rec in records for r in rec[0].rows], n, base["f"] + 1
        )
        self._q_layout = _AccumLayout(
            sources["q"], [r for rec in records for r in rec[2].rows], n, base["q"] + 1
        )
        self._g_layout = _AccumLayout(
            sources["g"], system.static_pattern.slot, system.static_pattern.nnz, base["g"] + 1
        )
        self._c_layout = _AccumLayout(
            sources["c"], system.dynamic_pattern.slot, system.dynamic_pattern.nnz, base["c"] + 1
        )

        # -- constant Jacobian rows ---------------------------------------
        # Linear devices' Jacobian values never change: capture them once
        # (per part, shapes are point-independent); every raw Jacobian
        # buffer is created with them written, and no evaluation rewrites
        # them.
        probe_t = np.full((n + 1, 1), 0.1)
        probe_t[n] = 0.0  # virtual ground row
        for parts, layout in (
            (self._static_parts, self._g_layout),
            (self._dynamic_parts, self._c_layout),
        ):
            for part in parts:
                if isinstance(part, _GroupPart) and part.mat_constant:
                    layout.fills.extend(part.constant_mat_fills(probe_t))
        self._workspaces: dict[int, dict[str, np.ndarray]] = {}

        # A pattern whose every contribution is constant (e.g. the dynamic
        # pattern of a circuit whose charge storage is all linear capacitors)
        # needs no per-evaluation Jacobian work at all: its finalized data
        # array is cached per point count and returned read-only.
        def _all_constant(parts):
            return all(isinstance(part, _GroupPart) and part.mat_constant for part in parts)

        self._static_mat_all_constant = _all_constant(self._static_parts)
        self._dynamic_mat_all_constant = _all_constant(self._dynamic_parts)

        self._source_pattern = _SourcePattern(devices, n)
        self._bivariate_pattern = _SourcePattern(devices, n)

    # -- compile-time validation ------------------------------------------
    @staticmethod
    def _validate_spec(device: Device, spec: BatchSpec, record) -> None:
        """Check a spec's slot declarations against the recorded loop stamps."""
        f_rec, g_rec, q_rec, c_rec = record
        checks = (
            (spec.static_kernel, spec.static_vec, spec.static_mat, f_rec, g_rec, "static"),
            (spec.dynamic_kernel, spec.dynamic_vec, spec.dynamic_mat, q_rec, c_rec, "dynamic"),
        )
        for kernel, vec_slots, mat_slots, vec_rec, mat_rec, what in checks:
            if kernel is None:
                if vec_rec.rows or mat_rec.rows:
                    raise DeviceError(
                        f"device {device.name!r} has {what} stamps but its batch spec "
                        f"declares no {what} kernel"
                    )
                continue
            expected_vec = _kept_vec_rows(spec.indices, vec_slots)
            expected_mat = _kept_mat_entries(spec.indices, mat_slots)
            if expected_vec != vec_rec.rows or expected_mat != list(
                zip(mat_rec.rows, mat_rec.cols)
            ):
                raise DeviceError(
                    f"batch spec of device {device.name!r} disagrees with its recorded "
                    f"{what} stamp pattern"
                )

    # -- buffer management -------------------------------------------------
    def _workspace(self, n_points: int) -> dict[str, np.ndarray]:
        """The reused buffers of one point count.

        Made with the ``(n + 1, P)`` transposed state (its last row is the
        ground row, zero) and the raw residual buffers, whose read rows are
        all rewritten per evaluation; the Jacobian buffers join on first use.
        """
        workspace = self._workspaces.get(n_points)
        if workspace is None:
            padded = np.empty((self._system.n_unknowns + 1, n_points))
            padded[-1] = 0.0
            workspace = {
                "padded": padded,
                "f": self._f_layout.new_buffer(n_points),
                "q": self._q_layout.new_buffer(n_points),
            }
            if len(self._workspaces) > 8:
                self._workspaces.clear()
            self._workspaces[n_points] = workspace
        return workspace

    def _mat_buffer(self, workspace, what: str, layout: _AccumLayout, n_points: int) -> np.ndarray:
        """A raw Jacobian buffer with its constant rows written (once).

        Every variable row is overwritten by exactly one part per
        evaluation, and :meth:`_AccumLayout.finalize` never writes into the
        buffer, so the constant rows stay valid across evaluations.
        """
        buffer = workspace.get(what)
        if buffer is None:
            buffer = workspace[what] = layout.new_buffer(n_points)
        return buffer

    def _constant_mat_data(
        self, workspace, what: str, layout: _AccumLayout, n_points: int
    ) -> np.ndarray:
        """Finalized Jacobian data of an all-constant pattern (cached, read-only).

        The returned array is shared between evaluations (its values can
        never change); it is marked non-writeable so accidental mutation by
        a caller fails loudly instead of corrupting later evaluations.
        """
        data = workspace.get(what)
        if data is None:
            data = layout.finalize(layout.new_buffer(n_points))
            data.setflags(write=False)
            workspace[what] = data
        return data

    # -- evaluation --------------------------------------------------------
    def evaluate(
        self,
        X: np.ndarray,
        *,
        need_static_jacobian: bool = True,
        need_dynamic_jacobian: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Batched ``q``/``f`` and (optionally) deduplicated Jacobian data.

        Returns ``(Q, F, c_data, g_data)`` with ``Q``/``F`` of shape
        ``(P, n)`` and the data arrays aligned with the system's compiled
        stamp patterns (``None`` when not requested — in which case no
        Jacobian buffer of any kind is allocated or written).
        """
        n_points = X.shape[0]
        workspace = self._workspace(n_points)
        padded_t = workspace["padded"]
        padded_t[:-1] = X.T
        f_buf = workspace["f"]
        q_buf = workspace["q"]

        g_buf = c_buf = None
        g_data = c_data = None
        if need_static_jacobian:
            if self._static_mat_all_constant:
                g_data = self._constant_mat_data(workspace, "g", self._g_layout, n_points)
            else:
                g_buf = self._mat_buffer(workspace, "g", self._g_layout, n_points)
        if need_dynamic_jacobian:
            if self._dynamic_mat_all_constant:
                c_data = self._constant_mat_data(workspace, "c", self._c_layout, n_points)
            else:
                c_buf = self._mat_buffer(workspace, "c", self._c_layout, n_points)

        for part in self._static_parts:
            part.run(X, padded_t, f_buf, g_buf)
        for part in self._dynamic_parts:
            part.run(X, padded_t, q_buf, c_buf)

        F = self._f_layout.finalize(f_buf)
        Q = self._q_layout.finalize(q_buf)
        if g_buf is not None:
            g_data = self._g_layout.finalize(g_buf)
        if c_buf is not None:
            c_data = self._c_layout.finalize(c_buf)
        return Q, F, c_data, g_data

    # -- excitation --------------------------------------------------------
    def source(self, times: np.ndarray) -> np.ndarray:
        """Batched ``b(t)``: per-device stimulus values, one vectorised scatter."""

        def stamp(device, args, accumulator):
            device.stamp_source(args[0], accumulator)

        return self._source_pattern.evaluate(stamp, (times,), times.shape[0])

    def source_bivariate(self, t1: np.ndarray, t2: np.ndarray, scales) -> np.ndarray:
        """Batched multi-time excitation ``b_hat(t1, t2)``."""

        def stamp(device, args, accumulator):
            device.stamp_source_bivariate(args[0], args[1], args[2], accumulator)

        return self._bivariate_pattern.evaluate(stamp, (t1, t2, scales), t1.shape[0])
