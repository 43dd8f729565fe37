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
    structural parameter flags).  Each group precomputes per-terminal index
    arrays; at evaluation time one fancy-index row read of the transposed
    padded state yields a C-contiguous ``(n_group, P)`` block per terminal.

compute
    The group's elementwise kernel — contributed by the device class itself
    in ``devices/*.py`` — evaluates all stamp values over the full
    ``(n_group, P)`` block in a handful of NumPy ufunc calls.  The kernels
    mirror the loop stamps expression for expression (and may skip work the
    loop path discards, e.g. cut-off MOSFET branches, via region masking —
    elementwise ufuncs make the surviving values identical), so the numbers
    they produce are bit-for-bit equal to the per-device path.

scatter
    Everything is laid out *transposed* (one contiguous buffer row per
    contribution target), so writing a kernel slot is a plain row-block
    assignment.  Accumulation order is the subtle part: duplicate
    contributions must sum in device insertion order to reproduce the loop
    path's ``+=`` sequence bit for bit.  :class:`_AccumLayout` achieves that
    without any per-evaluation ``bincount``: the first contribution to every
    residual row / Jacobian slot writes *directly* into the final
    (transposed) output buffer, later duplicates go to private side rows,
    and a short ``+=`` pass folds them back in raw order.  Jacobian rows
    follow the compiled stamp patterns (the same contribution order
    :class:`~repro.circuits.devices.base.PatternValueFiller` sees on the
    loop path); linear devices declare their Jacobian values
    ``x``-independent, and those rows are captured once into a per-``P``
    template the evaluation starts from, so only nonlinear Jacobian values
    are recomputed per call.

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
    """Primary/secondary buffer layout for order-preserving accumulation.

    Each raw contribution ``k`` has a target ``targets[k]`` (a residual row,
    or a deduplicated Jacobian slot).  The *first* contribution to a target
    writes directly into output row ``targets[k]``; every later duplicate
    gets a private side row above ``n_out``.  :meth:`finalize` folds the
    side rows back with ``+=`` in raw order, reproducing the loop path's
    accumulation order exactly — so no per-evaluation ``bincount`` (and no
    staging copy of the non-duplicated majority) is ever needed.
    """

    __slots__ = ("row_map", "secondary_targets", "height", "n_out", "untouched")

    def __init__(self, targets, n_out: int) -> None:
        targets = np.asarray(targets, dtype=np.int64)
        self.n_out = int(n_out)
        self.row_map = np.empty(targets.size, dtype=np.intp)
        seen: set[int] = set()
        secondary: list[int] = []
        height = self.n_out
        for k, target in enumerate(targets.tolist()):
            if target in seen:
                self.row_map[k] = height
                secondary.append(target)
                height += 1
            else:
                seen.add(target)
                self.row_map[k] = target
        self.secondary_targets = np.asarray(secondary, dtype=np.intp)
        self.height = height
        self.untouched = np.setdiff1d(np.arange(self.n_out), targets)

    def finalize(self, buffer: np.ndarray) -> np.ndarray:
        """Fold side rows in raw order; return the contiguous ``(P, n_out)`` result.

        The fold is a short Python loop on purpose: duplicates are rare (a
        handful per circuit), and sequential row ``+=`` both beats
        ``ufunc.at`` by an order of magnitude here and guarantees the loop
        path's per-target accumulation order.
        """
        for source, target in enumerate(self.secondary_targets.tolist(), start=self.n_out):
            buffer[target] += buffer[source]
        # .copy() rather than ascontiguousarray: the result must never alias
        # the reused scratch buffer (for P = 1 the transposed view is already
        # flagged contiguous, and callers keep results across evaluations —
        # e.g. the integration rules' charge history).
        return buffer[: self.n_out].T.copy()


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


def _assign(buffer: np.ndarray, rows: np.ndarray, sel: np.ndarray | None, value) -> None:
    """Write one slot's kernel values into their buffer rows.

    ``value`` may be a scalar (member- and point-independent stamps like an
    inductor's ±1 entries), an ``(n_group, 1)`` array (point-independent) or
    a full ``(n_group, P)`` array; ``sel`` restricts to the members whose
    slot survived ground elimination (``None`` when all did).
    """
    if rows.size == 0:
        return
    if isinstance(value, np.ndarray) and sel is not None:
        buffer[rows] = value[sel]
    else:
        buffer[rows] = value


class _GroupPart:
    """One kernel invocation: a device group's static *or* dynamic stamps."""

    __slots__ = ("kernel", "gather", "params", "vec_slots", "mat_slots", "mat_constant")

    def __init__(self, kernel, gather, params, vec_slots, mat_slots, mat_constant) -> None:
        self.kernel = kernel
        #: per-terminal (n_group,) index arrays into the padded state rows
        self.gather = [np.ascontiguousarray(rows) for rows in gather]
        self.params = params  # tuple of (n_group, 1) parameter arrays
        self.vec_slots = vec_slots  # [(rows, sel)] aligned with kernel vec output
        self.mat_slots = mat_slots  # [(rows, sel)] aligned with kernel mat output
        self.mat_constant = mat_constant

    def constant_mat_fills(self, probe_t: np.ndarray):
        """(rows, sel, value) template fills of an ``x``-independent Jacobian."""
        V = [probe_t[idx] for idx in self.gather]
        _vec, mat_values = self.kernel(V, self.params, True)
        return [
            (rows, sel, value)
            for (rows, sel), value in zip(self.mat_slots, mat_values)
        ]

    def run(self, X, padded_t, vec_buf, mat_buf) -> None:
        # One fancy row-gather per terminal keeps every (n_group, P) block
        # C-contiguous, which is what lets the kernel ufuncs hit their SIMD
        # fast paths.
        V = [padded_t[idx] for idx in self.gather]
        need_mat = mat_buf is not None and not self.mat_constant
        vec_values, mat_values = self.kernel(V, self.params, need_mat)
        for (rows, sel), value in zip(self.vec_slots, vec_values):
            _assign(vec_buf, rows, sel, value)
        if need_mat:
            for (rows, sel), value in zip(self.mat_slots, mat_values):
                _assign(mat_buf, rows, sel, value)


class _FallbackPart:
    """Loop-stamp execution of one spec-less device into the group buffers."""

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


def _slot_assignments(idx_matrix, slots, offsets, counts, row_map, *, matrix):
    """Buffer row maps per slot, honouring ground elimination.

    ``idx_matrix`` is the group's ``(n_group, T)`` terminal-index array (with
    ``-1`` for ground), ``offsets``/``counts`` each member's raw-segment
    start and length, ``row_map`` the raw-index -> buffer-row mapping of the
    accumulation layout.  Walking the slots in declaration order advances a
    per-member cursor exactly as the loop stamps advance through the raw
    sequence, which is what aligns kernel output with the compiled patterns.
    """
    cursors = offsets.astype(np.int64).copy()
    assignments = []
    for slot in slots:
        if matrix:
            r, c = slot
            keep = (idx_matrix[:, r] >= 0) & (idx_matrix[:, c] >= 0)
        else:
            keep = idx_matrix[:, slot] >= 0
        raw_positions = cursors[keep]
        sel = None if bool(keep.all()) else np.flatnonzero(keep)
        assignments.append((row_map[raw_positions], sel))
        cursors[keep] += 1
    if not np.array_equal(cursors, offsets + counts):
        raise DeviceError(
            "batch spec slots do not cover the device's recorded stamp pattern"
        )
    return assignments


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

        self._f_layout = _AccumLayout(
            [r for rec in records for r in rec[0].rows], n
        )
        self._q_layout = _AccumLayout(
            [r for rec in records for r in rec[2].rows], n
        )
        self._g_layout = _AccumLayout(system.static_pattern.slot, system.static_pattern.nnz)
        self._c_layout = _AccumLayout(system.dynamic_pattern.slot, system.dynamic_pattern.nnz)

        # -- per-device raw offsets ---------------------------------------
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

        self._static_parts: list[_GroupPart | _FallbackPart] = []
        self._dynamic_parts: list[_GroupPart | _FallbackPart] = []
        for key, members in groups.items():
            first = specs[members[0]]
            idx_matrix = np.asarray([specs[i].indices for i in members], dtype=np.int64)
            gather = np.where(idx_matrix < 0, n, idx_matrix).T.copy()  # (T, n_group)

            def _stack_params(values_of):
                return tuple(
                    np.asarray([values_of(specs[i])[j] for i in members])[:, None]
                    for j in range(len(values_of(first)))
                )

            if first.static_kernel is not None:
                self._static_parts.append(
                    _GroupPart(
                        first.static_kernel,
                        gather,
                        _stack_params(lambda s: s.static_params),
                        _slot_assignments(
                            idx_matrix, first.static_vec, f_off[members], f_cnt[members],
                            self._f_layout.row_map, matrix=False,
                        ),
                        _slot_assignments(
                            idx_matrix, first.static_mat, g_off[members], g_cnt[members],
                            self._g_layout.row_map, matrix=True,
                        ),
                        first.static_mat_constant,
                    )
                )
            if first.dynamic_kernel is not None:
                self._dynamic_parts.append(
                    _GroupPart(
                        first.dynamic_kernel,
                        gather,
                        _stack_params(lambda s: s.dynamic_params),
                        _slot_assignments(
                            idx_matrix, first.dynamic_vec, q_off[members], q_cnt[members],
                            self._q_layout.row_map, matrix=False,
                        ),
                        _slot_assignments(
                            idx_matrix, first.dynamic_mat, c_off[members], c_cnt[members],
                            self._c_layout.row_map, matrix=True,
                        ),
                        first.dynamic_mat_constant,
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
                        self._f_layout.row_map[f_off[i] : f_off[i] + f_cnt[i]],
                        system.static_pattern.raw_rows[g_off[i] : g_off[i] + g_cnt[i]],
                        system.static_pattern.raw_cols[g_off[i] : g_off[i] + g_cnt[i]],
                        self._g_layout.row_map[g_off[i] : g_off[i] + g_cnt[i]],
                    )
                )
            if q_cnt[i] or c_cnt[i]:
                self._dynamic_parts.append(
                    _FallbackPart(
                        device,
                        False,
                        np.asarray(records[i][2].rows, dtype=np.int64),
                        self._q_layout.row_map[q_off[i] : q_off[i] + q_cnt[i]],
                        system.dynamic_pattern.raw_rows[c_off[i] : c_off[i] + c_cnt[i]],
                        system.dynamic_pattern.raw_cols[c_off[i] : c_off[i] + c_cnt[i]],
                        self._c_layout.row_map[c_off[i] : c_off[i] + c_cnt[i]],
                    )
                )

        # -- constant-Jacobian templates ----------------------------------
        # Linear devices' Jacobian values never change; capture them once
        # (per part, shapes are point-independent) and build, lazily per
        # point count, template buffers the evaluation copies instead of
        # recomputing.
        probe_t = np.full((n + 1, 1), 0.1)
        probe_t[n] = 0.0  # virtual ground row
        self._static_fills = [
            fill
            for part in self._static_parts
            if isinstance(part, _GroupPart) and part.mat_constant
            for fill in part.constant_mat_fills(probe_t)
        ]
        self._dynamic_fills = [
            fill
            for part in self._dynamic_parts
            if isinstance(part, _GroupPart) and part.mat_constant
            for fill in part.constant_mat_fills(probe_t)
        ]
        self._template_cache: dict[tuple[str, int], np.ndarray] = {}
        self._scratch_cache: dict[tuple[str, int], np.ndarray] = {}

        # A pattern whose every contribution is constant (e.g. the dynamic
        # pattern of a circuit whose charge storage is all linear capacitors)
        # needs no per-evaluation Jacobian work at all: its finalized data
        # array is cached per point count and returned read-only.
        def _all_constant(parts):
            return all(
                isinstance(part, _GroupPart)
                and (part.mat_constant or not any(r.size for r, _ in part.mat_slots))
                for part in parts
            )

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
    def _scratch(self, what: str, shape: tuple[int, int]) -> np.ndarray:
        """A reused scratch buffer of the given shape (contents arbitrary)."""
        key = (what, shape[1])
        buffer = self._scratch_cache.get(key)
        if buffer is None or buffer.shape != shape:
            buffer = np.empty(shape)
            if len(self._scratch_cache) > 16:
                self._scratch_cache.clear()
            self._scratch_cache[key] = buffer
        return buffer

    def _vec_buffer(self, what: str, layout: _AccumLayout, n_points: int) -> np.ndarray:
        """A residual accumulation buffer with never-written rows zeroed.

        Touched rows are overwritten by the parts on every evaluation, so
        only the untouched rows need (one-time) zeroing per scratch buffer.
        """
        key = (what, n_points)
        buffer = self._scratch_cache.get(key)
        if buffer is None or buffer.shape[0] != layout.height:
            buffer = np.empty((layout.height, n_points))
            buffer[layout.untouched] = 0.0
            if len(self._scratch_cache) > 16:
                self._scratch_cache.clear()
            self._scratch_cache[key] = buffer
        return buffer

    def _mat_buffer(
        self, what: str, layout: _AccumLayout, n_points: int, fills
    ) -> np.ndarray:
        """A Jacobian accumulation buffer with constant rows pre-filled.

        The template (constant rows written, variable rows left arbitrary —
        every variable row is overwritten by exactly one part per
        evaluation) is built once per point count; per call its rows are
        copied into a reused scratch buffer.
        """
        key = (what, n_points)
        template = self._template_cache.get(key)
        if template is None:
            template = np.zeros((layout.height, n_points))
            for rows, sel, value in fills:
                _assign(template, rows, sel, value)
            if len(self._template_cache) > 8:
                self._template_cache.clear()
            self._template_cache[key] = template
        buffer = self._scratch(what + "_buf", (layout.height, n_points))
        np.copyto(buffer, template)
        return buffer

    def _constant_mat_data(self, what: str, layout: _AccumLayout, n_points: int, fills) -> np.ndarray:
        """Finalized Jacobian data of an all-constant pattern (cached, read-only).

        The returned array is shared between evaluations (its values can
        never change); it is marked non-writeable so accidental mutation by
        a caller fails loudly instead of corrupting later evaluations.
        """
        key = (what + "_const", n_points)
        data = self._template_cache.get(key)
        if data is None:
            buffer = np.zeros((layout.height, n_points))
            for rows, sel, value in fills:
                _assign(buffer, rows, sel, value)
            data = layout.finalize(buffer)
            data.setflags(write=False)
            if len(self._template_cache) > 8:
                self._template_cache.clear()
            self._template_cache[key] = data
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
        n_points, n = X.shape
        padded_t = self._scratch("padded", (n + 1, n_points))
        padded_t[:n] = X.T
        padded_t[n] = 0.0  # virtual ground row

        f_buf = self._vec_buffer("f", self._f_layout, n_points)
        q_buf = self._vec_buffer("q", self._q_layout, n_points)
        g_buf = c_buf = None
        g_data = c_data = None
        if need_static_jacobian:
            if self._static_mat_all_constant:
                g_data = self._constant_mat_data(
                    "static", self._g_layout, n_points, self._static_fills
                )
            else:
                g_buf = self._mat_buffer(
                    "static", self._g_layout, n_points, self._static_fills
                )
        if need_dynamic_jacobian:
            if self._dynamic_mat_all_constant:
                c_data = self._constant_mat_data(
                    "dynamic", self._c_layout, n_points, self._dynamic_fills
                )
            else:
                c_buf = self._mat_buffer(
                    "dynamic", self._c_layout, n_points, self._dynamic_fills
                )

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
