"""Modified nodal analysis (MNA) system.

``MNASystem`` is the compiled form of a :class:`~repro.circuits.netlist.Circuit`:
it evaluates the charge-oriented DAE

    d/dt q(x(t)) + f(x(t)) + b(t) = 0

and its Jacobians for any vector of unknowns ``x`` (node voltages followed by
branch currents).  Every analysis in the library — DC, transient, shooting,
harmonic balance and the multi-time MPDE core — consumes this one object,
which is what makes the performance comparisons between methods
apples-to-apples.

Evaluation is vectorised over *evaluation points*: ``evaluate`` accepts an
``(P, n)`` array of unknown vectors and returns stacked ``q``/``f`` values and
Jacobians for all ``P`` points in one call.  The MPDE discretisation uses
this with ``P = n_fast * n_slow`` (the paper's 40 x 30 grid gives
``P = 1200``), the time-stepping analyses with ``P = 1``.

Performance architecture (compiled stamp patterns)
--------------------------------------------------
Compilation precomputes, once per circuit, the *stamp sparsity patterns* of
the conductance and capacitance Jacobians: the exact (row, col) sequence of
contributions every device makes, deduplicated into CSR structures
(:class:`~repro.linalg.sparse.StampPattern`).  Three evaluation modes build
on them:

* ``evaluate(x)`` — the dense reference path, unchanged semantics: stacked
  ``(P, n, n)`` Jacobians, used by small single-point analyses and as the
  ground truth the sparse path is property-tested against.
* ``evaluate(x, need_jacobian=False)`` — residual-only fast path: devices
  stamp into a no-op accumulator, so no ``(P, n, n)`` storage is ever
  allocated or written.  Line searches, continuation ramps and convergence
  checks run through this.
* ``evaluate_sparse(x)`` — the sparse assembly path: devices write per-point
  stamp values into flat ``(P, nnz_raw)`` buffers which a single vectorised
  scatter reduces to per-point CSR data arrays.  The MPDE / collocation
  Jacobian is then assembled purely numerically
  (:class:`~repro.linalg.sparse.CollocationJacobianAssembler`), never
  materialising dense per-point blocks.

The sparse data arrays are bit-for-bit equal to the dense path (same values,
same summation order), which the property tests assert on random circuits.

Evaluation backends (batched engine)
------------------------------------
All three modes run, by default, on the *batched* device-class evaluation
engine (:mod:`repro.circuits.engine`): devices are grouped by class at
compile time and each group is evaluated by one vectorised
gather/compute/scatter kernel over all ``(P, n_group)`` points — no
per-device Python dispatch.  The per-device loop is retained as the
``"loop"`` reference backend (``EvaluationOptions(evaluation_backend=...)``
at :meth:`Circuit.compile`, or the per-call ``backend=`` override); the two
are property-tested bit-for-bit equal, so the choice trades speed only.  See
``docs/evaluation_engine.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from ..linalg.sparse import StampPattern
from ..resilience.faultinject import fault_site
from ..utils.exceptions import CircuitError, DeviceError, NodeError
from ..utils.options import EVALUATION_BACKENDS
from .devices.base import Device, NullStamps, PatternRecorder, PatternValueFiller
from .engine import BatchedEvaluationEngine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from .netlist import Circuit

__all__ = ["MNAEvaluation", "MNASparseEvaluation", "MNASystem"]

_NULL_STAMPS = NullStamps()


@dataclass(frozen=True)
class MNAEvaluation:
    """Stacked evaluation of the circuit equations at ``P`` points.

    Attributes
    ----------
    q:
        Charges/fluxes, shape ``(P, n)``.
    f:
        Conductive currents, shape ``(P, n)``.
    capacitance:
        ``dq/dx`` Jacobians, shape ``(P, n, n)``; ``None`` when the
        evaluation was requested with ``need_jacobian=False``.
    conductance:
        ``df/dx`` Jacobians, shape ``(P, n, n)``; ``None`` when the
        evaluation was requested with ``need_jacobian=False``.
    """

    q: np.ndarray
    f: np.ndarray
    capacitance: np.ndarray | None
    conductance: np.ndarray | None


@dataclass(frozen=True)
class MNASparseEvaluation:
    """Sparse-assembled evaluation of the circuit equations at ``P`` points.

    The Jacobians are carried as deduplicated CSR *data arrays* aligned with
    the system's compiled stamp patterns — one row of values per evaluation
    point — so downstream consumers (the MPDE assembler, block-diagonal
    operators, per-point factorisations) can do purely numeric work.

    Attributes
    ----------
    q, f:
        As in :class:`MNAEvaluation`, shape ``(P, n)``.
    c_data:
        Capacitance CSR data, shape ``(P, system.dynamic_pattern.nnz)``;
        ``None`` for residual-only evaluations.
    g_data:
        Conductance CSR data, shape ``(P, system.static_pattern.nnz)``;
        ``None`` for residual-only evaluations.
    system:
        The :class:`MNASystem` the patterns belong to.
    """

    q: np.ndarray
    f: np.ndarray
    c_data: np.ndarray | None
    g_data: np.ndarray | None
    system: "MNASystem"

    def conductance_csr(self, point: int = 0) -> sp.csr_matrix:
        """CSR conductance Jacobian ``G(x_p)`` of evaluation point ``point``."""
        if self.g_data is None:
            raise CircuitError("evaluation was residual-only; no Jacobian data available")
        return self.system.static_pattern.csr_from_data(self.g_data[point])

    def capacitance_csr(self, point: int = 0) -> sp.csr_matrix:
        """CSR capacitance Jacobian ``C(x_p)`` of evaluation point ``point``."""
        if self.c_data is None:
            raise CircuitError("evaluation was residual-only; no Jacobian data available")
        return self.system.dynamic_pattern.csr_from_data(self.c_data[point])


class MNASystem:
    """Compiled circuit equations (see module docstring).

    Instances are created by :meth:`repro.circuits.netlist.Circuit.compile`;
    they should not be constructed directly.
    """

    def __init__(
        self,
        circuit: "Circuit",
        node_index: Mapping[str, int],
        unknown_names: Sequence[str],
        n_unknowns: int,
        evaluation_backend: str = "batched",
    ) -> None:
        self.circuit = circuit
        self._node_index = dict(node_index)
        self.unknown_names = tuple(unknown_names)
        self.n_unknowns = int(n_unknowns)
        if len(self.unknown_names) != self.n_unknowns:
            raise CircuitError(
                "internal error: unknown_names length does not match n_unknowns"
            )
        self._validate_backend(evaluation_backend)
        self.evaluation_backend = evaluation_backend
        self._devices: tuple[Device, ...] = circuit.devices
        self._branch_index = self._build_branch_index()
        self._static_pattern, self._dynamic_pattern = self._compile_stamp_patterns()
        self._row_owners: tuple[tuple[str, ...], ...] | None = None
        self._engine: BatchedEvaluationEngine | None = None

    def _build_branch_index(self) -> dict[str, int]:
        index: dict[str, int] = {}
        for device in self._devices:
            for label, idx in zip(device.branch_labels(), device._branch_idx):
                index[label] = idx
                index.setdefault(device.name, idx)
        return index

    def _compile_stamp_patterns(self) -> tuple[StampPattern, StampPattern]:
        """Record every device's stamp sparsity pattern (once, at compile time).

        Each device's stamps are executed against a recording accumulator; the
        (row, col) call sequence — which by the stamping contract depends only
        on topology and device parameters, never on ``x`` — becomes the
        compiled pattern the sparse evaluation paths rely on.
        """
        n = self.n_unknowns
        probe = np.full((1, n), 0.1)
        scratch = np.zeros((1, n))
        static_recorder = PatternRecorder()
        dynamic_recorder = PatternRecorder()
        for device in self._devices:
            device.stamp_static(probe, scratch, static_recorder)
            device.stamp_dynamic(probe, scratch, dynamic_recorder)
        static = StampPattern(static_recorder.rows, static_recorder.cols, n)
        dynamic = StampPattern(dynamic_recorder.rows, dynamic_recorder.cols, n)
        return static, dynamic

    # -- bookkeeping -------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of non-ground node-voltage unknowns."""
        return len(self._node_index)

    @property
    def devices(self) -> tuple[Device, ...]:
        """Devices of the underlying circuit."""
        return self._devices

    @property
    def static_pattern(self) -> StampPattern:
        """Compiled sparsity pattern of the conductance Jacobian ``G``."""
        return self._static_pattern

    @property
    def dynamic_pattern(self) -> StampPattern:
        """Compiled sparsity pattern of the capacitance Jacobian ``C``."""
        return self._dynamic_pattern

    def residual_row_owners(self) -> tuple[tuple[str, ...], ...]:
        """Device instance names stamping each residual row (``n`` tuples).

        Derived from the same per-device pattern recording that compiles the
        stamp patterns — the (row, device) incidence depends only on
        topology, never on ``x`` — and cached after the first call.  This is
        what lets terminal-failure diagnostics
        (:mod:`repro.resilience.diagnostics`) attribute a NaN or dominant
        residual row to the device instances that write it.  Rows nothing
        stamps (e.g. a floating node) get an empty tuple, itself a useful
        diagnostic.
        """
        if self._row_owners is None:
            n = self.n_unknowns
            probe = np.full((1, n), 0.1)
            scratch = np.zeros((1, n))
            owners: list[list[str]] = [[] for _ in range(n)]
            for device in self._devices:
                static_recorder = PatternRecorder()
                dynamic_recorder = PatternRecorder()
                device.stamp_static(probe, scratch, static_recorder)
                device.stamp_dynamic(probe, scratch, dynamic_recorder)
                rows = set(static_recorder.rows) | set(dynamic_recorder.rows)
                for row in sorted(rows):
                    owners[int(row)].append(device.name)
            self._row_owners = tuple(tuple(names) for names in owners)
        return self._row_owners

    def node_index(self, node: str) -> int:
        """Index of a node voltage in the unknown vector (-1 for ground)."""
        if self.circuit.is_ground(node):
            return -1
        try:
            return self._node_index[node]
        except KeyError as exc:
            raise NodeError(f"unknown node {node!r} in circuit {self.circuit.name!r}") from exc

    def branch_index(self, device_name: str) -> int:
        """Index of the (first) branch-current unknown of ``device_name``."""
        try:
            return self._branch_index[device_name]
        except KeyError as exc:
            raise CircuitError(
                f"device {device_name!r} has no branch-current unknown"
            ) from exc

    def voltage(self, x: np.ndarray, node: str) -> np.ndarray | float:
        """Extract the voltage of ``node`` from a solution vector or array.

        Works on a single unknown vector (shape ``(n,)``), a stack of vectors
        (``(P, n)``) or a multi-time grid array (``(n1, n2, n)``); ground
        returns zeros of the matching shape.
        """
        idx = self.node_index(node)
        x = np.asarray(x, dtype=float)
        if idx < 0:
            return np.zeros(x.shape[:-1]) if x.ndim > 1 else 0.0
        return x[..., idx]

    def differential_voltage(self, x: np.ndarray, node_pos: str, node_neg: str) -> np.ndarray | float:
        """``v(node_pos) - v(node_neg)`` extracted from a solution array."""
        return self.voltage(x, node_pos) - self.voltage(x, node_neg)

    # -- evaluation ----------------------------------------------------------
    def _as_points(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            if x.shape[0] != self.n_unknowns:
                raise CircuitError(
                    f"unknown vector has length {x.shape[0]}, expected {self.n_unknowns}"
                )
            return x.reshape(1, -1), True
        if x.ndim == 2:
            if x.shape[1] != self.n_unknowns:
                raise CircuitError(
                    f"unknown array has {x.shape[1]} columns, expected {self.n_unknowns}"
                )
            return x, False
        raise CircuitError(f"unknown array must be 1-D or 2-D, got shape {x.shape}")

    @property
    def engine(self) -> BatchedEvaluationEngine:
        """The compiled batched evaluation engine (built lazily, cached)."""
        if self._engine is None:
            self._engine = BatchedEvaluationEngine(self)
        return self._engine

    @staticmethod
    def _validate_backend(backend: str) -> None:
        if backend not in EVALUATION_BACKENDS:
            raise CircuitError(
                f"unknown evaluation backend {backend!r}; use one of {EVALUATION_BACKENDS}"
            )

    def _resolve_backend(self, backend: str | None) -> str:
        if backend is None:
            return self.evaluation_backend
        self._validate_backend(backend)
        return backend

    def _engine_evaluate(
        self, X: np.ndarray, *, need_static_jacobian: bool, need_dynamic_jacobian: bool
    ):
        """Batched-engine evaluation (the ``mna.evaluate`` fault site)."""
        result = self.engine.evaluate(
            X,
            need_static_jacobian=need_static_jacobian,
            need_dynamic_jacobian=need_dynamic_jacobian,
        )
        fault_site("mna.evaluate", f=result[1])
        return result

    @staticmethod
    def _which_flags(which: str) -> tuple[bool, bool]:
        """Map a ``which`` selector onto (conductance, capacitance) needs."""
        if which == "both":
            return True, True
        if which == "conductance":
            return True, False
        if which == "capacitance":
            return False, True
        raise CircuitError(
            f"which must be 'both', 'conductance' or 'capacitance', got {which!r}"
        )

    def evaluate(
        self,
        x: np.ndarray,
        *,
        need_jacobian: bool = True,
        which: str = "both",
        backend: str | None = None,
    ) -> MNAEvaluation:
        """Evaluate ``q``, ``f`` (and, optionally, dense Jacobians) at one or many points.

        ``need_jacobian=False`` is the residual-only fast path: no Jacobian
        storage of any kind is allocated — the dominant cost for large point
        counts.  ``which`` restricts a Jacobian evaluation to one block
        (``"conductance"`` or ``"capacitance"``): only the requested
        ``(P, n, n)`` stack is allocated and filled, the other is ``None``.
        ``backend`` overrides the system's evaluation backend for this call.
        """
        X, _ = self._as_points(x)
        n_points = X.shape[0]
        n = self.n_unknowns
        need_g, need_c = self._which_flags(which)
        need_g &= need_jacobian
        need_c &= need_jacobian

        if self._resolve_backend(backend) == "batched":
            Q, F, c_data, g_data = self._engine_evaluate(
                X,
                need_static_jacobian=need_g,
                need_dynamic_jacobian=need_c,
            )
            G = self._static_pattern.dense_from_data(g_data) if need_g else None
            C = self._dynamic_pattern.dense_from_data(c_data) if need_c else None
            return MNAEvaluation(q=Q, f=F, capacitance=C, conductance=G)

        Q = np.zeros((n_points, n))
        F = np.zeros((n_points, n))
        G = np.zeros((n_points, n, n)) if need_g else None
        C = np.zeros((n_points, n, n)) if need_c else None
        g_acc: object = G if need_g else _NULL_STAMPS
        c_acc: object = C if need_c else _NULL_STAMPS
        for device in self._devices:
            device.stamp_static(X, F, g_acc)
            device.stamp_dynamic(X, Q, c_acc)
        return MNAEvaluation(q=Q, f=F, capacitance=C, conductance=G)

    def evaluate_sparse(
        self,
        x: np.ndarray,
        *,
        need_jacobian: bool = True,
        backend: str | None = None,
    ) -> MNASparseEvaluation:
        """Evaluate ``q``, ``f`` and sparse-assembled Jacobian data.

        On the batched backend (the default) the compiled engine gathers all
        member terminal values per device class, evaluates each class kernel
        over all ``(P, n_group)`` points at once and scatters straight into
        the compiled pattern buffers — zero per-device Python dispatch.  The
        ``"loop"`` backend is the per-device reference path; both produce
        bit-for-bit identical results.  No dense ``(P, n, n)`` intermediates
        are ever formed.
        """
        X, _ = self._as_points(x)
        n_points = X.shape[0]
        n = self.n_unknowns

        if self._resolve_backend(backend) == "batched":
            Q, F, c_data, g_data = self._engine_evaluate(
                X,
                need_static_jacobian=need_jacobian,
                need_dynamic_jacobian=need_jacobian,
            )
            return MNASparseEvaluation(q=Q, f=F, c_data=c_data, g_data=g_data, system=self)

        Q = np.zeros((n_points, n))
        F = np.zeros((n_points, n))
        if need_jacobian:
            g_raw = np.zeros((n_points, self._static_pattern.nnz_raw))
            c_raw = np.zeros((n_points, self._dynamic_pattern.nnz_raw))
            g_acc: object = PatternValueFiller(
                g_raw, self._static_pattern.raw_rows, self._static_pattern.raw_cols
            )
            c_acc: object = PatternValueFiller(
                c_raw, self._dynamic_pattern.raw_rows, self._dynamic_pattern.raw_cols
            )
        else:
            g_raw = c_raw = None
            g_acc = c_acc = _NULL_STAMPS
        for device in self._devices:
            device.stamp_static(X, F, g_acc)
            device.stamp_dynamic(X, Q, c_acc)
        if need_jacobian:
            # A filler validates every call it sees; a device that *skipped*
            # trailing recorded calls would leave silent zeros behind, so the
            # cursor must land exactly on the end of the pattern.
            if (
                g_acc.cursor != self._static_pattern.nnz_raw
                or c_acc.cursor != self._dynamic_pattern.nnz_raw
            ):
                raise DeviceError(
                    "device stamps made fewer Jacobian contributions than the compiled "
                    "pattern records; stamp structure must not depend on x "
                    f"(static {g_acc.cursor}/{self._static_pattern.nnz_raw}, "
                    f"dynamic {c_acc.cursor}/{self._dynamic_pattern.nnz_raw})"
                )
            g_data = self._static_pattern.dedup(g_raw)
            c_data = self._dynamic_pattern.dedup(c_raw)
        else:
            g_data = c_data = None
        return MNASparseEvaluation(q=Q, f=F, c_data=c_data, g_data=g_data, system=self)

    def q(self, x: np.ndarray) -> np.ndarray:
        """Charge/flux vector ``q(x)`` for a single unknown vector."""
        X, single = self._as_points(x)
        evaluation = self.evaluate(X, need_jacobian=False)
        return evaluation.q[0] if single else evaluation.q

    def f(self, x: np.ndarray) -> np.ndarray:
        """Conductive current vector ``f(x)`` for a single unknown vector."""
        X, single = self._as_points(x)
        evaluation = self.evaluate(X, need_jacobian=False)
        return evaluation.f[0] if single else evaluation.f

    def capacitance_matrix(self, x: np.ndarray) -> np.ndarray:
        """Jacobian ``C(x) = dq/dx`` at a single point (dense ``(n, n)``).

        Uses the ``which="capacitance"`` fast path: only the capacitance
        ``(P, n, n)`` stack is allocated and filled, never the conductance
        block.
        """
        X, single = self._as_points(x)
        evaluation = self.evaluate(X, which="capacitance")
        return evaluation.capacitance[0] if single else evaluation.capacitance

    def conductance_matrix(self, x: np.ndarray) -> np.ndarray:
        """Jacobian ``G(x) = df/dx`` at a single point (dense ``(n, n)``).

        Uses the ``which="conductance"`` fast path: only the conductance
        ``(P, n, n)`` stack is allocated and filled, never the capacitance
        block.
        """
        X, single = self._as_points(x)
        evaluation = self.evaluate(X, which="conductance")
        return evaluation.conductance[0] if single else evaluation.conductance

    def conductance_csr(self, x: np.ndarray) -> sp.csr_matrix:
        """Sparse-assembled conductance Jacobian ``G(x)`` at a single point."""
        X, _ = self._as_points(np.asarray(x, dtype=float).ravel())
        return self.evaluate_sparse(X).conductance_csr(0)

    def capacitance_csr(self, x: np.ndarray) -> sp.csr_matrix:
        """Sparse-assembled capacitance Jacobian ``C(x)`` at a single point."""
        X, _ = self._as_points(np.asarray(x, dtype=float).ravel())
        return self.evaluate_sparse(X).capacitance_csr(0)

    # -- sources --------------------------------------------------------------
    def source(self, times: float | np.ndarray) -> np.ndarray:
        """Excitation vector(s) ``b(t)``.

        ``times`` may be a scalar (returns shape ``(n,)``) or an array of
        ``P`` time points (returns ``(P, n)``).
        """
        scalar = np.isscalar(times) or np.ndim(times) == 0
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if self.evaluation_backend == "batched":
            B = self.engine.source(t)
        else:
            B = np.zeros((t.shape[0], self.n_unknowns))
            for device in self._devices:
                device.stamp_source(t, B)
        return B[0] if scalar else B

    def source_bivariate(
        self, t1: float | np.ndarray, t2: float | np.ndarray, scales
    ) -> np.ndarray:
        """Multi-time excitation ``b_hat(t1, t2)`` under the given time scales.

        ``t1`` and ``t2`` must broadcast to a common shape of ``P`` points;
        the result has shape ``(P, n)`` (or ``(n,)`` for scalar inputs).
        """
        scalar = (np.isscalar(t1) or np.ndim(t1) == 0) and (np.isscalar(t2) or np.ndim(t2) == 0)
        t1_arr, t2_arr = np.broadcast_arrays(
            np.atleast_1d(np.asarray(t1, dtype=float)),
            np.atleast_1d(np.asarray(t2, dtype=float)),
        )
        t1_flat = t1_arr.ravel()
        t2_flat = t2_arr.ravel()
        if self.evaluation_backend == "batched":
            B = self.engine.source_bivariate(t1_flat, t2_flat, scales)
        else:
            B = np.zeros((t1_flat.shape[0], self.n_unknowns))
            for device in self._devices:
                device.stamp_source_bivariate(t1_flat, t2_flat, scales, B)
        return B[0] if scalar else B

    # -- convenience residuals -------------------------------------------------
    def dc_residual(self, x: np.ndarray, *, time: float = 0.0) -> np.ndarray:
        """DC residual ``f(x) + b(time)`` (charges do not contribute at DC)."""
        return self.f(x) + self.source(time)

    def dc_jacobian(self, x: np.ndarray) -> np.ndarray:
        """DC Jacobian ``G(x)``."""
        return self.conductance_matrix(x)

    def gmin_diagonal(self, gmin: float) -> np.ndarray:
        """Diagonal of a conductance ``gmin`` from every node to ground.

        Used by gmin-stepping continuation and as a convergence aid: ``gmin``
        on node rows, ``0`` on branch rows.
        """
        diag = np.zeros(self.n_unknowns)
        diag[list(self._node_index.values())] = gmin
        return diag

    def zero_state(self) -> np.ndarray:
        """An all-zero unknown vector of the right size."""
        return np.zeros(self.n_unknowns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MNASystem({self.circuit.name!r}, unknowns={self.n_unknowns}, "
            f"nodes={self.n_nodes})"
        )
