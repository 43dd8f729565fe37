"""Device base class and stamping conventions.

Circuit equations are written in the charge-oriented DAE form the paper uses
(its Eq. (1))::

    d/dt q(x(t)) + f(x(t)) + b(t) = 0

where ``x`` collects the node voltages (relative to ground) followed by the
branch currents of devices that need an explicit current unknown (voltage
sources, inductors, VCVS).  Devices contribute to the vectors and Jacobians
through *stamps*:

* ``stamp_static``  — resistive/conductive currents ``f(x)`` and their
  Jacobian ``G(x) = df/dx``,
* ``stamp_dynamic`` — charges/fluxes ``q(x)`` and their Jacobian
  ``C(x) = dq/dx``,
* ``stamp_source``  — the excitation ``b(t)`` of independent sources, and
* ``stamp_source_bivariate`` — the multi-time excitation ``b_hat(t1, t2)``
  used by the MPDE core.

Sign conventions
----------------
* Node equations are KCL written as "sum of currents *leaving* the node
  through devices equals zero"; a device conducting current out of node
  ``a`` into node ``b`` therefore adds ``+i`` to row ``a`` and ``-i`` to row
  ``b``.
* Branch rows of voltage-defined elements enforce the branch relation
  (e.g. ``v+ - v- - V(t) = 0`` for an independent voltage source) with the
  known excitation moved into ``b(t)``.

Vectorised evaluation
---------------------
All stamps operate on arrays holding *many* evaluation points at once:
``X`` has shape ``(P, n)`` (P evaluation points, n unknowns) and the vector
accumulators have shapes ``Q, F, B: (P, n)``.  The MPDE discretisation
evaluates the whole 2-D grid (the paper's 40 x 30 = 1200 points) in a single
call, which is what keeps the pure-Python reproduction fast; single-point
analyses (DC, transient) simply pass ``P = 1``.

Jacobian accumulation
---------------------
Jacobian contributions MUST go through :meth:`Device._add_mat` — never index
the Jacobian argument directly.  The argument may be a dense ``(P, n, n)``
array (the legacy reference path) or a *stamp accumulator* object
(:class:`PatternRecorder`, :class:`PatternValueFiller`, :class:`NullStamps`),
which is how the compiled sparse-assembly pipeline works:

* at ``Circuit.compile`` time each device's stamps are run once against a
  :class:`PatternRecorder` to capture the sparsity pattern (the exact
  sequence of ``_add_mat`` calls, which must not depend on ``x`` — only on
  device parameters and topology);
* at evaluation time a :class:`PatternValueFiller` writes the per-point
  values of every contribution into a flat ``(P, nnz)`` buffer in that same
  recorded order, from which CSR Jacobians are assembled without any dense
  ``(P, n, n)`` intermediates;
* residual-only evaluations pass :class:`NullStamps`, so no Jacobian storage
  is allocated or written at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ...utils.exceptions import DeviceError

__all__ = [
    "BatchSpec",
    "Device",
    "linear_capacitance_kernel",
    "linear_capacitance_slots",
    "TwoTerminal",
    "NullStamps",
    "PatternRecorder",
    "PatternValueFiller",
    "VectorRecorder",
]


class NullStamps:
    """Jacobian accumulator that discards every contribution.

    Passed to the stamps by residual-only evaluations
    (``MNASystem.evaluate(..., need_jacobian=False)``) so that line searches,
    continuation ramps and convergence checks skip all Jacobian storage.
    """

    __slots__ = ()

    def add(self, row: int, col: int, value) -> None:
        """Discard the contribution."""


class VectorRecorder:
    """Residual accumulator that records the row sequence of a stamp.

    The vector analogue of :class:`PatternRecorder`: passed as the ``F`` /
    ``Q`` / ``B`` argument of a stamp, it captures the exact sequence of
    ``_add_vec`` calls (ground rows are dropped before reaching it).  The
    batched evaluation engine compiles these per-device row sequences into
    its residual scatter maps.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: list[int] = []

    def add(self, index: int, value) -> None:
        """Record the row of the contribution."""
        self.rows.append(int(index))


class PatternRecorder:
    """Jacobian accumulator that records the (row, col) sequence of a stamp.

    Used once per device at compile time to capture the stamp sparsity
    pattern.  Values are ignored (and must not influence the pattern): a
    contribution that happens to evaluate to zero at the probe point is still
    a structural nonzero.
    """

    __slots__ = ("rows", "cols")

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.cols: list[int] = []

    def add(self, row: int, col: int, value) -> None:
        """Record the position of the contribution."""
        self.rows.append(int(row))
        self.cols.append(int(col))


class PatternValueFiller:
    """Jacobian accumulator that writes stamp values into a flat buffer.

    ``buffer`` has shape ``(P, nnz_raw)``; contribution ``k`` (in recorded
    pattern order) lands in column ``k``.  The expected (row, col) sequence
    is verified against the recorded pattern so that a device whose stamp
    structure silently depended on ``x`` fails loudly instead of corrupting
    the assembled Jacobian.
    """

    __slots__ = ("buffer", "_rows", "_cols", "_cursor")

    def __init__(self, buffer: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
        self.buffer = buffer
        self._rows = rows
        self._cols = cols
        self._cursor = 0

    def add(self, row: int, col: int, value) -> None:
        """Store the contribution value at the next recorded pattern slot."""
        k = self._cursor
        if k >= self._rows.size or self._rows[k] != row or self._cols[k] != col:
            raise DeviceError(
                "device stamp structure changed between pattern compilation and "
                "evaluation; stamps must make the same _add_mat calls in the same "
                "order for every x (got entry "
                f"({row}, {col}) at position {k})"
            )
        self.buffer[:, k] = value
        self._cursor += 1

    @property
    def cursor(self) -> int:
        """Number of contributions written so far."""
        return self._cursor


@dataclass(frozen=True)
class BatchSpec:
    """Declaration of a device's vectorised (batched) stamp evaluation.

    The batched evaluation engine (:mod:`repro.circuits.engine`) groups the
    devices of a circuit by :attr:`key` and evaluates each group with a
    single elementwise *kernel* call over all ``(P, n_group)`` points at
    once, instead of dispatching ``stamp_static`` / ``stamp_dynamic`` per
    device.  A spec describes one device's membership in that scheme:

    * :attr:`indices` — the device's *terminals*: the global unknown indices
      it reads (node voltages first, then branch-current unknowns, in
      whatever order the kernels expect them; ``-1`` denotes ground).
    * ``static_params`` / ``dynamic_params`` — scalar parameters, stacked by
      the engine into ``(n_group,)`` arrays handed to the respective kernel.
      Any value derived from the device parameters must be computed here
      *exactly* as the loop stamps compute it, so the kernels reproduce the
      loop path bit for bit.
    * ``static_vec`` / ``static_mat`` — the stamp slots of
      ``stamp_static``: residual rows, and ``(row, col)`` Jacobian entries,
      given as positions into :attr:`indices`, in the *same order* as the
      device's ``_add_vec`` / ``_add_mat`` calls.  Slots that resolve to
      ground are dropped by the engine exactly as the loop stamps drop them.
    * ``dynamic_vec`` / ``dynamic_mat`` — likewise for ``stamp_dynamic``.
    * ``static_kernel`` / ``dynamic_kernel`` — elementwise evaluators with
      signature ``kernel(V, params, need_jacobian)`` where ``V[t]`` is the
      C-contiguous ``(n_group, P)`` value of terminal ``t`` (``V`` is one
      ``(T, n_group, P)`` array) and ``params[j]`` the stacked
      ``(n_group, 1)`` parameter ``j``.  They return
      ``(vec_values, mat_values)`` aligned with the slot declarations
      (``mat_values`` may be ``None`` when ``need_jacobian`` is false);
      each value may be a scalar, an ``(n_group, 1)`` array
      (point-independent stamps) or a full ``(n_group, P)`` array.

    Devices in a group share the kernels of the group's first member, so
    :attr:`key` must capture everything *structural*: the device class and
    any parameter-dependent branching (a diode with and one without charge
    storage stamp different slots and must not share a group).  The engine
    validates every spec against the device's recorded stamp patterns at
    compile time, so a spec that disagrees with the loop stamps fails loudly
    rather than silently corrupting results.
    """

    key: tuple
    indices: tuple[int, ...]
    static_params: tuple[float, ...] = ()
    dynamic_params: tuple[float, ...] = ()
    static_vec: tuple[int, ...] = ()
    static_mat: tuple[tuple[int, int], ...] = ()
    dynamic_vec: tuple[int, ...] = ()
    dynamic_mat: tuple[tuple[int, int], ...] = ()
    static_kernel: Callable | None = field(default=None, compare=False)
    dynamic_kernel: Callable | None = field(default=None, compare=False)
    #: Declare the kernel's Jacobian values independent of ``x`` (linear
    #: devices).  The engine then captures them once at compile time, writes
    #: them into each of its Jacobian buffers when it is made and never asks
    #: the kernel for them again — per evaluation the kernel runs with
    #: ``need_jacobian=False``.
    static_mat_constant: bool = False
    dynamic_mat_constant: bool = False


def linear_capacitance_kernel(active_slots):
    """Batched kernel for the ``add_linear_cap`` pattern (MOSFET, BJT, ...).

    ``active_slots`` lists (node_a, node_b) terminal positions of the
    structurally present capacitances; one capacitance parameter array is
    expected per active slot, in the same order.  The Jacobian values are
    the capacitances themselves, so specs using this kernel should declare
    ``dynamic_mat_constant=True``.
    """

    def kernel(V, params, need_jacobian):
        vec = []
        mat = [] if need_jacobian else None
        for (a, b), cap in zip(active_slots, params):
            charge = cap * (V[a] - V[b])
            vec += [charge, -charge]
            if need_jacobian:
                mat += [cap, -cap, -cap, cap]
        return tuple(vec), (tuple(mat) if need_jacobian else None)

    return kernel


def linear_capacitance_slots(active_slots):
    """(vec, mat) slot declarations matching :func:`linear_capacitance_kernel`."""
    vec: list[int] = []
    mat: list[tuple[int, int]] = []
    for a, b in active_slots:
        vec += [a, b]
        mat += [(a, a), (a, b), (b, a), (b, b)]
    return tuple(vec), tuple(mat)


class Device:
    """Abstract network element.

    Subclasses declare their node connections via :attr:`node_names` and, if
    they need branch-current unknowns, override :meth:`n_branch_unknowns`.
    Index resolution (node name -> position in the unknown vector) is
    performed once by :meth:`bind`, called from ``Circuit.compile()``.
    """

    def __init__(self, name: str, node_names: Sequence[str]) -> None:
        if not name:
            raise DeviceError("device name must be a non-empty string")
        self.name = str(name)
        self.node_names: tuple[str, ...] = tuple(str(n) for n in node_names)
        if len(self.node_names) == 0:
            raise DeviceError(f"device {name!r} must connect to at least one node")
        self._node_idx: tuple[int, ...] = ()
        self._branch_idx: tuple[int, ...] = ()
        self._bound = False

    # -- topology ------------------------------------------------------
    def n_branch_unknowns(self) -> int:
        """Number of extra (branch-current) unknowns this device introduces."""
        return 0

    def branch_labels(self) -> tuple[str, ...]:
        """Labels for the branch unknowns (used in result reporting)."""
        return tuple(f"i({self.name})#{k}" for k in range(self.n_branch_unknowns()))

    def bind(self, node_indices: Sequence[int], branch_indices: Sequence[int]) -> None:
        """Resolve node/branch positions in the global unknown vector.

        ``node_indices`` contains one index per entry of :attr:`node_names`
        (-1 denotes the ground node); ``branch_indices`` contains
        ``n_branch_unknowns()`` indices.
        """
        if len(node_indices) != len(self.node_names):
            raise DeviceError(
                f"device {self.name!r} expected {len(self.node_names)} node indices, "
                f"got {len(node_indices)}"
            )
        if len(branch_indices) != self.n_branch_unknowns():
            raise DeviceError(
                f"device {self.name!r} expected {self.n_branch_unknowns()} branch indices, "
                f"got {len(branch_indices)}"
            )
        self._node_idx = tuple(int(i) for i in node_indices)
        self._branch_idx = tuple(int(i) for i in branch_indices)
        self._bound = True

    @property
    def is_bound(self) -> bool:
        """Whether :meth:`bind` has been called."""
        return self._bound

    def _require_bound(self) -> None:
        if not self._bound:
            raise DeviceError(
                f"device {self.name!r} has not been bound to a circuit; call Circuit.compile()"
            )

    # -- voltage access helpers -----------------------------------------
    @staticmethod
    def _voltage(X: np.ndarray, index: int) -> np.ndarray:
        """Voltage of node ``index`` for every evaluation point (0 for ground)."""
        if index < 0:
            return np.zeros(X.shape[0])
        return X[:, index]

    @staticmethod
    def _add_vec(vec, index: int, value: np.ndarray | float) -> None:
        """Accumulate ``value`` into column ``index`` of a (P, n) vector array.

        ``vec`` is normally a dense ``(P, n)`` accumulator; like
        :meth:`_add_mat` it may also be a recording/filling accumulator
        object (:class:`VectorRecorder` and the batched engine's value
        fillers), which is how the residual scatter maps of the batched
        evaluation engine are compiled.  Ground rows (negative indices) are
        dropped here in both cases.
        """
        if index >= 0:
            if isinstance(vec, np.ndarray):
                vec[:, index] += value
            else:
                vec.add(index, value)

    @staticmethod
    def _add_mat(mat, row: int, col: int, value: np.ndarray | float) -> None:
        """Accumulate ``value`` at (row, col) of a Jacobian accumulator.

        ``mat`` is either a dense ``(P, n, n)`` array (reference path) or a
        stamp accumulator (:class:`PatternRecorder`, :class:`PatternValueFiller`,
        :class:`NullStamps`).  Ground rows/columns (negative indices) are
        dropped here so device code never special-cases them.
        """
        if row >= 0 and col >= 0:
            if isinstance(mat, np.ndarray):
                mat[:, row, col] += value
            else:
                mat.add(row, col, value)

    # -- stamps (defaults: contribute nothing) ---------------------------
    def stamp_static(self, X: np.ndarray, F: np.ndarray, G: np.ndarray) -> None:
        """Accumulate conductive currents ``f(x)`` and their Jacobian ``G``."""

    def stamp_dynamic(self, X: np.ndarray, Q: np.ndarray, C: np.ndarray) -> None:
        """Accumulate charges/fluxes ``q(x)`` and their Jacobian ``C``."""

    def stamp_source(self, times: np.ndarray, B: np.ndarray) -> None:
        """Accumulate the excitation ``b(t)`` at the given ``times`` (shape (P,))."""

    def stamp_source_bivariate(
        self, t1: np.ndarray, t2: np.ndarray, scales, B: np.ndarray
    ) -> None:
        """Accumulate the multi-time excitation ``b_hat(t1, t2)``.

        The default maps a time-invariant ``stamp_source`` through the
        diagonal, which is correct for any device whose excitation does not
        depend on time (e.g. DC supplies); time-varying sources override
        this.
        """
        self.stamp_source(np.asarray(t1, dtype=float), B)

    def batch_spec(self) -> BatchSpec | None:
        """Batched-evaluation declaration of this device (see :class:`BatchSpec`).

        ``None`` (the default) means the device has no vectorised kernel;
        the batched engine then falls back to running its loop stamps into
        the group buffers, so correctness never depends on a spec existing.
        Called once per engine compilation, after :meth:`bind`.
        """
        return None

    def is_nonlinear(self) -> bool:
        """Whether the device's ``f`` or ``q`` depend nonlinearly on ``x``."""
        return False

    def has_dynamics(self) -> bool:
        """Whether the device contributes to ``q`` (charge/flux storage)."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nodes = ",".join(self.node_names)
        return f"{type(self).__name__}({self.name!r}, nodes=[{nodes}])"


class TwoTerminal(Device):
    """Convenience base class for devices with exactly two terminals."""

    def __init__(self, name: str, node_pos: str, node_neg: str) -> None:
        super().__init__(name, (node_pos, node_neg))

    @property
    def node_pos(self) -> str:
        """Name of the positive terminal node."""
        return self.node_names[0]

    @property
    def node_neg(self) -> str:
        """Name of the negative terminal node."""
        return self.node_names[1]

    def _terminal_indices(self) -> tuple[int, int]:
        self._require_bound()
        return self._node_idx[0], self._node_idx[1]

    def branch_voltage(self, X: np.ndarray) -> np.ndarray:
        """Voltage across the device, ``v(pos) - v(neg)``, per evaluation point."""
        p, n = self._terminal_indices()
        return self._voltage(X, p) - self._voltage(X, n)
