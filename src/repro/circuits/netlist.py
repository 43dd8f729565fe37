"""Netlist container.

A :class:`Circuit` is an ordered collection of devices plus the node
bookkeeping needed to compile them into an MNA system.  The usual workflow::

    from repro.circuits import Circuit
    from repro.circuits.devices import Resistor, Capacitor, VoltageSource
    from repro.signals import SinusoidStimulus

    ckt = Circuit("rc lowpass")
    ckt.add(VoltageSource("vin", "in", ckt.GROUND, SinusoidStimulus(1.0, 1e6)))
    ckt.add(Resistor("r1", "in", "out", 1e3))
    ckt.add(Capacitor("c1", "out", ckt.GROUND, 1e-9))
    mna = ckt.compile()

Nodes are created implicitly the first time a device references them.  The
ground node may be called ``"0"`` or ``"gnd"`` (case-insensitive); it is
always eliminated from the unknown vector.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..utils.exceptions import CircuitError, NodeError
from .devices.base import Device
from .devices.sources import CurrentSource, VoltageSource

__all__ = ["Circuit", "GROUND_NAMES"]

GROUND_NAMES = ("0", "gnd", "ground")


class Circuit:
    """An ordered netlist of devices.

    Parameters
    ----------
    name:
        Human-readable circuit name (used in reports).
    """

    #: Canonical ground node name, usable as ``ckt.GROUND``.
    GROUND = "0"

    def __init__(self, name: str = "circuit") -> None:
        if not name:
            raise CircuitError("circuit name must be a non-empty string")
        self.name = str(name)
        self._devices: list[Device] = []
        self._device_names: set[str] = set()
        self._node_order: list[str] = []
        self._node_set: set[str] = set()

    # -- construction ----------------------------------------------------
    @staticmethod
    def is_ground(node: str) -> bool:
        """Whether ``node`` names the ground (reference) node."""
        return str(node).lower() in GROUND_NAMES

    def add(self, device: Device) -> Device:
        """Add ``device`` to the netlist and return it.

        Device names must be unique within a circuit; node names referenced
        by the device are registered in first-appearance order (which fixes
        the ordering of the unknown vector).
        """
        if not isinstance(device, Device):
            raise CircuitError(f"expected a Device, got {type(device).__name__}")
        if device.name in self._device_names:
            raise CircuitError(f"duplicate device name {device.name!r} in circuit {self.name!r}")
        for node in device.node_names:
            self._register_node(node)
        self._devices.append(device)
        self._device_names.add(device.name)
        return device

    def add_all(self, devices: Iterable[Device]) -> None:
        """Add several devices at once."""
        for device in devices:
            self.add(device)

    def _register_node(self, node: str) -> None:
        node = str(node)
        if not node:
            raise NodeError("node names must be non-empty strings")
        if self.is_ground(node):
            return
        if node not in self._node_set:
            self._node_set.add(node)
            self._node_order.append(node)

    # -- inspection --------------------------------------------------------
    @property
    def devices(self) -> tuple[Device, ...]:
        """All devices in insertion order."""
        return tuple(self._devices)

    @property
    def nodes(self) -> tuple[str, ...]:
        """All non-ground nodes in first-appearance order."""
        return tuple(self._node_order)

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_order)

    def device(self, name: str) -> Device:
        """Look up a device by name."""
        for dev in self._devices:
            if dev.name == name:
                return dev
        raise CircuitError(f"no device named {name!r} in circuit {self.name!r}")

    def has_node(self, node: str) -> bool:
        """Whether ``node`` exists in the circuit (ground always exists)."""
        return self.is_ground(node) or node in self._node_set

    def voltage_sources(self) -> tuple[VoltageSource, ...]:
        """All independent voltage sources (useful for source stepping)."""
        return tuple(d for d in self._devices if isinstance(d, VoltageSource))

    def current_sources(self) -> tuple[CurrentSource, ...]:
        """All independent current sources."""
        return tuple(d for d in self._devices if isinstance(d, CurrentSource))

    def independent_sources(self) -> tuple[Device, ...]:
        """All independent sources in insertion order."""
        return tuple(
            d for d in self._devices if isinstance(d, (VoltageSource, CurrentSource))
        )

    def is_nonlinear(self) -> bool:
        """Whether the circuit contains any nonlinear device."""
        return any(d.is_nonlinear() for d in self._devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self._devices)

    def __len__(self) -> int:
        return len(self._devices)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}, devices={len(self._devices)}, nodes={self.n_nodes})"
        )

    # -- compilation --------------------------------------------------------
    def compile(self, options: "EvaluationOptions | None" = None) -> "MNASystem":
        """Compile the netlist into an :class:`~repro.circuits.mna.MNASystem`.

        Binds every device to its positions in the global unknown vector
        (node voltages first, then branch currents in device insertion
        order) and runs basic sanity checks (at least one device, at least
        one non-ground node, every device node registered).

        ``options`` (an :class:`~repro.utils.options.EvaluationOptions`)
        selects the device-evaluation backend of the compiled system:
        ``"batched"`` (default) routes all stamp evaluation through the
        compiled gather/compute/scatter engine, ``"loop"`` keeps the
        per-device reference path.
        """
        from ..utils.options import EvaluationOptions
        from .mna import MNASystem  # local import to avoid a cycle

        options = options or EvaluationOptions()

        if len(self._devices) == 0:
            raise CircuitError(f"circuit {self.name!r} has no devices")
        if self.n_nodes == 0:
            raise CircuitError(
                f"circuit {self.name!r} has no non-ground nodes; nothing to solve"
            )

        node_index = {node: i for i, node in enumerate(self._node_order)}
        n_nodes = len(self._node_order)

        branch_cursor = n_nodes
        unknown_names: list[str] = [f"v({node})" for node in self._node_order]
        for device in self._devices:
            node_indices: list[int] = []
            for node in device.node_names:
                if self.is_ground(node):
                    node_indices.append(-1)
                else:
                    node_indices.append(node_index[node])
            n_branches = device.n_branch_unknowns()
            branch_indices = list(range(branch_cursor, branch_cursor + n_branches))
            branch_cursor += n_branches
            unknown_names.extend(device.branch_labels())
            device.bind(node_indices, branch_indices)

        return MNASystem(
            circuit=self,
            node_index=node_index,
            unknown_names=tuple(unknown_names),
            n_unknowns=branch_cursor,
            evaluation_backend=options.evaluation_backend,
        )
