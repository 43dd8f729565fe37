"""One device sweep per distinct state.

The Newton-driven analyses read the circuit equations at the same state
several times: the residual needs ``q`` and ``f``, the Newton Jacobian needs
``C`` and ``G`` at the iterate whose residual was just computed, and the
integration history and the shooting monodromy read them again at each
accepted state.  :class:`StateSweep` serves all of these reads from one
:meth:`MNASystem.evaluate <repro.circuits.mna.MNASystem.evaluate>` call by
remembering the last state it swept.

A sweep is created per analysis call and dropped with it.  It is never
stored on the :class:`~repro.circuits.mna.MNASystem`, which compiled-circuit
caches share between jobs.
"""

from __future__ import annotations

import numpy as np

from ..circuits.mna import MNAEvaluation, MNASystem

__all__ = ["StateSweep"]


class StateSweep:
    """Single-point evaluations of ``mna``, remembering the last state swept.

    States are matched bitwise (two states one ulp apart are two sweeps), so
    every read returns exactly what a fresh ``mna.evaluate`` at that state
    would.  The returned arrays are read-only because later reads at the same
    state share them.
    """

    __slots__ = ("mna", "_key", "_evaluation")

    def __init__(self, mna: MNASystem) -> None:
        self.mna = mna
        self._key: bytes | None = None
        self._evaluation: MNAEvaluation | None = None

    def at(self, x: np.ndarray, *, jacobian: bool = False) -> MNAEvaluation:
        """The one-point evaluation at state ``x`` (shape ``(n,)``).

        Sweeps the devices only when ``x`` differs from the last state swept,
        or when ``jacobian`` asks for ``C`` and ``G`` and the last sweep was
        residual-only.  A sweep computes the Jacobians only when asked to.
        """
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        evaluation = self._evaluation
        if key != self._key or (jacobian and evaluation.conductance is None):
            evaluation = self.mna.evaluate(x.reshape(1, -1), need_jacobian=jacobian)
            for array in (evaluation.q, evaluation.f, evaluation.capacitance,
                          evaluation.conductance):
                if array is not None:
                    array.flags.writeable = False
            self._key = key
            self._evaluation = evaluation
        return evaluation
