"""Periodic steady state by global (finite-difference / spectral) collocation.

Instead of integrating around the period like shooting does, collocation
treats *all* time samples over one period as simultaneous unknowns and
enforces the DAE at every sample with a periodic differentiation operator:

    [D q(X)]_k + f(x_k) + b(t_k) = 0        for k = 0 .. N-1

where ``D`` is an ``N x N`` periodic differentiation matrix (backward Euler,
BDF2, central differences, or the spectral Fourier matrix, which makes this
single-tone harmonic balance in a time-sample basis).  It is the ``(N, 1)``
one-axis MPDE (:meth:`~repro.core.mpde.MPDEProblem.periodic`) solved by
:class:`~repro.core.solver.MPDESolver`, with its Newton loop, recovery
ladder, deadlines, checkpoints and stats.
"""

from __future__ import annotations

import os

import numpy as np

from ..circuits.mna import MNASystem
from ..core.grid import DIFFERENTIATION
from ..core.mpde import MPDEProblem
from ..core.solver import MPDEResult, MPDESolver, MPDEStats
from ..resilience.checkpoint import SolveCheckpoint
from ..signals.waveform import Waveform
from ..utils.exceptions import AnalysisError
from ..utils.options import MPDEOptions

__all__ = ["CollocationPSSResult", "collocation_periodic_steady_state"]


class CollocationPSSResult:
    """Periodic steady state from the collocation solver.

    A view of the one-axis :class:`~repro.core.solver.MPDEResult` (``mpde``):
    ``times`` are the ``N`` collocation points in ``[t0, t0 + period)``,
    ``states`` the solution there, shape ``(N, n)``, and ``stats`` the
    solver's :class:`~repro.core.solver.MPDEStats`.  ``n_unknowns_total`` is
    ``N * n``; ``linear_iterations`` counts inner GMRES iterations (0 for
    the direct solver).
    """

    def __init__(self, mpde: MPDEResult) -> None:
        self.mpde = mpde
        self.stats: MPDEStats = mpde.stats
        self.mna: MNASystem = mpde.mna
        self.period: float = mpde.grid.period_fast
        self.times = mpde.problem.t0 + mpde.grid.fast_axis
        self.states = mpde.states[:, 0, :]
        self.newton_iterations = self.stats.newton_iterations
        self.n_unknowns_total = self.stats.n_total_unknowns
        self.linear_iterations = self.stats.linear_iterations
        self.preconditioner_degraded = self.stats.preconditioner_degraded

    def _closed(self, values: np.ndarray, name: str) -> Waveform:
        """Build a waveform spanning one full period (periodic endpoint repeated)."""
        times = np.concatenate([self.times, [self.times[0] + self.period]])
        values = np.concatenate([values, [values[0]]])
        return Waveform(times, values, name=name)

    def waveform(self, node: str) -> Waveform:
        """Node-voltage waveform over one full period."""
        return self._closed(np.asarray(self.mna.voltage(self.states, node)), name=f"v({node})")

    def differential_waveform(self, node_pos: str, node_neg: str) -> Waveform:
        """Differential voltage waveform over one full period."""
        values = np.asarray(self.mna.differential_voltage(self.states, node_pos, node_neg))
        return self._closed(values, name=f"v({node_pos},{node_neg})")

    def fourier_harmonics(self, node: str, n_harmonics: int) -> np.ndarray:
        """Complex Fourier coefficients ``X_0 .. X_K`` of a node voltage (by FFT)."""
        values = np.asarray(self.mna.voltage(self.states, node), dtype=float)
        coeffs = np.fft.rfft(values) / values.size
        if n_harmonics + 1 > coeffs.size:
            raise AnalysisError(
                f"requested {n_harmonics} harmonics but only {coeffs.size - 1} are resolvable "
                f"with {values.size} collocation points"
            )
        return coeffs[: n_harmonics + 1]


def collocation_periodic_steady_state(
    mna: MNASystem,
    period: float,
    n_samples: int,
    *,
    method: str = "backward-euler",
    t0: float = 0.0,
    x0: np.ndarray | None = None,
    options: MPDEOptions | None = None,
    deadline_s: float | None = None,
    checkpoint_path: str | os.PathLike | None = None,
    resume_from: SolveCheckpoint | str | os.PathLike | None = None,
) -> CollocationPSSResult:
    """Solve for the periodic steady state on ``n_samples`` collocation points.

    ``method`` is the differentiation rule (``"backward-euler"``, ``"bdf2"``,
    ``"central"`` or the spectral ``"fourier"``); ``t0`` the phase reference
    of the excitation.  ``x0`` is an optional initial guess of shape
    ``(n_samples, n)`` or ``(n,)`` (broadcast to every sample), defaulting to
    the DC operating point.

    ``options`` (default ``MPDEOptions()``) sets the numerics: the Newton
    iteration and the linear solver.  Its grid fields are
    not read; the grid is the ``n_samples`` points of ``method``.  With
    ``matrix_free=True`` the Newton systems are solved by GMRES on
    ``v -> D (C_blk v) + G_blk v``, preconditioned by ``preconditioner``
    (with one time axis ``"block_circulant_fast"`` factors the exact
    Jacobian).

    ``deadline_s``, ``checkpoint_path`` and ``resume_from`` are the solver's
    deadline and ``"newton"``-stage checkpoints
    (:meth:`~repro.core.solver.MPDESolver.solve`); a deadline-split direct
    solve resumes bit-for-bit.
    """
    if period <= 0:
        raise AnalysisError("period must be positive")
    if n_samples < 3:
        raise AnalysisError("collocation needs at least 3 samples per period")
    if method not in DIFFERENTIATION:
        raise AnalysisError(
            f"unknown differentiation method {method!r}; available: {sorted(DIFFERENTIATION)}"
        )
    n = mna.n_unknowns
    if x0 is not None and np.shape(x0) not in ((n,), (n_samples, n)):
        raise AnalysisError(
            f"x0 must have shape ({n},) or ({n_samples}, {n}), got {np.shape(x0)}"
        )
    problem = MPDEProblem.periodic(mna, period, n_samples, method=method, t0=t0, options=options)
    result = MPDESolver(problem).solve(
        x0=x0,
        deadline_s=deadline_s,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    return CollocationPSSResult(result)
