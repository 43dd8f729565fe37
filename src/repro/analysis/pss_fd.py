"""Periodic steady state by global (finite-difference / spectral) collocation.

Instead of integrating around the period like shooting does, collocation
treats *all* time samples over one period as simultaneous unknowns and
enforces the DAE at every sample with a periodic differentiation operator:

    [D q(X)]_k + f(x_k) + b(t_k) = 0        for k = 0 .. N-1

where ``D`` is an ``N x N`` periodic differentiation matrix (backward Euler,
central differences, or the spectral Fourier matrix).  With the Fourier
matrix this is mathematically equivalent to single-tone harmonic balance in a
time-sample basis; with the finite-difference matrices it is the 1-D
specialisation of the multi-time MPDE discretisation used by the core of
this library — which is why the MPDE tests cross-validate against it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..circuits.mna import MNASystem
from ..linalg.krylov import CachedPreconditionedGMRES
from ..linalg.newton import FactoredJacobian, newton_solve
from ..linalg.preconditioners import (
    PRECONDITIONER_KINDS,
    build_averaged_preconditioner,
    circulant_eigenvalues,
)
from ..linalg.sparse import (
    BlockDiagStructure,
    CollocationJacobianAssembler,
    kron_identity,
    periodic_backward_difference,
    periodic_bdf2_difference,
    periodic_central_difference,
    periodic_fourier_differentiation,
)
from ..resilience.checkpoint import SolveCheckpoint, solve_fingerprint
from ..resilience.deadline import Deadline
from ..resilience.diagnostics import attach_diagnostics, build_failure_diagnostics
from ..signals.waveform import Waveform
from ..utils.exceptions import (
    AnalysisError,
    ConvergenceError,
    DeadlineExceededError,
)
from ..utils.logging import get_logger
from ..utils.options import NewtonOptions
from .dc import dc_operating_point

__all__ = ["CollocationPSSResult", "collocation_periodic_steady_state"]

_LOG = get_logger("analysis.pss_fd")


@dataclass
class CollocationPSSResult:
    """Periodic steady state from the collocation solver.

    Attributes
    ----------
    times:
        The ``N`` collocation points in ``[0, period)``.
    states:
        Solution at those points, shape ``(N, n)``.
    period:
        Period of the steady state.
    newton_iterations:
        Newton iterations spent on the global system.
    n_unknowns_total:
        Size of the global nonlinear system (``N * n``).
    """

    times: np.ndarray
    states: np.ndarray
    period: float
    mna: MNASystem
    newton_iterations: int = 0
    n_unknowns_total: int = 0
    #: Total inner GMRES iterations across the Newton solve (0 for the
    #: direct linear solver, i.e. ``matrix_free=False``).
    linear_iterations: int = 0
    #: True when any preconditioner build degraded to a weaker fallback
    #: (e.g. an ILU factorisation failing over to Jacobi scaling).
    preconditioner_degraded: bool = False

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
        """Complex Fourier coefficients ``X_0 .. X_K`` of a node voltage.

        Computed from the uniformly spaced collocation samples by FFT; this
        is the natural "harmonic balance view" of the collocation solution.
        """
        values = np.asarray(self.mna.voltage(self.states, node), dtype=float)
        coeffs = np.fft.rfft(values) / values.size
        if n_harmonics + 1 > coeffs.size:
            raise AnalysisError(
                f"requested {n_harmonics} harmonics but only {coeffs.size - 1} are resolvable "
                f"with {values.size} collocation points"
            )
        return coeffs[: n_harmonics + 1]


_DIFFERENTIATION = {
    "backward-euler": periodic_backward_difference,
    "bdf2": periodic_bdf2_difference,
    "central": periodic_central_difference,
    "fourier": periodic_fourier_differentiation,
}


def collocation_periodic_steady_state(
    mna: MNASystem,
    period: float,
    n_samples: int,
    *,
    method: str = "backward-euler",
    t0: float = 0.0,
    x0: np.ndarray | None = None,
    newton_options: NewtonOptions | None = None,
    matrix_free: bool = False,
    preconditioner: str = "block_circulant",
    gmres_tol: float = 1e-10,
    deadline_s: float | None = None,
    resume_from: SolveCheckpoint | str | os.PathLike | None = None,
    checkpoint_path: str | os.PathLike | None = None,
) -> CollocationPSSResult:
    """Solve for the periodic steady state on ``n_samples`` collocation points.

    Parameters
    ----------
    mna:
        Compiled circuit equations (excitation periodic with ``period``).
    period:
        Steady-state period in seconds.
    n_samples:
        Number of uniformly spaced collocation points over one period.
    method:
        Differentiation rule: ``"backward-euler"``, ``"central"`` or
        ``"fourier"`` (the latter gives spectral accuracy and is the
        harmonic-balance-equivalent mode).
    t0:
        Phase reference of the excitation.
    x0:
        Optional initial guess of shape ``(n_samples, n)`` or ``(n,)`` (the
        latter is broadcast to every sample).  Defaults to the DC operating
        point at every sample.
    newton_options:
        Iteration controls for the global Newton solve.
    matrix_free:
        Solve the Newton linear systems with preconditioned GMRES on the
        matrix-free operator ``v -> D (C_blk v) + G_blk v`` instead of a
        direct factorisation of the assembled Jacobian.  This is the 1-D
        specialisation of the MPDE matrix-free mode.
    preconditioner:
        Preconditioner mode for the matrix-free solves: ``"block_circulant"``
        (the default — every 1-D periodic differentiation matrix is
        circulant, so the averaged Jacobian splits into one complex ``(n, n)``
        block per harmonic), ``"block_circulant_fast"`` (the partially-
        averaged mode; with a single time axis the averaging is a no-op, so
        the one per-harmonic system is the exact Jacobian — GMRES converges
        in a few iterations at the cost of one sparse LU per build),
        ``"ilu"``, ``"jacobi"`` or ``"none"``.
    gmres_tol:
        Relative tolerance of the inner GMRES solves (matrix-free only).
    deadline_s:
        Optional cooperative wall-clock budget for the whole analysis,
        enforced at Newton iteration boundaries (including the
        source-stepping stages); raises
        :class:`~repro.utils.exceptions.DeadlineExceededError` on expiry.
        The raised error carries the latest iteration-boundary
        :class:`~repro.resilience.checkpoint.SolveCheckpoint` on its
        ``checkpoint`` attribute.
    resume_from:
        A checkpoint (or path of one persisted via ``checkpoint_path``)
        recorded by an interrupted run of *this same analysis*; the
        fingerprint is validated and the stored iterate becomes the initial
        guess (unless an explicit ``x0`` overrides it).  In the direct
        (``matrix_free=False``) mode a deadline-split solve resumed this way
        converges bit-for-bit to the uninterrupted answer.
    checkpoint_path:
        Persist iteration-boundary checkpoints to this path (atomic
        rename), in addition to the in-memory copy on the raised error.
    """
    if period <= 0:
        raise AnalysisError("period must be positive")
    if n_samples < 3:
        raise AnalysisError("collocation needs at least 3 samples per period")
    if method not in _DIFFERENTIATION:
        raise AnalysisError(
            f"unknown differentiation method {method!r}; available: {sorted(_DIFFERENTIATION)}"
        )
    if preconditioner not in PRECONDITIONER_KINDS:
        raise AnalysisError(
            f"unknown preconditioner {preconditioner!r}; available: "
            f"{list(PRECONDITIONER_KINDS)}"
        )
    nopts = newton_options or NewtonOptions(max_iterations=100)
    deadline = Deadline(deadline_s)

    fingerprint = solve_fingerprint(
        "pss",
        circuit=mna.circuit.name,
        unknowns=list(mna.unknown_names),
        period=period,
        n_samples=n_samples,
        method=method,
        t0=t0,
        matrix_free=matrix_free,
        preconditioner=preconditioner,
    )
    latest_checkpoint: list[SolveCheckpoint | None] = [None]

    def _checked_deadline(stage: str) -> None:
        try:
            deadline.check(stage)
        except DeadlineExceededError as exc:
            if exc.checkpoint is None:
                exc.checkpoint = latest_checkpoint[0]
            raise

    def _deadline_callback(iteration: int, x: np.ndarray, residual_norm: float) -> None:
        # The main Newton run records an iteration-boundary checkpoint at
        # every accepted iterate (the source-stepping stages do not — their
        # embedded iterates are not resume points of the real problem).
        latest_checkpoint[0] = SolveCheckpoint(
            fingerprint=fingerprint,
            stage="collocation",
            iterate=np.array(x, copy=True),
            newton_iterations=int(iteration),
            residual_norm=float(residual_norm),
        )
        if checkpoint_path is not None:
            latest_checkpoint[0].save(checkpoint_path)
        _checked_deadline("collocation newton")

    def _stage_callback(iteration: int, x: np.ndarray, residual_norm: float) -> None:
        del iteration, x, residual_norm
        _checked_deadline("collocation newton")

    n = mna.n_unknowns
    times = t0 + np.arange(n_samples) * (period / n_samples)
    diff = _DIFFERENTIATION[method](n_samples, period)
    diff_sparse = sp.csr_matrix(diff)
    # Symbolic-once assembly of the collocation Jacobian (same structure as
    # the MPDE core: (D kron I_n) blockdiag(C) + blockdiag(G)).
    assembler = CollocationJacobianAssembler(
        diff_sparse, mna.dynamic_pattern, mna.static_pattern, n
    )

    b_samples = mna.source(times)  # (N, n)

    if resume_from is not None:
        if isinstance(resume_from, (str, os.PathLike)):
            resume_from = SolveCheckpoint.load(resume_from)
        resume_from.validate(fingerprint)
        if x0 is None:
            x0 = np.array(resume_from.iterate, copy=True).reshape(n_samples, n)

    if x0 is None:
        x_dc = dc_operating_point(mna).x
        x_init = np.tile(x_dc, (n_samples, 1))
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape == (n,):
            x_init = np.tile(x0, (n_samples, 1))
        elif x0.shape == (n_samples, n):
            x_init = x0.copy()
        else:
            raise AnalysisError(
                f"x0 must have shape ({n},) or ({n_samples}, {n}), got {x0.shape}"
            )

    b_mean = b_samples.mean(axis=0, keepdims=True)

    def embedded_source(lam: float) -> np.ndarray:
        """Source grid with the time-varying part scaled by ``lam`` (source stepping)."""
        return b_mean + lam * (b_samples - b_mean)

    def residual_for(b_grid: np.ndarray):
        def _residual(x_flat: np.ndarray) -> np.ndarray:
            states = x_flat.reshape(n_samples, n)
            evaluation = mna.evaluate(states, need_jacobian=False)
            dq = diff_sparse @ evaluation.q
            return (dq + evaluation.f + b_grid).ravel()

        return _residual

    linear_iterations = [0]
    degraded = [False]
    if matrix_free:
        c_structure = BlockDiagStructure(mna.dynamic_pattern, n_samples)
        g_structure = BlockDiagStructure(mna.static_pattern, n_samples)
        d_kron = kron_identity(diff_sparse, n)
        eigenvalues = circulant_eigenvalues(diff_sparse)

        def _build_preconditioner(evaluation):
            return build_averaged_preconditioner(
                preconditioner,
                size=n_samples * n,
                dynamic_pattern=mna.dynamic_pattern,
                static_pattern=mna.static_pattern,
                c_data=evaluation.c_data,
                g_data=evaluation.g_data,
                eigenvalues_fast=eigenvalues,
                assemble=assembler.assemble,
                # 1-D collocation is the degenerate (n_slow = 1) case of the
                # partially-averaged mode: slow-averaging is a no-op and the
                # single per-harmonic system is the unaveraged Jacobian.
                fast_operator=diff_sparse,
                grid_shape=(n_samples, 1),
            )

        # The same caching / adaptive-refresh / retry-once discipline the
        # MPDE solver uses, via the shared manager.
        krylov = CachedPreconditionedGMRES(_build_preconditioner)

        def jacobian(x_flat: np.ndarray):
            states = x_flat.reshape(n_samples, n)
            evaluation = mna.evaluate_sparse(states)
            c_blk = c_structure.matrix(evaluation.c_data)
            g_blk = g_structure.matrix(evaluation.g_data)
            operator = spla.LinearOperator(
                (n_samples * n, n_samples * n),
                matvec=lambda v: d_kron @ (c_blk @ v) + g_blk @ v,
                dtype=float,
            )

            def solve(rhs: np.ndarray) -> np.ndarray:
                # raise_on_failure=False: a best-effort step on a hard solve
                # lets the damped Newton loop (and ultimately the
                # source-stepping fallback below) recover, matching the
                # robustness of the direct path.
                dx, reports = krylov.solve(
                    operator,
                    rhs,
                    context=evaluation,
                    tol=gmres_tol,
                    raise_on_failure=False,
                )
                for report in reports:
                    linear_iterations[0] += report.iterations
                    degraded[0] |= report.preconditioner_degraded
                return dx

            return FactoredJacobian(solve)

    else:

        def jacobian(x_flat: np.ndarray):
            states = x_flat.reshape(n_samples, n)
            evaluation = mna.evaluate_sparse(states)
            return assembler.assemble(evaluation.c_data, evaluation.g_data)

    total_iterations = 0
    result = newton_solve(
        residual_for(b_samples),
        jacobian,
        x_init.ravel(),
        nopts,
        raise_on_failure=False,
        callback=_deadline_callback,
    )
    total_iterations += result.iterations
    if not result.converged:
        # Source-stepping continuation: ramp the time-varying excitation from
        # its average (an easy, DC-like problem) up to the full drive.  This
        # is the same fallback the MPDE core and SPICE DC solvers use for
        # hard nonlinear problems.
        _LOG.info(
            "collocation Newton failed (residual %.3e); falling back to source stepping",
            result.residual_norm,
        )
        x_current = x_init.ravel()
        lam = 0.0
        try:
            for lam in np.linspace(0.0, 1.0, 11):
                _checked_deadline("collocation source stepping")
                step = newton_solve(
                    residual_for(embedded_source(lam)),
                    jacobian,
                    x_current,
                    nopts,
                    callback=_stage_callback,
                )
                total_iterations += step.iterations
                x_current = step.x
        except ConvergenceError as exc:
            # Terminal failure: localise it before re-raising.
            try:
                residual = residual_for(embedded_source(lam))(x_current)
            except Exception:
                residual = None
            raise attach_diagnostics(
                exc, build_failure_diagnostics(mna, x_current, residual, "divergence")
            )
        result = step

    states = result.x.reshape(n_samples, n)
    return CollocationPSSResult(
        times=times,
        states=states,
        period=period,
        mna=mna,
        newton_iterations=total_iterations,
        n_unknowns_total=n_samples * n,
        linear_iterations=linear_iterations[0],
        preconditioner_degraded=degraded[0],
    )
