"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so downstream code can catch library failures without
also swallowing programming errors (``TypeError`` and friends propagate
untouched).

The hierarchy mirrors the package layout:

* netlist / device construction problems raise :class:`CircuitError` (or the
  more specific :class:`DeviceError` / :class:`NodeError`),
* numerical analyses raise :class:`AnalysisError`, with
  :class:`ConvergenceError` reserved for iterations that ran out of budget,
  :class:`SingularMatrixError` for structurally or numerically singular
  linearisations, :class:`GMRESStagnationError` for Krylov solves that made
  no progress over a restart cycle (a *stuck* solve, as opposed to a merely
  *slow* one) and :class:`DeadlineExceededError` for solves cut off by a
  cooperative per-solve deadline,
* the multi-time (MPDE) core raises :class:`MPDEError`, with
  :class:`ShearError` flagging invalid difference-frequency time-scale maps.

Terminal solve failures may carry a structured
:class:`~repro.resilience.diagnostics.FailureDiagnostics` payload on their
``diagnostics`` attribute (``None`` when no localisation was possible) —
see :mod:`repro.resilience`.  Deadline expiries and exhausted-ladder
failures of checkpointing solves additionally carry the latest
crash-consistent :class:`~repro.resilience.checkpoint.SolveCheckpoint` on
their ``checkpoint`` attribute, so callers can resume instead of restarting
from zero; :class:`CheckpointError` flags checkpoints that cannot be
trusted (corrupt file, fingerprint mismatch).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library.

    ``diagnostics`` is an optional structured-failure payload
    (:class:`~repro.resilience.diagnostics.FailureDiagnostics`) attached by
    the resilience layer on terminal solve failures.  ``checkpoint`` is an
    optional :class:`~repro.resilience.checkpoint.SolveCheckpoint` attached
    by checkpointing solves so the failed work can be resumed.
    """

    diagnostics = None
    checkpoint = None


class ConfigurationError(ReproError):
    """An option bundle or solver configuration is inconsistent."""


class CircuitError(ReproError):
    """A netlist could not be built or compiled into an MNA system."""


class NodeError(CircuitError):
    """A node reference is unknown, duplicated, or otherwise invalid."""


class DeviceError(CircuitError):
    """A device was constructed with invalid parameters or connections."""


class AnalysisError(ReproError):
    """An analysis (DC, transient, shooting, HB, ...) failed."""


class ConvergenceError(AnalysisError):
    """An iterative method exhausted its iteration budget without converging.

    Parameters
    ----------
    message:
        Human readable description of the failure.
    iterations:
        Number of iterations performed before giving up.
    residual_norm:
        Norm of the residual at the last iterate, if available.
    """

    def __init__(
        self,
        message: str,
        *,
        iterations: int | None = None,
        residual_norm: float | None = None,
    ) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual_norm = residual_norm


class SingularMatrixError(AnalysisError):
    """A linear system produced by an analysis is singular.

    Typically indicates a floating node, a loop of ideal voltage sources, or a
    device stamped with degenerate parameters.
    """


class GMRESStagnationError(SingularMatrixError):
    """A GMRES solve made essentially no progress over a whole restart cycle.

    Distinguishes a *stuck* Krylov solve (no-progress: the preconditioned
    residual barely moved across the last restart cycle, so more iterations
    would not help) from a merely *slow* one that ran out of ``maxiter``
    while still converging.  Subclasses :class:`SingularMatrixError` so
    existing failure handling keeps working; the recovery ladder classifies
    the two differently (a stagnated solve wants a refresh or a direct-LU
    re-solve, a slow one wants a larger budget).
    """


class DeadlineExceededError(AnalysisError):
    """A cooperative per-solve deadline expired before the solve finished.

    Raised at Newton / GMRES iteration boundaries (never mid-factorisation),
    so the work completed before the deadline is accounted for in
    ``partial_stats``.

    Parameters
    ----------
    message:
        Human readable description.
    deadline_s:
        The configured deadline in seconds.
    elapsed_s:
        Wall time elapsed when the deadline fired.
    stage:
        Name of the solve stage that observed the expiry (e.g. ``"newton"``,
        ``"gmres"``, ``"continuation"``, ``"recovery"``).
    partial_stats:
        Whatever statistics object the failing solve had accumulated so far
        (an :class:`~repro.core.solver.MPDEStats` for MPDE solves), or
        ``None``.
    checkpoint:
        The latest crash-consistent
        :class:`~repro.resilience.checkpoint.SolveCheckpoint` the failing
        solve recorded (``None`` for non-checkpointing solves) — pass it
        back as ``resume_from=`` to continue from the interrupted iterate
        instead of restarting from zero.
    """

    def __init__(
        self,
        message: str,
        *,
        deadline_s: float | None = None,
        elapsed_s: float | None = None,
        stage: str = "",
        partial_stats=None,
        checkpoint=None,
    ) -> None:
        super().__init__(message)
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s
        self.stage = stage
        self.partial_stats = partial_stats
        self.checkpoint = checkpoint


class CheckpointError(ReproError):
    """A solve checkpoint could not be loaded, validated, or resumed.

    Raised when a persisted checkpoint file is unreadable or corrupt (torn
    writes cannot happen — persistence is write-temporary + atomic rename —
    but truncation or tampering after the fact can), and when a
    checkpoint's problem fingerprint does not match the solve it is being
    resumed into (different circuit, grid, discretisation or solver
    configuration).  Resuming a mismatched checkpoint would converge — to
    the *wrong problem's* answer — so the mismatch is an error, never a
    warning.
    """


class ServiceError(ReproError):
    """The simulation service could not accept, run, or finish a request.

    Base class of the service layer's structured failures: admission
    rejections (:class:`ServiceOverloadedError`), retryable infrastructure
    trouble (:class:`TransientServiceError`), and terminal job outcomes the
    caller observes through ``Job.result()`` (cancelled / shed / shut-down
    requests).
    """


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a request: the service queue is full.

    Raised *synchronously* by ``SimulationService.submit`` — load shedding
    is structured and immediate, never a silently unbounded queue.  The
    caller can back off and resubmit.

    Parameters
    ----------
    message:
        Human readable description.
    queue_depth:
        Number of requests queued when the submission was rejected.
    capacity:
        The configured queue capacity.
    retry_after_s:
        Suggested client backoff before resubmitting (an estimate from the
        service's recent per-job latency), or ``None`` when the service has
        completed nothing yet.
    """

    def __init__(
        self,
        message: str,
        *,
        queue_depth: int | None = None,
        capacity: int | None = None,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.capacity = capacity
        self.retry_after_s = retry_after_s


class TransientServiceError(ServiceError):
    """A retryable service-infrastructure failure (cache build, dispatch).

    Models trouble *around* a solve rather than inside it — a compiled-
    circuit cache build that died, a dispatch hiccup.  Classified as the
    ``"service"`` failure kind, which the job layer's retry budget treats
    as retryable; the fault-injection service profiles raise this type.
    """


class MPDEError(ReproError):
    """The multi-time (MPDE) core failed to build or solve a problem."""


class ShearError(MPDEError):
    """A difference-frequency time-scale (shear) specification is invalid."""


class WaveformError(ReproError):
    """A waveform container was used inconsistently (size/axis mismatch)."""
