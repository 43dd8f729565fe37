"""Job layer: per-job deadlines, bounded retries, checkpoint-backed resume.

A :class:`SweepRequest` names a registered scenario plus parameter
overrides — the request vocabulary of :mod:`repro.scenarios` — and a
:class:`Job` is one accepted request moving through the service:

``pending -> running -> (retrying -> running)* -> succeeded``
``                                  \\-> failed | timed_out | cancelled``

Failure handling is the resilience taxonomy applied at service scope.
Every solve attempt's exception is classified by
:func:`~repro.resilience.taxonomy.classify_failure`; retryable kinds
(divergence, singular, GMRES stagnation, non-finite residuals,
service-infrastructure faults) consume the job's bounded retry budget with
exponential backoff + deterministic jitter, while terminal
kinds — an expired deadline, configuration/netlist errors, untrusted
checkpoints, anything unclassified — fail the job immediately.  When a
failed attempt carried a :class:`~repro.resilience.checkpoint.SolveCheckpoint`
(deadline expiries and exhausted-ladder failures attach one), the retry
passes it back as ``resume_from=`` and continues from the interrupted
iterate instead of restarting from zero.

The per-job deadline starts at *submission* (queue wait counts — a request
stuck behind a long queue times out like one stuck in a solve), and each
attempt hands the solver only the remaining budget, so retries can never
stretch a job past its deadline.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..resilience.deadline import Deadline
from ..resilience.faultinject import fault_site
from ..resilience.taxonomy import classify_failure
from ..scenarios.registry import (
    ScenarioCase,
    build_scenario,
    build_scenario_smoke,
    run_scenario,
    scenario_fingerprint,
    solve_case,
)
from ..utils.exceptions import (
    CheckpointError,
    CircuitError,
    ConfigurationError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
)
from ..utils.options import MPDEOptions

__all__ = [
    "JOB_STATES",
    "Job",
    "JobAttempt",
    "JobRetryPolicy",
    "SweepRequest",
    "is_retryable",
]

#: Every state a job can report (see the module docstring for the lifecycle).
JOB_STATES = (
    "pending",
    "running",
    "retrying",
    "succeeded",
    "failed",
    "timed_out",
    "cancelled",
)

#: Failure kinds the retry budget is spent on; everything else is terminal.
#: ``"deadline"`` is deliberately absent (the budget is gone — retrying
#: would only time out again) and so is ``"unknown"`` (an unclassified
#: failure is a bug, and retrying a bug hides it).
RETRYABLE_KINDS = frozenset(
    {
        "divergence",
        "singular",
        "gmres_stagnation",
        "non_finite",
        "service",
    }
)


def is_retryable(exc: BaseException) -> bool:
    """Whether the job layer may spend retry budget on ``exc``.

    Classification comes from :func:`classify_failure`; on top of it,
    configuration and netlist errors, untrusted checkpoints and admission
    rejections are always terminal — retrying them re-runs the same broken
    input.
    """
    if isinstance(
        exc, (ConfigurationError, CircuitError, CheckpointError, ServiceOverloadedError)
    ):
        return False
    return classify_failure(exc) in RETRYABLE_KINDS


@dataclass(frozen=True)
class JobRetryPolicy:
    """Bounded retry budget with exponential backoff + deterministic jitter.

    Retry ``k`` waits ``min(backoff_base_s * 2**(k-1), backoff_cap_s)``,
    scaled by a
    jitter factor in ``[1, 1 + jitter_fraction]`` derived from a hash of
    the job/attempt token, so concurrent retries de-synchronise without
    wall-clock randomness (the schedule is reproducible).
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0 or int(self.max_retries) != self.max_retries:
            raise ConfigurationError(
                f"max_retries must be a non-negative integer, got {self.max_retries!r}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff times must be non-negative")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError(
                f"jitter_fraction must be in [0, 1], got {self.jitter_fraction!r}"
            )

    def backoff_s(self, attempt: int, token: str = "") -> float:
        """Backoff (seconds) before 1-based retry ``attempt`` of ``token``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(self.backoff_base_s * 2.0 ** (attempt - 1), self.backoff_cap_s)
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / float(2**64)
        return base * (1.0 + self.jitter_fraction * unit)


@dataclass(frozen=True)
class SweepRequest:
    """One sweep request: a registered scenario name plus how to run it.

    Attributes
    ----------
    scenario:
        Name in the scenario registry (:func:`repro.scenarios.scenario_names`).
    overrides:
        Parameter overrides for :func:`build_scenario` — must name declared
        scenario parameters.
    smoke:
        Build at the scenario's downsized smoke configuration (default;
        the golden-pinned shape every automated check runs at).
    first_case_only:
        Solve only the first case (skip sweep tails and aggregates).
    deadline_s:
        Per-job wall-clock budget, measured from *submission*; ``None``
        falls back to the service default.
    retry:
        Per-job :class:`JobRetryPolicy` override (``None``: service default).
    solve_options:
        :class:`MPDEOptions` template for the solves (the case grid still
        wins ``n_fast``/``n_slow`` — see :func:`solve_case`).
    checkpoint_path / resume_from:
        Forwarded to :func:`solve_case` — persist checkpoints, or start
        from a prior one.
    label:
        Free-form tag echoed in telemetry.
    """

    scenario: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    smoke: bool = True
    first_case_only: bool = True
    deadline_s: float | None = None
    retry: JobRetryPolicy | None = None
    solve_options: MPDEOptions | None = None
    checkpoint_path: Any = None
    resume_from: Any = None
    label: str = ""

    def memo_key(self) -> str | None:
        """Identity string for the service's result-memoisation layer.

        ``None`` marks the request non-memoisable: resuming from a
        checkpoint or persisting one makes the run stateful, so its result
        must not be replayed for a different request.
        """
        if self.resume_from is not None or self.checkpoint_path is not None:
            return None
        overrides = ",".join(
            f"{key}={self.overrides[key]!r}" for key in sorted(self.overrides)
        )
        return (
            f"{self.scenario}|smoke={self.smoke}|first={self.first_case_only}|"
            f"overrides[{overrides}]|solve={self.solve_options!r}"
        )


@dataclass(frozen=True)
class JobAttempt:
    """One solve attempt of one case (the job-level analogue of
    :class:`~repro.resilience.taxonomy.RecoveryAttempt`)."""

    index: int
    case_label: str
    outcome: str  # "succeeded" | "retried" | "failed"
    kind: str = ""
    detail: str = ""
    backoff_s: float = 0.0
    duration_s: float = 0.0
    resumed_from_checkpoint: bool = False


class _JobCancelled(ServiceError):
    """Internal: a cooperative cancellation observed between attempts."""


class Job:
    """One accepted request moving through the service (see module docstring).

    Thread model: the submitting thread constructs the job and may call
    :meth:`cancel` / :meth:`result` / :meth:`wait`; exactly one worker
    thread calls :meth:`execute`.  Status and attempt records are only
    written by the worker (plus the terminal write under ``_finish``), and
    readers synchronise on the ``done`` event.
    """

    def __init__(
        self,
        request: SweepRequest,
        *,
        job_id: str,
        retry: JobRetryPolicy,
        deadline_s: float | None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.id = job_id
        self.request = request
        self.status = "pending"
        self.attempts: list[JobAttempt] = []
        self.run = None  # ScenarioRun on success
        self.error: BaseException | None = None
        self.checkpoint = None  # latest SolveCheckpoint observed on a failure
        self.from_result_cache = False
        self._retry = retry
        self._clock = clock
        self._sleep = sleep
        self._deadline = Deadline(deadline_s, clock=clock)
        self._done = threading.Event()
        self._cancel = threading.Event()
        self.submitted_at = clock()
        self.started_at: float | None = None
        self.finished_at: float | None = None

    # -- caller-facing surface ------------------------------------------------

    @property
    def retries(self) -> int:
        """Attempts that ended in a retry (== backoff sleeps taken)."""
        return sum(1 for attempt in self.attempts if attempt.outcome == "retried")

    @property
    def queue_wait_s(self) -> float:
        start = self.started_at if self.started_at is not None else self.finished_at
        if start is None:
            return 0.0
        return max(start - self.submitted_at, 0.0)

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state (True if it did)."""
        return self._done.wait(timeout)

    def cancel(self) -> bool:
        """Request cooperative cancellation; True if the job may still stop.

        A pending job is cancelled before it starts; a running job stops at
        the next attempt boundary (a solve in flight is not interrupted).
        Already-terminal jobs are unaffected (returns False).
        """
        self._cancel.set()
        return not self._done.is_set()

    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def result(self, timeout: float | None = None):
        """The job's :class:`~repro.scenarios.registry.ScenarioRun`, or raise.

        Blocks until terminal (``TimeoutError`` if ``timeout`` expires
        first); failed / timed-out / cancelled jobs re-raise their
        terminal error.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.id} not done after {timeout} s (status {self.status!r})"
            )
        if self.status == "succeeded":
            return self.run
        assert self.error is not None
        raise self.error

    # -- worker-facing surface -----------------------------------------------

    def _finish(self, status: str, *, run=None, error: BaseException | None = None) -> None:
        self.run = run
        self.error = error
        self.status = status
        self.finished_at = self._clock()
        self._done.set()

    def finish_from_memo(self, run) -> None:
        """Terminal success served from the service's memoised result cache."""
        self.started_at = self._clock()
        self.from_result_cache = True
        self._finish("succeeded", run=run)

    def finish_cancelled(self, detail: str = "") -> None:
        """Terminal cancellation (pending job cancelled / non-drain shutdown)."""
        suffix = f": {detail}" if detail else ""
        self._finish(
            "cancelled", error=ServiceError(f"job {self.id} cancelled{suffix}")
        )

    def execute(self, cache) -> None:
        """Run the request to a terminal state (worker-thread entry point)."""
        if self._cancel.is_set():
            self.finish_cancelled("before start")
            return
        self.started_at = self._clock()
        self.status = "running"
        request = self.request
        try:
            builder = build_scenario_smoke if request.smoke else build_scenario
            scenario = builder(request.scenario, **dict(request.overrides))
            fingerprint = scenario_fingerprint(scenario)
            run = run_scenario(
                scenario,
                first_case_only=request.first_case_only,
                solve=lambda case: self._solve_with_retry(case, cache, fingerprint),
            )
        except _JobCancelled as exc:
            self._finish("cancelled", error=exc)
            return
        except DeadlineExceededError as exc:
            if exc.checkpoint is not None:
                self.checkpoint = exc.checkpoint
            self._finish("timed_out", error=exc)
            return
        except Exception as exc:  # terminal classification happened below
            checkpoint = getattr(exc, "checkpoint", None)
            if checkpoint is not None:
                self.checkpoint = checkpoint
            self._finish("failed", error=exc)
            return
        self._finish("succeeded", run=run)

    def _solve_with_retry(self, case: ScenarioCase, cache, fingerprint: str):
        """Solve one case under the job deadline, retrying per the policy."""
        policy = self._retry
        resume = self.request.resume_from
        attempt = 0
        key = f"{fingerprint}|{case.label}"
        while True:
            attempt += 1
            if self._cancel.is_set():
                raise _JobCancelled(
                    f"job {self.id} cancelled before attempt {attempt} of "
                    f"case {case.label!r}"
                )
            self._deadline.check(stage=f"job:{case.label}")
            started = self._clock()
            resumed = resume is not None
            try:
                fault_site(
                    "service.job_dispatch", job=self.id, case=case.label, attempt=attempt
                )
                with cache.lease(key, case.circuit.compile) as mna:
                    remaining = self._deadline.remaining()
                    if remaining <= 0:
                        # A cache-miss compile spent the rest of the budget.
                        self._deadline.check(stage=f"job:{case.label}")
                    solver_deadline = None if remaining == float("inf") else remaining
                    result = solve_case(
                        case,
                        mna=mna,
                        options=self.request.solve_options,
                        deadline_s=solver_deadline,
                        checkpoint_path=self.request.checkpoint_path,
                        resume_from=resume,
                    )
            except Exception as exc:
                duration = self._clock() - started
                kind = classify_failure(exc)
                checkpoint = getattr(exc, "checkpoint", None)
                if checkpoint is not None:
                    self.checkpoint = checkpoint
                terminal = (
                    isinstance(exc, DeadlineExceededError)
                    or not is_retryable(exc)
                    or attempt > policy.max_retries
                )
                if terminal:
                    self.attempts.append(
                        JobAttempt(
                            index=attempt,
                            case_label=case.label,
                            outcome="failed",
                            kind=kind,
                            detail=str(exc),
                            duration_s=duration,
                            resumed_from_checkpoint=resumed,
                        )
                    )
                    raise
                backoff = policy.backoff_s(
                    attempt, token=f"{self.id}:{case.label}:{attempt}"
                )
                self.attempts.append(
                    JobAttempt(
                        index=attempt,
                        case_label=case.label,
                        outcome="retried",
                        kind=kind,
                        detail=str(exc),
                        backoff_s=backoff,
                        duration_s=duration,
                        resumed_from_checkpoint=resumed,
                    )
                )
                if checkpoint is not None:
                    resume = checkpoint
                self.status = "retrying"
                # Never sleep past the job deadline: cap the backoff at the
                # remaining budget and let the next loop head raise expiry.
                self._sleep(min(backoff, max(self._deadline.remaining(), 0.0)))
                self.status = "running"
            else:
                self.attempts.append(
                    JobAttempt(
                        index=attempt,
                        case_label=case.label,
                        outcome="succeeded",
                        duration_s=self._clock() - started,
                        resumed_from_checkpoint=resumed,
                    )
                )
                return result
