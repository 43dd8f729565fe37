"""The simulation service: bounded-queue orchestration with load shedding.

:class:`SimulationService` owns the warm infrastructure — a
:class:`~repro.service.cache.CompiledCircuitCache`, a pool of worker
threads, the telemetry accumulator and an optional memoised result cache —
and moves :class:`~repro.service.jobs.Job` objects through it:

* **Admission control.**  The queue is bounded; a submission arriving at a
  full queue is rejected immediately with a structured
  :class:`~repro.utils.exceptions.ServiceOverloadedError` (queue depth,
  capacity and a latency-derived ``retry_after_s`` hint attached) instead
  of queueing unboundedly.  Shedding is graceful degradation: the client
  knows synchronously, nothing is silently dropped later.
* **Execution.**  Worker threads drain the queue FIFO; each job runs its
  retry/deadline/checkpoint state machine (:mod:`~repro.service.jobs`)
  against the shared compiled-circuit cache.
* **Memoised results.**  Identical repeated requests (same scenario,
  overrides and options; not checkpoint-stateful) can be served from a
  result cache without re-solving — the warm path of the service
  throughput floor.  Disable with ``memoize_results=False`` whenever every
  request must really solve (the chaos soak does).
* **Shutdown.**  ``shutdown(drain=True)`` stops admissions, finishes (or
  cancels, for ``drain=False``) the queue, joins every worker and closes
  the cache.  Idempotent: a second call is a no-op, and the
  service is a context manager.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..scenarios.registry import checked_scenario
from ..utils.exceptions import ConfigurationError, ServiceError, ServiceOverloadedError
from .cache import CompiledCircuitCache
from .jobs import Job, JobRetryPolicy, SweepRequest
from .telemetry import ServiceSnapshot, ServiceTelemetry

__all__ = ["ServiceOptions", "SimulationService"]

#: Default seconds :meth:`SimulationService.shutdown` waits to join each
#: worker thread.
DRAIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServiceOptions:
    """Configuration of a :class:`SimulationService`.

    Attributes
    ----------
    n_workers:
        Worker threads draining the queue (= maximum concurrent solves).
    queue_capacity:
        Maximum *queued* (not yet running) jobs before admission control
        sheds new submissions.
    cache_capacity:
        Entries in the compiled-circuit LRU cache.
    memoize_results:
        Serve identical repeated requests from a result cache without
        re-solving (see the module docstring).
    default_deadline_s:
        Per-job deadline applied when a request does not set its own
        (``None``: unbounded).
    retry:
        Default :class:`JobRetryPolicy` for requests without their own.
    """

    n_workers: int = 2
    queue_capacity: int = 8
    cache_capacity: int = 8
    memoize_results: bool = True
    default_deadline_s: float | None = None
    retry: JobRetryPolicy = field(default_factory=JobRetryPolicy)

    def __post_init__(self) -> None:
        for name in ("n_workers", "queue_capacity", "cache_capacity"):
            value = getattr(self, name)
            if value < 1 or int(value) != value:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}"
                )


class SimulationService:
    """Concurrent sweep execution on warm infrastructure (module docstring)."""

    def __init__(
        self,
        options: ServiceOptions | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.options = options if options is not None else ServiceOptions()
        self._clock = clock
        self._sleep = sleep
        self._cache = CompiledCircuitCache(self.options.cache_capacity)
        self._telemetry = ServiceTelemetry(clock=clock)
        self._lock = threading.Lock()
        self._queue_ready = threading.Condition(self._lock)
        self._queue: "deque[Job]" = deque()
        self._memo: dict[str, Any] = {}
        self._job_counter = 0
        self._shutting_down = False
        self._shutdown_done = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-svc-worker-{i}", daemon=True
            )
            for i in range(self.options.n_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self, request: SweepRequest | str, /, **overrides: Any
    ) -> Job:
        """Accept a request (or ``submit("name", param=value, ...)`` shorthand).

        Returns the :class:`Job` immediately; raises
        :class:`ConfigurationError` for an unknown scenario or an undeclared
        parameter override (before any job or telemetry record exists),
        :class:`ServiceOverloadedError` when the queue is full and
        :class:`ServiceError` once the service is shutting down.
        """
        if isinstance(request, str):
            request = SweepRequest(scenario=request, overrides=overrides)
        elif overrides:
            raise ConfigurationError(
                "parameter overrides go inside the SweepRequest when one is passed"
            )
        checked_scenario(request.scenario, request.overrides)
        memo_key = request.memo_key() if self.options.memoize_results else None
        with self._lock:
            if self._shutting_down:
                raise ServiceError("simulation service is shut down")
            if memo_key is not None and memo_key in self._memo:
                job = self._new_job_locked(request)
                self._telemetry.record_submitted()
                job.finish_from_memo(self._memo[memo_key])
                self._telemetry.record_finished(job)
                return job
            if len(self._queue) >= self.options.queue_capacity:
                self._telemetry.record_shed()
                depth = len(self._queue)
                hint = self._retry_after_hint_locked(depth)
                raise ServiceOverloadedError(
                    f"queue full ({depth}/{self.options.queue_capacity} jobs "
                    "waiting); back off and resubmit",
                    queue_depth=depth,
                    capacity=self.options.queue_capacity,
                    retry_after_s=hint,
                )
            job = self._new_job_locked(request)
            self._telemetry.record_submitted()
            self._queue.append(job)
            self._queue_ready.notify()
        return job

    def _new_job_locked(self, request: SweepRequest) -> Job:
        self._job_counter += 1
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.options.default_deadline_s
        )
        return Job(
            request,
            job_id=f"job-{self._job_counter:04d}",
            retry=request.retry if request.retry is not None else self.options.retry,
            deadline_s=deadline_s,
            clock=self._clock,
            sleep=self._sleep,
        )

    def _retry_after_hint_locked(self, depth: int) -> float | None:
        snapshot = self._telemetry.snapshot()
        if snapshot.completed == 0 or snapshot.latency_p50_s <= 0.0:
            return None
        # Rough drain estimate: queued jobs at median latency across workers.
        return depth * snapshot.latency_p50_s / self.options.n_workers

    # -- execution -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._queue_ready:
                while not self._queue and not self._shutting_down:
                    self._queue_ready.wait()
                if not self._queue:
                    return  # shutting down and drained
                job = self._queue.popleft()
            if job.cancelled():
                job.finish_cancelled("while queued")
                self._telemetry.record_finished(job)
                continue
            job.execute(self._cache)
            if job.status == "succeeded" and self.options.memoize_results:
                memo_key = job.request.memo_key()
                if memo_key is not None:
                    with self._lock:
                        self._memo.setdefault(memo_key, job.run)
            self._telemetry.record_finished(job)

    # -- caller-facing control ------------------------------------------------

    def cancel(self, job: Job) -> bool:
        """Cancel a job: immediately if still queued, cooperatively if running.

        Returns True when the job will (or did) end cancelled, False when
        it already reached a terminal state.
        """
        with self._lock:
            try:
                self._queue.remove(job)
            except ValueError:
                pass
            else:
                job.finish_cancelled("while queued")
                self._telemetry.record_finished(job)
                return True
        return job.cancel()

    @property
    def cache(self) -> CompiledCircuitCache:
        return self._cache

    def telemetry(self) -> ServiceSnapshot:
        """The service-level trajectory, cache counters included."""
        return self._telemetry.snapshot(self._cache.stats())

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- shutdown -------------------------------------------------------------

    def shutdown(self, *, drain: bool = True, timeout_s: float | None = None) -> None:
        """Stop the service (idempotent — a second call returns immediately).

        ``drain=True`` finishes every queued job first; ``drain=False``
        cancels the queue (running jobs still stop only at their next
        attempt boundary).  Either way every worker thread is joined and
        the compiled-circuit cache is closed; ``timeout_s`` bounds each
        join (default :data:`DRAIN_TIMEOUT_S`).
        """
        timeout_s = timeout_s if timeout_s is not None else DRAIN_TIMEOUT_S
        with self._queue_ready:
            if self._shutdown_done:
                return
            self._shutting_down = True
            cancelled: list[Job] = []
            if not drain:
                cancelled = list(self._queue)
                self._queue.clear()
            self._queue_ready.notify_all()
        for job in cancelled:
            job.finish_cancelled("service shutdown without drain")
            self._telemetry.record_finished(job)
        for worker in self._workers:
            worker.join(timeout=timeout_s)
        self._cache.close()
        with self._lock:
            self._shutdown_done = True

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)
