"""Service-level telemetry: per-job records aggregated into a trajectory.

Every solve already accounts for itself (``MPDEStats``: iteration counts,
wall-time buckets, recovery traces).  This module rolls those per-job facts
up to the service level — the trajectory an operator watches: throughput,
p50/p95 latency, retries spent, requests shed at admission, and the
compiled-circuit cache hit rate.

The aggregation is deliberately write-cheap (one locked append per event)
and read-on-demand: :meth:`ServiceTelemetry.snapshot` computes the derived
figures when asked.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from .cache import CacheStats

__all__ = [
    "JobRecord",
    "ServiceSnapshot",
    "ServiceTelemetry",
]


@dataclass(frozen=True)
class JobRecord:
    """One finished job as telemetry sees it."""

    job_id: str
    scenario: str
    label: str
    status: str
    attempts: int
    retries: int
    queue_wait_s: float
    total_s: float
    from_result_cache: bool


@dataclass(frozen=True)
class ServiceSnapshot:
    """The service-level trajectory at a point in time.

    ``latency_p50_s`` / ``latency_p95_s`` are computed over finished jobs'
    submit-to-terminal latency (queue wait included — that is what a
    client experiences); ``throughput_jobs_per_s`` over the window from
    the first submission to the latest terminal event.  ``shed`` counts
    admission rejections (:class:`~repro.utils.exceptions.ServiceOverloadedError`),
    which never become jobs.
    """

    submitted: int
    completed: int
    succeeded: int
    failed: int
    timed_out: int
    cancelled: int
    shed: int
    retries: int
    result_cache_hits: int
    throughput_jobs_per_s: float
    latency_p50_s: float
    latency_p95_s: float
    cache: CacheStats
    jobs: tuple[JobRecord, ...]


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


class ServiceTelemetry:
    """Thread-safe accumulator behind :meth:`SimulationService.telemetry`."""

    def __init__(self, *, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._records: list[JobRecord] = []
        self._latencies: list[float] = []
        self._submitted = 0
        self._shed = 0
        self._first_submit: float | None = None
        self._last_finish: float | None = None

    def record_submitted(self) -> None:
        with self._lock:
            self._submitted += 1
            if self._first_submit is None:
                self._first_submit = self._clock()

    def record_shed(self) -> None:
        with self._lock:
            self._shed += 1

    def record_finished(self, job) -> None:
        """Fold a terminal job into the trajectory (exactly once per job)."""
        record = JobRecord(
            job_id=job.id,
            scenario=job.request.scenario,
            label=job.request.label,
            status=job.status,
            attempts=len(job.attempts),
            retries=job.retries,
            queue_wait_s=job.queue_wait_s,
            total_s=(
                max(job.finished_at - job.submitted_at, 0.0)
                if job.finished_at is not None
                else 0.0
            ),
            from_result_cache=job.from_result_cache,
        )
        with self._lock:
            self._records.append(record)
            self._latencies.append(record.total_s)
            self._last_finish = self._clock()

    def snapshot(self, cache_stats: CacheStats | None = None) -> ServiceSnapshot:
        """Aggregate everything recorded so far (see :class:`ServiceSnapshot`)."""
        with self._lock:
            records = tuple(self._records)
            latencies = sorted(self._latencies)
            submitted = self._submitted
            shed = self._shed
            first = self._first_submit
            last = self._last_finish
        by_status = {status: 0 for status in ("succeeded", "failed", "timed_out", "cancelled")}
        for record in records:
            if record.status in by_status:
                by_status[record.status] += 1
        window = (last - first) if (first is not None and last is not None) else 0.0
        throughput = len(records) / window if window > 0 else 0.0
        if cache_stats is None:
            cache_stats = CacheStats(hits=0, misses=0, evictions=0, size=0, capacity=0)
        return ServiceSnapshot(
            submitted=submitted,
            completed=len(records),
            succeeded=by_status["succeeded"],
            failed=by_status["failed"],
            timed_out=by_status["timed_out"],
            cancelled=by_status["cancelled"],
            shed=shed,
            retries=sum(record.retries for record in records),
            result_cache_hits=sum(1 for record in records if record.from_result_cache),
            throughput_jobs_per_s=throughput,
            latency_p50_s=_percentile(latencies, 0.50),
            latency_p95_s=_percentile(latencies, 0.95),
            cache=cache_stats,
            jobs=records,
        )
