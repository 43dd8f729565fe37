"""Fault-tolerant simulation service: sweeps as requests on warm infrastructure.

The production-scale front end over the solver stack: many concurrent solve
requests — named scenario-registry workloads plus parameter overrides, the
request vocabulary PR 9 established — run against shared warm state, robust
by construction.  Four pieces:

* :mod:`~repro.service.cache` — :class:`CompiledCircuitCache`, an LRU cache
  of compiled :class:`~repro.circuits.mna.MNASystem` objects keyed by
  scenario fingerprint + case, with hit/miss/eviction counters and
  lease-based exclusive access (solves share scratch buffers, so a cached
  system is handed to exactly one job at a time).
* :mod:`~repro.service.jobs` — :class:`Job` / :class:`SweepRequest` /
  :class:`JobRetryPolicy`: per-job ``deadline_s`` (queue wait included),
  a bounded retry budget with exponential backoff + deterministic jitter,
  terminal-vs-retryable classification via
  :func:`~repro.resilience.taxonomy.classify_failure`, and checkpoint-backed
  resume — a retried attempt continues from the failed attempt's
  :class:`~repro.resilience.checkpoint.SolveCheckpoint` instead of
  restarting from zero.
* :mod:`~repro.service.orchestrator` — :class:`SimulationService` /
  :class:`ServiceOptions`: a bounded-queue thread pool with admission
  control (a full queue sheds load with a structured
  :class:`~repro.utils.exceptions.ServiceOverloadedError`, never queues
  unboundedly), cancellation, an optional memoized result cache for
  repeated identical requests, and an idempotent graceful-drain
  ``shutdown()``.
* :mod:`~repro.service.telemetry` — :class:`ServiceTelemetry`: per-job
  records aggregated into a service-level trajectory (throughput, p50/p95
  latency, retries, sheds, cache hit rate).

The service's failure sites (``service.cache_build``,
``service.job_dispatch``) are compiled into the
:mod:`~repro.resilience.faultinject` registry, so the chaos harness soaks
the orchestrator the same way it soaks the solver
(``REPRO_FAULT_PROFILE="chaos-service:<seed>"``).  Write-up in
``docs/service.md``.
"""

from .cache import CacheStats, CompiledCircuitCache
from .jobs import (
    JOB_STATES,
    Job,
    JobAttempt,
    JobRetryPolicy,
    SweepRequest,
    is_retryable,
)
from .orchestrator import ServiceOptions, SimulationService
from .telemetry import JobRecord, ServiceSnapshot, ServiceTelemetry

__all__ = [
    "CacheStats",
    "CompiledCircuitCache",
    "JOB_STATES",
    "Job",
    "JobAttempt",
    "JobRetryPolicy",
    "SweepRequest",
    "is_retryable",
    "ServiceOptions",
    "SimulationService",
    "JobRecord",
    "ServiceSnapshot",
    "ServiceTelemetry",
]
