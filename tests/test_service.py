"""Tests for the simulation service (cache, jobs, orchestrator, telemetry).

The service tests run against two deliberately cheap scenarios registered
here (and reused by the chaos soak / checkpoint-retry suites): a two-tone
RC case (linear by default, optionally nonlinear), and a *gated*
variant whose factory blocks on an event — the deterministic way to hold
worker threads busy while admission control and cancellation are probed.

Tests that pin exact counters or compare results bitwise opt out of the
ambient CI fault profiles with ``no_fault_injection``; the lifecycle tests
deliberately stay opted in, so the ``tier1-service`` lane soaks them under
``chaos-service:<seed>`` schedules.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.devices import (
    Capacitor,
    PolynomialConductance,
    Resistor,
    VoltageSource,
)
from repro.core import ShearedTimeScales
from repro.core.timescales import TimescaleBandwidths
from repro.resilience import (
    cache_build_fault,
    dispatch_fault,
    inject_faults,
    singular_jacobian,
)
from repro.scenarios import (
    BuiltScenario,
    CrossValidationPlan,
    ScenarioCase,
    build_scenario_smoke,
    case_baseband,
    register_scenario,
    run_scenario,
    scenario_names,
    solve_case,
    unregister_scenario,
)
from repro.service import (
    CompiledCircuitCache,
    JobRetryPolicy,
    ServiceOptions,
    SimulationService,
    SweepRequest,
    is_retryable,
)
from repro.signals import ModulatedCarrierStimulus, SinusoidStimulus, SumStimulus
from repro.utils import (
    ConfigurationError,
    DeadlineExceededError,
    MPDEOptions,
)
from repro.utils.exceptions import (
    ServiceError,
    ServiceOverloadedError,
    TransientServiceError,
)

RC_SCENARIO = "svc_rc_lowpass"
GATED_SCENARIO = "svc_rc_gated"
SLOW_COMPILE_SCENARIO = "svc_rc_slow_compile"

#: Compile time of the slow-compile scenario's circuit.
SLOW_COMPILE_S = 0.5

#: Event the gated scenario's factory blocks on (cleared per use).
GATE = threading.Event()

#: Near-zero backoffs: retry semantics, not wall-clock pacing, are under test.
FAST_RETRY = JobRetryPolicy(max_retries=4, backoff_base_s=0.001, backoff_cap_s=0.01)


def _build_rc_scenario(name, params):
    """A cheap two-tone RC filter scenario (8x8 grid).

    Linear by default (one Newton iteration); an ``nl`` override adds a
    cubic conductance at the output so solves take several iterations —
    which gives mid-solve faults an accepted iterate to checkpoint.
    """
    scales = ShearedTimeScales.from_frequencies(1e6, 1e6 - 10e3)
    ckt = Circuit(f"{name} rc")
    drive = SumStimulus(
        (
            SinusoidStimulus(1.0, 1e6),
            ModulatedCarrierStimulus(0.5, scales.carrier_frequency),
        )
    )
    ckt.add(VoltageSource("vin", "in", ckt.GROUND, drive))
    ckt.add(Resistor("r1", "in", "out", params["r"]))
    ckt.add(Capacitor("c1", "out", ckt.GROUND, params["c"]))
    if params["nl"]:
        ckt.add(
            PolynomialConductance(
                "gnl", "out", ckt.GROUND, (1e-4, 0.0, params["nl"])
            )
        )
    case = ScenarioCase(
        label="rc",
        circuit=ckt,
        analysis="mpde",
        output_pos="out",
        output_neg=None,
        bandwidths=TimescaleBandwidths(fast_harmonics=2, slow_harmonics=2),
        grid=(8, 8),
        compute_metrics=lambda case, result: {
            "dc": float(case_baseband(case, result).mean())
        },
        scales=scales,
    )
    return BuiltScenario(
        name=name,
        params=params,
        cases=(case,),
        cross_validation=CrossValidationPlan(frequency=10e3),
    )


def register_service_scenarios() -> None:
    """Register the cheap service-test scenarios (idempotent)."""
    if RC_SCENARIO not in scenario_names():
        register_scenario(RC_SCENARIO, params=dict(r=1e3, c=50e-9, nl=0.0))(
            _build_rc_scenario
        )
    if GATED_SCENARIO not in scenario_names():

        def _gated(name, params):
            assert GATE.wait(timeout=60.0), "test gate never released"
            return _build_rc_scenario(name, params)

        register_scenario(GATED_SCENARIO, params=dict(r=1e3, c=50e-9, nl=0.0))(_gated)
    if SLOW_COMPILE_SCENARIO not in scenario_names():

        def _slow_compile(name, params):
            scenario = _build_rc_scenario(name, params)
            circuit = scenario.cases[0].circuit
            compile_circuit = circuit.compile

            def compile_slowly(*args, **kwargs):
                time.sleep(SLOW_COMPILE_S)
                return compile_circuit(*args, **kwargs)

            circuit.compile = compile_slowly
            return scenario

        register_scenario(SLOW_COMPILE_SCENARIO, params=dict(r=1e3, c=50e-9, nl=0.0))(
            _slow_compile
        )


def unregister_service_scenarios() -> None:
    for name in (RC_SCENARIO, GATED_SCENARIO, SLOW_COMPILE_SCENARIO):
        if name in scenario_names():
            unregister_scenario(name)


@pytest.fixture(scope="module", autouse=True)
def _scenarios():
    register_service_scenarios()
    yield
    unregister_service_scenarios()


def _service(**overrides) -> SimulationService:
    defaults = dict(n_workers=2, queue_capacity=8, retry=FAST_RETRY)
    defaults.update(overrides)
    return SimulationService(ServiceOptions(**defaults))


def _drain_queue(svc: SimulationService, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while svc.queue_depth() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert svc.queue_depth() == 0


# ---------------------------------------------------------------------------
# Compiled-circuit cache
# ---------------------------------------------------------------------------


class _FakeSystem:
    def __init__(self, tag):
        self.tag = tag
        self.closed = 0

    def close(self):
        self.closed += 1


class TestCompiledCircuitCache:
    def test_hit_miss_counters_and_reuse(self):
        cache = CompiledCircuitCache(capacity=4)
        with cache.lease("a", lambda: _FakeSystem("a")) as first:
            pass
        with cache.lease("a", lambda: _FakeSystem("a2")) as second:
            assert second is first  # resident entry reused, not rebuilt
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
        assert stats.hit_rate == pytest.approx(0.5)
        cache.close()

    def test_lru_eviction_closes_the_victim(self):
        cache = CompiledCircuitCache(capacity=1)
        a = _FakeSystem("a")
        b = _FakeSystem("b")
        with cache.lease("a", lambda: a):
            pass
        with cache.lease("b", lambda: b):
            pass
        assert cache.stats().evictions == 1
        assert a.closed == 1 and b.closed == 0
        cache.close()
        assert b.closed == 1

    def test_leased_entries_are_never_evicted(self):
        cache = CompiledCircuitCache(capacity=1)
        a = _FakeSystem("a")
        b = _FakeSystem("b")
        with cache.lease("a", lambda: a):
            # Over capacity while "a" is leased: the cache must overflow
            # rather than close a system under a running solve.
            with cache.lease("b", lambda: b):
                assert len(cache) == 2
                assert a.closed == 0
        assert len(cache) == 1
        assert a.closed == 0  # the pinned entry survived; the idle one went
        cache.close()

    def test_lease_is_exclusive_per_key(self):
        cache = CompiledCircuitCache(capacity=2)
        active = []
        overlap = []

        def hold():
            with cache.lease("a", lambda: _FakeSystem("a")):
                active.append(1)
                overlap.append(len(active))
                time.sleep(0.01)
                active.pop()

        threads = [threading.Thread(target=hold) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert max(overlap) == 1  # never two leases of one key at once
        cache.close()

    def test_close_is_idempotent_and_blocks_new_leases(self):
        cache = CompiledCircuitCache(capacity=2)
        a = _FakeSystem("a")
        with cache.lease("a", lambda: a):
            pass
        cache.close()
        cache.close()
        assert a.closed == 1
        with pytest.raises(ServiceError, match="closed"):
            with cache.lease("b", lambda: _FakeSystem("b")):
                pass

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            CompiledCircuitCache(capacity=0)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


class TestJobRetryPolicy:
    def test_backoff_shape_and_jitter_bounds(self):
        policy = JobRetryPolicy(
            max_retries=5, backoff_base_s=0.1, backoff_cap_s=0.5, jitter_fraction=0.2
        )
        for attempt, base in [(1, 0.1), (2, 0.2), (3, 0.4), (4, 0.5), (5, 0.5)]:
            value = policy.backoff_s(attempt, token=f"job-1:{attempt}")
            assert base <= value <= base * 1.2 + 1e-12

    def test_backoff_doubles_and_caps(self):
        policy = JobRetryPolicy(backoff_base_s=0.05, backoff_cap_s=0.4, jitter_fraction=0.0)
        assert [policy.backoff_s(k) for k in range(1, 6)] == [0.05, 0.1, 0.2, 0.4, 0.4]
        with pytest.raises(ValueError):
            policy.backoff_s(0)

    def test_jitter_is_deterministic_per_token(self):
        policy = JobRetryPolicy(jitter_fraction=0.5)
        assert policy.backoff_s(1, token="x") == policy.backoff_s(1, token="x")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobRetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            JobRetryPolicy(jitter_fraction=1.5)

    def test_retryable_classification(self):
        assert is_retryable(TransientServiceError("cache build died"))
        assert not is_retryable(ConfigurationError("bad request"))
        assert not is_retryable(
            DeadlineExceededError("budget spent", deadline_s=1.0, elapsed_s=2.0)
        )
        assert not is_retryable(ServiceOverloadedError("full"))
        assert not is_retryable(TypeError("a bug, not a failure"))


# ---------------------------------------------------------------------------
# Service lifecycle
# ---------------------------------------------------------------------------


class TestServiceLifecycle:
    def test_submit_runs_and_matches_direct_run(self):
        with _service(memoize_results=False) as svc:
            jobs = [svc.submit(RC_SCENARIO), svc.submit(RC_SCENARIO, r=2e3)]
            runs = [job.result(timeout=120.0) for job in jobs]
        for job in jobs:
            assert job.status == "succeeded"
            assert job.done()
        direct = run_scenario(build_scenario_smoke(RC_SCENARIO))
        assert runs[0].case_metrics.keys() == direct.case_metrics.keys()

    @pytest.mark.no_fault_injection
    def test_service_results_are_bitwise_equal_to_serial(self):
        with _service(memoize_results=False) as svc:
            job = svc.submit(RC_SCENARIO, r=3e3)
            run = job.result(timeout=120.0)
        serial = run_scenario(
            build_scenario_smoke(RC_SCENARIO, r=3e3), first_case_only=True
        )
        np.testing.assert_array_equal(
            run.case_runs[0].result.states, serial.case_runs[0].result.states
        )
        assert run.case_metrics == serial.case_metrics

    def test_request_object_and_shorthand_conflict(self):
        with _service() as svc:
            request = SweepRequest(scenario=RC_SCENARIO, overrides={"r": 2e3})
            assert svc.submit(request).result(timeout=120.0) is not None
            with pytest.raises(ConfigurationError, match="overrides"):
                svc.submit(request, r=1e3)

    def test_unknown_scenario_is_rejected_at_submit(self):
        with _service() as svc:
            with pytest.raises(ConfigurationError, match="unknown scenario"):
                svc.submit("svc_no_such_scenario")
            assert svc.telemetry().submitted == 0
            # No job was created: the next accepted one is the first.
            assert svc.submit(RC_SCENARIO).id == "job-0001"

    def test_undeclared_override_is_rejected_at_submit(self):
        with _service() as svc:
            with pytest.raises(ConfigurationError, match="unknown parameter"):
                svc.submit(RC_SCENARIO, no_such_param=1.0)
            with pytest.raises(ConfigurationError, match="unknown parameter"):
                svc.submit(SweepRequest(scenario=RC_SCENARIO, overrides={"no_such_param": 1.0}))
            assert svc.telemetry().submitted == 0
            assert svc.submit(RC_SCENARIO).id == "job-0001"

    def test_submit_after_shutdown_raises(self):
        svc = _service()
        svc.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            svc.submit(RC_SCENARIO)

    def test_shutdown_is_idempotent_and_reentrant(self):
        svc = _service()
        svc.submit(RC_SCENARIO).wait(timeout=120.0)
        svc.shutdown()
        svc.shutdown()
        svc.shutdown(drain=False)

    def test_memoized_results_serve_repeat_requests(self):
        with _service() as svc:
            first = svc.submit(RC_SCENARIO, r=4e3)
            run = first.result(timeout=120.0)
            second = svc.submit(RC_SCENARIO, r=4e3)
            assert second.result(timeout=30.0) is run
            assert second.from_result_cache and not first.from_result_cache
            snapshot = svc.telemetry()
        assert snapshot.result_cache_hits == 1
        assert snapshot.completed == 2


# ---------------------------------------------------------------------------
# Admission control, cancellation, deadlines
# ---------------------------------------------------------------------------


class TestAdmissionAndCancellation:
    def test_full_queue_sheds_with_structured_error(self):
        GATE.clear()
        svc = _service(n_workers=1, queue_capacity=1, memoize_results=False)
        try:
            blocker = svc.submit(GATED_SCENARIO)
            _drain_queue(svc)  # the worker picked the blocker up
            queued = svc.submit(RC_SCENARIO)
            with pytest.raises(ServiceOverloadedError) as info:
                svc.submit(RC_SCENARIO, r=2e3)
            assert info.value.queue_depth == 1
            assert info.value.capacity == 1
            assert svc.telemetry().shed == 1
        finally:
            GATE.set()
            svc.shutdown()
        assert blocker.status == "succeeded"
        assert queued.status == "succeeded"

    def test_cancel_queued_job_is_immediate(self):
        GATE.clear()
        svc = _service(n_workers=1, queue_capacity=4, memoize_results=False)
        try:
            svc.submit(GATED_SCENARIO)
            _drain_queue(svc)
            victim = svc.submit(RC_SCENARIO)
            assert svc.cancel(victim) is True
            with pytest.raises(ServiceError, match="cancelled"):
                victim.result(timeout=5.0)
            assert victim.status == "cancelled"
        finally:
            GATE.set()
            svc.shutdown()

    def test_cancel_finished_job_reports_false(self):
        with _service() as svc:
            job = svc.submit(RC_SCENARIO)
            job.result(timeout=120.0)
            assert svc.cancel(job) is False
            assert job.status == "succeeded"

    def test_shutdown_without_drain_cancels_queue(self):
        GATE.clear()
        svc = _service(n_workers=1, queue_capacity=4, memoize_results=False)
        blocker = svc.submit(GATED_SCENARIO)
        queued = svc.submit(RC_SCENARIO)
        GATE.set()
        svc.shutdown(drain=False)
        assert queued.status == "cancelled"
        # the in-flight job still finished cleanly
        assert blocker.status in ("succeeded", "cancelled")

    def test_expired_deadline_times_the_job_out(self):
        with _service() as svc:
            job = svc.submit(
                SweepRequest(scenario=RC_SCENARIO, deadline_s=1e-9)
            )
            with pytest.raises(DeadlineExceededError):
                job.result(timeout=30.0)
        assert job.status == "timed_out"
        assert svc.telemetry().timed_out == 1

    def test_deadline_spent_compiling_times_the_job_out(self):
        # The budget outlives the pre-dispatch check but not the cache-miss
        # compile, so it runs out between the compile and the solve.
        with _service() as svc:
            job = svc.submit(
                SweepRequest(scenario=SLOW_COMPILE_SCENARIO, deadline_s=SLOW_COMPILE_S / 2)
            )
            with pytest.raises(DeadlineExceededError):
                job.result(timeout=30.0)
        assert job.status == "timed_out"
        assert svc.telemetry().timed_out == 1

    def test_default_deadline_applies_to_requests_without_one(self):
        with _service(default_deadline_s=1e-9) as svc:
            job = svc.submit(RC_SCENARIO)
            with pytest.raises(DeadlineExceededError):
                job.result(timeout=30.0)
        assert job.status == "timed_out"


# ---------------------------------------------------------------------------
# Retries and fault injection
# ---------------------------------------------------------------------------


@pytest.mark.no_fault_injection
class TestRetries:
    def test_dispatch_fault_is_retried_and_recovered(self):
        with inject_faults(dispatch_fault(count=1)) as plan:
            with _service(n_workers=1, memoize_results=False) as svc:
                job = svc.submit(RC_SCENARIO)
                run = job.result(timeout=120.0)
        assert run is not None
        assert plan.specs[0].fired == 1
        assert job.retries == 1
        assert [a.outcome for a in job.attempts] == ["retried", "succeeded"]
        assert job.attempts[0].kind == "service"

    def test_cache_build_fault_is_retried_and_recovered(self):
        with inject_faults(cache_build_fault(count=1)) as plan:
            with _service(n_workers=1, memoize_results=False) as svc:
                job = svc.submit(RC_SCENARIO)
                job.result(timeout=120.0)
        assert plan.specs[0].fired == 1
        assert job.status == "succeeded"
        assert job.retries == 1

    def test_exhausted_retry_budget_is_terminal(self):
        request = SweepRequest(
            scenario=RC_SCENARIO,
            retry=JobRetryPolicy(max_retries=1, backoff_base_s=0.001, backoff_cap_s=0.01),
        )
        with inject_faults(dispatch_fault(count=None)):  # unlimited firings
            with _service(n_workers=1, memoize_results=False) as svc:
                job = svc.submit(request)
                with pytest.raises(TransientServiceError):
                    job.result(timeout=30.0)
        assert job.status == "failed"
        assert [a.outcome for a in job.attempts] == ["retried", "failed"]

    def test_solver_failure_retries_resume_from_checkpoint(self, recovery_ladder):
        recovery_ladder()  # the injected fault must reach the job retry layer
        solve_options = MPDEOptions()
        request = SweepRequest(
            scenario=RC_SCENARIO,
            overrides={"nl": 3e-3},  # several Newton iterations => a checkpoint exists
            solve_options=solve_options,
            retry=FAST_RETRY,
        )
        with inject_faults(singular_jacobian(at_iteration=2, count=1)):
            with _service(n_workers=1, memoize_results=False) as svc:
                job = svc.submit(request)
                run = job.result(timeout=120.0)
        assert job.retries == 1
        assert job.attempts[0].kind == "singular"
        assert job.attempts[1].resumed_from_checkpoint  # continued, not restarted
        serial = run_scenario(
            build_scenario_smoke(RC_SCENARIO, nl=3e-3),
            first_case_only=True,
            solve=lambda case: solve_case(case, options=solve_options),
        )
        # Bitwise: the checkpoint-resumed retry equals an uninterrupted solve.
        np.testing.assert_array_equal(
            run.case_runs[0].result.states, serial.case_runs[0].result.states
        )

    def test_telemetry_counts_retries(self):
        with inject_faults(dispatch_fault(count=2)):
            with _service(n_workers=1, memoize_results=False) as svc:
                job = svc.submit(RC_SCENARIO)
                job.result(timeout=120.0)
                snapshot = svc.telemetry()
        assert job.status == "succeeded"
        assert snapshot.retries >= 1
        assert snapshot.succeeded == 1


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_snapshot_trajectory_fields(self):
        with _service(memoize_results=False) as svc:
            jobs = [svc.submit(RC_SCENARIO, r=float(r)) for r in (1e3, 2e3, 3e3)]
            for job in jobs:
                job.result(timeout=120.0)
            snapshot = svc.telemetry()
        assert snapshot.submitted == 3
        assert snapshot.completed == 3
        assert snapshot.succeeded == 3
        assert snapshot.throughput_jobs_per_s > 0.0
        assert 0.0 < snapshot.latency_p50_s <= snapshot.latency_p95_s
        assert snapshot.cache.misses >= 3  # three distinct circuits compiled
        assert len(snapshot.jobs) == 3
        record = snapshot.jobs[0]
        assert record.scenario == RC_SCENARIO
        assert record.total_s >= record.queue_wait_s

    @pytest.mark.no_fault_injection
    def test_cache_hit_rate_visible_for_repeat_requests(self):
        with _service(n_workers=1, memoize_results=False) as svc:
            for _ in range(3):
                svc.submit(RC_SCENARIO).result(timeout=120.0)
            snapshot = svc.telemetry()
        assert snapshot.cache.hits == 2
        assert snapshot.cache.misses == 1
        assert snapshot.cache.hit_rate == pytest.approx(2.0 / 3.0)
