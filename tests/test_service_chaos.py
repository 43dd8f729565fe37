"""Chaos soak of the simulation service (the PR's acceptance harness).

Nine concurrent sweep requests — direct solves and matrix-free GMRES solves
with both preconditioner kinds — run under one fault schedule that stalls GMRES, poisons
residuals with NaN, makes Jacobians singular mid-solve, and injects
service-infrastructure faults into cache builds and job dispatch.  The
service must lose nothing:

* every accepted job succeeds (retries and checkpoint resumes absorb all
  of it),
* every result is bitwise-identical to a serial, fault-free rerun,
* the one deliberately-overloaded submission is shed synchronously with a
  structured error — and succeeds when resubmitted,
* retries and sheds are visible in service telemetry.

Bitwise comparisons need the schedule to be exactly the one armed here, so
the module opts out of the ambient CI fault profiles.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.resilience import (
    cache_build_fault,
    dispatch_fault,
    gmres_stall,
    inject_faults,
    nan_evaluation,
    singular_jacobian,
)
from repro.scenarios import build_scenario, build_scenario_smoke, run_scenario, solve_case
from repro.service import JobRetryPolicy, ServiceOptions, SimulationService, SweepRequest
from repro.utils import MPDEOptions
from repro.utils.exceptions import ServiceOverloadedError

from test_service import (
    GATE,
    GATED_SCENARIO,
    RC_SCENARIO,
    register_service_scenarios,
    unregister_service_scenarios,
)

pytestmark = pytest.mark.no_fault_injection

_SOLVE = MPDEOptions()

_RETRY = JobRetryPolicy(max_retries=6, backoff_base_s=0.001, backoff_cap_s=0.01)

#: Matrix-free with the partially-averaged preconditioner: rebuilt from each
#: iterate, so a checkpoint resume replays the trajectory bitwise.
_MATRIX_FREE = replace(_SOLVE, matrix_free=True, preconditioner="block_circulant_fast")

_NL = 3e-3


@pytest.fixture(scope="module", autouse=True)
def _scenarios():
    register_service_scenarios()
    yield
    unregister_service_scenarios()


@pytest.fixture(autouse=True)
def _no_recovery_ladder(recovery_ladder):
    """Recovery ladder off: every injected solver fault must escalate to the
    job retry layer (whose resumes are bitwise) instead of being absorbed
    by an in-solve ladder rung (whose re-runs are only tolerance-equal)."""
    recovery_ladder()


def _requests():
    """Nine distinct requests: 4 gated (to occupy workers), 5 mixed."""
    gated = [
        SweepRequest(
            scenario=GATED_SCENARIO,
            overrides={"r": 1e3 + 100.0 * i, "nl": _NL},
            solve_options=_SOLVE,
            retry=_RETRY,
            label=f"gated-{i}",
        )
        for i in range(4)
    ]
    mixed = [
        SweepRequest(
            scenario=RC_SCENARIO,
            overrides={"r": 2e3, "nl": _NL},
            solve_options=_SOLVE,
            retry=_RETRY,
            label="direct",
        ),
        SweepRequest(
            scenario=RC_SCENARIO,
            overrides={"r": 2.1e3, "nl": _NL},
            solve_options=_MATRIX_FREE,
            retry=_RETRY,
            label="matrix-free",
        ),
        SweepRequest(
            scenario=RC_SCENARIO,
            overrides={"r": 2.2e3, "nl": _NL},
            solve_options=_MATRIX_FREE,
            retry=_RETRY,
            label="matrix-free-fast",
        ),
        SweepRequest(
            scenario=RC_SCENARIO,
            overrides={"r": 2.3e3, "nl": _NL},
            solve_options=replace(_SOLVE, matrix_free=True),
            retry=_RETRY,
            label="matrix-free-default",
        ),
        SweepRequest(
            scenario=RC_SCENARIO,
            overrides={"r": 2.4e3, "nl": _NL},
            solve_options=_SOLVE,
            retry=_RETRY,
            label="overflow",
        ),
    ]
    return gated, mixed


def _schedule():
    return [
        singular_jacobian(at_iteration=2, count=2),
        nan_evaluation(count=1, min_points=4),
        gmres_stall(at_call=1, count=1, site="solver.gmres"),
        cache_build_fault(count=2),
        dispatch_fault(count=2),
    ]


def _serial_rerun(request):
    """The same request solved serially, no service, no faults armed."""
    builder = build_scenario_smoke if request.smoke else build_scenario
    scenario = builder(request.scenario, **dict(request.overrides))
    return run_scenario(
        scenario,
        first_case_only=True,
        solve=lambda case: solve_case(case, options=request.solve_options),
    )


def test_service_chaos_soak_loses_nothing():
    gated, mixed = _requests()
    options = ServiceOptions(
        n_workers=4,
        queue_capacity=4,
        cache_capacity=4,
        memoize_results=False,  # every request must really solve
        retry=_RETRY,
    )
    GATE.clear()
    jobs = []
    svc = SimulationService(options)
    try:
        with inject_faults(*_schedule()) as plan:
            # Phase 1: the gated jobs occupy all four workers...
            for request in gated:
                jobs.append(svc.submit(request))
            deadline = time.monotonic() + 30.0
            while svc.queue_depth() and time.monotonic() < deadline:
                time.sleep(0.005)
            assert svc.queue_depth() == 0, "workers never picked up the gated jobs"

            # ...phase 2: four more fill the queue to capacity...
            for request in mixed[:4]:
                jobs.append(svc.submit(request))

            # ...and the ninth is shed, synchronously and structurally.
            with pytest.raises(ServiceOverloadedError) as shed:
                svc.submit(mixed[4])
            assert shed.value.queue_depth == 4
            assert shed.value.capacity == 4

            # Release the gate; the shed request now resubmits successfully.
            GATE.set()
            resubmit_deadline = time.monotonic() + 60.0
            while True:
                try:
                    jobs.append(svc.submit(mixed[4]))
                    break
                except ServiceOverloadedError:
                    assert time.monotonic() < resubmit_deadline
                    time.sleep(0.01)

            runs = [job.result(timeout=300.0) for job in jobs]
            snapshot = svc.telemetry()
            svc.shutdown()

            # Every schedule entry really fired (the soak exercised what it
            # claims to).
            for spec in plan.specs:
                assert spec.fired >= 1, f"{spec.site} never fired"
    finally:
        GATE.set()
        svc.shutdown()

    # Zero lost jobs: everything accepted reached success.
    assert len(jobs) == 9
    assert [job.status for job in jobs] == ["succeeded"] * 9
    assert snapshot.submitted == 9
    assert snapshot.completed == 9
    assert snapshot.succeeded == 9

    # The turbulence is visible in telemetry, not silently absorbed.
    # (Every rejected submission counts, including resubmit-loop spins.)
    assert snapshot.shed >= 1
    assert snapshot.retries >= 1
    assert snapshot.cache.misses >= 9  # nine distinct circuits compiled
    assert snapshot.cache.evictions >= 1  # capacity 4 < nine working keys
    assert snapshot.latency_p95_s >= snapshot.latency_p50_s > 0.0

    # Bitwise: every concurrent, fault-battered result equals its serial,
    # fault-free rerun.
    for job, run in zip(jobs, runs):
        reference = _serial_rerun(job.request)
        np.testing.assert_array_equal(
            run.case_runs[0].result.states,
            reference.case_runs[0].result.states,
            err_msg=f"job {job.id} ({job.request.label}) diverged from serial rerun",
        )
        assert run.case_metrics == reference.case_metrics
