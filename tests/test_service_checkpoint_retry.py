"""Checkpoint-backed job retries: resumed solves are bitwise-identical.

Satellite contract of the simulation service: a job that dies mid-solve
with a checkpoint attached is retried *from the checkpoint* — and the
resumed trajectory is bit-for-bit the trajectory of an uninterrupted run,
whether the first attempt died on a singular direct-mode Jacobian or on a
stalled matrix-free GMRES solve.

Every comparison here is ``assert_array_equal`` (bitwise), so the module
opts out of the ambient CI fault profiles; faults are injected explicitly
per test.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.resilience import gmres_stall, inject_faults, singular_jacobian
from repro.scenarios import build_scenario_smoke, run_scenario, solve_case
from repro.service import JobRetryPolicy, ServiceOptions, SimulationService, SweepRequest
from repro.utils import MPDEOptions

from test_service import (
    RC_SCENARIO,
    register_service_scenarios,
    unregister_service_scenarios,
)

pytestmark = pytest.mark.no_fault_injection

_SOLVE_OPTIONS = MPDEOptions()

_RETRY = JobRetryPolicy(max_retries=3, backoff_base_s=0.001, backoff_cap_s=0.01)

#: Several Newton iterations, so a fault at iteration 2 finds a checkpoint.
_NL = 3e-3


@pytest.fixture(scope="module", autouse=True)
def _scenarios():
    register_service_scenarios()
    yield
    unregister_service_scenarios()


@pytest.fixture(autouse=True)
def _no_recovery_ladder(recovery_ladder):
    """Empty recovery ladder: injected solver faults must escalate to the
    *job* retry layer instead of being absorbed by the in-solve ladder."""
    recovery_ladder()


def _submit_and_wait(request):
    with SimulationService(
        ServiceOptions(n_workers=1, memoize_results=False, retry=_RETRY)
    ) as svc:
        job = svc.submit(request)
        run = job.result(timeout=300.0)
        snapshot = svc.telemetry()
    return job, run, snapshot


def _serial_reference(options=_SOLVE_OPTIONS):
    """The uninterrupted run: same scenario and options, no faults armed."""
    return run_scenario(
        build_scenario_smoke(RC_SCENARIO, nl=_NL),
        first_case_only=True,
        solve=lambda case: solve_case(case, options=options),
    )


class TestCheckpointRetry:
    def test_mid_solve_death_resumes_bitwise(self):
        request = SweepRequest(
            scenario=RC_SCENARIO,
            overrides={"nl": _NL},
            solve_options=_SOLVE_OPTIONS,
            retry=_RETRY,
        )
        with inject_faults(singular_jacobian(at_iteration=2, count=1)) as plan:
            job, run, _ = _submit_and_wait(request)
        assert plan.specs[0].fired == 1
        assert job.status == "succeeded"
        assert [a.outcome for a in job.attempts] == ["retried", "succeeded"]
        assert job.attempts[0].kind == "singular"
        assert job.attempts[1].resumed_from_checkpoint

        reference = _serial_reference()
        np.testing.assert_array_equal(
            run.case_runs[0].result.states, reference.case_runs[0].result.states
        )
        assert run.case_metrics == reference.case_metrics

    def test_death_at_the_first_iteration_still_matches(self):
        # A fault before any Newton progress: whether the retry resumes a
        # checkpoint of the initial iterate or reruns from scratch, the
        # final trajectory must still be bitwise that of an undisturbed run.
        request = SweepRequest(
            scenario=RC_SCENARIO,
            overrides={"nl": _NL},
            solve_options=_SOLVE_OPTIONS,
            retry=_RETRY,
        )
        with inject_faults(singular_jacobian(at_iteration=0, count=1)):
            job, run, _ = _submit_and_wait(request)
        assert job.status == "succeeded"
        assert job.retries == 1
        reference = _serial_reference()
        np.testing.assert_array_equal(
            run.case_runs[0].result.states, reference.case_runs[0].result.states
        )

    def test_retry_after_gmres_stall_is_bitwise(self):
        # Matrix-free solve: the third GMRES linear solve stalls, so the
        # first attempt fails for real mid-solve.  The retry resumes from
        # the checkpoint of the last accepted iterate and must land exactly
        # where an undisturbed run lands (the partially-averaged
        # preconditioner is rebuilt from each iterate, so the resumed
        # trajectory carries no cached state).
        options = replace(
            _SOLVE_OPTIONS, matrix_free=True, preconditioner="block_circulant_fast"
        )
        request = SweepRequest(
            scenario=RC_SCENARIO,
            overrides={"nl": _NL},
            solve_options=options,
            retry=_RETRY,
        )
        with inject_faults(gmres_stall(at_call=3, count=1, site="solver.gmres")) as plan:
            job, run, snapshot = _submit_and_wait(request)
        assert plan.specs[0].fired == 1
        assert job.status == "succeeded"
        assert [a.outcome for a in job.attempts] == ["retried", "succeeded"]
        assert job.attempts[0].kind == "gmres_stagnation"
        assert job.attempts[1].resumed_from_checkpoint
        assert snapshot.retries == 1

        reference = _serial_reference(options)
        np.testing.assert_array_equal(
            run.case_runs[0].result.states, reference.case_runs[0].result.states
        )
        assert run.case_metrics == reference.case_metrics
