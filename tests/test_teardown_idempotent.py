"""Idempotent teardown of the simulation service, end-to-end.

The service's compiled-circuit cache and thread pool must treat a second
``close()`` / ``shutdown()`` as a no-op.  Teardown paths run from error
handlers and ``finally`` blocks, where double invocation is routine; a
teardown that only works once turns every error path into a new error.
"""

from __future__ import annotations

import pytest

from repro.service import CompiledCircuitCache, ServiceOptions, SimulationService

from test_resilience import _linear_rc
from test_service import (
    RC_SCENARIO,
    register_service_scenarios,
    unregister_service_scenarios,
)

pytestmark = pytest.mark.no_fault_injection


@pytest.fixture(scope="module", autouse=True)
def _scenarios():
    register_service_scenarios()
    yield
    unregister_service_scenarios()


class TestServiceTeardown:
    def test_cache_double_close_with_real_systems(self):
        serial, _scales = _linear_rc()
        cache = CompiledCircuitCache(capacity=2)
        with cache.lease("rc", lambda: serial.circuit.compile()):
            pass
        cache.close()
        cache.close()

    def test_service_double_shutdown_after_work(self):
        svc = SimulationService(ServiceOptions(n_workers=2))
        svc.submit(RC_SCENARIO).result(timeout=120.0)
        svc.shutdown()
        svc.shutdown()
        svc.shutdown(drain=False)

    def test_context_exit_after_explicit_shutdown(self):
        with SimulationService(ServiceOptions(n_workers=1)) as svc:
            svc.submit(RC_SCENARIO).wait(timeout=120.0)
            svc.shutdown()
        # __exit__ called shutdown again — reaching here is the assertion.
