"""Randomized chaos-soak harness.

Each soak cycle arms a seeded random fault schedule
(:func:`repro.resilience.chaos_specs`) — stalled GMRES solves, singular
Newton linear solves and NaN-poisoned device evaluations — runs a full MPDE
solve under it, and requires the answer to match the fault-free reference.
The chaos schedules are recoverable by design, so "mostly works" is a
failure.  Cycles alternate between the direct and the matrix-free solver so
that every fault site the schedules draw from is on the solve path.

A failing cycle prints its seed; ``chaos_specs(seed)`` is deterministic,
so every failure is replayable in isolation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import solve_mpde
from repro.resilience import chaos_specs, inject_faults
from repro.utils import MPDEOptions

from test_resilience import _linear_rc

pytestmark = pytest.mark.no_fault_injection

#: Base seed for the soak schedules (cycle ``i`` uses ``_SEED + i``).
_SEED = 20020610
#: Soak length required by the acceptance criteria.
_CYCLES = 25

_OPTIONS = MPDEOptions(n_fast=8, n_slow=8)
_MATRIX_FREE = replace(_OPTIONS, matrix_free=True, preconditioner="block_circulant_fast")


class TestChaosSoak:
    def test_chaos_cycles_recover_to_the_reference(self):
        mna, scales = _linear_rc()
        reference = solve_mpde(mna, scales, _OPTIONS)
        assert reference.stats.converged

        fired = 0
        recovered = 0
        for cycle in range(_CYCLES):
            seed = _SEED + cycle
            specs = chaos_specs(seed)
            options = _MATRIX_FREE if cycle % 2 else _OPTIONS
            with inject_faults(*specs):
                result = solve_mpde(mna, scales, options)
            assert result.stats.converged, f"chaos seed {seed} did not converge"
            # Ladder-recovered cycles re-run Newton under an adjusted rung,
            # so the soak asserts agreement to solver tolerance.
            np.testing.assert_allclose(
                result.states,
                reference.states,
                rtol=1e-6,
                atol=1e-8,
                err_msg=f"chaos seed {seed} diverged from the reference",
            )
            fired += sum(spec.fired for spec in specs)
            recovered += bool(result.stats.recovered_by)

        # A zero here would mean the schedules never reached the solver:
        # the soak would be exercising nothing.
        assert fired > 0
        assert recovered > 0
