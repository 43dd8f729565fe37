"""One device sweep per distinct state in DC, transient and shooting.

Two halves: the contract of :class:`~repro.analysis.sweep.StateSweep` (what
makes sharing one sweep between the residual, the Newton Jacobian and the
charge history safe and bitwise exact), and sweep-count bounds that pin the
saving on the analyses themselves.  Sweeps are counted by wrapping
``MNASystem.evaluate`` and ``MNASystem.evaluate_sparse``, through which every
device sweep goes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.analysis.dc as dc_module
from repro.analysis import dc_operating_point, run_transient, shooting_periodic_steady_state
from repro.analysis.sweep import StateSweep
from repro.circuits.mna import MNASystem
from repro.rf import unbalanced_switching_mixer
from repro.utils import EvaluationOptions, ShootingOptions, TransientOptions

from test_evaluation_engine import _all_device_circuit

#: The switching mixer at disparity 5, stepped 20 times per LO cycle.
LO_HZ = 2.0e6
DISPARITY = 5
STEPS_PER_LO_CYCLE = 20


@pytest.fixture
def sweep_counter(monkeypatch):
    """Counts every device sweep (dense or sparse) made through ``MNASystem``."""
    counter = {"calls": 0}
    for name in ("evaluate", "evaluate_sparse"):
        original = getattr(MNASystem, name)

        def counted(self, *args, _original=original, **kwargs):
            counter["calls"] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MNASystem, name, counted)
    return counter


@pytest.fixture
def switching_mixer():
    return unbalanced_switching_mixer(
        lo_frequency=LO_HZ, difference_frequency=LO_HZ / DISPARITY, rf_amplitude=0.04
    )


def _dc_sweeps(mna, counter) -> int:
    before = counter["calls"]
    dc_operating_point(mna)
    return counter["calls"] - before


class TestStateSweepContract:
    def test_repeated_reads_share_one_sweep(self, rng, sweep_counter):
        mna = _all_device_circuit().compile()
        sweeps = StateSweep(mna)
        x = rng.normal(scale=0.5, size=mna.n_unknowns)
        first = sweeps.at(x, jacobian=True)
        assert sweeps.at(x.copy()) is first
        assert sweeps.at(x, jacobian=True) is first
        assert sweep_counter["calls"] == 1

    def test_one_ulp_apart_is_two_sweeps(self, rng, sweep_counter):
        mna = _all_device_circuit().compile()
        sweeps = StateSweep(mna)
        x = rng.normal(scale=0.5, size=mna.n_unknowns)
        y = x.copy()
        y[0] = np.nextafter(y[0], np.inf)
        at_x = sweeps.at(x, jacobian=True)
        at_y = sweeps.at(y, jacobian=True)
        assert sweep_counter["calls"] == 2
        for state, evaluation in ((x, at_x), (y, at_y)):
            fresh = mna.evaluate(state.reshape(1, -1))
            for name in ("q", "f", "capacitance", "conductance"):
                assert getattr(evaluation, name).tobytes() == getattr(fresh, name).tobytes()

    def test_jacobian_request_upgrades_residual_only_sweep(self, rng, sweep_counter):
        mna = _all_device_circuit().compile()
        sweeps = StateSweep(mna)
        x = rng.normal(scale=0.5, size=mna.n_unknowns)
        residual_only = sweeps.at(x)
        assert residual_only.conductance is None
        full = sweeps.at(x, jacobian=True)
        assert full.conductance is not None and full.capacitance is not None
        assert sweeps.at(x) is full
        assert sweep_counter["calls"] == 2

    def test_returned_arrays_are_read_only(self, rng):
        mna = _all_device_circuit().compile()
        evaluation = StateSweep(mna).at(rng.normal(size=mna.n_unknowns), jacobian=True)
        for name in ("q", "f", "capacitance", "conductance"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(evaluation, name)[0][0] += 1.0

    @pytest.mark.parametrize("backend", ["batched", "loop"])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 5.0])
    def test_residual_bitwise_equal_with_and_without_jacobians(self, rng, backend, scale):
        """Serving residual reads from a Jacobian sweep changes no bit."""
        mna = _all_device_circuit().compile(EvaluationOptions(evaluation_backend=backend))
        for _ in range(8):
            X = rng.normal(scale=scale, size=(1, mna.n_unknowns))
            full = mna.evaluate(X, need_jacobian=True)
            residual_only = mna.evaluate(X, need_jacobian=False)
            assert full.q.tobytes() == residual_only.q.tobytes()
            assert full.f.tobytes() == residual_only.f.tobytes()

    def test_dc_jacobian_closure_is_repeatable(self, nmos_amplifier, monkeypatch):
        """Adding gmin must not write into the shared conductance matrix."""
        seen = []
        original = dc_module.newton_solve

        def probing(residual, jacobian, x0, *args, **kwargs):
            x = np.asarray(x0, dtype=float)
            residual(x)
            first = jacobian(x)
            second = jacobian(x)
            seen.append(first.tobytes() == second.tobytes())
            return original(residual, jacobian, x0, *args, **kwargs)

        monkeypatch.setattr(dc_module, "newton_solve", probing)
        mna = nmos_amplifier.compile()
        dc_operating_point(mna, x0=np.full(mna.n_unknowns, 0.5))
        assert seen == [True]


class TestSweepCounts:
    """Each analysis sweeps the devices at most once per distinct state."""

    def test_shooting_sweeps_once_per_newton_iterate(self, switching_mixer, sweep_counter):
        mna = switching_mixer.compile()
        dc_sweeps = _dc_sweeps(mna, sweep_counter)
        sweep_counter["calls"] = 0
        result = shooting_periodic_steady_state(
            mna,
            switching_mixer.difference_period,
            options=ShootingOptions(
                steps_per_period=STEPS_PER_LO_CYCLE * DISPARITY,
                integration_method="trapezoidal",
            ),
        )
        stats = result.stats
        # One sweep per Newton iterate, one per shooting sweep's initial state.
        assert sweep_counter["calls"] <= (
            stats.newton_iterations + stats.shooting_iterations + dc_sweeps
        )

    @pytest.mark.parametrize(
        "options",
        [
            TransientOptions(),
            TransientOptions(method="gear2", adaptive=True),
        ],
        ids=["fixed-trapezoidal", "adaptive-gear2"],
    )
    def test_transient_sweeps_once_per_newton_iterate(
        self, switching_mixer, sweep_counter, options
    ):
        mna = switching_mixer.compile()
        dc_sweeps = _dc_sweeps(mna, sweep_counter)
        sweep_counter["calls"] = 0
        period = switching_mixer.difference_period
        result = run_transient(
            mna, period, period / (STEPS_PER_LO_CYCLE * DISPARITY), options=options
        )
        stats = result.stats
        # One sweep per Newton iterate and one for the initial state; a
        # rejected step restarts from the last accepted state, which is one
        # more sweep.
        assert sweep_counter["calls"] <= (
            stats.newton_iterations + stats.rejected_steps + 1 + dc_sweeps
        )

    def test_dc_sweeps_once_per_newton_iterate(self, switching_mixer, sweep_counter):
        solution = dc_operating_point(switching_mixer.compile())
        # The initial guess plus one state per Newton iteration.
        assert solution.strategy == "newton"
        assert sweep_counter["calls"] <= solution.newton_iterations + 1
