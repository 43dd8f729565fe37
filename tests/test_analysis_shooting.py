"""Unit and integration tests for periodic steady state via shooting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import run_transient, shooting_periodic_steady_state
from repro.analysis import shooting as shooting_module
from repro.circuits import Circuit
from repro.circuits.devices import Capacitor, Diode, DiodeParams, Resistor, VoltageSource
from repro.signals import SinusoidStimulus, compute_spectrum, fourier_coefficient
from repro.utils import AnalysisError, ConvergenceError, ShootingOptions


class TestLinearRCShooting:
    freq = 1e3
    rc = 1e3 * 100e-9

    def _solve(self, rc_lowpass, **kwargs):
        mna = rc_lowpass.compile()
        options = ShootingOptions(steps_per_period=400, **kwargs)
        return mna, shooting_periodic_steady_state(mna, 1.0 / self.freq, options=options)

    def test_amplitude_matches_transfer_function(self, rc_lowpass):
        mna, result = self._solve(rc_lowpass)
        wave = result.waveform("out")
        expected = 1.0 / np.sqrt(1.0 + (2 * np.pi * self.freq * self.rc) ** 2)
        assert 2 * abs(fourier_coefficient(wave, self.freq)) == pytest.approx(expected, rel=0.01)

    def test_phase_matches_transfer_function(self, rc_lowpass):
        mna, result = self._solve(rc_lowpass)
        wave = result.waveform("out")
        expected_phase = -np.arctan(2 * np.pi * self.freq * self.rc)
        assert np.angle(fourier_coefficient(wave, self.freq)) == pytest.approx(
            expected_phase, abs=0.03
        )

    def test_periodicity_of_returned_states(self, rc_lowpass):
        mna, result = self._solve(rc_lowpass)
        np.testing.assert_allclose(result.states[0], result.states[-1], atol=1e-6)

    def test_converges_in_one_shooting_iteration_for_linear_circuit(self, rc_lowpass):
        """For a linear circuit the state-transition map is affine: one Newton step suffices."""
        mna, result = self._solve(rc_lowpass)
        assert result.stats.shooting_iterations <= 2

    def test_stats_track_time_steps(self, rc_lowpass):
        mna, result = self._solve(rc_lowpass)
        assert result.stats.total_time_steps >= 400
        assert result.stats.newton_iterations > 0


class TestRectifierShooting:
    """Half-wave rectifier: strongly nonlinear, classic shooting test case."""

    freq = 1e3

    def test_matches_long_transient(self, diode_rectifier):
        mna = diode_rectifier.compile()
        result = shooting_periodic_steady_state(
            mna,
            1.0 / self.freq,
            options=ShootingOptions(steps_per_period=300, integration_method="trapezoidal"),
        )
        # Brute force: integrate long enough for the start-up transient to die.
        transient = run_transient(mna, t_stop=30 / self.freq, dt=1 / self.freq / 300)
        brute = transient.waveform("out").window(29 / self.freq, 30 / self.freq)
        shooting_mean = result.waveform("out").mean()
        brute_mean = brute.mean()
        assert shooting_mean == pytest.approx(brute_mean, rel=0.02)

    def test_output_ripple_is_small(self, diode_rectifier):
        mna = diode_rectifier.compile()
        result = shooting_periodic_steady_state(
            mna, 1.0 / self.freq, options=ShootingOptions(steps_per_period=300)
        )
        wave = result.waveform("out")
        # RC = 10 ms >> period, so the ripple is a small fraction of the mean.
        assert wave.peak_to_peak() < 0.25 * wave.mean()


class TestShootingErrors:
    def test_invalid_period(self, rc_lowpass):
        mna = rc_lowpass.compile()
        with pytest.raises(AnalysisError):
            shooting_periodic_steady_state(mna, 0.0)

    def test_iteration_budget_exhaustion_raises(self, diode_rectifier, monkeypatch):
        monkeypatch.setattr(shooting_module, "MAX_SHOOTING_ITERATIONS", 1)
        monkeypatch.setattr(shooting_module, "ABSTOL", 1e-15)
        monkeypatch.setattr(shooting_module, "RELTOL", 1e-15)
        mna = diode_rectifier.compile()
        with pytest.raises(ConvergenceError):
            shooting_periodic_steady_state(mna, 1e-3, options=ShootingOptions(steps_per_period=50))


class TestShootingAsDifferencePeriodBaseline:
    """Shooting across one *difference-frequency* period — the paper's expensive baseline."""

    def test_two_tone_rc_difference_period(self):
        """A two-tone drive into an RC detector: PSS over Td recovers both tones."""
        f1, fd = 100e3, 5e3
        ckt = Circuit("two-tone rc")
        ckt.add(
            VoltageSource(
                "vin",
                "in",
                ckt.GROUND,
                SinusoidStimulus(0.5, f1) + SinusoidStimulus(0.5, f1 - fd),
            )
        )
        ckt.add(Resistor("r1", "in", "out", 1e3))
        ckt.add(Capacitor("c1", "out", ckt.GROUND, 1e-9))
        mna = ckt.compile()
        steps = int(20 * f1 / fd)  # >= 20 points per fast cycle over one slow period
        result = shooting_periodic_steady_state(
            mna, 1.0 / fd, options=ShootingOptions(steps_per_period=steps)
        )
        spectrum = compute_spectrum(result.waveform("out"), detrend=False)
        # Both carriers present; the linear RC generates no difference tone.
        assert spectrum.amplitude_at(f1, tolerance=fd) > 0.3
        assert spectrum.amplitude_at(f1 - fd, tolerance=fd / 2) > 0.3
        # Cost bookkeeping: this is what makes the baseline expensive.
        assert result.stats.total_time_steps >= steps
