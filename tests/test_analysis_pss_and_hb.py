"""Tests for collocation PSS and single-tone harmonic balance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    collocation_periodic_steady_state,
    harmonic_balance,
    shooting_periodic_steady_state,
)
from repro.circuits import Circuit
from repro.circuits.devices import (
    Capacitor,
    Diode,
    DiodeParams,
    PolynomialConductance,
    Resistor,
    VoltageSource,
)
from repro.signals import SinusoidStimulus, fourier_coefficient
from repro.utils import AnalysisError, ShootingOptions


class TestCollocationLinear:
    freq = 1e3
    rc = 1e3 * 100e-9

    @pytest.mark.parametrize("method", ["backward-euler", "bdf2", "central", "fourier"])
    def test_rc_amplitude(self, rc_lowpass, method):
        mna = rc_lowpass.compile()
        n = 64 if method != "backward-euler" else 256
        result = collocation_periodic_steady_state(mna, 1.0 / self.freq, n, method=method)
        expected = 1.0 / np.sqrt(1.0 + (2 * np.pi * self.freq * self.rc) ** 2)
        amplitude = 2 * abs(fourier_coefficient(result.waveform("out"), self.freq))
        tolerance = 0.05 if method == "backward-euler" else 0.01
        assert amplitude == pytest.approx(expected, rel=tolerance)

    def test_fourier_is_spectrally_accurate_with_few_points(self, rc_lowpass):
        mna = rc_lowpass.compile()
        result = collocation_periodic_steady_state(mna, 1.0 / self.freq, 8, method="fourier")
        expected = 1.0 / np.sqrt(1.0 + (2 * np.pi * self.freq * self.rc) ** 2)
        amplitude = 2 * abs(fourier_coefficient(result.waveform("out"), self.freq))
        assert amplitude == pytest.approx(expected, rel=1e-6)

    def test_result_metadata(self, rc_lowpass):
        mna = rc_lowpass.compile()
        result = collocation_periodic_steady_state(mna, 1.0 / self.freq, 32)
        assert result.n_unknowns_total == 32 * mna.n_unknowns
        assert result.times.shape == (32,)
        assert result.states.shape == (32, mna.n_unknowns)
        assert result.stats.converged
        assert result.stats.eval_time_s > 0.0
        assert result.stats.residual_history
        assert result.stats.newton_iterations == result.newton_iterations

    def test_initial_guess_shapes(self, rc_lowpass):
        mna = rc_lowpass.compile()
        x_flat = np.zeros(mna.n_unknowns)
        result = collocation_periodic_steady_state(mna, 1.0 / self.freq, 16, x0=x_flat)
        assert result.states.shape == (16, mna.n_unknowns)
        with pytest.raises(AnalysisError):
            collocation_periodic_steady_state(mna, 1.0 / self.freq, 16, x0=np.zeros(7))

    def test_invalid_arguments(self, rc_lowpass):
        mna = rc_lowpass.compile()
        with pytest.raises(AnalysisError):
            collocation_periodic_steady_state(mna, -1.0, 16)
        with pytest.raises(AnalysisError):
            collocation_periodic_steady_state(mna, 1e-3, 2)
        with pytest.raises(AnalysisError):
            collocation_periodic_steady_state(mna, 1e-3, 16, method="magic")


class TestCollocationAgainstShooting:
    def test_rectifier_mean_output_agrees(self, diode_rectifier):
        mna = diode_rectifier.compile()
        period = 1e-3
        shooting = shooting_periodic_steady_state(
            mna, period, options=ShootingOptions(steps_per_period=200)
        )
        collocation = collocation_periodic_steady_state(mna, period, 200, method="bdf2")
        assert collocation.waveform("out").mean() == pytest.approx(
            shooting.waveform("out").mean(), rel=0.02
        )


class TestHarmonicBalance:
    def test_linear_rc_transfer(self, rc_lowpass):
        mna = rc_lowpass.compile()
        result = harmonic_balance(mna, 1e3, harmonics=5)
        rc = 1e3 * 100e-9
        expected = 1.0 / np.sqrt(1.0 + (2 * np.pi * 1e3 * rc) ** 2)
        assert result.harmonic_amplitude("out", 1) == pytest.approx(expected, rel=1e-6)
        # A linear circuit generates no harmonics.
        assert result.harmonic_amplitude("out", 3) < 1e-9

    def test_polynomial_nonlinearity_harmonics(self):
        """A cubic conductance driven by a cosine has known harmonic ratios.

        i(v) = g1 v + g3 v^3 with v = A cos(wt) produces a third harmonic
        current of amplitude g3 A^3 / 4.  Driving a 1 Ohm load through a
        large resistor keeps the node voltage essentially equal to the
        source, so the current harmonics can be read from the resistor node.
        """
        ckt = Circuit("cubic")
        ckt.add(VoltageSource("vin", "a", ckt.GROUND, SinusoidStimulus(1.0, 1e3)))
        ckt.add(PolynomialConductance("gnl", "a", "b", [1e-3, 0.0, 1e-3]))
        ckt.add(Resistor("rload", "b", ckt.GROUND, 1.0))
        mna = ckt.compile()
        result = harmonic_balance(mna, 1e3, harmonics=7)
        # v(b) ~ i * 1 Ohm; third harmonic of the current = g3 * A^3 / 4.
        third = result.harmonic_amplitude("b", 3)
        assert third == pytest.approx(1e-3 / 4.0, rel=0.02)

    @pytest.fixture(scope="class")
    def rectifier_hb(self):
        """One 15-harmonic HB solve of the half-wave rectifier, shared below.

        The circuit is the ``diode_rectifier`` fixture's.  Class scope solves
        it before the function-scoped fault profile can arm a plan, so the
        shared solve is fault-free in every lane.
        """
        ckt = Circuit("half-wave rectifier")
        ckt.add(VoltageSource("vin", "in", ckt.GROUND, SinusoidStimulus(5.0, 1e3)))
        ckt.add(Diode("d1", "in", "out", DiodeParams(saturation_current=1e-12)))
        ckt.add(Resistor("rload", "out", ckt.GROUND, 1e3))
        ckt.add(Capacitor("cload", "out", ckt.GROUND, 10e-6))
        return harmonic_balance(ckt.compile(), 1e3, harmonics=15)

    @pytest.mark.no_fault_injection
    def test_rectifier_thd_is_large(self, rectifier_hb):
        # The diode clips half of the waveform: the input node of the diode is
        # still sinusoidal but the output should show visible distortion in
        # its *ripple*; simply assert the analysis converged and the THD
        # machinery produces a finite number.
        assert np.isfinite(rectifier_hb.total_harmonic_distortion("out"))

    @pytest.mark.no_fault_injection
    @pytest.mark.xfail(
        strict=True,
        reason="the baseline Newton run and the damping rung fail from the DC "
        "guess; only the continuation rung recovers this solve (ROADMAP item 6)",
    )
    def test_rectifier_hb_converges_without_recovery(self, rectifier_hb):
        assert rectifier_hb.stats.recovered_by == ""

    def test_requires_positive_fundamental(self, rc_lowpass):
        mna = rc_lowpass.compile()
        with pytest.raises(AnalysisError):
            harmonic_balance(mna, 0.0)

    @pytest.mark.parametrize("kwargs", [{"harmonics": 0}, {"harmonics": -2}])
    def test_invalid_truncation_raises(self, rc_lowpass, kwargs):
        with pytest.raises(AnalysisError):
            harmonic_balance(rc_lowpass.compile(), 1e3, **kwargs)

    def test_harmonics_accessor_bounds(self, rc_lowpass):
        mna = rc_lowpass.compile()
        result = harmonic_balance(mna, 1e3, harmonics=3)
        coeffs = result.harmonics("out")
        assert coeffs.shape == (4,)
        assert result.stats is result.collocation.stats
        with pytest.raises(AnalysisError):
            result.harmonic_amplitude("out", 9)

    def test_missing_fundamental_raises_in_thd(self, voltage_divider):
        mna = voltage_divider.compile()
        result = harmonic_balance(mna, 1e3, harmonics=3)
        with pytest.raises(AnalysisError):
            result.total_harmonic_distortion("mid")


@pytest.mark.no_fault_injection
class TestCollocationConvergenceOrder:
    """Observed order of each differentiation rule against the exact RC response.

    The ``rc_lowpass`` fixture drives ``R = 1 kOhm``, ``C = 100 nF`` with a
    1 kHz cosine, so the periodic steady state at ``out`` is exactly
    ``Re(H exp(j w t))`` with ``H = 1 / (1 + j w R C)``.  This reference does
    not move when the solver code moves.  The errors measured are the
    discretisation's, so the class opts out of injected faults: a solve
    recovered by the damped ladder rung stops at the Newton tolerance
    instead of the one-step exact linear solution.
    """

    freq = 1e3
    rc = 1e3 * 100e-9

    def _max_error(self, mna, n_samples, method):
        result = collocation_periodic_steady_state(mna, 1.0 / self.freq, n_samples, method=method)
        omega = 2 * np.pi * self.freq
        transfer = 1.0 / (1.0 + 1j * omega * self.rc)
        exact = np.real(transfer * np.exp(1j * omega * result.times))
        return float(np.max(np.abs(mna.voltage(result.states, "out") - exact)))

    @pytest.mark.parametrize(
        "method, grids, order",
        [
            ("backward-euler", (32, 64, 128, 256), 1.0),
            ("bdf2", (16, 32, 64, 128), 2.0),
            ("central", (16, 32, 64, 128), 2.0),
        ],
    )
    def test_observed_order_under_grid_doubling(self, rc_lowpass, method, grids, order):
        mna = rc_lowpass.compile()
        errors = [self._max_error(mna, n, method) for n in grids]
        observed = np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))
        assert np.all(observed >= order - 0.1), (method, observed)
        assert np.all(observed <= order + 0.1), (method, observed)

    def test_fourier_is_exact_to_rounding(self, rc_lowpass):
        mna = rc_lowpass.compile()
        assert self._max_error(mna, 8, "fourier") <= 1e-12
