"""Extension tests beyond the paper's own experiments.

The paper closes by noting that the difference-time-scale method "can be
applied generally to other systems featuring closely-spaced tones, such as
power conversion circuits and electro-optical communication systems".  These
tests exercise two such extensions built on the library:

* a bipolar Gilbert-cell mixer (a different mixer topology and device
  family), and
* an AM envelope detector (the power-conversion-style rectifier case):
  a diode detector driven by the beat of two closely spaced tones, where
  the difference-frequency axis directly carries the detected envelope.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import dc_operating_point, run_transient
from repro.circuits import Circuit
from repro.circuits.devices import Capacitor, Diode, DiodeParams, Resistor, VoltageSource
from repro.core import ShearedTimeScales, solve_mpde
from repro.rf import conversion_metrics, gilbert_cell_mixer
from repro.rf.receiver import recover_bits
from repro.signals import ModulatedCarrierStimulus, SinusoidStimulus, SumStimulus, Waveform
from repro.signals.spectrum import fourier_coefficient
from repro.utils import AnalysisError, MPDEOptions


@pytest.fixture(scope="module")
def gilbert_solution():
    mixer = gilbert_cell_mixer(lo_frequency=5e6, difference_frequency=50e3)
    result = solve_mpde(mixer.compile(), mixer.scales, MPDEOptions(n_fast=24, n_slow=20))
    return mixer, result


class TestGilbertCellMixer:
    def test_construction_and_dc(self):
        mixer = gilbert_cell_mixer()
        assert mixer.scales.lo_multiple == 1
        assert mixer.rf_frequency == pytest.approx(450e6 - 15e3)
        mna = mixer.compile()
        assert mna.n_unknowns == 15
        solution = dc_operating_point(mna)
        # The switching quad sits between the loads and the transconductance pair.
        assert 0.0 < solution.voltage(mna, "etail") < solution.voltage(mna, "c1")
        assert solution.voltage(mna, "outp") < 5.0

    def test_mpde_converges_with_bjts(self, gilbert_solution):
        _, result = gilbert_solution
        assert result.stats.converged
        assert result.stats.newton_iterations < 30

    def test_downconversion_gain(self, gilbert_solution):
        mixer, result = gilbert_solution
        metrics = conversion_metrics(result, "outp", "outn", mixer.rf_amplitude)
        # gm * RL for 1 mA / side into 1 kOhm is ~38; switching loss reduces it.
        assert 5.0 < metrics.gain < 80.0
        assert metrics.distortion < 0.2

    def test_tail_current_is_conserved(self, gilbert_solution):
        """The ideal tail source fixes the sum of the transconductor currents."""
        mixer, result = gilbert_solution
        mna = mixer.compile()
        # Collector load currents: (vcc - outp)/RL + (vcc - outn)/RL ~ tail current.
        outp = result.baseband_envelope("outp").mean()
        outn = result.baseband_envelope("outn").mean()
        total = (5.0 - outp) / 1e3 + (5.0 - outn) / 1e3
        base_current_share = 2.0 / 120.0  # beta_forward = 120: bases steal ~2/beta
        assert total == pytest.approx(2e-3, rel=0.1 + base_current_share)

    def test_invalid_spacing(self):
        from repro.utils import ConfigurationError

        with pytest.raises(ConfigurationError):
            gilbert_cell_mixer(lo_frequency=1e6, difference_frequency=2e6)


class TestEnvelopeDetectorExtension:
    """AM envelope detection of a two-tone beat — the 'power conversion' style case."""

    f_carrier = 2e6
    f_offset = 20e3  # beat / difference frequency

    def _detector(self):
        """Diode envelope detector driven by the sum of two closely spaced tones."""
        scales = ShearedTimeScales.from_frequencies(self.f_carrier, self.f_carrier - self.f_offset)
        ckt = Circuit("envelope detector")
        drive = SumStimulus(
            (
                SinusoidStimulus(1.0, self.f_carrier),
                ModulatedCarrierStimulus(1.0, scales.carrier_frequency),
            )
        )
        ckt.add(VoltageSource("vin", "in", ckt.GROUND, drive))
        ckt.add(Diode("d1", "in", "out", DiodeParams(saturation_current=1e-12)))
        ckt.add(Resistor("rl", "out", ckt.GROUND, 20e3))
        # RC chosen between the carrier and beat periods: ripple-free detection.
        ckt.add(Capacitor("cl", "out", ckt.GROUND, 2e-9))
        return ckt.compile(), scales

    def test_detected_envelope_follows_the_beat(self):
        """The detector output tracks |2 cos(pi fd t)| - i.e. a strong fd component."""
        mna, scales = self._detector()
        result = solve_mpde(mna, scales, MPDEOptions(n_fast=32, n_slow=30))
        envelope = result.baseband_envelope("out")
        # The two-tone beat has an envelope swinging between 0 and 2 V; the
        # detected output keeps a substantial component at the difference
        # frequency (reduced by the diode drop and the load).
        amplitude = 2 * abs(fourier_coefficient(envelope, self.f_offset))
        assert amplitude > 0.25
        assert envelope.values.max() > 0.8

    def test_against_brute_force_transient(self):
        mna, scales = self._detector()
        result = solve_mpde(mna, scales, MPDEOptions(n_fast=32, n_slow=30))
        envelope = result.baseband_envelope("out")
        td = scales.difference_period
        transient = run_transient(mna, t_stop=3 * td, dt=1 / self.f_carrier / 40)
        steady = transient.waveform("out").window(2 * td, 3 * td)
        a_mpde = 2 * abs(fourier_coefficient(envelope, self.f_offset))
        a_tran = 2 * abs(fourier_coefficient(steady, self.f_offset))
        assert a_mpde == pytest.approx(a_tran, rel=0.08)
        assert envelope.mean() == pytest.approx(steady.mean(), rel=0.05)


class TestRecoverBitsPeakMode:
    def _beating_bits(self, bits, bit_period=1e-3, samples_per_bit=200):
        """Bit amplitudes riding on a |cos| beat with one zero crossing per bit."""
        n = len(bits) * samples_per_bit
        t = np.linspace(0.0, bit_period * len(bits), n)
        amplitude = np.repeat(np.asarray(bits, dtype=float), samples_per_bit)
        beat = np.abs(np.cos(np.pi * t / bit_period))
        return Waveform(t, amplitude * beat)

    def test_peak_mode_survives_beat_nulls(self):
        envelope = self._beating_bits([1, 0, 1, 1])
        centre = recover_bits(envelope, 4, mode="center")
        peak = recover_bits(envelope, 4, mode="peak")
        # The beat null sits exactly at the bit centres, so centre sampling fails...
        assert centre.bits != (1, 0, 1, 1)
        # ...while peak detection recovers the pattern.
        assert peak.bits == (1, 0, 1, 1)

    def test_unknown_mode_raises(self):
        envelope = self._beating_bits([1, 0])
        with pytest.raises(AnalysisError):
            recover_bits(envelope, 2, mode="average")
