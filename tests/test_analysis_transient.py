"""Unit and integration tests for transient (time-stepping) analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import run_transient
from repro.analysis import transient as transient_module
from repro.circuits import Circuit
from repro.circuits.devices import Capacitor, Inductor, Resistor, VoltageSource
from repro.scenarios import build_scenario_smoke, scenario_names
from repro.signals import (
    BitStreamEnvelope,
    ConstantEnvelope,
    DCStimulus,
    FourierEnvelope,
    ModulatedCarrierStimulus,
    PiecewiseLinearStimulus,
    PulseStimulus,
    SinusoidalEnvelope,
    SinusoidStimulus,
    SumStimulus,
    SymbolStreamEnvelope,
)
from repro.utils import AnalysisError, ConvergenceError


class TestRCStepResponse:
    """R = 1 kOhm, C = 1 uF charging toward 1 V: v(t) = 1 - exp(-t/RC)."""

    tau = 1e-3

    def _run(self, rc_lowpass_step, dt):
        mna = rc_lowpass_step.compile()
        result = run_transient(mna, t_stop=5 * self.tau, dt=dt, use_dc_initial=False)
        return result.waveform("out")

    def test_matches_analytic_solution(self, rc_lowpass_step):
        wave = self._run(rc_lowpass_step, dt=self.tau / 50)
        expected = 1.0 - np.exp(-wave.times / self.tau)
        assert np.max(np.abs(wave.values - expected)) < 0.002

    def test_trapezoidal_is_second_order(self, rc_lowpass_step):
        errors = []
        for dt in (self.tau / 20, self.tau / 40):
            wave = self._run(rc_lowpass_step, dt=dt)
            expected = 1.0 - np.exp(-wave.times / self.tau)
            errors.append(np.max(np.abs(wave.values - expected)))
        assert errors[1] / errors[0] == pytest.approx(0.25, rel=0.35)

    def test_final_value_reaches_steady_state(self, rc_lowpass_step):
        wave = self._run(rc_lowpass_step, dt=self.tau / 20)
        assert wave.values[-1] == pytest.approx(1.0, abs=0.01)


class TestDrivenRC:
    def test_sinusoidal_steady_state_amplitude(self, rc_lowpass):
        """After several periods the output amplitude matches the RC divider."""
        mna = rc_lowpass.compile()
        freq = 1e3
        rc = 1e3 * 100e-9
        result = run_transient(
            mna,
            t_stop=8 / freq,
            dt=1 / freq / 200,
        )
        wave = result.waveform("out").window(6 / freq, 8 / freq)
        expected_amplitude = 1.0 / np.sqrt(1.0 + (2 * np.pi * freq * rc) ** 2)
        assert wave.amplitude() == pytest.approx(expected_amplitude, rel=0.02)


class TestRLC:
    def test_lc_resonance_ringing_frequency(self):
        """An underdamped series RLC rings at ~f0 = 1/(2 pi sqrt(LC))."""
        ckt = Circuit("rlc step")
        ckt.add(VoltageSource("vin", "in", ckt.GROUND, DCStimulus(1.0)))
        ckt.add(Resistor("r1", "in", "a", 10.0))
        ckt.add(Inductor("l1", "a", "b", 1e-3))
        ckt.add(Capacitor("c1", "b", ckt.GROUND, 1e-6))
        mna = ckt.compile()
        f0 = 1.0 / (2 * np.pi * np.sqrt(1e-3 * 1e-6))
        result = run_transient(
            mna,
            t_stop=6 / f0,
            dt=1 / f0 / 100,
            use_dc_initial=False,
        )
        from repro.signals import compute_spectrum

        wave = result.waveform("b")
        spectrum = compute_spectrum(wave, detrend=True)
        assert spectrum.dominant_frequency() == pytest.approx(f0, rel=0.05)

    def test_inductor_current_is_tracked(self):
        ckt = Circuit("rl")
        ckt.add(VoltageSource("vin", "in", ckt.GROUND, DCStimulus(1.0)))
        ckt.add(Resistor("r1", "in", "a", 100.0))
        ckt.add(Inductor("l1", "a", ckt.GROUND, 10e-3))
        mna = ckt.compile()
        tau = 10e-3 / 100.0
        result = run_transient(
            mna,
            t_stop=5 * tau,
            dt=tau / 100,
            use_dc_initial=False,
        )
        i_l = result.states[:, mna.branch_index("l1")]
        expected = (1.0 / 100.0) * (1.0 - np.exp(-result.times / tau))
        assert np.max(np.abs(i_l - expected)) < 5e-4


class TestTransientOptionsAndErrors:
    def test_invalid_time_span(self, rc_lowpass_step):
        mna = rc_lowpass_step.compile()
        with pytest.raises(AnalysisError):
            run_transient(mna, t_stop=0.0, dt=1e-6)
        with pytest.raises(AnalysisError):
            run_transient(mna, t_stop=1e-3, dt=-1e-6)

    def test_bad_initial_state_shape(self, rc_lowpass_step):
        mna = rc_lowpass_step.compile()
        with pytest.raises(AnalysisError):
            run_transient(mna, t_stop=1e-3, dt=1e-5, x0=np.zeros(99))

    def test_dc_initial_condition_removes_startup_transient(self, voltage_divider):
        mna = voltage_divider.compile()
        result = run_transient(mna, t_stop=1e-3, dt=1e-4)
        mid = result.waveform("mid")
        np.testing.assert_allclose(mid.values, 5.0, rtol=1e-6)

    def test_stats_are_populated(self, rc_lowpass_step):
        mna = rc_lowpass_step.compile()
        result = run_transient(mna, t_stop=1e-3, dt=1e-5, use_dc_initial=False)
        assert result.stats.accepted_steps == pytest.approx(100, abs=2)
        assert result.stats.newton_iterations >= result.stats.accepted_steps

    def test_final_state_accessor(self, rc_lowpass_step):
        mna = rc_lowpass_step.compile()
        result = run_transient(mna, t_stop=1e-3, dt=1e-5)
        np.testing.assert_allclose(result.final_state(), result.states[-1])

    def test_differential_waveform(self, voltage_divider):
        mna = voltage_divider.compile()
        result = run_transient(mna, t_stop=1e-4, dt=1e-5)
        diff = result.differential_waveform("top", "mid")
        np.testing.assert_allclose(diff.values, 5.0, rtol=1e-6)


class TestStepCuts:
    """A step whose Newton solve fails is retried at a quarter of its size."""

    dt = 1e-5

    @staticmethod
    def _fail_steps(monkeypatch, failing):
        """Make the step solves numbered in ``failing`` raise; return every step size tried."""
        tried = []
        original = transient_module.solve_implicit_step

        def flaky(mna, x_guess, t_new, h, *args, **kwargs):
            tried.append(h)
            if failing(len(tried)):
                raise ConvergenceError("forced step failure")
            return original(mna, x_guess, t_new, h, *args, **kwargs)

        monkeypatch.setattr(transient_module, "solve_implicit_step", flaky)
        return tried

    @staticmethod
    def _count_source_calls(monkeypatch, mna):
        calls = []
        original = mna.source

        def counting(times):
            calls.append(np.size(times))
            return original(times)

        monkeypatch.setattr(mna, "source", counting)
        return calls

    def test_failed_step_is_cut_to_a_quarter(self, rc_lowpass_step, monkeypatch):
        mna = rc_lowpass_step.compile()
        tried = self._fail_steps(monkeypatch, lambda n: n == 3)
        source_calls = self._count_source_calls(monkeypatch, mna)
        t_stop = 10 * self.dt
        result = run_transient(mna, t_stop=t_stop, dt=self.dt, use_dc_initial=False)
        assert result.stats.rejected_steps == 1
        assert tried[:5] == [self.dt, self.dt, self.dt, self.dt / 4, self.dt]
        steps = np.diff(result.times)
        assert steps[2] == pytest.approx(self.dt / 4)
        assert steps[3] == pytest.approx(self.dt)
        assert result.times[-1] == pytest.approx(t_stop, rel=1e-12)
        assert result.stats.accepted_steps == len(result.times) - 1
        # One evaluation for the first plan and one for the plan after the cut.
        assert len(source_calls) == 2

    def test_rejection_budget_exhaustion_raises(self, rc_lowpass_step, monkeypatch):
        # dt = 1 s so that MAX_REJECTIONS quarter cuts stay above MIN_STEP.
        tried = self._fail_steps(monkeypatch, lambda n: True)
        with pytest.raises(AnalysisError, match="step-size reductions"):
            run_transient(rc_lowpass_step.compile(), t_stop=10.0, dt=1.0, use_dc_initial=False)
        assert len(tried) == transient_module.MAX_REJECTIONS + 1

    def test_run_without_cuts_evaluates_the_excitation_once(self, rc_lowpass, monkeypatch):
        mna = rc_lowpass.compile()
        source_calls = self._count_source_calls(monkeypatch, mna)
        result = run_transient(mna, t_stop=2e-3, dt=1e-5, use_dc_initial=False)
        assert result.stats.rejected_steps == 0
        assert source_calls == [len(result.times)]


def _stimulus_circuits():
    """One single-source circuit per stimulus class and per carrier envelope."""
    envelopes = {
        "constant": ConstantEnvelope(level=0.7, period=2e-4),
        "sinusoidal": SinusoidalEnvelope(period=2e-4, amplitude=0.5, offset=1.0),
        "bitstream": BitStreamEnvelope([1, 0, 1, 1], bit_period=5e-5, rise_fraction=0.1),
        "symbolstream": SymbolStreamEnvelope([0.3, -1.0, 0.6], symbol_period=7e-5),
        "fourier": FourierEnvelope(2e-4, {1: 0.5 + 0.2j, 3: 0.1j}, offset=0.2),
    }
    stimuli = {
        "dc": DCStimulus(1.5),
        "sinusoid": SinusoidStimulus(0.8, 3.3e4, phase=0.3, offset=0.1),
        "pulse": PulseStimulus(0.0, 1.0, period=1e-4, width=4e-5, delay=1e-5, rise=5e-6, fall=5e-6),
        "pwl": PiecewiseLinearStimulus([0.0, 1e-4, 3e-4], [0.0, 1.0, -0.5]),
        "sum": SumStimulus((DCStimulus(0.5), SinusoidStimulus(0.2, 5e4))),
    }
    for name, envelope in envelopes.items():
        stimuli[f"carrier-{name}"] = ModulatedCarrierStimulus(0.9, 1.1e5, envelope, phase=0.2)
    circuits = {}
    for name, stimulus in stimuli.items():
        ckt = Circuit(f"source {name}")
        ckt.add(VoltageSource("vin", "in", ckt.GROUND, stimulus))
        ckt.add(Resistor("r1", "in", ckt.GROUND, 1e3))
        circuits[name] = (ckt, 1e-6, 4e-4)
    return circuits


def _scenario_circuit(name):
    """A scenario's first smoke circuit with its cross-validation transient grid."""
    scenario = build_scenario_smoke(name)
    case = scenario.cases[0]
    plan = scenario.cross_validation
    if case.analysis == "pss":
        period = case.period
        dt = period / plan.points_per_cycle
    else:
        period = case.scales.difference_period
        dt = case.scales.fast_period / plan.points_per_cycle
    return case.circuit, dt, (plan.settle_periods + 1.0) * period


@pytest.mark.parametrize(
    "source",
    [*_stimulus_circuits(), *(f"scenario-{name}" for name in scenario_names())],
)
def test_batched_excitation_rows_equal_one_time_calls(source):
    """``mna.source(times)[k]`` is bit for bit ``mna.source(times[k])``.

    ``run_transient`` and shooting evaluate the excitation once over all step
    times, so their results stay those of per-step evaluation only while this
    holds, on the accumulated step grid they use.
    """
    if source.startswith("scenario-"):
        circuit, dt, t_stop = _scenario_circuit(source[len("scenario-"):])
    else:
        circuit, dt, t_stop = _stimulus_circuits()[source]
    _steps, times = transient_module._step_plan(0.0, dt, dt, t_stop)
    mna = circuit.compile()
    batched = mna.source(times)
    one_time = np.array([mna.source(t) for t in times])
    np.testing.assert_array_equal(batched, one_time)
