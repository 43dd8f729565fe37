"""Cross-method integration tests.

These are the scientific heart of the reproduction: the sheared multi-time
MPDE solution must agree with brute-force time stepping and with shooting on
problems small enough to solve both ways.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import run_transient, shooting_periodic_steady_state
from repro.core import solve_mpde
from repro.rf import ideal_multiplier_mixer, unbalanced_switching_mixer
from repro.signals.spectrum import fourier_coefficient
from repro.utils import MPDEOptions, ShootingOptions


@pytest.fixture(scope="module")
def switching_case():
    """A switching mixer with disparity 40 — small enough for brute force."""
    f1, fd = 2e6, 50e3
    mix = unbalanced_switching_mixer(lo_frequency=f1, difference_frequency=fd)
    mna = mix.compile()
    mpde = solve_mpde(mna, mix.scales, MPDEOptions(n_fast=40, n_slow=30))
    return mix, mna, mpde


class TestMPDEAgainstTransient:
    def test_baseband_component_matches(self, switching_case):
        mix, mna, mpde = switching_case
        fd = mix.scales.difference_frequency
        td = mix.scales.difference_period
        envelope = mpde.baseband_envelope("out")
        amp_mpde = 2 * abs(fourier_coefficient(envelope, fd))

        transient = run_transient(
            mna,
            t_stop=2 * td,
            dt=1 / mix.lo_frequency / 60,
        )
        steady = transient.waveform("out").window(td, 2 * td)
        amp_transient = 2 * abs(fourier_coefficient(steady, fd))
        assert amp_mpde == pytest.approx(amp_transient, rel=0.05)

    def test_dc_level_matches(self, switching_case):
        mix, mna, mpde = switching_case
        td = mix.scales.difference_period
        envelope = mpde.baseband_envelope("out")
        transient = run_transient(
            mna,
            t_stop=2 * td,
            dt=1 / mix.lo_frequency / 40,
        )
        steady = transient.waveform("out").window(td, 2 * td)
        assert envelope.mean() == pytest.approx(steady.mean(), rel=0.01)

    def test_diagonal_waveform_matches_pointwise(self, switching_case):
        """x(t) = x_hat(t, t) tracks the brute-force waveform within interpolation error."""
        mix, mna, mpde = switching_case
        td = mix.scales.difference_period
        transient = run_transient(
            mna,
            t_stop=1.2 * td,
            dt=1 / mix.lo_frequency / 60,
        )
        window = transient.waveform("out").window(td, 1.1 * td)
        diagonal = mpde.bivariate("out").diagonal(window.times)
        error = np.max(np.abs(diagonal.values - window.values))
        assert error < 0.05 * window.peak_to_peak()


class TestMPDEAgainstShooting:
    def test_ideal_mixer_difference_period_pss(self):
        """Shooting over one difference period agrees with the MPDE envelope."""
        mix = ideal_multiplier_mixer(
            lo_frequency=1e6, difference_frequency=25e3, load_capacitance=2e-9
        )
        mna = mix.compile()
        fd = mix.scales.difference_frequency
        td = mix.scales.difference_period

        mpde = solve_mpde(mna, mix.scales, MPDEOptions(n_fast=32, n_slow=24))
        amp_mpde = 2 * abs(fourier_coefficient(mpde.baseband_envelope("out"), fd))

        steps = int(40 * mix.lo_frequency / fd)
        shooting = shooting_periodic_steady_state(
            mna, td, options=ShootingOptions(steps_per_period=steps)
        )
        amp_shooting = 2 * abs(fourier_coefficient(shooting.waveform("out"), fd))
        assert amp_mpde == pytest.approx(amp_shooting, rel=0.05)

    def test_mpde_system_is_much_smaller_than_shooting_grid(self):
        """The core claim of the paper: ~10^3 grid unknowns replace >=10^5 time samples."""
        mix = unbalanced_switching_mixer(lo_frequency=450e6, difference_frequency=15e3)
        mna = mix.compile()
        mpde_unknowns = 40 * 30 * mna.n_unknowns
        # Shooting needs >= 20 points per LO cycle over one difference period.
        shooting_steps = 20 * int(mix.scales.disparity)
        shooting_unknowns = shooting_steps * mna.n_unknowns
        assert mix.scales.disparity == pytest.approx(30000)
        assert shooting_unknowns / mpde_unknowns > 250  # ">= 250x larger system"


class TestEnvelopeConsistency:
    def test_envelope_bounds_contain_diagonal(self, switching_case):
        """The min/max envelopes bound the reconstructed one-time waveform."""
        mix, _, mpde = switching_case
        td = mix.scales.difference_period
        surface = mpde.bivariate("out")
        upper = surface.envelope_max()
        lower = surface.envelope_min()
        times = np.linspace(0, td, 1500)
        diagonal = surface.diagonal(times)
        tol = 0.02 * diagonal.peak_to_peak()
        assert np.all(diagonal.values <= np.asarray(upper(times)) + tol)
        assert np.all(diagonal.values >= np.asarray(lower(times)) - tol)
