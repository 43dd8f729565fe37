"""Tests for the two-tone harmonic-balance wrapper around the multi-time core."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ShearedTimeScales, two_tone_harmonic_balance
from repro.rf import difference_tone_amplitude, ideal_multiplier_mixer
from repro.signals import TonePair
from repro.utils import AnalysisError


@pytest.fixture(scope="module")
def ideal_mixer_hb():
    mix = ideal_multiplier_mixer(lo_frequency=1e6, difference_frequency=10e3)
    result = two_tone_harmonic_balance(
        mix.compile(), mix.scales, n_harmonics_fast=3, n_harmonics_slow=3
    )
    return mix, result


class TestIdealMixerMixingProducts:
    def test_difference_tone(self, ideal_mixer_hb):
        """The (0, 1) product is the difference tone with the closed-form amplitude."""
        mix, result = ideal_mixer_hb
        pair = TonePair.from_frequencies(mix.lo_frequency, mix.rf_frequency)
        expected = 1e3 * 1e-3 * difference_tone_amplitude(pair)
        measured = result.mixing_product_amplitude("out", 0, 1)
        assert measured == pytest.approx(expected, rel=1e-3)

    def test_sum_tone(self, ideal_mixer_hb):
        """The (2, -1) product is the sum frequency 2*f1 - fd = f1 + f2, also amplitude 1/2."""
        mix, result = ideal_mixer_hb
        measured = result.mixing_product_amplitude("out", 2, -1)
        assert measured == pytest.approx(0.5, rel=1e-3)

    def test_absent_products_are_tiny(self, ideal_mixer_hb):
        """An ideal multiplier produces only the sum and difference tones."""
        _, result = ideal_mixer_hb
        assert result.mixing_product_amplitude("out", 1, 0) < 1e-9
        assert result.mixing_product_amplitude("out", 0, 2) < 1e-9
        assert result.mixing_product_amplitude("out", 0, 0) < 1e-9

    def test_input_tones_appear_at_the_inputs(self, ideal_mixer_hb):
        mix, result = ideal_mixer_hb
        assert result.mixing_product_amplitude("lo", 1, 0) == pytest.approx(1.0, rel=1e-6)
        assert result.mixing_product_amplitude("rf", 1, -1) == pytest.approx(1.0, rel=1e-6)

    def test_truncation_bounds_enforced(self, ideal_mixer_hb):
        _, result = ideal_mixer_hb
        with pytest.raises(AnalysisError):
            result.mixing_product("out", 9, 0)

    def test_scales_passthrough(self, ideal_mixer_hb):
        mix, result = ideal_mixer_hb
        assert result.scales.difference_frequency == pytest.approx(10e3)


class TestArgumentValidation:
    def test_invalid_truncation(self):
        mix = ideal_multiplier_mixer(lo_frequency=1e6, difference_frequency=10e3)
        with pytest.raises(AnalysisError):
            two_tone_harmonic_balance(mix.compile(), mix.scales, n_harmonics_fast=0)

    def test_grid_follows_truncation(self):
        mix = ideal_multiplier_mixer(lo_frequency=1e6, difference_frequency=10e3)
        result = two_tone_harmonic_balance(
            mix.compile(), mix.scales, n_harmonics_fast=2, n_harmonics_slow=4
        )
        assert result.mpde.grid.n_fast == 2 * (2 * 2 + 1)
        assert result.mpde.grid.n_slow == 2 * (2 * 4 + 1)
