"""MOT-HB — Fourier (harmonic balance) vs time-domain representation of sharp waveforms.

The paper's motivation (Section 1): Fourier-series expansions are the
"Achilles' heel" of harmonic balance for switching RF circuits, whose
waveforms have sharp corners; time-domain representations handle them
naturally.  This bench quantifies that statement on the switching mixer's
own waveform:

* a reference periodic steady state of the LO-driven switching stage is
  computed with a fine time-domain collocation,
* the waveform is then re-expanded (a) in a truncated Fourier series with K
  harmonics — what HB would have to carry — and (b) on a uniform N-point
  time grid with the low-order interpolation the MPDE grid uses,
* the bench reports how many harmonics / samples each representation needs
  to reach 2 % and 0.5 % RMS accuracy.
"""

from __future__ import annotations

import numpy as np

from paper_targets import ComparisonRow, print_series, print_table
from repro.analysis import collocation_periodic_steady_state
from repro.rf import unbalanced_switching_mixer

LO_FREQUENCY = 2.0e6
REFERENCE_SAMPLES = 512
ACCURACY_TARGETS = (0.02, 0.005)


def _reference_waveform():
    """Fine time-domain PSS of the switching node (the sharp waveform)."""
    mixer = unbalanced_switching_mixer(
        lo_frequency=LO_FREQUENCY, difference_frequency=LO_FREQUENCY / 40, rf_amplitude=0.0
    )
    mna = mixer.compile()
    result = collocation_periodic_steady_state(
        mna, 1.0 / LO_FREQUENCY, REFERENCE_SAMPLES, method="bdf2"
    )
    return result.waveform("out")


def _fourier_truncation_error(waveform, n_harmonics: int) -> float:
    values = waveform.values[:-1]  # drop the repeated endpoint
    coeffs = np.fft.rfft(values) / values.size
    truncated = coeffs.copy()
    truncated[n_harmonics + 1 :] = 0.0
    reconstructed = np.fft.irfft(truncated * values.size, n=values.size)
    return float(np.sqrt(np.mean((reconstructed - values) ** 2)) / np.sqrt(np.mean(values**2)))


def _time_sampling_error(waveform, n_samples: int) -> float:
    period = waveform.duration
    coarse_times = waveform.times[0] + np.arange(n_samples) * period / n_samples
    coarse_values = np.asarray(waveform(coarse_times))
    # Periodic linear interpolation back onto the reference grid.
    wrapped_times = np.concatenate([coarse_times, [waveform.times[0] + period]])
    wrapped_values = np.concatenate([coarse_values, [coarse_values[0]]])
    reconstructed = np.interp(waveform.times, wrapped_times, wrapped_values)
    return float(
        np.sqrt(np.mean((reconstructed - waveform.values) ** 2))
        / np.sqrt(np.mean(waveform.values**2))
    )


def _smallest_meeting(target: float, error_of, candidates) -> int:
    for candidate in candidates:
        if error_of(candidate) <= target:
            return int(candidate)
    return int(candidates[-1])


def test_hb_vs_timedomain_representation(benchmark):
    waveform = benchmark.pedantic(_reference_waveform, rounds=1, iterations=1)

    harmonic_counts = np.arange(1, 129)
    sample_counts = np.arange(8, 513, 4)

    series_rows = []
    for k in (4, 8, 16, 32, 64):
        series_rows.append(
            [f"K = {k}", f"{100 * _fourier_truncation_error(waveform, k):.2f}%"]
        )
    for n in (16, 32, 64, 128):
        series_rows.append(
            [f"N = {n} samples", f"{100 * _time_sampling_error(waveform, n):.2f}%"]
        )
    print_series(
        "MOT-HB: RMS error of truncated Fourier (K harmonics) vs uniform time sampling (N points)",
        ["representation", "relative RMS error"],
        series_rows,
    )

    rows = []
    for target in ACCURACY_TARGETS:
        k_needed = _smallest_meeting(
            target, lambda k: _fourier_truncation_error(waveform, k), harmonic_counts
        )
        n_needed = _smallest_meeting(
            target, lambda n: _time_sampling_error(waveform, n), sample_counts
        )
        # Unknowns carried per circuit variable: 2K+1 real coefficients vs N samples.
        rows.append(
            ComparisonRow(
                f"unknowns per circuit variable for {100 * target:.1f}% accuracy",
                "HB needs many terms for sharp waveforms",
                f"Fourier: {2 * k_needed + 1} (K={k_needed}) vs time samples: {n_needed}",
            )
        )
    rows.append(
        ComparisonRow(
            "qualitative conclusion",
            "time-domain preferred for strongly nonlinear (switching) circuits",
            "sharp switching edges keep the Fourier count comparable to or above "
            "the time-sample count",
        )
    )
    print_table("MOT-HB - harmonic balance vs time-domain representation of sharp waveforms", rows)

    # The waveform really is 'sharp': its spectrum decays slowly, so a
    # handful of harmonics is NOT enough for 2% accuracy.
    assert _fourier_truncation_error(waveform, 4) > 0.02
    # Both representations eventually converge.
    assert _fourier_truncation_error(waveform, 128) < 0.005
    assert _time_sampling_error(waveform, 512) < 1e-9
