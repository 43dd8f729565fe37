"""TAB-SPEED — computational speed-up of the sheared MPDE over single-time shooting.

Section 3 of the paper ("Computational speedup") makes four quantitative
claims for the balanced mixer (450 MHz LO, 15 kHz baseband, disparity
30 000):

1. 1200 multi-time grid points replace >= 300 000 shooting time steps,
   i.e. the shooting equation system is more than 250x larger;
2. the resulting speed-up exceeds two orders of magnitude;
3. the speed-up grows roughly linearly with the disparity between the LO
   and the difference frequency;
4. the break-even disparity is implementation dependent but of order 200.

Running full-scale shooting (300 000 implicit time steps) is not feasible in
a Python benchmark, so this bench measures both methods on the unbalanced
switching mixer over a sweep of *scaled* disparities, verifies the linear
growth of the speed-up, and extrapolates the fitted line to the paper's
disparity — reproducing the shape of the claim rather than the absolute CPU
seconds of the 2002 testbed.

Every run writes its measurements to ``BENCH_speedup_vs_shooting.json`` at
the repository root: per disparity the MPDE and shooting wall times (each
the best of ``TIMING_REPEATS`` solves, since a single ~0.1 s MPDE solve is
too noisy to fit a break-even point on), the shooting Newton iterations,
and the shooting cost per time step (seconds and Newton iterations per
step over all shooting iterations, the DC start included), then the linear
fit, the break-even disparity, the extrapolated speed-up and the host it
ran on.  Run it with
``PYTHONPATH=src python -m pytest benchmarks/bench_speedup_vs_shooting.py -s``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from bench_jacobian_assembly import host_info
from paper_targets import (
    ComparisonRow,
    PAPER_BREAK_EVEN_DISPARITY,
    PAPER_GRID_POINTS,
    PAPER_SHOOTING_TIME_STEPS,
    PAPER_SYSTEM_SIZE_RATIO,
    print_series,
    print_table,
)
from repro.analysis import shooting_periodic_steady_state
from repro.core import solve_mpde
from repro.rf import unbalanced_switching_mixer
from repro.signals.spectrum import fourier_coefficient
from repro.utils import MPDEOptions, ShootingOptions

LO_FREQUENCY = 2.0e6
DISPARITIES = (10, 20, 40, 80, 160)
MPDE_GRID = (32, 21)
SHOOTING_STEPS_PER_LO_CYCLE = 20
PAPER_DISPARITY = 30000
#: Each solve is timed this many times and the fastest run is kept.
TIMING_REPEATS = 5
OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_speedup_vs_shooting.json"


def _make_case(disparity: int):
    fd = LO_FREQUENCY / disparity
    mixer = unbalanced_switching_mixer(lo_frequency=LO_FREQUENCY, difference_frequency=fd)
    return mixer, mixer.compile(), fd


def _best_of(solve, repeats: int = TIMING_REPEATS):
    """Fastest wall time of ``repeats`` calls of ``solve()``, and its result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = solve()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_mpde(mixer, mna, repeats: int = TIMING_REPEATS):
    options = MPDEOptions(n_fast=MPDE_GRID[0], n_slow=MPDE_GRID[1])
    elapsed, result = _best_of(lambda: solve_mpde(mna, mixer.scales, options), repeats)
    fd = mixer.scales.difference_frequency
    amplitude = 2 * abs(fourier_coefficient(result.baseband_envelope("out"), fd))
    return elapsed, amplitude, result


def _run_shooting(mixer, mna, disparity):
    steps = SHOOTING_STEPS_PER_LO_CYCLE * disparity
    options = ShootingOptions(steps_per_period=steps, integration_method="trapezoidal")
    elapsed, result = _best_of(
        lambda: shooting_periodic_steady_state(
            mna, mixer.scales.difference_period, options=options
        )
    )
    fd = mixer.scales.difference_frequency
    amplitude = 2 * abs(fourier_coefficient(result.waveform("out"), fd))
    return elapsed, amplitude, steps, result.stats


def test_speedup_vs_shooting(benchmark):
    rows = []
    speedups = []
    records = []
    for disparity in DISPARITIES:
        mixer, mna, fd = _make_case(disparity)
        t_mpde, a_mpde, mpde_result = _run_mpde(mixer, mna)
        t_shoot, a_shoot, steps, shooting_stats = _run_shooting(mixer, mna, disparity)
        speedup = t_shoot / t_mpde
        speedups.append(speedup)
        records.append(
            {
                "disparity": disparity,
                "mpde_s": t_mpde,
                "shooting_s": t_shoot,
                "speedup": speedup,
                "shooting_steps": steps,
                "shooting_iterations": shooting_stats.shooting_iterations,
                "shooting_newton_iterations": shooting_stats.newton_iterations,
                # Every shooting iteration integrates one whole period.
                "shooting_total_steps": shooting_stats.total_time_steps,
                "shooting_s_per_step": t_shoot / shooting_stats.total_time_steps,
                "shooting_newton_iterations_per_step": (
                    shooting_stats.newton_iterations / shooting_stats.total_time_steps
                ),
            }
        )
        agreement = abs(a_mpde - a_shoot) / max(a_shoot, 1e-15)
        rows.append(
            [
                f"{disparity}",
                f"{mpde_result.stats.n_grid_points}",
                f"{steps}",
                f"{t_mpde:.2f}",
                f"{t_shoot:.2f}",
                f"{speedup:.2f}",
                f"{100 * agreement:.1f}%",
            ]
        )

    print_series(
        "TAB-SPEED sweep: MPDE vs shooting over one difference period (switching mixer)",
        ["disparity f1/fd", "MPDE grid pts", "shooting steps", "MPDE (s)", "shooting (s)",
         "speed-up", "baseband mismatch"],
        rows,
    )

    # Linear fit of speed-up vs disparity (the paper: "roughly linear").
    disparities = np.asarray(DISPARITIES, dtype=float)
    speedup_arr = np.asarray(speedups)
    slope, intercept = np.polyfit(disparities, speedup_arr, 1)
    correlation = np.corrcoef(disparities, speedup_arr)[0, 1]
    break_even = (1.0 - intercept) / slope if slope > 0 else float("inf")
    extrapolated = slope * PAPER_DISPARITY + intercept
    OUTPUT_PATH.write_text(
        json.dumps(
            {
                "bench": "speedup_vs_shooting",
                "host": {**host_info(), "machine": platform.machine()},
                "lo_frequency_hz": LO_FREQUENCY,
                "mpde_grid": list(MPDE_GRID),
                "shooting_steps_per_lo_cycle": SHOOTING_STEPS_PER_LO_CYCLE,
                "timing_repeats": TIMING_REPEATS,
                "disparities": records,
                "fit": {
                    "slope_per_unit_disparity": slope,
                    "intercept": intercept,
                    "r": correlation,
                },
                "break_even_disparity": break_even if np.isfinite(break_even) else None,
                "paper_disparity": PAPER_DISPARITY,
                "extrapolated_speedup": extrapolated,
            },
            indent=2,
        )
        + "\n"
    )

    paper_rows = [
        ComparisonRow(
            "multi-time unknowns vs shooting time steps (450 MHz / 15 kHz)",
            f"{PAPER_GRID_POINTS} grid points vs >= {PAPER_SHOOTING_TIME_STEPS} steps",
            f"{PAPER_GRID_POINTS} vs {SHOOTING_STEPS_PER_LO_CYCLE * PAPER_DISPARITY} "
            f"(ratio {SHOOTING_STEPS_PER_LO_CYCLE * PAPER_DISPARITY / PAPER_GRID_POINTS:.0f}x)",
        ),
        ComparisonRow(
            "equation-system size ratio",
            f"> {PAPER_SYSTEM_SIZE_RATIO}x",
            f"{SHOOTING_STEPS_PER_LO_CYCLE * PAPER_DISPARITY / PAPER_GRID_POINTS:.0f}x",
        ),
        ComparisonRow(
            "speed-up grows ~linearly with disparity",
            "yes",
            f"linear fit r = {correlation:.3f}, slope {slope:.3f} per unit disparity",
        ),
        ComparisonRow(
            "break-even disparity",
            f"~{PAPER_BREAK_EVEN_DISPARITY} (implementation dependent)",
            f"~{break_even:.0f} (this Python implementation)",
        ),
        ComparisonRow(
            "speed-up at the paper's disparity (30 000)",
            "> 100x (two orders of magnitude)",
            f"~{extrapolated:.0f}x (extrapolated from the linear fit)",
        ),
    ]
    print_table("TAB-SPEED - paper claims vs measurements", paper_rows)

    # Benchmark the headline MPDE solve once more for the timing report.
    mixer, mna, _ = _make_case(DISPARITIES[-1])
    benchmark.pedantic(lambda: _run_mpde(mixer, mna, repeats=1), rounds=1, iterations=1)

    # Assertions on the claim *shape*.
    assert correlation > 0.95, "speed-up should grow ~linearly with disparity"
    assert speedup_arr[-1] > speedup_arr[0], "larger disparity must favour the MPDE method"
    assert extrapolated > 100, "extrapolated speed-up at disparity 30000 should exceed 100x"
    assert all(float(r[-1].rstrip("%")) < 10.0 for r in rows), "methods must agree on the baseband"
