"""Shared fixtures for the benchmark harness.

The Figs. 3-6 benches and the conversion-gain bench all post-process the same
balanced-mixer MPDE solution; solving it once per session keeps the benchmark
suite fast while still exercising the full pipeline.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core import solve_mpde
from repro.rf import balanced_lo_doubling_mixer
from repro.utils import MPDEOptions

# Reduced grid used by the shared solves: large enough to show every effect
# the paper plots, small enough to keep the benchmark suite around a minute.
BENCH_GRID_FAST = 32
BENCH_GRID_SLOW = 24


@pytest.fixture(scope="session")
def bench_options() -> MPDEOptions:
    """Base options of the shared benchmark solves."""
    return MPDEOptions(n_fast=BENCH_GRID_FAST, n_slow=BENCH_GRID_SLOW)


@pytest.fixture(scope="session")
def balanced_mixer_bitstream_solution(bench_options):
    """MPDE solution of the paper's mixer with the bit-stream RF drive (Figs. 3-6)."""
    mixer = balanced_lo_doubling_mixer()
    result = solve_mpde(mixer.compile(), mixer.scales, bench_options)
    return mixer, result


@pytest.fixture(scope="session")
def balanced_mixer_puretone_solution(bench_options):
    """MPDE solution of the paper's mixer with a pure-tone RF drive (gain/distortion)."""
    mixer = balanced_lo_doubling_mixer(use_bit_stream=False)
    result = solve_mpde(mixer.compile(), mixer.scales, bench_options)
    return mixer, result
