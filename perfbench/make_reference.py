"""Regenerate ``reference.json``, the fixed references of the MPDE workloads.

For every input of the balanced-mixer set it records the difference-tone
amplitude from the direct and the matrix-free solver on the benchmark grid
and from the direct solver on a finer grid; for every amplitude of the
shooting set, the baseband amplitude of the same switching mixer by MPDE.
Each workload checks its results against values its own path never
produces.  Run from the repository root (takes about a minute)::

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def main() -> int:
    grid = {"n_fast": wl.MPDE_GRID[0], "n_slow": wl.MPDE_GRID[1]}
    fine = {"n_fast": wl.MPDE_FINE_GRID[0], "n_slow": wl.MPDE_FINE_GRID[1]}
    modes = {
        "direct": wl.utils.MPDEOptions(**grid),
        "matrix_free": wl.utils.MPDEOptions(
            **grid, matrix_free=True, preconditioner="block_circulant_fast"
        ),
        "fine": wl.utils.MPDEOptions(**fine),
    }
    balanced = {}
    for amplitude, bits in wl.MPDE_INPUTS:
        row = {}
        for mode, options in modes.items():
            value, converged = wl.balanced_mixer_amplitude(amplitude, bits, options)
            if not converged:
                raise RuntimeError(f"{mode} solve of {amplitude}, {bits} did not converge")
            row[mode] = value
        balanced[wl.input_key(amplitude, bits)] = row
        print(wl.input_key(amplitude, bits), row, flush=True)

    switching = {}
    for amplitude in wl.SHOOTING_AMPLITUDES:
        value, converged = wl.switching_mixer_mpde(amplitude)
        if not converged:
            raise RuntimeError(f"MPDE solve of the switching mixer at {amplitude} failed")
        switching[f"{amplitude:g}"] = {"mpde": value}
        print(amplitude, switching[f"{amplitude:g}"], flush=True)

    document = {"balanced_mixer": balanced, "switching_mixer": switching}
    wl.REFERENCE_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
