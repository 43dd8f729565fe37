"""Netlist-driven workflow: parse a SPICE-style netlist and run every analysis.

Most circuit work starts from a netlist rather than Python code.  This
example parses a small SPICE-flavoured netlist (a drive stage feeding a
single-transistor switching mixer), then walks it through the library's
analyses: DC operating point, transient start-up, single-tone harmonic
balance of the LO path, and finally the sheared multi-time MPDE solve that
extracts the down-converted baseband directly.

Run with::

    python examples/netlist_workflow.py
"""

from __future__ import annotations

from repro.analysis import dc_operating_point, harmonic_balance, run_transient
from repro.circuits import parse_netlist
from repro.core import ShearedTimeScales, solve_mpde
from repro.signals.spectrum import fourier_coefficient
from repro.utils import MPDEOptions, configure_logging

F_LO = 2.0e6
F_DIFF = 40.0e3

NETLIST = f"""
.title netlist-driven switching mixer
.model swn NMOS (vto=0.5 kp=200u w=40u l=0.35u lambda=0.01 cgs=30f cgd=30f)

* RF path: carrier fd below the LO, behind a 200 ohm source resistance
vrf rfsrc 0 SIN(0.9 0.05 {F_LO - F_DIFF})
rs  rfsrc rfin 200

* LO drive on the gate
vlo gate 0 SIN(0.6 0.9 {F_LO})

* the switching transistor and the RC load
m1  rfin gate out 0 swn
rl  out 0 2k
cl  out 0 0.5p
.end
"""


def main() -> None:
    configure_logging()
    circuit = parse_netlist(NETLIST)
    mna = circuit.compile()
    print(f"parsed circuit {circuit.name!r}: {len(circuit)} elements, {mna.n_unknowns} unknowns")

    # 1. DC operating point.
    dc = dc_operating_point(mna)
    print(f"\nDC operating point ({dc.strategy}):")
    for node in ("rfin", "gate", "out"):
        print(f"  v({node}) = {dc.voltage(mna, node):.4f} V")

    # 2. A short start-up transient (a few LO cycles).
    transient = run_transient(mna, t_stop=5 / F_LO, dt=1 / F_LO / 100)
    out = transient.waveform("out")
    print(f"\ntransient over 5 LO cycles: out settles around {out.values[-1]:.3f} V "
          f"({transient.stats.accepted_steps} steps)")

    # 3. Single-tone harmonic balance of the LO-driven stage (RF drive held at
    #    its bias): the output shows the LO harmonics generated by the switch.
    hb = harmonic_balance(mna, F_LO, harmonics=9)
    print("\nLO-rate harmonics of v(out) from single-tone harmonic balance:")
    for k in range(4):
        print(f"  harmonic {k}: {hb.harmonic_amplitude('out', k):.4f} V")

    # 4. The closely spaced two-tone problem: sheared multi-time solve.
    scales = ShearedTimeScales.from_frequencies(F_LO, F_LO - F_DIFF)
    result = solve_mpde(mna, scales, MPDEOptions(n_fast=32, n_slow=24))
    envelope = result.baseband_envelope("out")
    baseband = 2 * abs(fourier_coefficient(envelope, F_DIFF))
    print(
        f"\nMPDE solve: {result.stats.n_total_unknowns} unknowns, "
        f"{result.stats.newton_iterations} Newton iterations, "
        f"{result.stats.wall_time_seconds:.2f} s"
    )
    print(f"down-converted {F_DIFF / 1e3:.0f} kHz component at the output: {baseband * 1e3:.2f} mV")
    print(f"conversion gain referred to the 50 mV RF drive: {baseband / 0.05:.3f}")


if __name__ == "__main__":
    main()
