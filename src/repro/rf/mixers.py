"""Down-conversion mixer circuit builders.

Three mixers of increasing realism, matching the progression of the paper:

* :func:`ideal_multiplier_mixer` — a behavioural multiplying transconductor
  driving an RC load (the circuit embodiment of the Section 2 ideal mixing
  example).  Its conversion behaviour has a closed form, which the tests use
  to validate the whole MPDE pipeline end to end.
* :func:`unbalanced_switching_mixer` — a single MOS switch chopping the RF
  signal at the LO rate.  Small (6 unknowns) and strongly nonlinear, it is
  the workhorse of the speed-up and grid-ablation benchmarks.
* :func:`balanced_lo_doubling_mixer` — the paper's Section 3 circuit: a
  lower MOS pair acting as an LO frequency doubler feeding an upper
  differential pair that mixes the doubled LO with the RF bit stream,
  adapted from the CMOS balanced harmonic mixer of Zhang, Chen & Lau
  (RAWCON 2000).  The difference frequency of interest is
  ``fd = 2*f1 - f2`` (Eq. (12) of the paper).

Each builder returns a :class:`MixerCircuit` bundling the netlist, the node
names of interest, the recommended sheared time scales and the drive
amplitudes needed by the metric helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..circuits.devices import (
    BJTParams,
    Capacitor,
    CurrentSource,
    MOSFETParams,
    MultiplierCurrentSource,
    NMOS,
    NPN,
    Resistor,
    VoltageSource,
)
from ..circuits.netlist import Circuit
from ..core.timescales import ShearedTimeScales
from ..signals.bitstream import BitStreamEnvelope, ConstantEnvelope, Envelope
from ..signals.stimuli import (
    DCStimulus,
    ModulatedCarrierStimulus,
    SinusoidStimulus,
    SumStimulus,
)
from ..utils.exceptions import ConfigurationError
from ..utils.validation import check_positive

__all__ = [
    "MixerCircuit",
    "DoublerCircuit",
    "default_bit_envelope",
    "ideal_multiplier_mixer",
    "unbalanced_switching_mixer",
    "balanced_lo_doubling_mixer",
    "gilbert_cell_mixer",
    "lo_frequency_doubler",
]


@dataclass(frozen=True)
class MixerCircuit:
    """A mixer netlist plus the metadata needed to drive and measure it.

    Attributes
    ----------
    circuit:
        The netlist (call ``circuit.compile()`` to obtain the MNA system).
    scales:
        The sheared time scales recommended for the MPDE solve.
    output_pos, output_neg:
        Output node names; ``output_neg`` is ``"0"`` for single-ended
        outputs.
    lo_frequency, rf_frequency:
        Drive frequencies in Hz.
    rf_amplitude:
        Peak amplitude of the RF drive (per side for differential drives),
        used by the conversion-gain metric.
    monitor_nodes:
        Additional nodes worth plotting (e.g. the doubler node of the
        balanced mixer, Fig. 5 of the paper).
    """

    circuit: Circuit
    scales: ShearedTimeScales
    output_pos: str
    output_neg: str
    lo_frequency: float
    rf_frequency: float
    rf_amplitude: float
    monitor_nodes: tuple[str, ...] = ()

    @property
    def difference_frequency(self) -> float:
        """Baseband (difference) frequency in Hz."""
        return self.scales.difference_frequency

    @property
    def difference_period(self) -> float:
        """Baseband period ``Td`` in seconds."""
        return self.scales.difference_period

    def compile(self, options=None):
        """Shorthand for ``self.circuit.compile(options)``.

        ``options`` is an optional
        :class:`~repro.utils.options.EvaluationOptions` (evaluation backend).
        """
        return self.circuit.compile(options)


def default_bit_envelope(
    difference_period: float,
    *,
    bits: tuple[int, ...] = (1, 0, 1, 1),
    low: float = 0.25,
    high: float = 1.0,
    rise_fraction: float = 0.1,
) -> BitStreamEnvelope:
    """A bit-stream envelope whose pattern spans exactly one difference period.

    The paper's Fig. 3 / Fig. 4 show a handful of bit transitions within the
    ~0.066 ms baseband window; a four-bit pattern over one ``Td`` reproduces
    that structure while keeping the envelope periodic on the slow axis (a
    requirement of the multi-time representation).
    """
    check_positive("difference_period", difference_period)
    if len(bits) < 1:
        raise ConfigurationError("the bit pattern needs at least one bit")
    return BitStreamEnvelope(
        bits,
        bit_period=difference_period / len(bits),
        low=low,
        high=high,
        rise_fraction=rise_fraction,
    )


def _rf_stimulus(
    carrier_frequency: float,
    amplitude: float,
    envelope: Envelope | None,
    bias: float,
    phase: float,
    envelope_q: Envelope | None = None,
) -> SumStimulus | ModulatedCarrierStimulus:
    """Bias + (possibly modulated) carrier drive used by the mixer builders.

    With ``envelope_q`` set, the drive becomes a quadrature-modulated carrier

        ``A * [ I(t) * cos(w t + phase) + Q(t) * sin(w t + phase) ]``

    built as the sum of two modulated carriers 90 degrees apart
    (``cos(theta - pi/2) = sin(theta)``), which is how the scenario library
    transmits complex (QAM/PSK/OFDM) constellations through the real-valued
    mixer netlists.
    """
    carrier = ModulatedCarrierStimulus(
        amplitude=amplitude,
        carrier_frequency=carrier_frequency,
        envelope=envelope if envelope is not None else ConstantEnvelope(),
        phase=phase,
    )
    parts: list = [] if bias == 0.0 else [DCStimulus(bias)]
    parts.append(carrier)
    if envelope_q is not None:
        parts.append(
            ModulatedCarrierStimulus(
                amplitude=amplitude,
                carrier_frequency=carrier_frequency,
                envelope=envelope_q,
                phase=phase - 0.5 * math.pi,
            )
        )
    if len(parts) == 1:
        return parts[0]
    return SumStimulus(tuple(parts))


def ideal_multiplier_mixer(
    lo_frequency: float = 1.0e9,
    difference_frequency: float = 10.0e3,
    *,
    lo_amplitude: float = 1.0,
    rf_amplitude: float = 1.0,
    gain: float = 1e-3,
    load_resistance: float = 1e3,
    load_capacitance: float = 0.0,
    envelope: Envelope | None = None,
    envelope_q: Envelope | None = None,
) -> MixerCircuit:
    """Behavioural multiplier mixer (the Section 2 ideal mixing example).

    The multiplying transconductor produces ``i = gain * v_lo * v_rf`` into a
    resistive (optionally RC) load, so the output voltage is
    ``R * gain * v_lo * v_rf`` — for pure-tone drives the difference tone at
    ``fd`` has the closed-form amplitude ``R * gain * A_lo * A_rf / 2``.

    Parameters mirror the paper's example: a 1 GHz LO and a carrier 10 kHz
    below it.
    """
    check_positive("lo_frequency", lo_frequency)
    check_positive("difference_frequency", difference_frequency)
    rf_frequency = lo_frequency - difference_frequency
    if rf_frequency <= 0:
        raise ConfigurationError("difference frequency must be below the LO frequency")

    ckt = Circuit("ideal multiplier mixer")
    ckt.add(VoltageSource("vlo", "lo", ckt.GROUND, SinusoidStimulus(lo_amplitude, lo_frequency)))
    ckt.add(
        VoltageSource(
            "vrf",
            "rf",
            ckt.GROUND,
            _rf_stimulus(
                rf_frequency, rf_amplitude, envelope, bias=0.0, phase=0.0, envelope_q=envelope_q
            ),
        )
    )
    ckt.add(
        MultiplierCurrentSource(
            "mix", ckt.GROUND, "out", "lo", ckt.GROUND, "rf", ckt.GROUND, gain=gain
        )
    )
    ckt.add(Resistor("rload", "out", ckt.GROUND, load_resistance))
    if load_capacitance > 0.0:
        ckt.add(Capacitor("cload", "out", ckt.GROUND, load_capacitance))

    scales = ShearedTimeScales.from_frequencies(lo_frequency, rf_frequency, lo_multiple=1)
    return MixerCircuit(
        circuit=ckt,
        scales=scales,
        output_pos="out",
        output_neg=ckt.GROUND,
        lo_frequency=lo_frequency,
        rf_frequency=rf_frequency,
        rf_amplitude=rf_amplitude,
        monitor_nodes=("lo", "rf"),
    )


def unbalanced_switching_mixer(
    lo_frequency: float = 450.0e6,
    difference_frequency: float = 15.0e3,
    *,
    rf_amplitude: float = 0.05,
    lo_amplitude: float = 0.9,
    lo_bias: float = 0.6,
    rf_bias: float = 0.9,
    source_resistance: float = 200.0,
    load_resistance: float = 2.0e3,
    load_capacitance: float = 0.5e-12,
    envelope: Envelope | None = None,
    envelope_q: Envelope | None = None,
    mosfet_params: MOSFETParams | None = None,
) -> MixerCircuit:
    """Single-transistor switching mixer (unbalanced).

    The RF signal (a carrier ``fd`` below the LO) is applied, through a
    source resistance, to the drain of an NMOS whose gate is driven hard by
    the LO; the transistor chops the RF at the LO rate and the RC load
    collects the down-converted difference-frequency component.  The sharp
    switching makes this the simplest circuit exhibiting the waveforms the
    paper says harmonic balance handles poorly.
    """
    check_positive("lo_frequency", lo_frequency)
    check_positive("difference_frequency", difference_frequency)
    rf_frequency = lo_frequency - difference_frequency
    if rf_frequency <= 0:
        raise ConfigurationError("difference frequency must be below the LO frequency")
    params = mosfet_params or MOSFETParams(
        vto=0.5, kp=200e-6, w=40e-6, l=0.35e-6, lambda_=0.01, cgs=30e-15, cgd=30e-15
    )

    ckt = Circuit("unbalanced switching mixer")
    ckt.add(
        VoltageSource(
            "vrf",
            "rf",
            ckt.GROUND,
            _rf_stimulus(
                rf_frequency,
                rf_amplitude,
                envelope,
                bias=rf_bias,
                phase=0.0,
                envelope_q=envelope_q,
            ),
        )
    )
    ckt.add(Resistor("rs", "rf", "in", source_resistance))
    ckt.add(
        VoltageSource(
            "vlo",
            "lo",
            ckt.GROUND,
            SumStimulus((DCStimulus(lo_bias), SinusoidStimulus(lo_amplitude, lo_frequency))),
        )
    )
    ckt.add(NMOS("mswitch", "in", "lo", "out", params=params))
    ckt.add(Resistor("rload", "out", ckt.GROUND, load_resistance))
    ckt.add(Capacitor("cload", "out", ckt.GROUND, load_capacitance))

    scales = ShearedTimeScales.from_frequencies(lo_frequency, rf_frequency, lo_multiple=1)
    return MixerCircuit(
        circuit=ckt,
        scales=scales,
        output_pos="out",
        output_neg=ckt.GROUND,
        lo_frequency=lo_frequency,
        rf_frequency=rf_frequency,
        rf_amplitude=rf_amplitude,
        monitor_nodes=("in", "lo"),
    )


def balanced_lo_doubling_mixer(
    lo_frequency: float = 450.0e6,
    difference_frequency: float = 15.0e3,
    *,
    supply_voltage: float = 3.0,
    lo_amplitude: float = 1.0,
    lo_bias: float = 0.3,
    rf_amplitude: float = 0.15,
    rf_bias: float = 1.9,
    load_resistance: float = 2.0e3,
    load_capacitance: float = 1.0e-12,
    tail_capacitance: float = 150e-15,
    envelope: Envelope | None = None,
    envelope_q: Envelope | None = None,
    upper_params: MOSFETParams | None = None,
    lower_params: MOSFETParams | None = None,
    use_bit_stream: bool = True,
) -> MixerCircuit:
    """The paper's balanced LO-doubling down-conversion mixer (Section 3).

    Topology (adapted from Zhang, Chen & Lau, RAWCON 2000):

    * lower NMOS pair ``m3`` / ``m4``: sources grounded, gates driven by the
      differential LO at ``f1`` = 450 MHz, drains tied together at the tail
      node ``tail``.  Driven differentially, the pair's combined drain
      current contains a strong component at ``2*f1`` — the frequency
      doubler;
    * upper NMOS pair ``m1`` / ``m2``: common source at ``tail``, gates
      driven by the differential RF (a bit-stream-modulated carrier close to
      900 MHz), drains loaded by ``rl1`` / ``rl2`` to the supply.  The pair
      steers the doubled-LO tail current according to the RF input, mixing
      the two and producing the baseband difference tone at
      ``fd = 2*f1 - f2`` = 15 kHz across the differential output
      (``outp`` - ``outn``).

    With ``use_bit_stream=True`` (default) the RF carrier is modulated by the
    four-bit pattern of :func:`default_bit_envelope`, reproducing the
    bit-stream down-conversion of Figs. 3 and 4; with ``False`` the drive is
    a pure tone, which is what the conversion-gain / distortion measurements
    use.
    """
    check_positive("lo_frequency", lo_frequency)
    check_positive("difference_frequency", difference_frequency)
    rf_frequency = 2.0 * lo_frequency - difference_frequency
    if rf_frequency <= 0:
        raise ConfigurationError("difference frequency must be below twice the LO frequency")

    u_params = upper_params or MOSFETParams(
        vto=0.6, kp=170e-6, w=30e-6, l=0.35e-6, lambda_=0.03, cgs=40e-15, cgd=15e-15
    )
    l_params = lower_params or MOSFETParams(
        vto=0.6, kp=170e-6, w=20e-6, l=0.35e-6, lambda_=0.03, cgs=30e-15, cgd=10e-15
    )

    scales = ShearedTimeScales.from_frequencies(lo_frequency, rf_frequency, lo_multiple=2)

    if envelope is None and use_bit_stream:
        envelope = default_bit_envelope(scales.difference_period)
    elif envelope is None:
        envelope = ConstantEnvelope()

    ckt = Circuit("balanced LO-doubling mixer")
    # Supply and loads.
    ckt.add(VoltageSource("vdd", "vdd", ckt.GROUND, DCStimulus(supply_voltage)))
    ckt.add(Resistor("rl1", "vdd", "outp", load_resistance))
    ckt.add(Resistor("rl2", "vdd", "outn", load_resistance))
    ckt.add(Capacitor("cl1", "outp", ckt.GROUND, load_capacitance))
    ckt.add(Capacitor("cl2", "outn", ckt.GROUND, load_capacitance))

    # LO drive (differential) on the lower (doubler) pair.
    ckt.add(
        VoltageSource(
            "vlop",
            "lop",
            ckt.GROUND,
            SumStimulus((DCStimulus(lo_bias), SinusoidStimulus(lo_amplitude, lo_frequency))),
        )
    )
    ckt.add(
        VoltageSource(
            "vlon",
            "lon",
            ckt.GROUND,
            SumStimulus(
                (DCStimulus(lo_bias), SinusoidStimulus(lo_amplitude, lo_frequency, phase=math.pi))
            ),
        )
    )

    # RF drive (differential) on the upper (mixing) pair.
    ckt.add(
        VoltageSource(
            "vrfp",
            "rfp",
            ckt.GROUND,
            _rf_stimulus(
                rf_frequency,
                rf_amplitude,
                envelope,
                bias=rf_bias,
                phase=0.0,
                envelope_q=envelope_q,
            ),
        )
    )
    ckt.add(
        VoltageSource(
            "vrfn",
            "rfn",
            ckt.GROUND,
            _rf_stimulus(
                rf_frequency,
                rf_amplitude,
                envelope,
                bias=rf_bias,
                phase=math.pi,
                envelope_q=envelope_q,
            ),
        )
    )

    # Upper differential (mixing) pair.
    ckt.add(NMOS("m1", "outp", "rfp", "tail", params=u_params))
    ckt.add(NMOS("m2", "outn", "rfn", "tail", params=u_params))
    # Lower pair: the LO frequency doubler.
    ckt.add(NMOS("m3", "tail", "lop", ckt.GROUND, params=l_params))
    ckt.add(NMOS("m4", "tail", "lon", ckt.GROUND, params=l_params))
    # Parasitic capacitance at the tail (doubler) node; this node carries the
    # sharp 2*LO waveform shown in Fig. 5 of the paper.
    ckt.add(Capacitor("ctail", "tail", ckt.GROUND, tail_capacitance))

    return MixerCircuit(
        circuit=ckt,
        scales=scales,
        output_pos="outp",
        output_neg="outn",
        lo_frequency=lo_frequency,
        rf_frequency=rf_frequency,
        rf_amplitude=rf_amplitude,
        monitor_nodes=("tail", "lop", "rfp"),
    )


def gilbert_cell_mixer(
    lo_frequency: float = 450.0e6,
    difference_frequency: float = 15.0e3,
    *,
    supply_voltage: float = 5.0,
    lo_amplitude: float = 0.15,
    lo_bias: float = 3.2,
    rf_amplitude: float = 0.01,
    rf_bias: float = 2.0,
    tail_current: float = 2.0e-3,
    load_resistance: float = 1.0e3,
    load_capacitance: float = 1.0e-12,
    envelope: Envelope | None = None,
    bjt_params: BJTParams | None = None,
) -> MixerCircuit:
    """A classical bipolar Gilbert-cell (doubly balanced) down-conversion mixer.

    The Gilbert cell is the other canonical active mixer topology; it is not
    one of the paper's circuits, but it exercises the BJT model inside the
    multi-time solver and demonstrates that the difference-time-scale method
    is not specific to MOS switching mixers.  Topology:

    * lower differential pair ``q5`` / ``q6``: bases driven by the RF signal
      (a carrier ``fd`` below the LO), emitters tied to an ideal tail current
      source — the transconductance stage;
    * upper switching quad ``q1``-``q4``: bases driven by the differential
      LO, collectors cross-coupled to the two load resistors — the switching
      stage that commutates the RF current at the LO rate;
    * the difference tone at ``fd = f1 - f2`` appears across the
      differential output ``outp`` - ``outn``.

    Unlike the LO-doubling mixer of the paper, the Gilbert cell mixes with
    the LO fundamental, so ``lo_multiple = 1``.
    """
    check_positive("lo_frequency", lo_frequency)
    check_positive("difference_frequency", difference_frequency)
    rf_frequency = lo_frequency - difference_frequency
    if rf_frequency <= 0:
        raise ConfigurationError("difference frequency must be below the LO frequency")
    params = bjt_params or BJTParams(
        saturation_current=5e-16, beta_forward=120.0, beta_reverse=2.0, cje=20e-15, cjc=10e-15
    )
    scales = ShearedTimeScales.from_frequencies(lo_frequency, rf_frequency, lo_multiple=1)
    rf_envelope = envelope if envelope is not None else ConstantEnvelope()

    ckt = Circuit("gilbert cell mixer")
    ckt.add(VoltageSource("vcc", "vcc", ckt.GROUND, DCStimulus(supply_voltage)))
    ckt.add(Resistor("rl1", "vcc", "outp", load_resistance))
    ckt.add(Resistor("rl2", "vcc", "outn", load_resistance))
    ckt.add(Capacitor("cl1", "outp", ckt.GROUND, load_capacitance))
    ckt.add(Capacitor("cl2", "outn", ckt.GROUND, load_capacitance))

    # LO drive (differential) for the switching quad.
    ckt.add(
        VoltageSource(
            "vlop",
            "lop",
            ckt.GROUND,
            SumStimulus((DCStimulus(lo_bias), SinusoidStimulus(lo_amplitude, lo_frequency))),
        )
    )
    ckt.add(
        VoltageSource(
            "vlon",
            "lon",
            ckt.GROUND,
            SumStimulus(
                (DCStimulus(lo_bias), SinusoidStimulus(lo_amplitude, lo_frequency, phase=math.pi))
            ),
        )
    )
    # RF drive (differential) for the transconductance pair.
    ckt.add(
        VoltageSource(
            "vrfp",
            "rfp",
            ckt.GROUND,
            _rf_stimulus(rf_frequency, rf_amplitude, rf_envelope, bias=rf_bias, phase=0.0),
        )
    )
    ckt.add(
        VoltageSource(
            "vrfn",
            "rfn",
            ckt.GROUND,
            _rf_stimulus(rf_frequency, rf_amplitude, rf_envelope, bias=rf_bias, phase=math.pi),
        )
    )

    # Switching quad (collector, base, emitter).
    ckt.add(NPN("q1", "outp", "lop", "c1", params=params))
    ckt.add(NPN("q2", "outn", "lon", "c1", params=params))
    ckt.add(NPN("q3", "outn", "lop", "c2", params=params))
    ckt.add(NPN("q4", "outp", "lon", "c2", params=params))
    # Transconductance pair.
    ckt.add(NPN("q5", "c1", "rfp", "etail", params=params))
    ckt.add(NPN("q6", "c2", "rfn", "etail", params=params))
    # Ideal tail current source pulling the pair current to ground.
    ckt.add(CurrentSource("itail", "etail", ckt.GROUND, DCStimulus(tail_current)))

    return MixerCircuit(
        circuit=ckt,
        scales=scales,
        output_pos="outp",
        output_neg="outn",
        lo_frequency=lo_frequency,
        rf_frequency=rf_frequency,
        rf_amplitude=rf_amplitude,
        monitor_nodes=("c1", "c2", "etail"),
    )


@dataclass(frozen=True)
class DoublerCircuit:
    """A single-tone (periodic, not multi-time) RF building block.

    Returned by :func:`lo_frequency_doubler`: the netlist, the drive
    frequency, the output node, and the nodes worth plotting.  The natural
    analysis is single-period PSS (shooting or collocation) over
    ``1/lo_frequency``.
    """

    circuit: Circuit
    lo_frequency: float
    output: str
    monitor_nodes: tuple[str, ...] = ()

    @property
    def period(self) -> float:
        """The drive period ``1/f1`` (the output is dominated by ``2*f1``)."""
        return 1.0 / self.lo_frequency

    def compile(self, options=None):
        """Shorthand for ``self.circuit.compile(options)``."""
        return self.circuit.compile(options)


def lo_frequency_doubler(
    lo_frequency: float = 450.0e6,
    *,
    supply_voltage: float = 3.0,
    lo_amplitude: float = 1.0,
    lo_bias: float = 0.3,
    load_resistance: float = 2.0e3,
    load_capacitance: float | None = None,
    mosfet_params: MOSFETParams | None = None,
) -> DoublerCircuit:
    """The lower (doubler) half of the paper's balanced mixer, stood alone.

    A grounded-source NMOS pair driven by the differential LO at ``f1`` with
    drains tied at a common output node loaded to the supply: each transistor
    conducts on alternating half cycles, so the combined drain current — and
    hence the output voltage — carries a strong component at ``2*f1`` while
    the balance cancels the fundamental.  This is exactly the mechanism that
    lets the paper's Section 3 mixer down-convert a carrier near ``2*f1``,
    isolated so PSS analyses (and the scenario registry's ``frequency_doubler``
    scenario) can characterise it on its own.

    ``load_capacitance`` defaults to a time constant of 5% of the LO period
    (``0.05 / (f1 * load_resistance)``), small enough not to swamp the second
    harmonic.
    """
    check_positive("lo_frequency", lo_frequency)
    check_positive("load_resistance", load_resistance)
    if load_capacitance is None:
        load_capacitance = 0.05 / (lo_frequency * load_resistance)
    params = mosfet_params or MOSFETParams(
        vto=0.6, kp=170e-6, w=20e-6, l=0.35e-6, lambda_=0.03, cgs=30e-15, cgd=10e-15
    )

    ckt = Circuit("LO frequency doubler")
    ckt.add(VoltageSource("vdd", "vdd", ckt.GROUND, DCStimulus(supply_voltage)))
    ckt.add(Resistor("rload", "vdd", "out", load_resistance))
    ckt.add(Capacitor("cload", "out", ckt.GROUND, load_capacitance))
    ckt.add(
        VoltageSource(
            "vlop",
            "lop",
            ckt.GROUND,
            SumStimulus((DCStimulus(lo_bias), SinusoidStimulus(lo_amplitude, lo_frequency))),
        )
    )
    ckt.add(
        VoltageSource(
            "vlon",
            "lon",
            ckt.GROUND,
            SumStimulus(
                (DCStimulus(lo_bias), SinusoidStimulus(lo_amplitude, lo_frequency, phase=math.pi))
            ),
        )
    )
    ckt.add(NMOS("m3", "out", "lop", ckt.GROUND, params=params))
    ckt.add(NMOS("m4", "out", "lon", ckt.GROUND, params=params))

    return DoublerCircuit(
        circuit=ckt,
        lo_frequency=lo_frequency,
        output="out",
        monitor_nodes=("lop", "lon"),
    )
