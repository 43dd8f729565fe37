"""Shared fixtures: small reference circuits used across the test suite.

Fault-injected tier-1 mode
--------------------------
Setting ``REPRO_FAULT_PROFILE`` to a comma-separated list of named fault
profiles (see :func:`repro.resilience.build_profile_specs`) arms a *fresh*
fault plan around every test — each profile is recoverable by design, so the
suite must pass identically with it armed, proving the recovery machinery
end-to-end.  The CI workflow runs one such job (``tier1-faults``).  Tests
that manage their own fault plans or assert on exact solver effort opt out
with ``@pytest.mark.no_fault_injection``.

Scenario-smoke tier-1 mode
--------------------------
Setting ``REPRO_TIER1_SCENARIO_SMOKE=1`` solves the first case of *every*
registered scenario (at its downsized smoke configuration) once at session
start, asserting convergence and finite metrics before any test runs — a
fast end-to-end pre-flight of the registry, the circuit builders, grid
selection and all three analyses.  The CI workflow runs one such job
(``tier1-scenarios``).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.devices import (
    Capacitor,
    Diode,
    DiodeParams,
    Inductor,
    MOSFETParams,
    NMOS,
    Resistor,
    VoltageSource,
)
from repro.rf import ideal_multiplier_mixer, unbalanced_switching_mixer
from repro.signals import DCStimulus, SinusoidStimulus, SumStimulus


@pytest.fixture(scope="session", autouse=True)
def _tier1_scenario_smoke():
    """Honour ``REPRO_TIER1_SCENARIO_SMOKE`` (see the module docstring)."""
    if os.environ.get("REPRO_TIER1_SCENARIO_SMOKE", "").strip() not in ("1", "true"):
        yield
        return
    import math

    from repro.scenarios import build_scenario_smoke, run_scenario, scenario_names

    failures = []
    for name in scenario_names():
        try:
            run = run_scenario(build_scenario_smoke(name), first_case_only=True)
        except Exception as error:  # noqa: BLE001 — collect, report all at once
            failures.append(f"{name}: {type(error).__name__}: {error}")
            continue
        stats = getattr(run.case_runs[0].result, "stats", None)
        if stats is not None and not getattr(stats, "converged", True):
            failures.append(f"{name}: solve did not converge")
        for key, value in run.case_runs[0].metrics.items():
            if not math.isfinite(value):
                failures.append(f"{name}: metric {key!r} is not finite ({value!r})")
    if failures:
        pytest.fail(
            "scenario smoke pre-flight failed:\n  " + "\n  ".join(failures),
            pytrace=False,
        )
    yield


@pytest.fixture(autouse=True)
def _fault_profile(request):
    """Honour ``REPRO_FAULT_PROFILE`` (see the module docstring)."""
    profile = os.environ.get("REPRO_FAULT_PROFILE", "").strip()
    if not profile or request.node.get_closest_marker("no_fault_injection"):
        yield
        return
    from repro.resilience import build_profile_specs, inject_faults

    with inject_faults(*build_profile_specs(profile)):
        yield


@pytest.fixture
def recovery_ladder(monkeypatch):
    """Restrict the MPDE recovery ladder for one test.

    Call the fixture with the rung names to keep (they run in ladder
    order); with none, the first solve failure is terminal.  Each call
    picks from the full ladder, so a later call can put rungs back.  The
    patch is process-wide, so a service test must apply it before the
    service starts its workers.
    """
    from repro.core import solver

    ladder = solver.RECOVERY_LADDER

    def restrict(*rungs: str) -> None:
        unknown = set(rungs) - set(ladder)
        assert not unknown, f"unknown recovery rungs {sorted(unknown)}"
        kept = tuple(rung for rung in ladder if rung in rungs)
        monkeypatch.setattr(solver, "RECOVERY_LADDER", kept)

    return restrict


@pytest.fixture
def splu_specs(monkeypatch):
    """The ``permc_spec`` of every ``scipy.sparse.linalg.splu`` call in the test.

    ``None`` is the default COLAMD ordering; any other value than
    ``"NATURAL"`` computes a column ordering too.
    """
    import scipy.sparse.linalg as spla

    specs: list = []
    original = spla.splu

    def spy(matrix, permc_spec=None, *args, **kwargs):
        specs.append(permc_spec)
        return original(matrix, permc_spec, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return specs


@pytest.fixture
def voltage_divider():
    """A 10 V source driving two equal resistors: v(mid) = 5 V."""
    ckt = Circuit("divider")
    ckt.add(VoltageSource("vin", "top", ckt.GROUND, DCStimulus(10.0)))
    ckt.add(Resistor("r1", "top", "mid", 1e3))
    ckt.add(Resistor("r2", "mid", ckt.GROUND, 1e3))
    return ckt


@pytest.fixture
def rc_lowpass():
    """1 kHz sine through R = 1 kOhm into C = 100 nF (corner ~1.59 kHz)."""
    ckt = Circuit("rc lowpass")
    ckt.add(VoltageSource("vin", "in", ckt.GROUND, SinusoidStimulus(1.0, 1e3)))
    ckt.add(Resistor("r1", "in", "out", 1e3))
    ckt.add(Capacitor("c1", "out", ckt.GROUND, 100e-9))
    return ckt


@pytest.fixture
def rc_lowpass_step():
    """A DC source charging an RC (for step-response transient tests)."""
    ckt = Circuit("rc step")
    ckt.add(VoltageSource("vin", "in", ckt.GROUND, DCStimulus(1.0)))
    ckt.add(Resistor("r1", "in", "out", 1e3))
    ckt.add(Capacitor("c1", "out", ckt.GROUND, 1e-6))
    return ckt


@pytest.fixture
def series_rlc():
    """Series RLC driven by a sine at its resonance (~5.03 kHz)."""
    ckt = Circuit("series rlc")
    ckt.add(VoltageSource("vin", "in", ckt.GROUND, SinusoidStimulus(1.0, 5.033e3)))
    ckt.add(Resistor("r1", "in", "a", 50.0))
    ckt.add(Inductor("l1", "a", "b", 1e-3))
    ckt.add(Capacitor("c1", "b", ckt.GROUND, 1e-6))
    return ckt


@pytest.fixture
def diode_rectifier():
    """Half-wave rectifier: sine source, diode, RC load."""
    ckt = Circuit("half-wave rectifier")
    ckt.add(VoltageSource("vin", "in", ckt.GROUND, SinusoidStimulus(5.0, 1e3)))
    ckt.add(Diode("d1", "in", "out", DiodeParams(saturation_current=1e-12)))
    ckt.add(Resistor("rload", "out", ckt.GROUND, 1e3))
    ckt.add(Capacitor("cload", "out", ckt.GROUND, 10e-6))
    return ckt


@pytest.fixture
def nmos_amplifier():
    """Common-source NMOS stage with resistive load (DC + small sine drive)."""
    ckt = Circuit("common source")
    params = MOSFETParams(vto=0.6, kp=200e-6, w=20e-6, l=1e-6, lambda_=0.02)
    ckt.add(VoltageSource("vdd", "vdd", ckt.GROUND, DCStimulus(3.0)))
    ckt.add(
        VoltageSource(
            "vg",
            "gate",
            ckt.GROUND,
            SumStimulus((DCStimulus(1.0), SinusoidStimulus(0.05, 10e3))),
        )
    )
    ckt.add(Resistor("rd", "vdd", "drain", 5e3))
    ckt.add(NMOS("m1", "drain", "gate", ckt.GROUND, params=params))
    return ckt


@pytest.fixture
def scaled_ideal_mixer():
    """Ideal multiplier mixer with laptop-friendly frequencies (1 MHz / 10 kHz)."""
    return ideal_multiplier_mixer(lo_frequency=1e6, difference_frequency=10e3)


@pytest.fixture
def scaled_switching_mixer():
    """Unbalanced switching mixer scaled to 2 MHz LO / 50 kHz baseband."""
    return unbalanced_switching_mixer(lo_frequency=2e6, difference_frequency=50e3)


@pytest.fixture
def rng():
    """Deterministic random generator for tests that need random data."""
    return np.random.default_rng(20020610)
