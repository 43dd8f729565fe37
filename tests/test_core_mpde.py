"""Unit tests for the MPDE discretisation (problem assembly, residual, Jacobian)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.devices import Capacitor, Resistor, VoltageSource
from repro.core import MPDEProblem, ShearedTimeScales, solve_mpde
from repro.signals import ModulatedCarrierStimulus, SinusoidStimulus, SumStimulus
from repro.utils import MPDEError, MPDEOptions


F_FAST = 1e6
F_DIFF = 10e3
R = 1e3
C = 50e-9  # RC corner ~3.2 kHz: attenuates both carriers strongly, passes fd partially


def _two_tone_rc():
    """R-C low-pass driven by the sum of an LO tone and a closely spaced carrier."""
    scales = ShearedTimeScales.from_frequencies(F_FAST, F_FAST - F_DIFF)
    ckt = Circuit("two-tone rc")
    drive = SumStimulus(
        (
            SinusoidStimulus(1.0, F_FAST),
            ModulatedCarrierStimulus(0.5, scales.carrier_frequency),
        )
    )
    ckt.add(VoltageSource("vin", "in", ckt.GROUND, drive))
    ckt.add(Resistor("r1", "in", "out", R))
    ckt.add(Capacitor("c1", "out", ckt.GROUND, C))
    return ckt.compile(), scales


def _analytic_surface(mna, scales, grid):
    """Closed-form bivariate solution of the linear two-tone RC circuit."""
    t1, t2 = grid.mesh

    def transfer(freq):
        h = 1.0 / (1.0 + 2j * np.pi * freq * R * C)
        return abs(h), np.angle(h)

    mag1, ph1 = transfer(F_FAST)
    mag2, ph2 = transfer(scales.carrier_frequency)
    out = mag1 * 1.0 * np.cos(2 * np.pi * scales.fast_phase(t1) + ph1) + mag2 * 0.5 * np.cos(
        2 * np.pi * scales.carrier_phase(t1, t2) + ph2
    )
    return out


class TestProblemAssembly:
    def test_sizes(self):
        mna, scales = _two_tone_rc()
        problem = MPDEProblem(mna, scales, MPDEOptions(n_fast=12, n_slow=8))
        assert problem.n_circuit_unknowns == mna.n_unknowns
        assert problem.n_grid_points == 96
        assert problem.n_total_unknowns == 96 * mna.n_unknowns
        assert problem.source_grid.shape == (96, mna.n_unknowns)

    def test_grid_periods_follow_scales(self):
        mna, scales = _two_tone_rc()
        problem = MPDEProblem(mna, scales, MPDEOptions(n_fast=12, n_slow=8))
        assert problem.grid.period_fast == pytest.approx(scales.fast_period)
        assert problem.grid.period_slow == pytest.approx(scales.difference_period)

    def test_reshape_states_validates_size(self):
        mna, scales = _two_tone_rc()
        problem = MPDEProblem(mna, scales, MPDEOptions(n_fast=8, n_slow=8))
        with pytest.raises(MPDEError):
            problem.reshape_states(np.zeros(7))

    def test_initial_guess_helpers(self):
        mna, scales = _two_tone_rc()
        problem = MPDEProblem(mna, scales, MPDEOptions(n_fast=8, n_slow=8))
        assert problem.initial_guess_zero().shape == (problem.n_total_unknowns,)
        tiled = problem.initial_guess_from_state(np.arange(float(mna.n_unknowns)))
        states = problem.reshape_states(tiled)
        np.testing.assert_allclose(states[17], np.arange(float(mna.n_unknowns)))
        with pytest.raises(MPDEError):
            problem.initial_guess_from_state(np.zeros(mna.n_unknowns + 1))


class TestResidualAndJacobian:
    def test_manufactured_solution_has_small_residual(self):
        """The analytic bivariate solution satisfies the discretised MPDE (Fourier mode)."""
        mna, scales = _two_tone_rc()
        problem = MPDEProblem(
            mna,
            scales,
            MPDEOptions(n_fast=16, n_slow=16, fast_method="fourier", slow_method="fourier"),
        )
        out_surface = _analytic_surface(mna, scales, problem.grid)
        # Build the full state: v(in) = drive, v(out) = analytic, i(vin) from KCL.
        t1, t2 = problem.grid.mesh
        b = problem.source_grid
        v_in = -b[:, mna.branch_index("vin")]
        states = np.zeros((problem.n_grid_points, mna.n_unknowns))
        states[:, mna.node_index("in")] = v_in
        states[:, mna.node_index("out")] = out_surface
        states[:, mna.branch_index("vin")] = -(v_in - out_surface) / R
        residual = problem.residual(states.ravel())
        # Residual scale: the resistor currents are ~1 mA.
        assert np.max(np.abs(residual)) < 5e-6

    def test_jacobian_matches_finite_difference(self, rng):
        mna, scales = _two_tone_rc()
        problem = MPDEProblem(mna, scales, MPDEOptions(n_fast=4, n_slow=4))
        x = rng.normal(scale=0.1, size=problem.n_total_unknowns)
        jac = problem.jacobian(x).toarray()
        fd = np.zeros_like(jac)
        base = problem.residual(x)
        h = 1e-7
        for j in range(x.size):
            xp = x.copy()
            xp[j] += h
            fd[:, j] = (problem.residual(xp) - base) / h
        np.testing.assert_allclose(jac, fd, rtol=1e-4, atol=1e-6 * np.max(np.abs(jac)))

    def test_residual_and_jacobian_consistent_with_separate_calls(self, rng):
        mna, scales = _two_tone_rc()
        problem = MPDEProblem(mna, scales, MPDEOptions(n_fast=5, n_slow=4))
        x = rng.normal(scale=0.1, size=problem.n_total_unknowns)
        r_combined, j_combined = problem.residual_and_jacobian(x)
        np.testing.assert_allclose(r_combined, problem.residual(x))
        np.testing.assert_allclose(j_combined.toarray(), problem.jacobian(x).toarray())


class TestEmbeddedSource:
    def test_embedding_endpoints(self):
        mna, scales = _two_tone_rc()
        problem = MPDEProblem(mna, scales, MPDEOptions(n_fast=8, n_slow=8))
        relaxed = problem.embedded_source_grid(0.0)
        full = problem.embedded_source_grid(1.0)
        np.testing.assert_allclose(full, problem.source_grid)
        # At lambda = 0 every grid point sees the same (mean) excitation.
        np.testing.assert_allclose(relaxed, np.tile(relaxed[0], (problem.n_grid_points, 1)))

    def test_embedding_is_linear_in_lambda(self):
        mna, scales = _two_tone_rc()
        problem = MPDEProblem(mna, scales, MPDEOptions(n_fast=8, n_slow=8))
        mid = problem.embedded_source_grid(0.5)
        expected = 0.5 * (problem.embedded_source_grid(0.0) + problem.source_grid)
        np.testing.assert_allclose(mid, expected)

    def test_invalid_lambda(self):
        mna, scales = _two_tone_rc()
        problem = MPDEProblem(mna, scales, MPDEOptions(n_fast=8, n_slow=8))
        with pytest.raises(MPDEError):
            problem.embedded_source_grid(1.5)


@pytest.mark.no_fault_injection
class TestTwoAxisConvergenceOrder:
    """Observed order of each rule on one refined axis against the exact answer.

    An R-C low-pass with its corner at the carrier is driven by the sheared
    carrier, one tone on the fast axis and one on the slow axis.  The
    circuit is linear, so the exact bivariate solution is
    ``Re(H(f) exp(2j pi phase))`` per tone, with the tone's phase on the
    multi-time plane; it does not move when the solver code moves.  One
    axis is refined with the rule under test while the other stays
    ``fourier`` at 8 points, which resolves the single harmonic each tone
    has there exactly.  The errors are the discretisation's, so the class
    opts out of injected faults: a solve recovered by the damped ladder
    rung stops at the Newton tolerance instead of the exact linear answer.
    """

    grids = (16, 32, 64, 128)

    @pytest.fixture(scope="class")
    def circuit(self):
        scales = ShearedTimeScales.from_frequencies(F_FAST, F_FAST - F_DIFF)
        carrier = scales.carrier_frequency
        capacitance = 1.0 / (2.0 * np.pi * carrier * R)
        tones = ((1.0, carrier, "sheared"), (0.5, F_FAST, "fast"), (0.25, F_DIFF, "slow"))
        ckt = Circuit("carrier-corner rc")
        drive = SumStimulus(
            tuple(SinusoidStimulus(a, f, axis=axis) for a, f, axis in tones)
        )
        ckt.add(VoltageSource("vin", "in", ckt.GROUND, drive))
        ckt.add(Resistor("r1", "in", "out", R))
        ckt.add(Capacitor("c1", "out", ckt.GROUND, capacitance))
        return ckt.compile(), scales, tones, capacitance

    def _max_error(self, circuit, n_fast, n_slow, fast_method, slow_method):
        mna, scales, tones, capacitance = circuit
        options = MPDEOptions(
            n_fast=n_fast, n_slow=n_slow, fast_method=fast_method, slow_method=slow_method
        )
        result = solve_mpde(mna, scales, options)
        t1, t2 = result.grid.mesh
        phases = {
            "sheared": scales.carrier_phase(t1, t2),
            "fast": scales.fast_phase(t1),
            "slow": scales.slow_phase(t2),
        }
        transfer = {f: 1.0 / (1.0 + 2j * np.pi * f * R * capacitance) for _, f, _ in tones}
        exact = sum(
            np.real(a * transfer[f] * np.exp(2j * np.pi * phases[axis])) for a, f, axis in tones
        )
        return float(np.max(np.abs(result.bivariate("out").values.ravel() - exact)))

    @pytest.mark.parametrize("axis", ["fast", "slow"])
    @pytest.mark.parametrize(
        "method, order", [("backward-euler", 1.0), ("bdf2", 2.0), ("central", 2.0)]
    )
    def test_observed_order_under_grid_doubling(self, circuit, axis, method, order):
        if axis == "fast":
            errors = [self._max_error(circuit, n, 8, method, "fourier") for n in self.grids]
        else:
            errors = [self._max_error(circuit, 8, n, "fourier", method) for n in self.grids]
        observed = np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))
        assert np.all(np.abs(observed - order) <= 0.1), (method, axis, observed)

    def test_fourier_on_both_axes_is_exact_to_rounding(self, circuit):
        assert self._max_error(circuit, 8, 8, "fourier", "fourier") <= 1e-12
