"""Unit tests for the compiled MNA system (vectorised evaluation, sources, accessors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.devices import Capacitor, Diode, Resistor, VoltageSource
from repro.core import ShearedTimeScales
from repro.signals import DCStimulus, ModulatedCarrierStimulus, SinusoidStimulus
from repro.utils import CircuitError


@pytest.fixture
def rc_mna():
    ckt = Circuit("rc")
    ckt.add(VoltageSource("vin", "in", ckt.GROUND, SinusoidStimulus(1.0, 1e3)))
    ckt.add(Resistor("r1", "in", "out", 1e3))
    ckt.add(Capacitor("c1", "out", ckt.GROUND, 1e-6))
    return ckt.compile()


class TestEvaluation:
    def test_single_point_shapes(self, rc_mna):
        x = np.zeros(rc_mna.n_unknowns)
        assert rc_mna.q(x).shape == (rc_mna.n_unknowns,)
        assert rc_mna.f(x).shape == (rc_mna.n_unknowns,)
        assert rc_mna.conductance_matrix(x).shape == (rc_mna.n_unknowns,) * 2

    def test_vectorised_matches_loop(self, rc_mna, rng):
        X = rng.normal(size=(7, rc_mna.n_unknowns))
        batch = rc_mna.evaluate(X)
        for k in range(7):
            single = rc_mna.evaluate(X[k])
            np.testing.assert_allclose(batch.q[k], single.q[0])
            np.testing.assert_allclose(batch.f[k], single.f[0])
            np.testing.assert_allclose(batch.conductance[k], single.conductance[0])
            np.testing.assert_allclose(batch.capacitance[k], single.capacitance[0])

    def test_wrong_size_raises(self, rc_mna):
        with pytest.raises(CircuitError):
            rc_mna.f(np.zeros(rc_mna.n_unknowns + 1))
        with pytest.raises(CircuitError):
            rc_mna.evaluate(np.zeros((3, rc_mna.n_unknowns + 2)))
        with pytest.raises(CircuitError):
            rc_mna.evaluate(np.zeros((2, 2, 2)))

    def test_jacobians_match_finite_difference_for_nonlinear_circuit(self, rng):
        ckt = Circuit("diode circuit")
        ckt.add(VoltageSource("vin", "a", ckt.GROUND, DCStimulus(1.0)))
        ckt.add(Resistor("r1", "a", "b", 100.0))
        ckt.add(Diode("d1", "b", ckt.GROUND))
        ckt.add(Capacitor("c1", "b", ckt.GROUND, 1e-9))
        mna = ckt.compile()
        x = np.array([1.0, 0.55, -1e-3])
        g = mna.conductance_matrix(x)
        g_fd = np.zeros_like(g)
        for j in range(x.size):
            h = 1e-7
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            g_fd[:, j] = (mna.f(xp) - mna.f(xm)) / (2 * h)
        np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-10)


class TestSources:
    def test_scalar_and_vector_times(self, rc_mna):
        b_scalar = rc_mna.source(0.0)
        assert b_scalar.shape == (rc_mna.n_unknowns,)
        b_vec = rc_mna.source(np.array([0.0, 1e-4]))
        assert b_vec.shape == (2, rc_mna.n_unknowns)
        np.testing.assert_allclose(b_vec[0], b_scalar)

    def test_bivariate_source_diagonal_property(self):
        scales = ShearedTimeScales.from_frequencies(1e6, 1e6 - 10e3)
        ckt = Circuit("mix drive")
        ckt.add(VoltageSource("vlo", "lo", ckt.GROUND, SinusoidStimulus(1.0, 1e6)))
        ckt.add(
            VoltageSource(
                "vrf", "rf", ckt.GROUND, ModulatedCarrierStimulus(0.3, scales.carrier_frequency)
            )
        )
        ckt.add(Resistor("r1", "lo", "rf", 1e3))
        mna = ckt.compile()
        times = np.linspace(0.0, 5e-6, 400)
        direct = mna.source(times)
        diagonal = mna.source_bivariate(times, times, scales)
        np.testing.assert_allclose(diagonal, direct, rtol=1e-9, atol=1e-12)

    def test_bivariate_source_scalar(self):
        scales = ShearedTimeScales.from_frequencies(1e6, 1e6 - 10e3)
        ckt = Circuit("t")
        ckt.add(VoltageSource("vlo", "lo", ckt.GROUND, SinusoidStimulus(1.0, 1e6)))
        ckt.add(Resistor("r1", "lo", ckt.GROUND, 1e3))
        mna = ckt.compile()
        b = mna.source_bivariate(0.0, 0.0, scales)
        assert b.shape == (mna.n_unknowns,)


class TestAccessors:
    def test_voltage_single_vector(self, rc_mna):
        x = np.zeros(rc_mna.n_unknowns)
        x[rc_mna.node_index("out")] = 2.5
        assert rc_mna.voltage(x, "out") == pytest.approx(2.5)
        assert rc_mna.voltage(x, "0") == 0.0

    def test_voltage_stacked(self, rc_mna):
        X = np.zeros((4, rc_mna.n_unknowns))
        X[:, rc_mna.node_index("out")] = np.arange(4.0)
        np.testing.assert_allclose(rc_mna.voltage(X, "out"), np.arange(4.0))
        np.testing.assert_allclose(rc_mna.voltage(X, "gnd"), np.zeros(4))

    def test_voltage_gridded(self, rc_mna):
        X = np.zeros((3, 5, rc_mna.n_unknowns))
        X[..., rc_mna.node_index("in")] = 7.0
        out = rc_mna.voltage(X, "in")
        assert out.shape == (3, 5)
        np.testing.assert_allclose(out, 7.0)

    def test_differential_voltage(self, rc_mna):
        x = np.zeros(rc_mna.n_unknowns)
        x[rc_mna.node_index("in")] = 3.0
        x[rc_mna.node_index("out")] = 1.0
        assert rc_mna.differential_voltage(x, "in", "out") == pytest.approx(2.0)

    def test_gmin_matrix_touches_only_node_rows(self, rc_mna):
        """``gmin_diagonal``: gmin on node rows, 0 on branch rows."""
        gmin = rc_mna.gmin_diagonal(1e-9)
        assert gmin.shape == (rc_mna.n_unknowns,)
        assert gmin[rc_mna.node_index("in")] == 1e-9
        assert gmin[rc_mna.node_index("out")] == 1e-9
        assert gmin[rc_mna.branch_index("vin")] == 0.0

    def test_zero_state(self, rc_mna):
        assert rc_mna.zero_state().shape == (rc_mna.n_unknowns,)
        assert np.all(rc_mna.zero_state() == 0.0)

    def test_dc_residual_and_jacobian(self, rc_mna):
        x = np.zeros(rc_mna.n_unknowns)
        residual = rc_mna.dc_residual(x)
        assert residual.shape == (rc_mna.n_unknowns,)
        assert rc_mna.dc_jacobian(x).shape == (rc_mna.n_unknowns,) * 2
