"""Property tests for the batched device-class evaluation engine.

The contract under test: the batched gather/compute/scatter backend
(:mod:`repro.circuits.engine`, the default) must be *bit-for-bit* equal to
the per-device ``backend="loop"`` reference path — same residuals, same
Jacobian data, same duplicate summation order — for every device class, for
single-point and grid-sized evaluations, for mixed netlists, and regardless
of device insertion order.  On top of that sit the residual-only
no-Jacobian-allocation guarantee, the ``which=`` single-block fast path, the
batched excitation scatter, the fallback path for devices without a batch
spec, and the MPDE direct-mode chord Newton satellite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.pss_fd import collocation_periodic_steady_state
from repro.circuits import Circuit
from repro.circuits.devices import (
    BJT,
    VCCS,
    VCVS,
    BJTParams,
    Capacitor,
    Conductance,
    CurrentSource,
    Diode,
    DiodeParams,
    Inductor,
    MOSFETParams,
    MultiplierCurrentSource,
    NMOS,
    PMOS,
    PolynomialConductance,
    Resistor,
    SmoothSwitch,
    VoltageSource,
)
from repro.circuits.devices.base import Device
from repro.core import solve_mpde
from repro.signals import SinusoidStimulus
from repro.utils import ConfigurationError, EvaluationOptions, MPDEOptions

#: The paper's 40 x 30 multi-time grid size — the "grid-sized" point count.
PAPER_POINTS = 1200


def _device_pool(prefix: str = "") -> list:
    """One freshly constructed instance of every device class."""
    g = "0"
    p = prefix
    return [
        VoltageSource(f"{p}vs", "a", g, SinusoidStimulus(1.0, 1e6)),
        CurrentSource(f"{p}is", "b", g, SinusoidStimulus(1e-3, 2e6)),
        Resistor(f"{p}r1", "a", "b", 1e3),
        Conductance(f"{p}g1", "b", "c", 1e-4),
        Capacitor(f"{p}c1", "c", g, 1e-9),
        Inductor(f"{p}l1", "a", "c", 1e-6),
        Diode(f"{p}d1", "b", "c", DiodeParams(junction_capacitance=1e-12, transit_time=1e-9)),
        Diode(f"{p}d2", "c", g, DiodeParams(series_resistance=5.0, junction_capacitance=2e-12)),
        Diode(f"{p}d3", "a", "d"),  # no dynamics at all
        NMOS(f"{p}mn", "a", "b", "c", params=MOSFETParams(cgs=1e-13, cgd=2e-13, cdb=1e-13)),
        PMOS(f"{p}mp", "c", "a", "b", params=MOSFETParams(vto=-0.7, csb=1e-13)),
        NMOS(f"{p}mn2", "d", "c", g),  # capacitance-free MOSFET
        BJT(f"{p}qn", "a", "b", "c", BJTParams(cje=1e-13, cjc=1e-13)),
        BJT(f"{p}qp", "b", "c", "a", BJTParams(), polarity=-1),
        VCCS(f"{p}gmx", "a", g, "b", "c", 1e-3),
        VCVS(f"{p}ex", "d", g, "a", "b", 2.5),
        MultiplierCurrentSource(f"{p}mul", "d", g, "a", g, "b", g, gain=0.3),
        SmoothSwitch(f"{p}sw", "a", "d", "b", g, g_on=1e-2, g_off=1e-8),
        PolynomialConductance(f"{p}pc", "d", "c", (1e-3, 2e-4, 5e-5)),
    ]


def _all_device_circuit(order=None) -> Circuit:
    """A circuit with every device class (optionally in a custom order)."""
    ckt = Circuit("all devices")
    devices = _device_pool()
    if order is not None:
        devices = [devices[i] for i in order]
    ckt.add_all(devices)
    return ckt


def _assert_bit_for_bit(mna, X: np.ndarray) -> None:
    """Batched and loop backends agree exactly on every produced array."""
    loop = mna.evaluate_sparse(X, backend="loop")
    batched = mna.evaluate_sparse(X, backend="batched")
    for name in ("q", "f", "g_data", "c_data"):
        np.testing.assert_array_equal(
            getattr(batched, name), getattr(loop, name), err_msg=name
        )
    loop_dense = mna.evaluate(X, backend="loop")
    batched_dense = mna.evaluate(X, backend="batched")
    for name in ("q", "f", "capacitance", "conductance"):
        np.testing.assert_array_equal(
            getattr(batched_dense, name), getattr(loop_dense, name), err_msg=name
        )


class TestBatchedMatchesLoop:
    def test_every_device_class_single_point(self, rng):
        mna = _all_device_circuit().compile()
        X = rng.normal(scale=0.8, size=(1, mna.n_unknowns))
        _assert_bit_for_bit(mna, X)

    def test_every_device_class_grid_sized(self, rng):
        mna = _all_device_circuit().compile()
        X = rng.normal(scale=0.5, size=(PAPER_POINTS, mna.n_unknowns))
        _assert_bit_for_bit(mna, X)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 5.0, 50.0])
    def test_operating_regions(self, rng, scale):
        """Cutoff/triode/saturation, forward/reverse, limited exponentials."""
        mna = _all_device_circuit().compile()
        X = rng.normal(scale=scale, size=(64, mna.n_unknowns))
        _assert_bit_for_bit(mna, X)

    def test_non_finite_states_propagate_identically(self, rng):
        mna = _all_device_circuit().compile()
        X = rng.normal(size=(8, mna.n_unknowns))
        X[2, 3] = np.nan
        X[5, 0] = np.inf
        loop = mna.evaluate_sparse(X, backend="loop")
        batched = mna.evaluate_sparse(X, backend="batched")
        for name in ("q", "f", "g_data", "c_data"):
            np.testing.assert_array_equal(
                getattr(batched, name), getattr(loop, name), err_msg=name
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_pattern_order_invariance(self, seed):
        """Shuffling device insertion order never breaks batched == loop.

        Grouping reorders evaluation by device class; the scatter layouts
        must still reproduce the insertion-order accumulation of whatever
        ordering the netlist came with.
        """
        rng = np.random.default_rng(1000 + seed)
        order = rng.permutation(len(_device_pool()))
        mna = _all_device_circuit(order).compile()
        X = rng.normal(scale=0.7, size=(17, mna.n_unknowns))
        _assert_bit_for_bit(mna, X)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixed_netlists(self, seed):
        rng = np.random.default_rng(seed)
        ckt = Circuit("random")
        nodes = ["0", "n1", "n2", "n3", "n4"]

        def pick_two():
            a, b = rng.choice(len(nodes), size=2, replace=False)
            return nodes[a], nodes[b]

        ckt.add(VoltageSource("vs", "n1", "0", SinusoidStimulus(1.0, 1e6)))
        for k in range(int(rng.integers(4, 12))):
            p, n = pick_two()
            kind = int(rng.integers(0, 7))
            if kind == 0:
                ckt.add(Resistor(f"r{k}", p, n, float(rng.uniform(10, 1e4))))
            elif kind == 1:
                ckt.add(Capacitor(f"c{k}", p, n, float(rng.uniform(1e-12, 1e-9))))
            elif kind == 2:
                ckt.add(Inductor(f"l{k}", p, n, float(rng.uniform(1e-9, 1e-6))))
            elif kind == 3:
                ckt.add(
                    Diode(
                        f"d{k}", p, n,
                        DiodeParams(junction_capacitance=float(rng.uniform(0, 1e-12)) or 1e-13),
                    )
                )
            elif kind == 4:
                third = nodes[int(rng.integers(0, len(nodes)))]
                ckt.add(NMOS(f"m{k}", p, third, n, params=MOSFETParams(cgs=1e-13)))
            elif kind == 5:
                third = nodes[int(rng.integers(0, len(nodes)))]
                ckt.add(BJT(f"q{k}", p, third, n, BJTParams(cje=1e-14)))
            else:
                ckt.add(PolynomialConductance(f"p{k}", p, n, (1e-3, 1e-4)))
        mna = ckt.compile()
        X = rng.normal(scale=0.7, size=(23, mna.n_unknowns))
        _assert_bit_for_bit(mna, X)

    def test_repeated_evaluations_are_stable(self, rng):
        """Reused scratch buffers must never leak state between evaluations."""
        mna = _all_device_circuit().compile()
        X1 = rng.normal(size=(9, mna.n_unknowns))
        X2 = rng.normal(size=(9, mna.n_unknowns))
        first = mna.evaluate_sparse(X1)
        ref_q, ref_g = first.q.copy(), first.g_data.copy()
        mna.evaluate_sparse(X2)  # clobber scratch with different values
        again = mna.evaluate_sparse(X1)
        np.testing.assert_array_equal(again.q, ref_q)
        np.testing.assert_array_equal(again.g_data, ref_g)

    def test_results_do_not_alias_scratch(self, rng):
        """P=1 results survive later evaluations (integration-rule history)."""
        mna = _all_device_circuit().compile()
        x1 = rng.normal(size=(1, mna.n_unknowns))
        q1 = mna.evaluate_sparse(x1).q.copy()
        held = mna.evaluate_sparse(x1)
        mna.evaluate_sparse(rng.normal(size=(1, mna.n_unknowns)))
        np.testing.assert_array_equal(held.q, q1)


def _layout_circuit() -> Circuit:
    """Duplicate stamps over several fold rounds, and groups with ground.

    Node ``b`` collects stamps from most devices, so its residual row and
    diagonal Jacobian slot take three or more contributions (two or more
    duplicate fold rounds).  Each device class has members with and members
    without a grounded terminal, so within one kernel group some members'
    slots are eliminated and others' are not.
    """
    g = "0"
    ckt = Circuit("layout")
    ckt.add(VoltageSource("vs", "a", g, SinusoidStimulus(1.0, 1e6)))
    ckt.add(VoltageSource("vb", "c", "d", 0.25))
    for k, (p, n) in enumerate((("a", "b"), ("b", g), ("c", "b"), (g, "c"), ("b", "d"))):
        ckt.add(Resistor(f"r{k}", p, n, 1e3 * (k + 1)))
        ckt.add(Capacitor(f"c{k}", n, p, 1e-12 * (k + 1)))
    params = MOSFETParams(cgs=1e-13, cgd=2e-13, cdb=1e-13, csb=1e-13)
    ckt.add(NMOS("m1", "b", "a", g, g, params=params))
    ckt.add(NMOS("m2", "d", "c", "b", "b", params=params))
    ckt.add(Diode("d1", "b", g, DiodeParams(junction_capacitance=1e-12)))
    ckt.add(Diode("d2", "c", "d", DiodeParams(junction_capacitance=1e-12)))
    ckt.add(Inductor("l1", "d", g, 1e-6))
    ckt.add(Inductor("l2", "a", "b", 2e-6))
    return ckt


class TestScatterLayout:
    """Batched == loop for every evaluation flavour, through the raw layout."""

    @pytest.fixture(scope="class")
    def mna(self):
        return _layout_circuit().compile()

    def test_netlist_exercises_folds_and_ground_elimination(self, mna):
        # At least three contributions to one Jacobian slot and one residual
        # row: the fold runs two or more rounds.
        assert np.bincount(mna.static_pattern.slot).max() >= 3
        assert np.bincount(mna.dynamic_pattern.slot).max() >= 3
        assert max(len(owners) for owners in mna.residual_row_owners()) >= 4
        groups: dict[tuple, list[bool]] = {}
        for device in mna.devices:
            spec = device.batch_spec()
            groups.setdefault(spec.key, []).append(-1 in spec.indices)
        mixed = [key for key, grounded in groups.items() if any(grounded) and not all(grounded)]
        assert len(mixed) >= 4

    @pytest.mark.parametrize("n_points", [1, 300])
    @pytest.mark.parametrize("need_jacobian", [True, False])
    @pytest.mark.parametrize("which", ["both", "conductance", "capacitance"])
    def test_dense_matches_loop(self, mna, rng, n_points, need_jacobian, which):
        X = rng.normal(scale=0.8, size=(n_points, mna.n_unknowns))
        loop = mna.evaluate(X, need_jacobian=need_jacobian, which=which, backend="loop")
        batched = mna.evaluate(X, need_jacobian=need_jacobian, which=which)
        for name in ("q", "f", "capacitance", "conductance"):
            expected = getattr(loop, name)
            actual = getattr(batched, name)
            if expected is None:
                assert actual is None, name
            else:
                np.testing.assert_array_equal(actual, expected, err_msg=name)

    @pytest.mark.parametrize("n_points", [1, 300])
    @pytest.mark.parametrize("need_jacobian", [True, False])
    def test_sparse_matches_loop(self, mna, rng, n_points, need_jacobian):
        X = rng.normal(scale=0.8, size=(n_points, mna.n_unknowns))
        loop = mna.evaluate_sparse(X, need_jacobian=need_jacobian, backend="loop")
        batched = mna.evaluate_sparse(X, need_jacobian=need_jacobian)
        for name in ("q", "f", "c_data", "g_data"):
            expected = getattr(loop, name)
            actual = getattr(batched, name)
            if expected is None:
                assert actual is None, name
            else:
                np.testing.assert_array_equal(actual, expected, err_msg=name)


class TestSourcesThroughEngine:
    def test_source_matches_loop(self, rng):
        mna = _all_device_circuit().compile()
        t = np.linspace(0.0, 3e-6, 41)
        loop = _all_device_circuit().compile(
            EvaluationOptions(evaluation_backend="loop")
        )
        np.testing.assert_array_equal(mna.source(t), loop.source(t))
        np.testing.assert_array_equal(mna.source(1.5e-6), loop.source(1.5e-6))

    def test_source_bivariate_matches_loop(self):
        from repro.rf import balanced_lo_doubling_mixer

        mixer = balanced_lo_doubling_mixer()
        batched = mixer.compile()
        loop = mixer.circuit.compile(EvaluationOptions(evaluation_backend="loop"))
        t1 = np.linspace(0.0, 2e-9, 12)[:, None]
        t2 = np.linspace(0.0, 6e-5, 7)[None, :]
        np.testing.assert_array_equal(
            batched.source_bivariate(t1, t2, mixer.scales),
            loop.source_bivariate(t1, t2, mixer.scales),
        )


class TestResidualOnlyAllocation:
    def test_no_jacobian_buffers_allocated(self, rng, monkeypatch):
        """``need_jacobian=False`` must never touch a Jacobian buffer path."""
        mna = _all_device_circuit().compile()
        engine = mna.engine
        X = rng.normal(size=(33, mna.n_unknowns))
        full = mna.evaluate(X)  # reference, before the buffer paths are blocked

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("residual-only evaluation allocated a Jacobian buffer")

        monkeypatch.setattr(engine, "_mat_buffer", forbidden)
        monkeypatch.setattr(engine, "_constant_mat_data", forbidden)
        sparse = mna.evaluate_sparse(X, need_jacobian=False)
        assert sparse.c_data is None and sparse.g_data is None
        dense = mna.evaluate(X, need_jacobian=False)
        assert dense.capacitance is None and dense.conductance is None
        # The residuals are still the full answer.
        np.testing.assert_array_equal(sparse.q, full.q)
        np.testing.assert_array_equal(sparse.f, full.f)

    def test_kernels_not_asked_for_jacobians(self, rng):
        """Residual-only evaluation passes need_jacobian=False to kernels."""
        seen = []
        original = Resistor.batch_spec

        class SpyResistor(Resistor):
            def batch_spec(self):
                spec = original(self)
                kernel = spec.static_kernel

                def spy(V, params, need_jacobian):
                    seen.append(need_jacobian)
                    return kernel(V, params, need_jacobian)

                return type(spec)(
                    **{**{f: getattr(spec, f) for f in spec.__dataclass_fields__},
                       "key": ("SpyResistor",), "static_kernel": spy}
                )

        ckt = Circuit("spy")
        ckt.add(VoltageSource("v", "a", "0", 1.0))
        ckt.add(SpyResistor("r", "a", "0", 1e3))
        # Pin the serial kernel path: this test observes in-process kernel
        # calls through a closure, which the sharded backend legitimately
        # moves into forked workers (where `seen` is a private copy).
        mna = ckt.compile(EvaluationOptions())
        mna.engine  # engine compilation probes kernels once; not under test
        seen.clear()
        mna.evaluate_sparse(rng.normal(size=(4, mna.n_unknowns)), need_jacobian=False)
        assert seen == [False]


class TestWhichFastPath:
    def test_single_block_matches_full(self, rng):
        mna = _all_device_circuit().compile()
        X = rng.normal(size=(6, mna.n_unknowns))
        full = mna.evaluate(X)
        only_c = mna.evaluate(X, which="capacitance")
        only_g = mna.evaluate(X, which="conductance")
        np.testing.assert_array_equal(only_c.capacitance, full.capacitance)
        np.testing.assert_array_equal(only_g.conductance, full.conductance)
        assert only_c.conductance is None
        assert only_g.capacitance is None

    @pytest.mark.parametrize("backend", ["batched", "loop"])
    def test_matrix_accessors_use_fast_path(self, rng, backend):
        mna = _all_device_circuit().compile(
            EvaluationOptions(evaluation_backend=backend)
        )
        x = rng.normal(size=mna.n_unknowns)
        full = mna.evaluate(x.reshape(1, -1))
        np.testing.assert_array_equal(mna.capacitance_matrix(x), full.capacitance[0])
        np.testing.assert_array_equal(mna.conductance_matrix(x), full.conductance[0])

    def test_unknown_which_rejected(self, rng):
        mna = _all_device_circuit().compile()
        with pytest.raises(Exception, match="which"):
            mna.evaluate(np.zeros(mna.n_unknowns), which="nonsense")


class _SpecLessTwoTerminal(Device):
    """A custom nonlinear device with no batch spec (engine fallback path)."""

    def __init__(self, name, node_pos, node_neg, gain):
        super().__init__(name, (node_pos, node_neg))
        self.gain = gain

    def is_nonlinear(self):
        return True

    def has_dynamics(self):
        return True

    def stamp_static(self, X, F, G):
        p, n = self._node_idx
        v = self._voltage(X, p) - self._voltage(X, n)
        current = self.gain * np.tanh(v)
        dg = self.gain * (1.0 - np.tanh(v) ** 2)
        self._add_vec(F, p, current)
        self._add_vec(F, n, -current)
        self._add_mat(G, p, p, dg)
        self._add_mat(G, p, n, -dg)
        self._add_mat(G, n, p, -dg)
        self._add_mat(G, n, n, dg)

    def stamp_dynamic(self, X, Q, C):
        p, n = self._node_idx
        v = self._voltage(X, p) - self._voltage(X, n)
        charge = 1e-12 * v**3
        cap = 3e-12 * v**2
        self._add_vec(Q, p, charge)
        self._add_vec(Q, n, -charge)
        self._add_mat(C, p, p, cap)
        self._add_mat(C, p, n, -cap)
        self._add_mat(C, n, p, -cap)
        self._add_mat(C, n, n, cap)


class TestFallbackDevices:
    def test_spec_less_device_works_in_batched_backend(self, rng):
        ckt = Circuit("fallback mix")
        ckt.add(VoltageSource("v", "a", "0", SinusoidStimulus(1.0, 1e6)))
        ckt.add(Resistor("r", "a", "b", 1e3))
        ckt.add(_SpecLessTwoTerminal("x1", "b", "0", 2e-3))
        ckt.add(Capacitor("c", "b", "0", 1e-9))
        ckt.add(_SpecLessTwoTerminal("x2", "a", "b", 1e-3))
        mna = ckt.compile()
        X = rng.normal(size=(29, mna.n_unknowns))
        _assert_bit_for_bit(mna, X)


class TestBackendSelection:
    def test_default_backend_is_batched(self):
        ckt = Circuit("rc")
        ckt.add(VoltageSource("v", "a", "0", 1.0))
        ckt.add(Resistor("r", "a", "0", 1e3))
        assert ckt.compile().evaluation_backend == "batched"

    def test_compile_accepts_loop_backend(self):
        ckt = Circuit("rc")
        ckt.add(VoltageSource("v", "a", "0", 1.0))
        ckt.add(Resistor("r", "a", "0", 1e3))
        mna = ckt.compile(EvaluationOptions(evaluation_backend="loop"))
        assert mna.evaluation_backend == "loop"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            EvaluationOptions(evaluation_backend="warp-drive")

    def test_per_call_override_rejected_for_unknown(self, rng):
        ckt = Circuit("rc")
        ckt.add(VoltageSource("v", "a", "0", 1.0))
        ckt.add(Resistor("r", "a", "0", 1e3))
        mna = ckt.compile()
        with pytest.raises(Exception, match="backend"):
            mna.evaluate_sparse(np.zeros((1, mna.n_unknowns)), backend="nope")


class TestChordNewtonMPDE:
    @pytest.fixture(scope="class")
    def mixer(self):
        from repro.rf import unbalanced_switching_mixer

        mix = unbalanced_switching_mixer(lo_frequency=1e6, difference_frequency=5e4)
        return mix, mix.compile()

    # Asserts exact solver effort: an ambient singular-Jacobian fault sends
    # the solve through the full-Newton refresh rung, which refactors every
    # iterate by design.
    @pytest.mark.no_fault_injection
    def test_chord_reuses_factorizations(self, mixer):
        mix, mna = mixer
        chord = solve_mpde(mna, mix.scales, MPDEOptions(n_fast=16, n_slow=12))
        assert chord.stats.converged
        assert chord.stats.jacobian_factorizations >= 1
        assert chord.stats.jacobian_factorizations < chord.stats.linear_solves

    def test_chord_matches_plain_newton_solution(self, mixer, polished_reference):
        mix, mna = mixer
        chord = solve_mpde(mna, mix.scales, MPDEOptions(n_fast=16, n_slow=12))
        np.testing.assert_allclose(
            chord.states, polished_reference(chord), rtol=1e-6, atol=1e-8
        )

    @pytest.mark.no_fault_injection
    def test_one_axis_refactors_every_step_two_axis_reuses(self, mixer, diode_rectifier):
        """Direct mode: full Newton on one axis, chord Newton on two."""
        one_axis = collocation_periodic_steady_state(diode_rectifier.compile(), 1e-3, 64)
        assert one_axis.stats.linear_solves > 1
        assert one_axis.stats.jacobian_factorizations == one_axis.stats.linear_solves
        mix, mna = mixer
        two_axis = solve_mpde(mna, mix.scales, MPDEOptions(n_fast=16, n_slow=12)).stats
        assert two_axis.jacobian_factorizations < two_axis.linear_solves

    def test_gmres_modes_report_zero_factorizations(self, mixer):
        mix, mna = mixer
        result = solve_mpde(
            mna, mix.scales, MPDEOptions(n_fast=12, n_slow=9, matrix_free=True)
        )
        assert result.stats.converged
        assert result.stats.jacobian_factorizations == 0
