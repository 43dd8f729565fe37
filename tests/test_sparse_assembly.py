"""Property tests for the compiled stamp-pattern / sparse assembly pipeline.

The contract under test: the sparse-assembled Jacobian data produced by
``MNASystem.evaluate_sparse`` must match the dense reference path
(``MNASystem.evaluate``) *bit for bit* — same values, same duplicate
summation order — on circuits mixing every device type, and the
``need_jacobian=False`` residual-only fast path must return exactly the same
``q``/``f`` vectors as a full evaluation.  On top of that sit the MPDE
symbolic-once assembler, the matrix-free Jacobian operator and the
chord-Newton transient path, each checked against its reference.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
from repro.core import ShearedTimeScales, solve_mpde
from repro.core.mpde import MPDEProblem
from repro.core.solver import DirectLU, MPDESolver, MPDEStats
from repro.linalg import gmres_solve
from repro.linalg.sparse import ColumnOrder
from repro.rf import balanced_lo_doubling_mixer
from repro.signals import SinusoidStimulus
from repro.utils import MPDEOptions


def _all_device_circuit() -> Circuit:
    """A (non-physical) circuit that instantiates every device type once."""
    ckt = Circuit("all devices")
    g = ckt.GROUND
    ckt.add(VoltageSource("vs", "a", g, SinusoidStimulus(1.0, 1e6)))
    ckt.add(CurrentSource("is", "b", g, SinusoidStimulus(1e-3, 2e6)))
    ckt.add(Resistor("r1", "a", "b", 1e3))
    ckt.add(Conductance("g1", "b", "c", 1e-4))
    ckt.add(Capacitor("c1", "c", g, 1e-9))
    ckt.add(Inductor("l1", "a", "c", 1e-6))
    ckt.add(Diode("d1", "b", "c", DiodeParams(junction_capacitance=1e-12, transit_time=1e-9)))
    ckt.add(
        Diode("d2", "c", g, DiodeParams(series_resistance=5.0, junction_capacitance=2e-12))
    )
    ckt.add(NMOS("mn", "a", "b", "c", params=MOSFETParams(cgs=1e-13, cgd=2e-13, cdb=1e-13)))
    ckt.add(PMOS("mp", "c", "a", "b", params=MOSFETParams(vto=-0.7, csb=1e-13)))
    ckt.add(BJT("qn", "a", "b", "c", BJTParams(cje=1e-13, cjc=1e-13)))
    ckt.add(BJT("qp", "b", "c", "a", BJTParams(), polarity=-1))
    ckt.add(VCCS("gmx", "a", g, "b", "c", 1e-3))
    ckt.add(VCVS("ex", "d", g, "a", "b", 2.5))
    ckt.add(MultiplierCurrentSource("mul", "d", g, "a", g, "b", g, gain=0.3))
    ckt.add(SmoothSwitch("sw", "a", "d", "b", g, g_on=1e-2, g_off=1e-8))
    ckt.add(PolynomialConductance("pc", "d", "c", (1e-3, 2e-4, 5e-5)))
    return ckt


def _random_circuit(rng: np.random.Generator) -> Circuit:
    """A random mix of devices over a small node pool."""
    ckt = Circuit("random")
    nodes = ["0", "n1", "n2", "n3", "n4"]

    def pick_two() -> tuple[str, str]:
        a, b = rng.choice(len(nodes), size=2, replace=False)
        return nodes[a], nodes[b]

    ckt.add(VoltageSource("vs", "n1", "0", SinusoidStimulus(1.0, 1e6)))
    for k in range(int(rng.integers(3, 8))):
        p, n = pick_two()
        kind = int(rng.integers(0, 6))
        if kind == 0:
            ckt.add(Resistor(f"r{k}", p, n, float(rng.uniform(10, 1e4))))
        elif kind == 1:
            ckt.add(Capacitor(f"c{k}", p, n, float(rng.uniform(1e-12, 1e-9))))
        elif kind == 2:
            ckt.add(Inductor(f"l{k}", p, n, float(rng.uniform(1e-9, 1e-6))))
        elif kind == 3:
            ckt.add(
                Diode(
                    f"d{k}",
                    p,
                    n,
                    DiodeParams(junction_capacitance=float(rng.uniform(0, 1e-12))or 1e-13),
                )
            )
        elif kind == 4:
            third = nodes[int(rng.integers(0, len(nodes)))]
            ckt.add(NMOS(f"m{k}", p, third, n, params=MOSFETParams(cgs=1e-13)))
        else:
            ckt.add(PolynomialConductance(f"p{k}", p, n, (1e-3, 1e-4)))
    return ckt


class TestSparseMatchesDense:
    def test_all_device_types_bit_for_bit(self, rng):
        mna = _all_device_circuit().compile()
        X = rng.normal(scale=0.8, size=(6, mna.n_unknowns))
        dense = mna.evaluate(X)
        sparse = mna.evaluate_sparse(X)
        np.testing.assert_array_equal(sparse.q, dense.q)
        np.testing.assert_array_equal(sparse.f, dense.f)
        for p in range(X.shape[0]):
            np.testing.assert_array_equal(
                sparse.conductance_csr(p).toarray(), dense.conductance[p]
            )
            np.testing.assert_array_equal(
                sparse.capacitance_csr(p).toarray(), dense.capacitance[p]
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        mna = _random_circuit(rng).compile()
        X = rng.normal(scale=0.7, size=(4, mna.n_unknowns))
        dense = mna.evaluate(X)
        sparse = mna.evaluate_sparse(X)
        for p in range(X.shape[0]):
            np.testing.assert_array_equal(
                sparse.conductance_csr(p).toarray(), dense.conductance[p]
            )
            np.testing.assert_array_equal(
                sparse.capacitance_csr(p).toarray(), dense.capacitance[p]
            )

    def test_single_point_csr_accessors(self, rng):
        mna = _all_device_circuit().compile()
        x = rng.normal(size=mna.n_unknowns)
        np.testing.assert_array_equal(
            mna.conductance_csr(x).toarray(), mna.conductance_matrix(x)
        )
        np.testing.assert_array_equal(
            mna.capacitance_csr(x).toarray(), mna.capacitance_matrix(x)
        )


class TestResidualOnlyFastPath:
    def test_residuals_match_full_evaluation(self, rng):
        mna = _all_device_circuit().compile()
        X = rng.normal(scale=0.6, size=(5, mna.n_unknowns))
        full = mna.evaluate(X)
        fast = mna.evaluate(X, need_jacobian=False)
        np.testing.assert_array_equal(fast.q, full.q)
        np.testing.assert_array_equal(fast.f, full.f)
        assert fast.capacitance is None and fast.conductance is None

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_residual_only(self, seed):
        rng = np.random.default_rng(100 + seed)
        mna = _random_circuit(rng).compile()
        X = rng.normal(size=(3, mna.n_unknowns))
        full = mna.evaluate(X)
        fast = mna.evaluate(X, need_jacobian=False)
        np.testing.assert_array_equal(fast.q, full.q)
        np.testing.assert_array_equal(fast.f, full.f)

    def test_sparse_residual_only(self, rng):
        mna = _all_device_circuit().compile()
        X = rng.normal(size=(3, mna.n_unknowns))
        fast = mna.evaluate_sparse(X, need_jacobian=False)
        full = mna.evaluate(X)
        np.testing.assert_array_equal(fast.q, full.q)
        np.testing.assert_array_equal(fast.f, full.f)
        assert fast.c_data is None and fast.g_data is None


class TestGmin:
    def test_gmin_matrix_is_sparse_diagonal(self):
        """``gmin_diagonal`` is the diagonal vector: gmin on nodes, 0 on branches."""
        mna = _all_device_circuit().compile()
        gmin = mna.gmin_diagonal(1e-9)
        assert gmin.shape == (mna.n_unknowns,)
        assert np.count_nonzero(gmin) == mna.n_nodes
        np.testing.assert_array_equal(gmin[gmin != 0.0], 1e-9)


def _mixer_problem(n_fast: int = 10, n_slow: int = 7) -> MPDEProblem:
    from repro.rf import unbalanced_switching_mixer

    mixer = unbalanced_switching_mixer(lo_frequency=1e6, difference_frequency=5e4)
    return MPDEProblem(
        mixer.compile(), mixer.scales, MPDEOptions(n_fast=n_fast, n_slow=n_slow)
    )


class TestMPDEJacobianAssembly:
    def test_sparse_assembly_matches_dense_reference(self, rng):
        problem = _mixer_problem()
        x = rng.normal(scale=0.3, size=problem.n_total_unknowns)
        new = problem.jacobian(x).toarray()
        ref = problem.jacobian_dense_reference(x).toarray()
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-12 * scale)

    def test_matrix_free_operator_matches_assembled(self, rng):
        problem = _mixer_problem()
        x = rng.normal(scale=0.3, size=problem.n_total_unknowns)
        residual, c_data, g_data = problem.residual_and_values(x)
        assembled = problem.assemble_jacobian(c_data, g_data)
        operator = problem.jacobian_operator(c_data, g_data)
        v = rng.normal(size=problem.n_total_unknowns)
        ref = assembled @ v
        np.testing.assert_allclose(operator @ v, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))
        # The residual from the fused call matches the standalone one.
        np.testing.assert_array_equal(residual, problem.residual(x))

    def test_matrix_free_solve_matches_direct(self):
        from repro.rf import unbalanced_switching_mixer

        mixer = unbalanced_switching_mixer(lo_frequency=1e6, difference_frequency=5e4)
        mna = mixer.compile()
        direct = solve_mpde(mna, mixer.scales, MPDEOptions(n_fast=12, n_slow=9))
        free = solve_mpde(
            mna, mixer.scales, MPDEOptions(n_fast=12, n_slow=9, matrix_free=True)
        )
        assert free.stats.converged
        assert free.stats.linear_iterations > 0
        assert free.stats.preconditioner_builds >= 1
        abstol = MPDEOptions().newton.abstol
        assert free.stats.residual_norm <= abstol
        np.testing.assert_allclose(free.states, direct.states, rtol=1e-6, atol=1e-8)


def _paper_mixer_problem() -> MPDEProblem:
    """The paper's balanced mixer on the 20x15 bdf2 grid."""
    mixer = balanced_lo_doubling_mixer()
    return MPDEProblem(mixer.compile(), mixer.scales, MPDEOptions(n_fast=20, n_slow=15))


def _pss_problem() -> MPDEProblem:
    """One-axis collocation PSS of the every-device circuit (1 MHz period).

    Its inductor's backward-Euler ``L/h`` stamps tie with the diagonal for
    the largest entry of their column, which SuperLU breaks in favour of the
    diagonal of the reordered matrix (see ``ColumnOrder``).
    """
    return MPDEProblem.periodic(_all_device_circuit().compile(), 1e-6, 16)


def _hb_problem() -> MPDEProblem:
    """Two-tone HB: spectral collocation on both axes of the balanced mixer."""
    mixer = balanced_lo_doubling_mixer()
    return MPDEProblem(
        mixer.compile(),
        mixer.scales,
        MPDEOptions(n_fast=9, n_slow=7, fast_method="fourier", slow_method="fourier"),
    )


# Compares factorisations of fault-free data and counts fault-free LUs.
@pytest.mark.no_fault_injection
class TestColumnOrder:
    """The Jacobian's COLAMD column order is computed once per problem."""

    @pytest.mark.parametrize(
        "make_problem",
        [_paper_mixer_problem, _pss_problem, _hb_problem],
        ids=["paper-mixer-20x15", "pss-one-axis", "hb-fourier"],
    )
    def test_ordered_factorisation_solves_bitwise(self, make_problem, rng, splu_specs):
        problem = make_problem()
        direct = DirectLU(problem, MPDEStats())
        rhs = rng.normal(size=problem.n_total_unknowns)
        solutions = []
        for scale in (0.3, 0.5, 0.2):
            x = rng.normal(scale=scale, size=problem.n_total_unknowns)
            c_data, g_data = problem.jacobian_values(x)
            backsolve = direct.factor(c_data, g_data)
            solutions.append(
                (backsolve(rhs), spla.splu(problem.assemble_jacobian(c_data, g_data)).solve(rhs))
            )
        # Solver factorisations alternate with the plain reference ones.
        assert splu_specs[0::2] == [None, "NATURAL", "NATURAL"]
        for ordered, plain in solutions:
            np.testing.assert_array_equal(ordered, plain)

    def test_assemble_ordered_permutes_rows_and_columns(self, rng):
        problem = _mixer_problem()
        assembler = problem.jacobian_assembler
        c_data, g_data = problem.jacobian_values(
            rng.normal(scale=0.3, size=problem.n_total_unknowns)
        )
        natural = assembler.assemble(c_data, g_data)
        assembler.column_order.record(spla.splu(natural).perm_c)
        ordered = assembler.assemble_ordered(c_data, g_data)
        columns = np.argsort(assembler.column_order.perm_c)
        np.testing.assert_array_equal(
            ordered.toarray(), natural.toarray()[columns][:, columns]
        )

    def test_single_factorisation_plans_nothing_more(self, rng, monkeypatch):
        """A problem factored once only records its order; the reordered
        layout and scatter map are built by the second factorisation."""
        layouts = []
        layout = ColumnOrder.layout
        monkeypatch.setattr(
            ColumnOrder, "layout", lambda self: layouts.append(self) or layout(self)
        )
        problem = _mixer_problem()
        direct = DirectLU(problem, MPDEStats())
        c_data, g_data = problem.jacobian_values(
            rng.normal(scale=0.3, size=problem.n_total_unknowns)
        )
        order = problem.jacobian_assembler.column_order
        direct.factor(c_data, g_data)
        assert order.perm_c is not None
        assert layouts == []
        direct.factor(c_data, g_data)
        assert layouts and all(built is order for built in layouts)

    def test_one_ordering_per_problem_across_a_chord_solve(self, splu_specs):
        result = MPDESolver(_paper_mixer_problem()).solve()
        assert result.stats.converged
        assert result.stats.jacobian_factorizations == 5
        assert splu_specs == [None] + ["NATURAL"] * 4

    def test_full_newton_factors_through_the_same_ordered_lu(self, splu_specs):
        """A one-axis problem refactors every iterate, each one ordered ``splu``."""
        result = MPDESolver(_pss_problem()).solve()
        assert result.stats.converged
        factorizations = result.stats.jacobian_factorizations
        assert factorizations >= 2
        assert factorizations == result.stats.linear_solves
        assert splu_specs == [None] + ["NATURAL"] * (factorizations - 1)


class TestGMRESReport:
    def test_reports_inner_iterations_and_restart_cycles(self):
        n = 120
        main = 2.0 * np.ones(n)
        off = -1.0 * np.ones(n - 1)
        a = sp.diags([off, main, off], offsets=[-1, 0, 1]).tocsr()
        b = np.ones(n)
        x, report = gmres_solve(a, b, preconditioner=None, tol=1e-10, restart=20)
        assert report.converged
        assert report.iterations > 0
        assert report.restart_cycles >= 1
        assert report.restart_cycles == -(-report.iterations // 20)
        # The reported norm is the true residual; it must certify
        # convergence to the requested tolerance.
        assert report.residual_norm <= 1e-9 * np.linalg.norm(b) * 10
        np.testing.assert_allclose(a @ x, b, rtol=1e-8, atol=1e-8)
