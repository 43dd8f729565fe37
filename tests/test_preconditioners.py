"""Solver-convergence test harness for the preconditioner subsystem.

The matrix-free MPDE/HB Newton mode lives or dies by its preconditioner, so
this module tests the :mod:`repro.linalg.preconditioners` subsystem the way a
flow-level verification stage would: algebraic property tests (the FFT
per-harmonic solve must equal a dense solve of the explicitly assembled
block-circulant matrix), regression tests for the adaptive refresh policy
the chord-Newton LU cache uses, and end-to-end convergence assertions on the
paper's balanced mixer — the headline being that the partially-averaged
``block_circulant_fast`` mode cuts total GMRES inner iterations by >= 1.5x
versus ``block_circulant`` on the spectral (``fourier``) operators, while
both reach the same solution as the direct path.

The full paper-grid (40 x 30 spectral) check is marked ``slow`` and excluded
from the default (tier-1) run; run it with ``pytest -m slow``.
"""

from __future__ import annotations

import gc
import logging
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis.pss_fd import collocation_periodic_steady_state
from repro.core.mpde import MPDEProblem
from repro.core.multitone_hb import two_tone_harmonic_balance
from repro.core.solver import MPDESolver, _ChordLU, solve_mpde
from repro.linalg.preconditioners import (
    BlockCirculantFastPreconditioner,
    BlockCirculantPreconditioner,
    Preconditioner,
    circulant_eigenvalues,
    slow_averaged_data,
)
from repro.linalg.sparse import (
    ColumnOrder,
    StampPattern,
    periodic_backward_difference,
    periodic_bdf2_difference,
    periodic_fourier_differentiation,
)
from repro.rf import balanced_lo_doubling_mixer, unbalanced_switching_mixer
from repro.utils import MPDEError, MPDEOptions

# The spectral (two-tone HB equivalent) configuration of the paper's balanced
# mixer.  SMALL is cheap enough to afford a direct-solve reference; MEDIUM
# carries the iteration floor and cap; the paper's 40 x 30 grid is exercised
# by the slow-marked test.
SMALL_GRID = (20, 10)
MEDIUM_GRID = (36, 18)
PAPER_GRID = (40, 30)
#: Most GMRES iterations the MEDIUM spectral ``block_circulant`` solve may use
#: in total (123 measured; the same cap as the bench ``--check`` gate).
MAX_MEDIUM_BLOCK_CIRCULANT_GMRES_ITERATIONS = 250


def _spectral_options(grid: tuple[int, int], **overrides) -> MPDEOptions:
    return MPDEOptions(
        n_fast=grid[0],
        n_slow=grid[1],
        fast_method="fourier",
        slow_method="fourier",
        **overrides,
    )


def _relative_state_error(states: np.ndarray, reference: np.ndarray) -> float:
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(states - reference))) / max(scale, 1e-300)


@pytest.fixture(scope="module")
def balanced_mixer():
    mixer = balanced_lo_doubling_mixer()
    return mixer, mixer.compile()


@pytest.fixture(scope="module")
def spectral_small(balanced_mixer):
    """Direct and matrix-free block-circulant solves at the SMALL grid.

    The direct solve is the accuracy *reference*, so it refactors every
    Newton iterate (``chord_newton=False``): the chord mode satisfies the
    same residual tolerance but stops as soon as it crosses it, while the
    plain quadratic final step overshoots well below — the sharper iterate
    is what the 1e-8 state-gap assertions below are calibrated against.
    """
    mixer, mna = balanced_mixer
    direct = solve_mpde(
        mna, mixer.scales, _spectral_options(SMALL_GRID, chord_newton=False)
    )
    block = solve_mpde(
        mna,
        mixer.scales,
        _spectral_options(
            SMALL_GRID, matrix_free=True, preconditioner="block_circulant"
        ),
    )
    return {"direct": direct, "block_circulant": block}


@pytest.fixture(scope="module")
def spectral_medium(balanced_mixer):
    """Matrix-free solves at the MEDIUM grid, one per preconditioner mode."""
    mixer, mna = balanced_mixer
    results = {}
    for mode in ("block_circulant", "block_circulant_fast"):
        results[mode] = solve_mpde(
            mna,
            mixer.scales,
            _spectral_options(MEDIUM_GRID, matrix_free=True, preconditioner=mode),
        )
    return results


# -- satellite: algebraic property tests ---------------------------------------------


class TestBlockCirculantProperty:
    """The FFT per-harmonic apply must equal a dense solve of the explicit matrix."""

    @pytest.mark.parametrize(
        "n_fast, n_slow",
        [(8, 5), (9, 5), (8, 4), (9, 4)],
        ids=["even-odd", "odd-odd", "even-even", "odd-even"],
    )
    @pytest.mark.parametrize("fast_rule", ["fourier", "bdf2"])
    def test_apply_matches_dense_solve(self, rng, n_fast, n_slow, fast_rule):
        n = 3
        maker = (
            periodic_fourier_differentiation
            if fast_rule == "fourier"
            else periodic_bdf2_difference
        )
        d_fast = np.asarray(sp.csr_matrix(maker(n_fast, 2.0e-6)).todense())
        d_slow = np.asarray(sp.csr_matrix(maker(n_slow, 3.0e-5)).todense())
        c_bar = rng.normal(size=(n, n)) * 1e-6
        g_bar = rng.normal(size=(n, n)) + 4.0 * np.eye(n)

        precond = BlockCirculantPreconditioner(
            c_bar,
            g_bar,
            circulant_eigenvalues(d_fast),
            circulant_eigenvalues(d_slow),
        )
        assert not precond.degraded
        assert precond.n_harmonics == n_fast * n_slow

        derivative = np.kron(d_fast, np.eye(n_slow)) + np.kron(np.eye(n_fast), d_slow)
        explicit = np.kron(derivative, c_bar) + np.kron(np.eye(n_fast * n_slow), g_bar)
        vector = rng.normal(size=n_fast * n_slow * n)
        np.testing.assert_allclose(
            precond.solve(vector),
            np.linalg.solve(explicit, vector),
            rtol=1e-9,
            atol=1e-12 * np.abs(vector).max(),
        )

    @pytest.mark.parametrize("n_fast", [8, 9], ids=["even", "odd"])
    def test_apply_matches_per_harmonic_complex_blocks(self, rng, n_fast):
        """Harmonic-by-harmonic: each complex ``(n, n)`` block solves its own bin."""
        n, n_slow = 2, 5
        d_fast = np.asarray(
            sp.csr_matrix(periodic_fourier_differentiation(n_fast, 1.0)).todense()
        )
        d_slow = np.asarray(sp.csr_matrix(periodic_bdf2_difference(n_slow, 7.0)).todense())
        lam_fast = circulant_eigenvalues(d_fast)
        lam_slow = circulant_eigenvalues(d_slow)
        c_bar = rng.normal(size=(n, n))
        g_bar = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        precond = BlockCirculantPreconditioner(c_bar, g_bar, lam_fast, lam_slow)

        vector = rng.normal(size=n_fast * n_slow * n)
        spectrum = np.fft.fft2(vector.reshape(n_fast, n_slow, n), axes=(0, 1))
        solved = np.empty_like(spectrum)
        for m in range(n_fast):
            for k in range(n_slow):
                block = (lam_fast[m] + lam_slow[k]) * c_bar + g_bar
                solved[m, k] = np.linalg.solve(block, spectrum[m, k])
        expected = np.fft.ifft2(solved, axes=(0, 1)).real.ravel()
        np.testing.assert_allclose(precond.solve(vector), expected, rtol=1e-10)

    def test_one_dimensional_collocation_case(self, rng):
        """Default slow axis (a single zero eigenvalue) covers 1-D collocation."""
        n, n_samples = 3, 9
        d = np.asarray(sp.csr_matrix(periodic_bdf2_difference(n_samples, 1e-3)).todense())
        c_bar = rng.normal(size=(n, n)) * 1e-7
        g_bar = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        precond = BlockCirculantPreconditioner(c_bar, g_bar, circulant_eigenvalues(d))
        explicit = np.kron(d, c_bar) + np.kron(np.eye(n_samples), g_bar)
        vector = rng.normal(size=n_samples * n)
        np.testing.assert_allclose(
            precond.solve(vector), np.linalg.solve(explicit, vector), rtol=1e-9
        )

    def test_non_circulant_operator_is_rejected(self, rng):
        matrix = rng.normal(size=(6, 6))
        with pytest.raises(ValueError, match="not circulant"):
            circulant_eigenvalues(matrix)

    def test_circulant_eigenvalues_match_numpy_eigvals(self):
        d = periodic_bdf2_difference(7, 2.5)
        computed = np.sort_complex(circulant_eigenvalues(d))
        reference = np.sort_complex(np.linalg.eigvals(d.toarray()))
        np.testing.assert_allclose(computed, reference, rtol=1e-9, atol=1e-9)

    def test_singular_harmonic_block_degrades_to_pseudoinverse(self, caplog):
        # C = I, G = 0: the DC (lambda = 0) harmonic block is exactly singular.
        d = periodic_fourier_differentiation(6, 1.0)
        with caplog.at_level(logging.WARNING, logger="repro.linalg.preconditioners"):
            precond = BlockCirculantPreconditioner(
                np.eye(2), np.zeros((2, 2)), circulant_eigenvalues(d)
            )
        assert precond.degraded
        assert any("singular" in record.message for record in caplog.records)
        assert np.all(np.isfinite(precond.solve(np.ones(12))))


def _random_pattern(rng, n: int, density: float = 0.7) -> StampPattern:
    """A random stamp pattern that always includes the full diagonal."""
    mask = rng.uniform(size=(n, n)) < density
    np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    return StampPattern(rows, cols, n)


def _partially_averaged_dense(
    c_bar, g_bar, dynamic_pattern, static_pattern, d_fast, d_slow
) -> np.ndarray:
    """Explicit dense assembly of the slow-axis partially-averaged operator."""
    n = dynamic_pattern.n
    n_fast, n_slow = d_fast.shape[0], d_slow.shape[0]
    size = n_fast * n_slow * n
    c_blocks = np.zeros((size, size))
    g_blocks = np.zeros((size, size))
    for i in range(n_fast):
        c_i = dynamic_pattern.csr_from_data(c_bar[i]).toarray()
        g_i = static_pattern.csr_from_data(g_bar[i]).toarray()
        for j in range(n_slow):
            p = i * n_slow + j
            c_blocks[p * n : (p + 1) * n, p * n : (p + 1) * n] = c_i
            g_blocks[p * n : (p + 1) * n, p * n : (p + 1) * n] = g_i
    derivative = np.kron(d_fast, np.eye(n_slow)) + np.kron(np.eye(n_fast), d_slow)
    return np.kron(derivative, np.eye(n)) @ c_blocks + g_blocks


class TestBlockCirculantFastProperty:
    """The slow-FFT per-harmonic apply must equal a dense solve of the
    explicitly assembled partially-averaged operator."""

    @pytest.mark.parametrize(
        "n_fast, n_slow",
        [(8, 6), (8, 5), (7, 6), (7, 5)],
        ids=["even-even", "even-odd", "odd-even", "odd-odd"],
    )
    @pytest.mark.parametrize("fast_rule", ["fourier", "bdf2"])
    def test_apply_matches_dense_solve(self, rng, n_fast, n_slow, fast_rule):
        n = 3
        maker = (
            periodic_fourier_differentiation
            if fast_rule == "fourier"
            else periodic_bdf2_difference
        )
        d_fast = np.asarray(sp.csr_matrix(maker(n_fast, 2.0e-6)).todense())
        d_slow = np.asarray(
            sp.csr_matrix(periodic_bdf2_difference(n_slow, 3.0e-5)).todense()
        )
        dynamic_pattern = _random_pattern(rng, n)
        static_pattern = _random_pattern(rng, n)
        c_data = rng.normal(size=(n_fast * n_slow, dynamic_pattern.nnz)) * 1e-6
        g_data = rng.normal(size=(n_fast * n_slow, static_pattern.nnz))
        # Diagonally dominant static blocks keep every harmonic system regular.
        diag_slots = np.nonzero(static_pattern.rows == static_pattern.cols)[0]
        g_data[:, diag_slots] += 5.0

        c_bar = slow_averaged_data(c_data, n_fast, n_slow)
        g_bar = slow_averaged_data(g_data, n_fast, n_slow)
        precond = BlockCirculantFastPreconditioner(
            c_bar,
            g_bar,
            dynamic_pattern,
            static_pattern,
            d_fast,
            circulant_eigenvalues(d_slow),
        )
        assert not precond.degraded
        assert precond.n_harmonics == n_slow
        assert precond.shape == (n_fast * n_slow * n,) * 2

        explicit = _partially_averaged_dense(
            c_bar, g_bar, dynamic_pattern, static_pattern, d_fast, d_slow
        )
        vector = rng.normal(size=n_fast * n_slow * n)
        np.testing.assert_allclose(
            precond.solve(vector),
            np.linalg.solve(explicit, vector),
            rtol=1e-9,
            atol=1e-12 * np.abs(vector).max(),
        )

    def test_lazy_conjugate_symmetric_factorization_count(self, rng):
        """Only ``n_slow // 2 + 1`` harmonic systems are ever factored for
        real vectors, lazily."""
        n, n_fast, n_slow = 2, 6, 8
        d_fast = np.asarray(
            sp.csr_matrix(periodic_bdf2_difference(n_fast, 1.0)).todense()
        )
        d_slow = np.asarray(
            sp.csr_matrix(periodic_bdf2_difference(n_slow, 7.0)).todense()
        )
        pattern = _random_pattern(rng, n, density=1.0)
        c_data = rng.normal(size=(n_fast * n_slow, pattern.nnz)) * 1e-3
        g_data = rng.normal(size=(n_fast * n_slow, pattern.nnz))
        g_data[:, np.nonzero(pattern.rows == pattern.cols)[0]] += 4.0
        precond = BlockCirculantFastPreconditioner(
            slow_averaged_data(c_data, n_fast, n_slow),
            slow_averaged_data(g_data, n_fast, n_slow),
            pattern,
            pattern,
            d_fast,
            circulant_eigenvalues(d_slow),
        )
        # Construction factors nothing.
        assert precond.harmonic_factorizations == 0
        vector = rng.normal(size=n_fast * n_slow * n)
        precond.solve(vector)
        assert precond.harmonic_factorizations == n_slow // 2 + 1
        # Further applies reuse the cached factorisations.
        precond.solve(rng.normal(size=vector.size))
        assert precond.harmonic_factorizations == n_slow // 2 + 1

    def test_lazy_harmonic_builds_on_mixer(self, scaled_switching_mixer, rng):
        """Built through the MPDE problem, the mode factors each distinct
        harmonic once, on the first apply, and repeated applies are exact
        replays of the cached factorisations."""
        mna = scaled_switching_mixer.compile()
        options = MPDEOptions(n_fast=12, n_slow=8, fast_method="fourier", slow_method="fourier")
        problem = MPDEProblem(mna, scaled_switching_mixer.scales, options)
        x = rng.normal(scale=0.2, size=problem.n_total_unknowns)
        evaluation = mna.evaluate_sparse(problem.reshape_states(x))
        precond = problem.build_preconditioner(
            "block_circulant_fast", c_data=evaluation.c_data, g_data=evaluation.g_data
        )
        distinct = options.n_slow // 2 + 1
        assert precond.harmonic_factorizations == 0
        vector = rng.normal(size=problem.n_total_unknowns)
        first = precond.solve(vector)
        assert precond.harmonic_factorizations == distinct
        np.testing.assert_array_equal(precond.solve(vector), first)
        precond.solve(rng.normal(size=problem.n_total_unknowns))
        assert precond.harmonic_factorizations == distinct

    def test_one_dimensional_case_is_the_exact_jacobian(self, rng):
        """With ``n_slow = 1`` the averaging is a no-op and the single
        per-harmonic system equals the unaveraged collocation Jacobian."""
        n, n_samples = 3, 9
        d = np.asarray(sp.csr_matrix(periodic_bdf2_difference(n_samples, 1e-3)).todense())
        pattern = _random_pattern(rng, n)
        c_data = rng.normal(size=(n_samples, pattern.nnz)) * 1e-7
        g_data = rng.normal(size=(n_samples, pattern.nnz))
        g_data[:, np.nonzero(pattern.rows == pattern.cols)[0]] += 3.0
        precond = BlockCirculantFastPreconditioner(
            c_data, g_data, pattern, pattern, d
        )
        explicit = _partially_averaged_dense(
            c_data, g_data, pattern, pattern, d, np.zeros((1, 1))
        )
        vector = rng.normal(size=n_samples * n)
        np.testing.assert_allclose(
            precond.solve(vector), np.linalg.solve(explicit, vector), rtol=1e-9
        )
        assert precond.harmonic_factorizations == 1

    def test_singular_harmonic_degrades_to_pseudoinverse(self, rng, caplog):
        # All-zero blocks and a zero fast operator make every harmonic system
        # exactly singular (B_k = 0), forcing the pseudo-inverse fallback.
        n, n_fast, n_slow = 2, 4, 6
        pattern = _random_pattern(rng, n, density=1.0)
        c_data = np.zeros((n_fast, pattern.nnz))
        g_data = np.zeros((n_fast, pattern.nnz))
        d_fast = np.zeros((n_fast, n_fast))
        lam_slow = np.zeros(n_slow, dtype=complex)
        with caplog.at_level(logging.WARNING, logger="repro.linalg.preconditioners"):
            precond = BlockCirculantFastPreconditioner(
                c_data, g_data, pattern, pattern, d_fast, lam_slow
            )
            result = precond.solve(np.ones(n_fast * n_slow * n))
        assert precond.degraded
        assert any("singular" in record.message for record in caplog.records)
        assert np.all(np.isfinite(result))

    def test_complex_vectors_solve_by_linearity(self, rng):
        """A complex apply must equal the dense solve, not silently drop the
        imaginary part (the real path's conjugate-symmetry shortcut does not
        hold for complex input)."""
        n, n_fast, n_slow = 2, 6, 5
        d_fast = np.asarray(
            sp.csr_matrix(periodic_bdf2_difference(n_fast, 1.0)).todense()
        )
        d_slow = np.asarray(
            sp.csr_matrix(periodic_bdf2_difference(n_slow, 3.0)).todense()
        )
        pattern = _random_pattern(rng, n, density=1.0)
        c_bar = rng.normal(size=(n_fast, pattern.nnz)) * 1e-3
        g_bar = rng.normal(size=(n_fast, pattern.nnz))
        g_bar[:, np.nonzero(pattern.rows == pattern.cols)[0]] += 4.0
        precond = BlockCirculantFastPreconditioner(
            c_bar, g_bar, pattern, pattern, d_fast, circulant_eigenvalues(d_slow)
        )
        explicit = _partially_averaged_dense(
            c_bar, g_bar, pattern, pattern, d_fast, d_slow
        )
        vector = rng.normal(size=n_fast * n_slow * n) + 1j * rng.normal(
            size=n_fast * n_slow * n
        )
        np.testing.assert_allclose(
            precond.solve(vector), np.linalg.solve(explicit, vector), rtol=1e-9
        )

    def test_complex_apply_is_a_single_pass(self, rng):
        """Regression: a complex apply recursed into two full real applies.

        The fixed path shares one FFT call and one sweep over the harmonic
        solvers (two-column RHS) — so per complex apply the per-harmonic
        dispatch count is ``n_slow // 2 + 1``, not twice that — and its
        result stays bitwise equal to the former two-pass
        ``solve(real) + 1j * solve(imag)`` recursion.
        """
        n, n_fast, n_slow = 3, 6, 8
        d_fast = np.asarray(
            sp.csr_matrix(periodic_bdf2_difference(n_fast, 1.0)).todense()
        )
        d_slow = np.asarray(
            sp.csr_matrix(periodic_bdf2_difference(n_slow, 3.0)).todense()
        )
        pattern = _random_pattern(rng, n, density=1.0)
        c_bar = rng.normal(size=(n_fast, pattern.nnz)) * 1e-3
        g_bar = rng.normal(size=(n_fast, pattern.nnz))
        g_bar[:, np.nonzero(pattern.rows == pattern.cols)[0]] += 4.0
        build = lambda: BlockCirculantFastPreconditioner(  # noqa: E731
            c_bar, g_bar, pattern, pattern, d_fast, circulant_eigenvalues(d_slow)
        )
        precond = build()
        vector = rng.normal(size=n_fast * n_slow * n) + 1j * rng.normal(
            size=n_fast * n_slow * n
        )
        distinct = n_slow // 2 + 1

        single_pass = precond.solve(vector)
        # One complex apply dispatches each distinct harmonic solver once.
        assert precond.harmonic_applies == distinct
        assert precond.harmonic_factorizations == distinct

        # Bitwise equality to the two-pass recursion the fix replaced.
        reference = build()
        two_pass = reference.solve(vector.real) + 1j * reference.solve(vector.imag)
        assert reference.harmonic_applies == 2 * distinct
        np.testing.assert_array_equal(single_pass, two_pass)

        # A real apply still dispatches one sweep.
        precond.solve(vector.real)
        assert precond.harmonic_applies == 2 * distinct

    @pytest.mark.parametrize(
        "n_fast, n_slow", [(6, 7), (6, 8), (9, 1)], ids=["odd", "even", "one-axis"]
    )
    def test_one_splu_call_per_build(self, rng, monkeypatch, n_fast, n_slow):
        """Every distinct harmonic is factored by one sparse LU of the
        block-diagonal system, on the first apply and never again."""
        calls = []
        original = spla.splu

        def counting_splu(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting_splu)
        n = 3
        pattern = _random_pattern(rng, n)
        d_fast = sp.csr_matrix(periodic_bdf2_difference(n_fast, 1.0))
        lam_slow = (
            None
            if n_slow == 1
            else circulant_eigenvalues(periodic_bdf2_difference(n_slow, 3.0))
        )
        c_bar = rng.normal(size=(n_fast, pattern.nnz)) * 1e-3
        g_bar = rng.normal(size=(n_fast, pattern.nnz))
        g_bar[:, np.nonzero(pattern.rows == pattern.cols)[0]] += 4.0
        precond = BlockCirculantFastPreconditioner(
            c_bar, g_bar, pattern, pattern, d_fast, lam_slow
        )
        assert calls == []
        precond.solve(rng.normal(size=n_fast * n_slow * n))
        precond.solve(rng.normal(size=n_fast * n_slow * n) * (1 + 1j))
        distinct = n_slow // 2 + 1
        assert calls == [(distinct * n_fast * n,) * 2]
        assert precond.harmonic_factorizations == distinct

    @pytest.mark.no_fault_injection  # compares factorisations of fault-free data
    def test_ordered_harmonic_factorisation_solves_bitwise(
        self, balanced_mixer, rng, monkeypatch
    ):
        """Builds after the first factor ``blkdiag(B_0 .. B_K)`` in the
        problem's recorded column order and solve a complex two-column
        right-hand side bitwise as a plain ``splu`` does; the first build
        only records the order."""
        mixer, mna = balanced_mixer
        problem = MPDEProblem(mna, mixer.scales, MPDEOptions(n_fast=20, n_slow=15))
        lam_slow = problem.axis_eigenvalues()[1]
        layouts = []
        layout = ColumnOrder.layout
        monkeypatch.setattr(
            ColumnOrder, "layout", lambda self: layouts.append(self) or layout(self)
        )
        for build, scale in enumerate((0.3, 0.5, 0.2)):
            x = rng.normal(scale=scale, size=problem.n_total_unknowns)
            c_data, g_data = problem.jacobian_values(x)
            precond = problem.build_preconditioner(
                "block_circulant_fast", c_data=c_data, g_data=g_data
            )
            structure = precond.structure
            plain = spla.splu(
                structure.matrix(
                    structure.stacked_data(
                        slow_averaged_data(c_data, 20, 15),
                        slow_averaged_data(g_data, 20, 15),
                        lam_slow[: structure.n_blocks],
                    )
                )
            )
            rows = structure.n_blocks * structure.block_size
            rhs = rng.normal(size=(rows, 2)) + 1j * rng.normal(size=(rows, 2))
            np.testing.assert_array_equal(precond._factor()(rhs), plain.solve(rhs))
            assert structure.column_order.perm_c is not None
            assert bool(layouts) == (build > 0)

    @pytest.mark.no_fault_injection  # counts the fault-free builds
    def test_one_ordering_per_problem_across_a_matrix_free_solve(
        self, balanced_mixer, splu_specs
    ):
        mixer, mna = balanced_mixer
        options = MPDEOptions(
            n_fast=20, n_slow=15, matrix_free=True, preconditioner="block_circulant_fast"
        )
        result = MPDESolver(MPDEProblem(mna, mixer.scales, options), options).solve()
        assert result.stats.converged
        assert result.stats.preconditioner_builds == 13
        assert splu_specs == [None] + ["NATURAL"] * 12

    def test_build_preconditioner_reuses_one_structure(
        self, scaled_switching_mixer, monkeypatch
    ):
        """Every Newton build of one problem shares the problem's symbolic
        structure, and the structure is freed with the problem."""
        mna = scaled_switching_mixer.compile()
        options = MPDEOptions(
            n_fast=12, n_slow=8, matrix_free=True, preconditioner="block_circulant_fast"
        )
        problem = MPDEProblem(mna, scaled_switching_mixer.scales, options)
        structures = []
        original = BlockCirculantFastPreconditioner.__init__

        def recording_init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            structures.append(self.structure)

        monkeypatch.setattr(BlockCirculantFastPreconditioner, "__init__", recording_init)
        result = MPDESolver(problem, options).solve()
        assert result.stats.converged
        assert len(structures) >= 2
        assert all(structure is structures[0] for structure in structures)
        assert problem.build_preconditioner(
            "block_circulant_fast",
            c_data=np.zeros((problem.n_grid_points, mna.dynamic_pattern.nnz)),
            g_data=np.zeros((problem.n_grid_points, mna.static_pattern.nnz)),
        ).structure is structures[0]

        alive = weakref.ref(structures[0])
        del structures, problem, result
        gc.collect()
        assert alive() is None

    def test_only_dc_harmonic_singular_degrades_the_rest_stays_exact(self, rng, caplog):
        """With ``G = 0``, an invertible ``C`` and a circulant ``D1`` only
        ``B_0 = (D1 kron I) blkdiag(C_i)`` is singular.  The one LU then
        fails, every harmonic block falls back to its pseudo-inverse, and the
        ``k != 0`` harmonics of the result still equal their dense solves."""
        n, n_fast, n_slow = 2, 4, 6
        pattern = StampPattern(np.arange(n), np.arange(n), n)
        c_bar = np.tile([1.0, 2.0], (n_fast, 1))
        g_bar = np.zeros((n_fast, pattern.nnz))
        # Unit steps make D1 = I - shift exactly, so B_0's LU meets an exact
        # zero pivot.
        d_fast = periodic_backward_difference(n_fast, float(n_fast)).toarray()
        lam_slow = circulant_eigenvalues(periodic_backward_difference(n_slow, float(n_slow)))
        with caplog.at_level(logging.WARNING, logger="repro.linalg.preconditioners"):
            precond = BlockCirculantFastPreconditioner(
                c_bar, g_bar, pattern, pattern, d_fast, lam_slow
            )
            vector = rng.normal(size=n_fast * n_slow * n)
            result = precond.solve(vector)
        assert precond.degraded
        assert any("singular" in record.message for record in caplog.records)

        c_blk = np.kron(np.eye(n_fast), np.diag(c_bar[0]))
        spectrum = np.fft.fft(vector.reshape(n_fast, n_slow, n), axis=1)
        solved = np.fft.fft(result.reshape(n_fast, n_slow, n), axis=1)
        for k in range(1, n_slow):
            block = (np.kron(d_fast, np.eye(n)) + lam_slow[k] * np.eye(n_fast * n)) @ c_blk
            np.testing.assert_allclose(
                solved[:, k, :].ravel(),
                np.linalg.solve(block, spectrum[:, k, :].ravel()),
                rtol=1e-10,
                atol=1e-12,
            )

    def test_shape_validation(self, rng):
        pattern = _random_pattern(rng, 2, density=1.0)
        data = rng.normal(size=(4, pattern.nnz))
        with pytest.raises(ValueError, match="fast operator"):
            BlockCirculantFastPreconditioner(
                data, data, pattern, pattern, np.eye(3)
            )
        with pytest.raises(ValueError, match="n_fast"):
            BlockCirculantFastPreconditioner(
                data, data[:3], pattern, pattern, np.eye(4)
            )
        with pytest.raises(ValueError, match="shape"):
            slow_averaged_data(data, 3, 2)

    def test_factory_rejects_mismatched_slow_eigenvalues(self, rng):
        """An omitted or wrong-length slow-eigenvalue array must fail at
        build time, not with a reshape error on first application."""
        from repro.linalg.preconditioners import build_averaged_preconditioner

        n, n_fast, n_slow = 2, 4, 6
        pattern = _random_pattern(rng, n, density=1.0)
        c_data = rng.normal(size=(n_fast * n_slow, pattern.nnz))
        g_data = rng.normal(size=(n_fast * n_slow, pattern.nnz))
        kwargs = dict(
            dynamic_pattern=pattern,
            static_pattern=pattern,
            c_data=c_data,
            g_data=g_data,
            fast_operator=np.asarray(
                sp.csr_matrix(periodic_bdf2_difference(n_fast, 1.0)).todense()
            ),
            grid_shape=(n_fast, n_slow),
        )
        with pytest.raises(ValueError, match="slow-axis"):
            build_averaged_preconditioner("block_circulant_fast", **kwargs)
        with pytest.raises(ValueError, match="slow-axis"):
            build_averaged_preconditioner(
                "block_circulant_fast",
                eigenvalues_slow=np.zeros(n_slow - 1, dtype=complex),
                **kwargs,
            )


# -- satellite: adaptive refresh policy ----------------------------------------------


class TestAdaptiveRefreshPolicy:
    def test_trend_thresholds(self):
        chord = _ChordLU()
        assert chord.needs_refresh()  # no factorisation yet
        chord.store(object())
        assert not chord.needs_refresh()  # nothing recorded yet
        chord.record_step(0.010, accepted=True)  # first step after a build
        assert chord.baseline == 10
        assert not chord.needs_refresh()
        chord.record_step(0.024, accepted=True)  # 24 <= 10 * 1.6 + 8
        assert not chord.needs_refresh()
        chord.record_step(0.025, accepted=True)  # 25 > 24
        assert chord.needs_refresh()
        chord.store(object())
        assert chord.baseline is None
        assert not chord.needs_refresh()

    @pytest.mark.no_fault_injection  # asserts the fault-free factorisation count
    def test_mpde_stats_reflect_policy_rebuilds(self, balanced_mixer):
        """End to end: the chord LU's policy refreshes show up in the stats."""
        mixer, mna = balanced_mixer
        stats = solve_mpde(mna, mixer.scales, _spectral_options(SMALL_GRID)).stats
        # The Newton iterate moves far from the DC guess, so the policy must
        # have refactored the cached LU at least once beyond the initial
        # factorisation, while still reusing it for some steps.
        assert stats.preconditioner_kind == ""
        assert 2 <= stats.jacobian_factorizations < stats.linear_solves
        assert stats.linear_iteration_history == []


# -- tentpole: the solver-convergence harness ---------------------------------------


class TestSpectralConvergence:
    def test_block_circulant_matches_direct_solution(self, spectral_small):
        direct = spectral_small["direct"]
        block = spectral_small["block_circulant"]
        assert direct.stats.converged and block.stats.converged
        assert _relative_state_error(block.states, direct.states) < 1e-8

    def test_block_circulant_gmres_iteration_cap(self, spectral_medium):
        block = spectral_medium["block_circulant"].stats
        assert block.converged
        assert 0 < block.linear_iterations <= MAX_MEDIUM_BLOCK_CIRCULANT_GMRES_ITERATIONS, (
            "the spectral block-circulant solve should need at most "
            f"{MAX_MEDIUM_BLOCK_CIRCULANT_GMRES_ITERATIONS} GMRES iterations in total, "
            f"got {block.linear_iterations}"
        )

    def test_block_circulant_is_rebuilt_fresh_each_newton_iterate(self, spectral_medium):
        stats = spectral_medium["block_circulant"].stats
        assert stats.preconditioner_kind == "block_circulant"
        # Preconditioners are never cached: one build per solve.
        assert stats.preconditioner_builds == stats.linear_solves

    def test_block_circulant_fast_cuts_iterations_1_5x_further(self, spectral_medium):
        """The PR-4 acceptance floor: slow-axis partial averaging must cut
        total GMRES inner iterations by >= 1.5x versus the fully-averaged
        block-circulant mode on the LO-switched balanced mixer."""
        block = spectral_medium["block_circulant"].stats
        fast = spectral_medium["block_circulant_fast"].stats
        assert block.converged and fast.converged
        assert fast.linear_iterations > 0
        ratio = block.linear_iterations / fast.linear_iterations
        assert ratio >= 1.5, (
            "partially-averaged (block_circulant_fast) preconditioning should "
            "cut total GMRES inner iterations by >= 1.5x vs the fully-averaged "
            f"block-circulant mode, got {ratio:.2f}x "
            f"({block.linear_iterations} vs {fast.linear_iterations})"
        )
        assert (
            _relative_state_error(
                spectral_medium["block_circulant_fast"].states,
                spectral_medium["block_circulant"].states,
            )
            < 1e-8
        )

    def test_block_circulant_fast_stats_and_rebuild_discipline(self, spectral_medium):
        """Fresh rebuild each iterate; lazy factorisation counts surfaced."""
        stats = spectral_medium["block_circulant_fast"].stats
        assert stats.preconditioner_kind == "block_circulant_fast"
        # A stale partially-averaged factorisation costs far more iterations
        # than its rebuild saves (see the class docstring), so the mode is
        # rebuilt fresh at every Newton iterate like "block_circulant".
        assert stats.preconditioner_builds == stats.linear_solves
        # Each build lazily factors exactly n_slow // 2 + 1 harmonic systems
        # (conjugate symmetry supplies the mirrored half).
        per_build = MEDIUM_GRID[1] // 2 + 1
        assert stats.preconditioner_harmonic_builds == stats.preconditioner_builds * per_build
        # The fully-averaged mode reports zero harmonic factorisations.
        assert spectral_medium["block_circulant"].stats.preconditioner_harmonic_builds == 0

    def test_all_modes_reach_the_direct_solution(self):
        mixer = unbalanced_switching_mixer(lo_frequency=2e6, difference_frequency=50e3)
        mna = mixer.compile()
        base = dict(n_fast=16, n_slow=8, fast_method="bdf2", slow_method="bdf2")
        direct = solve_mpde(mna, mixer.scales, MPDEOptions(**base))
        for mode in ("block_circulant", "block_circulant_fast"):
            result = solve_mpde(
                mna,
                mixer.scales,
                MPDEOptions(**base, matrix_free=True, preconditioner=mode),
            )
            assert result.stats.converged, mode
            assert _relative_state_error(result.states, direct.states) < 1e-8, mode

    @pytest.mark.slow
    def test_paper_grid_acceptance(self, balanced_mixer):
        """The acceptance criterion at the paper's 40 x 30 grid, end to end."""
        mixer, mna = balanced_mixer
        # Accuracy reference: per-iterate factorisation (see spectral_small).
        direct = solve_mpde(
            mna, mixer.scales, _spectral_options(PAPER_GRID, chord_newton=False)
        )
        block = solve_mpde(
            mna,
            mixer.scales,
            _spectral_options(
                PAPER_GRID, matrix_free=True, preconditioner="block_circulant"
            ),
        )
        fast = solve_mpde(
            mna,
            mixer.scales,
            _spectral_options(
                PAPER_GRID, matrix_free=True, preconditioner="block_circulant_fast"
            ),
        )
        assert _relative_state_error(block.states, direct.states) < 1e-8
        assert _relative_state_error(fast.states, direct.states) < 1e-8
        fast_ratio = block.stats.linear_iterations / fast.stats.linear_iterations
        assert fast_ratio >= 1.5, (
            f"paper-grid partially-averaged iteration cut regressed: {fast_ratio:.2f}x"
        )


# -- wiring: HB and 1-D collocation front ends --------------------------------------


class TestAnalysisWiring:
    def test_two_tone_hb_with_block_circulant(self, scaled_ideal_mixer):
        mna = scaled_ideal_mixer.compile()
        reference = two_tone_harmonic_balance(
            mna, scaled_ideal_mixer.scales, n_harmonics_fast=2, n_harmonics_slow=2
        )
        matrix_free = two_tone_harmonic_balance(
            mna,
            scaled_ideal_mixer.scales,
            n_harmonics_fast=2,
            n_harmonics_slow=2,
            options=MPDEOptions(matrix_free=True, preconditioner="block_circulant"),
        )
        assert matrix_free.stats.preconditioner_kind == "block_circulant"
        assert matrix_free.stats.linear_iterations > 0
        ref = reference.mixing_product("out", 0, 1)
        got = matrix_free.mixing_product("out", 0, 1)
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-12)

    def test_two_tone_hb_with_block_circulant_fast(self, scaled_ideal_mixer):
        mna = scaled_ideal_mixer.compile()
        reference = two_tone_harmonic_balance(
            mna, scaled_ideal_mixer.scales, n_harmonics_fast=2, n_harmonics_slow=2
        )
        matrix_free = two_tone_harmonic_balance(
            mna,
            scaled_ideal_mixer.scales,
            n_harmonics_fast=2,
            n_harmonics_slow=2,
            options=MPDEOptions(matrix_free=True, preconditioner="block_circulant_fast"),
        )
        assert matrix_free.stats.preconditioner_kind == "block_circulant_fast"
        assert matrix_free.stats.linear_iterations > 0
        assert matrix_free.stats.preconditioner_harmonic_builds > 0
        np.testing.assert_allclose(
            matrix_free.mixing_product("out", 0, 1),
            reference.mixing_product("out", 0, 1),
            rtol=1e-6,
            atol=1e-12,
        )

    def test_collocation_pss_matrix_free_matches_direct(self, diode_rectifier):
        mna = diode_rectifier.compile()
        period = 1e-3
        direct = collocation_periodic_steady_state(mna, period, 32, method="bdf2")
        for mode in ("block_circulant", "block_circulant_fast"):
            krylov = collocation_periodic_steady_state(
                mna,
                period,
                32,
                method="bdf2",
                matrix_free=True,
                preconditioner=mode,
            )
            assert krylov.linear_iterations > 0, mode
            np.testing.assert_allclose(
                krylov.states, direct.states, rtol=1e-6, atol=1e-9
            )
        assert direct.linear_iterations == 0

    def test_collocation_pss_rejects_unknown_preconditioner(self, diode_rectifier):
        mna = diode_rectifier.compile()
        with pytest.raises(Exception, match="preconditioner"):
            collocation_periodic_steady_state(
                mna, 1e-3, 16, matrix_free=True, preconditioner="cholesky"
            )


# -- protocol / factory edges --------------------------------------------------------


class TestPreconditionerProtocol:
    def test_implementations_satisfy_protocol(self, rng):
        pattern = _random_pattern(rng, 1)
        data = rng.normal(size=(4, pattern.nnz)) + 4.0
        instances = [
            BlockCirculantPreconditioner(
                np.zeros((2, 2)), np.eye(2), np.zeros(2, dtype=complex)
            ),
            BlockCirculantFastPreconditioner(
                data, data, pattern, pattern, periodic_bdf2_difference(4, 1.0)
            ),
        ]
        for instance in instances:
            assert isinstance(instance, Preconditioner)
            assert instance.shape == (4, 4)
            operator = instance.as_operator()
            vector = np.arange(4.0)
            np.testing.assert_allclose(operator.matvec(vector), instance.solve(vector))

    def test_factory_builds_every_kind(self, balanced_mixer, rng):
        mixer, mna = balanced_mixer
        problem = MPDEProblem(mna, mixer.scales, _spectral_options(SMALL_GRID))
        x = problem.initial_guess_zero()
        _, c_data, g_data = problem.residual_and_values(x)
        for kind, expected in [
            ("block_circulant", BlockCirculantPreconditioner),
            ("block_circulant_fast", BlockCirculantFastPreconditioner),
        ]:
            built = problem.build_preconditioner(kind, c_data=c_data, g_data=g_data)
            assert isinstance(built, expected)
            assert built.shape == (problem.n_total_unknowns,) * 2

    def test_factory_rejects_unknown_kind_and_missing_data(self, balanced_mixer):
        mixer, mna = balanced_mixer
        problem = MPDEProblem(mna, mixer.scales, _spectral_options(SMALL_GRID))
        for kind in ("cholesky", "ilu"):
            with pytest.raises(MPDEError, match="unknown preconditioner"):
                problem.build_preconditioner(kind)
        with pytest.raises(MPDEError, match="block-circulant"):
            problem.build_preconditioner("block_circulant")
        with pytest.raises(MPDEError, match="block-circulant-fast"):
            problem.build_preconditioner("block_circulant_fast")
