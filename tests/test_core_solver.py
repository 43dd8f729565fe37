"""Tests for the MPDE solver and its result object (the paper's core method)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.pss_fd import collocation_periodic_steady_state
from repro.circuits import Circuit
from repro.circuits.devices import Capacitor, Resistor, VoltageSource
from repro.core import MPDEProblem, MPDESolver, ShearedTimeScales, solve_mpde
from repro.core.solver import DirectLU, _ForcingTerm
from repro.rf import (
    balanced_lo_doubling_mixer,
    difference_tone_amplitude,
    ideal_multiplier_mixer,
    unbalanced_switching_mixer,
)
from repro.signals import ModulatedCarrierStimulus, SinusoidStimulus, SumStimulus, TonePair
from repro.signals.spectrum import fourier_coefficient
from repro.utils import (
    ConvergenceError,
    MPDEError,
    MPDEOptions,
    NewtonOptions,
)


class TestLinearTwoToneRC:
    """The linear two-tone RC filter has a closed-form quasi-periodic solution."""

    f_fast = 1e6
    f_diff = 10e3
    r = 1e3
    c = 50e-9

    def _solve(self, n_fast=16, n_slow=16, fast_method="fourier", slow_method="fourier"):
        scales = ShearedTimeScales.from_frequencies(self.f_fast, self.f_fast - self.f_diff)
        ckt = Circuit("two-tone rc")
        drive = SumStimulus(
            (
                SinusoidStimulus(1.0, self.f_fast),
                ModulatedCarrierStimulus(0.5, scales.carrier_frequency),
            )
        )
        ckt.add(VoltageSource("vin", "in", ckt.GROUND, drive))
        ckt.add(Resistor("r1", "in", "out", self.r))
        ckt.add(Capacitor("c1", "out", ckt.GROUND, self.c))
        mna = ckt.compile()
        options = MPDEOptions(
            n_fast=n_fast, n_slow=n_slow, fast_method=fast_method, slow_method=slow_method
        )
        return mna, scales, solve_mpde(mna, scales, options)

    def test_surface_matches_analytic_solution(self):
        mna, scales, result = self._solve()
        surface = result.bivariate("out")
        t1, t2 = result.grid.mesh

        def transfer(freq):
            h = 1.0 / (1.0 + 2j * np.pi * freq * self.r * self.c)
            return abs(h), np.angle(h)

        mag1, ph1 = transfer(self.f_fast)
        mag2, ph2 = transfer(scales.carrier_frequency)
        expected = mag1 * np.cos(2 * np.pi * scales.fast_phase(t1) + ph1) + 0.5 * mag2 * np.cos(
            2 * np.pi * scales.carrier_phase(t1, t2) + ph2
        )
        np.testing.assert_allclose(
            surface.values, result.grid.reshape_to_grid(expected), atol=2e-6
        )

    def test_linear_circuit_converges_in_few_iterations(self):
        _, _, result = self._solve()
        assert result.stats.converged
        assert result.stats.newton_iterations <= 3
        assert not result.stats.used_continuation

    def test_diagonal_matches_direct_time_domain(self):
        """x(t) = x_hat(t, t) reproduces the steady-state superposition."""
        mna, scales, result = self._solve(n_fast=32, n_slow=32)
        times = np.linspace(0.0, 2e-6, 300)
        diag = result.diagonal_waveform("out", t_start=0.0, t_stop=2e-6, n_samples=300)

        def transfer(freq):
            h = 1.0 / (1.0 + 2j * np.pi * freq * self.r * self.c)
            return abs(h), np.angle(h)

        mag1, ph1 = transfer(self.f_fast)
        mag2, ph2 = transfer(scales.carrier_frequency)
        expected = mag1 * np.cos(2 * np.pi * self.f_fast * times + ph1) + 0.5 * mag2 * np.cos(
            2 * np.pi * scales.carrier_frequency * times + ph2
        )
        # Bilinear interpolation of the coarse grid limits the accuracy here.
        assert np.max(np.abs(diag.values - expected)) < 0.05

    def test_bdf2_and_fourier_agree_on_smooth_problem(self):
        _, scales, spectral = self._solve()
        _, _, fd = self._solve(n_fast=48, n_slow=48, fast_method="bdf2", slow_method="bdf2")
        env_spectral = spectral.baseband_envelope("out")
        env_fd = fd.baseband_envelope("out")
        a_spectral = 2 * abs(fourier_coefficient(env_spectral, self.f_diff))
        a_fd = 2 * abs(fourier_coefficient(env_fd, self.f_diff))
        # A linear circuit produces no difference tone; both must agree on ~0.
        assert a_spectral == pytest.approx(a_fd, abs=1e-3)

    def test_stats_record_problem_size(self):
        _, _, result = self._solve(n_fast=16, n_slow=12)
        assert result.stats.n_grid_points == 16 * 12
        assert result.stats.n_total_unknowns == 16 * 12 * 3
        assert result.stats.wall_time_seconds > 0.0


class TestIdealMultiplierMixer:
    """End-to-end check against the closed-form ideal mixing result of Section 2."""

    def test_difference_tone_amplitude_matches_closed_form(self, scaled_ideal_mixer):
        mix = scaled_ideal_mixer
        result = solve_mpde(mix.compile(), mix.scales, MPDEOptions(n_fast=24, n_slow=24))
        envelope = result.baseband_envelope(mix.output_pos)
        fd = mix.scales.difference_frequency
        measured = 2 * abs(fourier_coefficient(envelope, fd))
        pair = TonePair.from_frequencies(mix.lo_frequency, mix.rf_frequency)
        # Output voltage = R * gain * v_lo * v_rf; difference tone = R*gain*A1*A2/2.
        expected = 1e3 * 1e-3 * difference_tone_amplitude(pair)
        assert measured == pytest.approx(expected, rel=0.02)

    def test_full_paper_frequencies_are_feasible(self):
        """The actual 1 GHz / 10 kHz spacing of Section 2 runs in a small grid."""
        mix = ideal_multiplier_mixer()  # 1 GHz LO, 10 kHz difference
        result = solve_mpde(mix.compile(), mix.scales, MPDEOptions(n_fast=16, n_slow=16))
        envelope = result.baseband_envelope("out")
        measured = 2 * abs(fourier_coefficient(envelope, 10e3))
        assert measured == pytest.approx(0.5, rel=0.02)
        assert result.scales.disparity == pytest.approx(1e5)


class TestSolverControls:
    def test_accepts_single_state_initial_guess(self, scaled_ideal_mixer):
        mix = scaled_ideal_mixer
        mna = mix.compile()
        x0 = np.zeros(mna.n_unknowns)
        result = solve_mpde(mna, mix.scales, MPDEOptions(n_fast=12, n_slow=12), x0=x0)
        assert result.stats.converged

    def test_rejects_bad_initial_guess_size(self, scaled_ideal_mixer):
        mix = scaled_ideal_mixer
        mna = mix.compile()
        with pytest.raises(MPDEError):
            solve_mpde(mna, mix.scales, MPDEOptions(n_fast=12, n_slow=12), x0=np.zeros(17))

    @pytest.mark.parametrize("start", ["dc", "zero"])
    def test_initial_guess_modes(self, scaled_ideal_mixer, start):
        """The default DC start and a caller's all-zero ``x0`` both converge."""
        mix = scaled_ideal_mixer
        mna = mix.compile()
        x0 = mna.zero_state() if start == "zero" else None
        result = solve_mpde(mna, mix.scales, MPDEOptions(n_fast=12, n_slow=12), x0=x0)
        assert result.stats.converged

    def test_gmres_linear_solver(self, scaled_ideal_mixer):
        mix = scaled_ideal_mixer
        options = MPDEOptions(n_fast=12, n_slow=12, matrix_free=True)
        result = solve_mpde(mix.compile(), mix.scales, options)
        assert result.stats.converged
        # The default preconditioner of the matrix-free GMRES solves.
        assert result.stats.preconditioner_kind == "block_circulant_fast"

    def test_failure_without_continuation_raises(self, scaled_switching_mixer, recovery_ladder):
        """A start only the continuation rung rescues: without it the ladder fails.

        From the DC guess with a 6-iteration budget, plain Newton and the
        damping rung fail and ``preconditioner_downgrade`` does not apply.
        (``guess_retry`` is left out too: from the zero guess, 6 iterations
        are enough.)  The control solve puts ``continuation`` back.
        """
        mix = scaled_switching_mixer
        options = MPDEOptions(
            n_fast=16,
            n_slow=12,
            newton=NewtonOptions(max_iterations=6),
        )
        recovery_ladder("newton_refresh", "damping", "preconditioner_downgrade")
        with pytest.raises(ConvergenceError):
            solve_mpde(mix.compile(), mix.scales, options)
        recovery_ladder("newton_refresh", "damping", "preconditioner_downgrade", "continuation")
        result = solve_mpde(mix.compile(), mix.scales, options)
        assert result.stats.recovered_by == "continuation"

    def test_continuation_fallback_recovers(self, scaled_switching_mixer):
        """With a tiny Newton budget the solver falls back to source stepping and still converges."""
        mix = scaled_switching_mixer
        options = MPDEOptions(
            n_fast=16,
            n_slow=12,
            newton=NewtonOptions(max_iterations=6),
        )
        result = solve_mpde(mix.compile(), mix.scales, options)
        assert result.stats.converged
        assert result.stats.used_continuation
        assert result.stats.continuation_steps >= 1


class TestResultAccessors:
    @pytest.fixture(scope="class")
    def switching_result(self):
        mix = unbalanced_switching_mixer(lo_frequency=2e6, difference_frequency=50e3)
        return mix, solve_mpde(mix.compile(), mix.scales, MPDEOptions(n_fast=24, n_slow=16))

    def test_state_grid_shape(self, switching_result):
        mix, result = switching_result
        n = mix.compile().n_unknowns
        assert result.states.shape == (24, 16, n)

    def test_bivariate_surface_periods(self, switching_result):
        mix, result = switching_result
        surface = result.bivariate("out")
        assert surface.period1 == pytest.approx(mix.scales.fast_period)
        assert surface.period2 == pytest.approx(mix.scales.difference_period)

    def test_differential_surface_is_difference_of_nodes(self, switching_result):
        _, result = switching_result
        diff = result.bivariate_differential("in", "out")
        np.testing.assert_allclose(
            diff.values, result.bivariate("in").values - result.bivariate("out").values
        )

    def test_envelope_modes(self, switching_result):
        _, result = switching_result
        mean = result.baseband_envelope("out", mode="mean")
        upper = result.baseband_envelope("out", mode="max")
        lower = result.baseband_envelope("out", mode="min")
        assert np.all(upper.values >= mean.values - 1e-12)
        assert np.all(lower.values <= mean.values + 1e-12)
        with pytest.raises(MPDEError):
            result.baseband_envelope("out", mode="median")

    def test_diagonal_waveform_defaults_to_one_slow_period(self, switching_result):
        mix, result = switching_result
        diag = result.diagonal_waveform("out", n_samples=501)
        assert diag.duration == pytest.approx(mix.scales.difference_period)

    def test_diagonal_waveform_validates_span(self, switching_result):
        _, result = switching_result
        with pytest.raises(MPDEError):
            result.diagonal_waveform("out", t_start=1.0, t_stop=0.5)


class TestMPDEStatsTimingBreakdown:
    """Every solver mode populates the wall-time breakdown sensibly."""

    @pytest.fixture(scope="class")
    def mixer(self):
        mixer = unbalanced_switching_mixer(lo_frequency=2e6, difference_frequency=50e3)
        return mixer, mixer.compile()

    def _stats(self, mixer, **kwargs):
        mixer_obj, mna = mixer
        options = MPDEOptions(n_fast=16, n_slow=8, **kwargs)
        return solve_mpde(mna, mixer_obj.scales, options).stats

    def _assert_bounded(self, stats):
        total = (
            stats.eval_time_s
            + stats.factorization_time_s
            + stats.preconditioner_build_time_s
            + stats.gmres_time_s
        )
        assert 0.0 < total <= stats.wall_time_seconds

    def test_direct_chord_mode(self, mixer):
        stats = self._stats(mixer)
        assert stats.eval_time_s > 0.0
        assert stats.factorization_time_s > 0.0
        assert stats.preconditioner_build_time_s == 0.0
        assert stats.gmres_time_s == 0.0
        self._assert_bounded(stats)

    def test_direct_full_newton_mode(self, diode_rectifier):
        """The breakdown of a one-axis direct solve, which is full Newton."""
        stats = collocation_periodic_steady_state(
            diode_rectifier.compile(), 1e-3, 64
        ).stats
        assert stats.eval_time_s > 0.0 and stats.factorization_time_s > 0.0
        assert stats.preconditioner_build_time_s == 0.0 and stats.gmres_time_s == 0.0
        self._assert_bounded(stats)

    def test_matrix_free_mode(self, mixer):
        stats = self._stats(mixer, matrix_free=True, preconditioner="block_circulant_fast")
        assert stats.eval_time_s > 0.0
        assert stats.preconditioner_build_time_s > 0.0
        assert stats.gmres_time_s > 0.0
        assert stats.factorization_time_s == 0.0
        self._assert_bounded(stats)
        # The per-harmonic back-substitutions are a subdivision of the
        # GMRES bucket.
        assert 0.0 < stats.gmres_backsub_time_s <= stats.gmres_time_s


class TestForcingTerm:
    """Eisenstat–Walker choice-2 tolerances and their two guards."""

    FLOOR = 1e-9

    def _forcing(self):
        return _ForcingTerm(self.FLOOR)

    def test_first_solve_uses_eta_0(self):
        assert self._forcing().tolerance(1.0) == _ForcingTerm.ETA_0

    def test_choice_2_follows_the_residual_ratio(self):
        forcing = self._forcing()
        forcing.tolerance(1.0)
        forcing.record_step(0.5, True)
        eta = forcing.tolerance(0.1)
        assert eta == pytest.approx(_ForcingTerm.GAMMA * 0.1**_ForcingTerm.ALPHA)

    def test_eta_is_capped_at_eta_max(self):
        forcing = self._forcing()
        forcing.tolerance(1.0)
        forcing.record_step(0.9, True)
        assert forcing.tolerance(1.0) == _ForcingTerm.ETA_MAX

    def test_safeguard_keeps_eta_from_collapsing(self):
        forcing = self._forcing()
        forcing.tolerance(1.0)
        forcing.record_step(0.9, True)
        previous = forcing.tolerance(1.0)
        forcing.record_step(0.5, True)
        safeguard = _ForcingTerm.GAMMA * previous**_ForcingTerm.ALPHA
        assert safeguard > _ForcingTerm.SAFEGUARD
        assert forcing.tolerance(1e-6) == pytest.approx(safeguard)

    def test_eta_never_drops_below_the_floor(self):
        forcing = self._forcing()
        forcing.tolerance(1.0)
        forcing.record_step(0.5, True)
        assert forcing.tolerance(1e-12) == self.FLOOR

    @pytest.mark.parametrize("ratio, accepted", [(0.995, True), (0.5, False)])
    def test_stalled_step_makes_the_next_solve_tight(self, ratio, accepted):
        forcing = self._forcing()
        forcing.tolerance(1.0)
        forcing.record_step(ratio, accepted)
        assert not forcing.tight
        assert forcing.tolerance(0.5) == self.FLOOR
        forcing.record_step(0.5, True)
        assert forcing.tight


@pytest.mark.no_fault_injection
class TestInexactNewton:
    """Every GMRES solve runs at a forcing-term tolerance; direct solves are exact.

    The assertions read one fault-free Newton trajectory, so an injected
    fault (and the ladder rung that absorbs it) would break their premise.
    """

    @pytest.fixture(scope="class")
    def mixer(self):
        mixer = unbalanced_switching_mixer(lo_frequency=2e6, difference_frequency=50e3)
        return mixer, mixer.compile()

    def _solve(self, mixer, **kwargs):
        mixer_obj, mna = mixer
        return solve_mpde(mna, mixer_obj.scales, MPDEOptions(n_fast=16, n_slow=8, **kwargs))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"matrix_free": True, "preconditioner": "block_circulant_fast"},
            # A spectral fast axis: a block-dense harmonic system per build.
            {
                "matrix_free": True,
                "preconditioner": "block_circulant_fast",
                "fast_method": "fourier",
            },
            # A spectral slow axis: complex slow eigenvalues off the BDF2 circle.
            {
                "matrix_free": True,
                "preconditioner": "block_circulant_fast",
                "slow_method": "fourier",
            },
        ],
    )
    def test_gmres_tolerances_are_loose_then_end_tight(self, mixer, kwargs):
        result = self._solve(mixer, **kwargs)
        stats = result.stats
        floor = MPDESolver.GMRES_TOL
        tolerances = stats.linear_tolerance_history
        assert len(tolerances) == len(stats.linear_iteration_history) > 0
        assert min(tolerances) >= floor
        assert max(tolerances) > floor  # the forcing terms are in use
        # The run reports convergence only after a tight step.
        assert tolerances[-1] == floor

    def test_stall_guard_makes_the_next_solve_tight(self):
        # Each cheap-rebuild preconditioner solve has exactly one GMRES
        # report, so the residual and tolerance histories line up: solve k
        # starts from residual_history[k].
        mixer = balanced_lo_doubling_mixer()
        options = MPDEOptions(
            n_fast=16,
            n_slow=12,
            fast_method="fourier",
            slow_method="fourier",
            matrix_free=True,
            preconditioner="block_circulant_fast",
        )
        stats = solve_mpde(mixer.compile(), mixer.scales, options).stats
        floor = MPDESolver.GMRES_TOL
        residuals = stats.residual_history
        tolerances = stats.linear_tolerance_history
        assert len(tolerances) == len(residuals) - 1
        stalls = [
            k for k in range(1, len(tolerances)) if residuals[k] > 0.99 * residuals[k - 1]
        ]
        assert stalls, "this spectral balanced-mixer solve has stalled steps"
        for k in stalls:
            assert tolerances[k] == floor

    def test_damped_runs_use_the_forcing_terms(self, mixer):
        result = self._solve(
            mixer,
            matrix_free=True,
            preconditioner="block_circulant_fast",
            newton=NewtonOptions(damping=0.5, max_iterations=200),
        )
        floor = MPDESolver.GMRES_TOL
        tolerances = result.stats.linear_tolerance_history
        assert max(tolerances) > floor  # loose corrections
        assert tolerances[-1] == floor  # ends on a tight step
        direct = self._solve(mixer)
        np.testing.assert_allclose(result.states, direct.states, rtol=0.0, atol=1e-6)

    def test_direct_mode_has_no_tolerance_history(self, mixer):
        assert self._solve(mixer).stats.linear_tolerance_history == []

    def test_stalled_chord_run_hands_off_to_full_newton(
        self, mixer, polished_reference, monkeypatch
    ):
        # The chord iterates of this solve fall into a two-cycle at 1.1e-4;
        # the run ends there and a full-Newton retry from the initial guess,
        # one LU per step, converges.
        mixer_obj, mna = mixer
        solver = MPDESolver(
            MPDEProblem(mna, mixer_obj.scales, MPDEOptions(n_fast=16, n_slow=8))
        )
        handoffs = []
        refresh = DirectLU.refresh

        def spy(linear):
            full_newton = refresh(linear)
            if full_newton is not None:
                stats = linear.stats
                handoffs.append((stats.linear_solves, stats.jacobian_factorizations))
            return full_newton

        monkeypatch.setattr(DirectLU, "refresh", spy)
        result = solver.solve()
        stats = result.stats
        assert stats.converged and stats.recovery_trace == []
        assert len(handoffs) == 1
        # The full-Newton retry is the rest of the solve.
        steps = stats.linear_solves - handoffs[0][0]
        lus = stats.jacobian_factorizations - handoffs[0][1]
        assert 0 < steps == lus
        # The chord run before the hand-off reused its LUs.
        assert stats.jacobian_factorizations - lus < stats.linear_solves - steps
        assert stats.newton_iterations <= 15
        assert stats.jacobian_factorizations <= 15
        reference = polished_reference(result)
        error = np.max(np.abs(result.states - reference)) / np.max(np.abs(reference))
        assert error < 1e-9
