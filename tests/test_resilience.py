"""Tests for the solver resilience subsystem.

Every recovery-ladder rung, per-solve deadlines and the structured
failure diagnostics are
exercised here through the deterministic fault-injection registry
(:mod:`repro.resilience.faultinject`) — no reliance on rare real failures.

The ladder tests use a *count-walk*: each injected ``SingularMatrixError``
aborts exactly one solve attempt, so ``count=N`` deterministically selects
which rung recovers (count=1 fails only the baseline, count=2 also fails
the first rung, and so on).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis import collocation_periodic_steady_state, dc_operating_point
from repro.circuits import Circuit
from repro.circuits.devices import Capacitor, PolynomialConductance, Resistor, VoltageSource
from repro.core import MPDEProblem, MPDESolver, ShearedTimeScales, solve_mpde
from repro.core.multitone_hb import two_tone_harmonic_balance
from repro.linalg.krylov import gmres_solve
from repro.resilience import (
    Deadline,
    FaultInjected,
    FaultSpec,
    active_fault_plan,
    build_profile_specs,
    classify_failure,
    fault_site,
    gmres_stall,
    inject_faults,
    nan_evaluation,
    singular_jacobian,
)
from repro.rf import balanced_lo_doubling_mixer
from repro.scenarios import build_scenario_smoke, run_scenario, solve_case
from repro.signals import ModulatedCarrierStimulus, SinusoidStimulus, SumStimulus
from repro.utils import (
    ConfigurationError,
    ConvergenceError,
    DeadlineExceededError,
    GMRESStagnationError,
    MPDEOptions,
    NewtonOptions,
    SingularMatrixError,
)

pytestmark = pytest.mark.no_fault_injection


def _linear_rc():
    """A linear two-tone RC filter: converges in 2-3 Newton iterations.

    Because the circuit is linear, *any* retry converges, so the fault
    count alone decides which ladder rung ends up recovering the solve.
    """
    scales = ShearedTimeScales.from_frequencies(1e6, 1e6 - 10e3)
    ckt = Circuit("two-tone rc")
    drive = SumStimulus(
        (
            SinusoidStimulus(1.0, 1e6),
            ModulatedCarrierStimulus(0.5, scales.carrier_frequency),
        )
    )
    ckt.add(VoltageSource("vin", "in", ckt.GROUND, drive))
    ckt.add(Resistor("r1", "in", "out", 1e3))
    ckt.add(Capacitor("c1", "out", ckt.GROUND, 50e-9))
    return ckt.compile(), scales


def _solve_rc(count=None, spec=None, deadline_s=None, x0=None, **option_overrides):
    mna, scales = _linear_rc()
    options = MPDEOptions(n_fast=8, n_slow=8, **option_overrides)
    if spec is None and count is not None:
        spec = singular_jacobian(count=count)
    if spec is not None:
        with inject_faults(spec):
            return solve_mpde(mna, scales, options, x0=x0, deadline_s=deadline_s)
    return solve_mpde(mna, scales, options, x0=x0, deadline_s=deadline_s)


def _trace(result):
    return [(a.rung, a.outcome) for a in result.stats.recovery_trace]


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_infinite_deadline_is_a_noop(self):
        deadline = Deadline(None)
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()
        deadline.check("newton")  # must not raise

    def test_expiry_with_injected_clock(self):
        now = [100.0]
        deadline = Deadline(5.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(5.0)
        assert not deadline.expired()
        now[0] += 4.0
        deadline.check("newton")
        now[0] += 2.0
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(-1.0)
        with pytest.raises(DeadlineExceededError) as info:
            deadline.check("gmres", partial_stats={"newton_iterations": 3})
        exc = info.value
        assert exc.stage == "gmres"
        assert exc.deadline_s == pytest.approx(5.0)
        assert exc.elapsed_s == pytest.approx(6.0)
        assert exc.partial_stats == {"newton_iterations": 3}
        assert "gmres" in str(exc)


# ---------------------------------------------------------------------------
# Failure taxonomy
# ---------------------------------------------------------------------------


class TestClassifyFailure:
    def test_known_exception_kinds(self):
        assert classify_failure(ConvergenceError("x")) == "divergence"
        assert classify_failure(SingularMatrixError("x")) == "singular"
        assert classify_failure(GMRESStagnationError("x")) == "gmres_stagnation"
        assert classify_failure(DeadlineExceededError("x")) == "deadline"
        assert classify_failure(OverflowError("x")) == "non_finite"
        assert classify_failure(FaultInjected("x")) == "unknown"
        assert classify_failure(RuntimeError("x")) == "unknown"

    def test_stagnation_stays_catchable_as_singular(self):
        """Existing ``except SingularMatrixError`` handlers must keep working."""
        assert issubclass(GMRESStagnationError, SingularMatrixError)
        # ...but classification is by the most specific type first.
        assert classify_failure(GMRESStagnationError("x")) == "gmres_stagnation"


# ---------------------------------------------------------------------------
# Fault-injection registry
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_no_plan_is_a_noop(self):
        assert active_fault_plan() is None
        fault_site("solver.linear_solve", iteration=0)  # must not raise

    def test_count_caps_firings(self):
        fired = []
        spec = FaultSpec(site="s", action=lambda ctx: fired.append(ctx), count=2)
        with inject_faults(spec):
            for i in range(5):
                fault_site("s", i=i)
        assert [ctx["i"] for ctx in fired] == [0, 1]
        assert spec.calls == 5 and spec.fired == 2

    def test_at_call_delays_the_first_firing(self):
        fired = []
        spec = FaultSpec(
            site="s", action=lambda ctx: fired.append(ctx["i"]), at_call=3, count=None
        )
        with inject_faults(spec):
            for i in range(5):
                fault_site("s", i=i)
        assert fired == [2, 3, 4]

    def test_predicate_rejections_do_not_advance_calls(self):
        spec = FaultSpec(
            site="s",
            action=lambda ctx: None,
            at_call=2,
            predicate=lambda ctx: ctx["i"] % 2 == 0,
        )
        with inject_faults(spec):
            for i in range(4):  # matching visits: i=0, i=2
                fault_site("s", i=i)
        assert spec.calls == 2 and spec.fired == 1

    def test_plans_replace_and_restore(self):
        outer = FaultSpec(site="s", action=lambda ctx: None, count=None)
        inner = FaultSpec(site="s", action=lambda ctx: None, count=None)
        with inject_faults(outer) as outer_plan:
            fault_site("s")
            with inject_faults(inner) as inner_plan:
                assert active_fault_plan() is inner_plan
                fault_site("s")
            assert active_fault_plan() is outer_plan
            fault_site("s")
        assert active_fault_plan() is None
        assert outer.fired == 2 and inner.fired == 1

    def test_build_profile_specs_known_profiles(self):
        specs = build_profile_specs("cache_build, gmres_stall,singular_jacobian")
        assert [s.site for s in specs] == [
            "service.cache_build",
            "solver.gmres",
            "solver.linear_solve",
        ]
        # Fresh objects with zeroed counters on every call.
        again = build_profile_specs("cache_build")
        assert again[0] is not specs[0]
        assert again[0].calls == 0 and again[0].fired == 0

    def test_build_profile_specs_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            build_profile_specs("gmres_stall,typo_profile")
        assert build_profile_specs("") == ()

    def test_threaded_visits_keep_counters_exact(self):
        """Regression: ``calls``/``fired`` raced under concurrent visits.

        The simulation service visits fault sites from concurrent worker
        threads; before the per-spec lock, the unsynchronised ``+=``
        bookkeeping could lose visits or fire a ``count``-capped fault more
        than ``count`` times.
        """
        import sys
        import threading

        n_threads, visits_each, cap = 16, 400, 7
        fired: list[int] = []
        spec = FaultSpec(
            site="s",
            action=lambda ctx: fired.append(ctx["t"]),
            at_call=3,
            count=cap,
        )
        barrier = threading.Barrier(n_threads)

        def visit_many(t: int) -> None:
            barrier.wait()
            for _ in range(visits_each):
                fault_site("s", t=t)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # maximise preemption between bytecodes
        try:
            with inject_faults(spec):
                threads = [
                    threading.Thread(target=visit_many, args=(t,))
                    for t in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert spec.calls == n_threads * visits_each
        assert spec.fired == cap
        assert len(fired) == cap


# ---------------------------------------------------------------------------
# GMRES stagnation detector
# ---------------------------------------------------------------------------

_IDENTITY_40 = spla.LinearOperator((40, 40), matvec=lambda v: v, dtype=float)


class TestGMRESStagnation:
    """Stuck (no progress over a restart cycle) vs merely slow solves."""

    def _permutation_system(self):
        # GMRES on a cyclic permutation matrix with rhs = e1 makes *zero*
        # residual progress until the full Krylov space is built: the
        # canonical stuck solve.
        n = 40
        matrix = sp.eye(n, format="csr")[list(range(1, n)) + [0], :]
        rhs = np.zeros(n)
        rhs[0] = 1.0
        return matrix, rhs

    def test_stuck_solve_is_flagged_stagnated(self):
        matrix, rhs = self._permutation_system()
        _, report = gmres_solve(
            matrix, rhs, preconditioner=_IDENTITY_40, restart=10, maxiter=3,
            raise_on_failure=False,
        )
        assert not report.converged
        assert report.stagnated

    def test_stuck_solve_raises_stagnation_error(self):
        matrix, rhs = self._permutation_system()
        with pytest.raises(GMRESStagnationError, match="stagnated"):
            gmres_solve(matrix, rhs, preconditioner=_IDENTITY_40, restart=10, maxiter=3)

    def test_slow_but_progressing_solve_is_not_stagnated(self):
        # A spread-spectrum diagonal under an impossible tolerance: the
        # solve fails by budget but the residual keeps shrinking.
        matrix = sp.diags(np.logspace(0, 6, 40)).tocsr()
        rhs = np.ones(40)
        _, report = gmres_solve(
            matrix, rhs, preconditioner=_IDENTITY_40, restart=10, maxiter=3,
            tol=1e-30, raise_on_failure=False,
        )
        assert not report.converged
        assert not report.stagnated

    def test_short_solve_never_counts_as_stagnated(self):
        # A flat residual over no more than one restart cycle is "slow",
        # not "stuck": the detector needs a full cycle of history *beyond*
        # the comparison point before it may flag stagnation.
        n = 100
        matrix = sp.eye(n, format="csr")[list(range(1, n)) + [0], :]
        rhs = np.zeros(n)
        rhs[0] = 1.0
        identity = spla.LinearOperator((n, n), matvec=lambda v: v, dtype=float)
        _, report = gmres_solve(
            matrix, rhs, preconditioner=identity, restart=80, maxiter=1,
            raise_on_failure=False,
        )
        assert not report.converged
        assert report.iterations == 80  # exactly one cycle of flat residual
        assert not report.stagnated

    def test_deadline_aborts_gmres_at_iteration_boundary(self):
        matrix = sp.diags(np.logspace(0, 6, 40)).tocsr()
        with pytest.raises(DeadlineExceededError) as info:
            gmres_solve(
                matrix,
                np.ones(40),
                preconditioner=_IDENTITY_40,
                deadline=Deadline(1e-12),
            )
        assert info.value.stage == "gmres"


# ---------------------------------------------------------------------------
# Recovery escalation ladder (MPDE solver)
# ---------------------------------------------------------------------------


class TestRecoveryLadder:
    def test_clean_solve_records_no_trace(self):
        result = _solve_rc()
        assert result.stats.converged
        assert result.stats.recovery_trace == []
        assert result.stats.recovered_by == ""

    def test_count1_recovers_via_newton_refresh(self):
        reference = _solve_rc()
        result = _solve_rc(count=1)
        assert result.stats.converged
        assert result.stats.recovered_by == "newton_refresh"
        assert _trace(result) == [("baseline", "failed"), ("newton_refresh", "recovered")]
        assert result.stats.recovery_trace[-1].trigger == "singular"
        np.testing.assert_allclose(
            result.bivariate("out").values, reference.bivariate("out").values, atol=1e-9
        )

    def test_count2_escalates_to_damping(self):
        result = _solve_rc(count=2)
        assert result.stats.recovered_by == "damping"
        assert _trace(result) == [
            ("baseline", "failed"),
            ("newton_refresh", "failed"),
            ("damping", "recovered"),
        ]
        assert "damping" in result.stats.recovery_trace[-1].detail

    def test_count3_escalates_to_continuation(self):
        result = _solve_rc(count=3)
        assert result.stats.recovered_by == "continuation"
        assert result.stats.used_continuation
        assert result.stats.continuation_steps >= 1
        # The direct solver has no preconditioner to downgrade: that rung
        # must be recorded as skipped, not silently dropped.
        assert ("preconditioner_downgrade", "skipped") in _trace(result)

    def test_count4_escalates_to_guess_retry(self):
        result = _solve_rc(count=4)
        assert result.stats.recovered_by == "guess_retry"
        assert _trace(result)[-1] == ("guess_retry", "recovered")
        assert "zero" in result.stats.recovery_trace[-1].detail

    def test_exhausted_ladder_raises_with_diagnostics(self):
        with pytest.raises(SingularMatrixError, match="injected") as info:
            _solve_rc(count=5)
        diagnostics = getattr(info.value, "diagnostics", None)
        assert diagnostics is not None
        assert diagnostics.failure_kind == "singular"
        assert diagnostics.dominant_unknowns  # localised to named unknowns

    def test_empty_ladder_raises_the_first_failure(self, recovery_ladder):
        recovery_ladder()
        with pytest.raises(SingularMatrixError, match="injected") as info:
            _solve_rc(count=1)
        assert info.value.partial_stats.recovery_trace[0].rung == "baseline"

    def test_restricted_ladder_goes_straight_to_continuation(self, recovery_ladder):
        recovery_ladder("continuation")
        result = _solve_rc(count=1)
        assert result.stats.recovered_by == "continuation"
        assert _trace(result) == [("baseline", "failed"), ("continuation", "recovered")]

    def test_inapplicable_rung_is_recorded_as_skipped(self, recovery_ladder):
        # The direct solver has no preconditioner to downgrade.
        recovery_ladder("preconditioner_downgrade")
        with pytest.raises(SingularMatrixError) as info:
            _solve_rc(count=1)
        trace = info.value.partial_stats.recovery_trace
        assert [(a.rung, a.outcome) for a in trace] == [
            ("baseline", "failed"),
            ("preconditioner_downgrade", "skipped"),
        ]

    def test_divergence_skips_refresh_and_uses_damping_budget(self):
        # A divergence failure (not singular) must skip newton_refresh: a
        # cache refresh cannot help a solve that ran out of budget.
        diverge = FaultSpec(
            site="solver.linear_solve",
            action=lambda ctx: (_ for _ in ()).throw(
                ConvergenceError("injected divergence")
            ),
            count=1,
        )
        result = _solve_rc(spec=diverge)
        assert result.stats.recovered_by == "damping"
        assert _trace(result) == [
            ("baseline", "failed"),
            ("newton_refresh", "skipped"),
            ("damping", "recovered"),
        ]
        assert result.stats.recovery_trace[-1].trigger == "divergence"


class TestRecoveryLadderGMRES:
    def test_injected_stall_recovers_via_refresh(self):
        result = _solve_rc(
            spec=gmres_stall(site="solver.gmres", count=1),
            matrix_free=True,
        )
        assert result.stats.converged
        assert result.stats.recovered_by == "newton_refresh"
        trace = result.stats.recovery_trace
        assert trace[0].rung == "baseline"
        assert trace[-1].trigger == "gmres_stagnation"
        # Matrix-free solves have no cached factorisation: the trace says
        # the rung only re-solved.
        assert trace[-1].detail.startswith("re-solved from the start point")

    def test_broken_preconditioner_downgrades_one_step(self, recovery_ladder):
        broken = FaultSpec(
            site="preconditioner.build",
            action=lambda ctx: (_ for _ in ()).throw(
                SingularMatrixError("injected preconditioner build failure")
            ),
            predicate=lambda ctx: ctx.get("kind") == "block_circulant_fast",
            count=None,  # this mode is broken for the whole solve
        )
        recovery_ladder("preconditioner_downgrade")
        result = _solve_rc(
            spec=broken,
            matrix_free=True,
            preconditioner="block_circulant_fast",
        )
        assert result.stats.recovered_by == "preconditioner_downgrade"
        # One step: the rung re-solves with sparse direct LU.
        assert _trace(result) == [
            ("baseline", "failed"),
            ("preconditioner_downgrade", "recovered"),
        ]
        assert result.stats.jacobian_factorizations > 0
        detail = result.stats.recovery_trace[-1].detail
        assert "block_circulant_fast -> direct LU" in detail
        direct = _solve_rc()
        np.testing.assert_allclose(result.states, direct.states, rtol=0.0, atol=1e-9)

    @pytest.mark.no_fault_injection  # arms its own plan for the first solve only
    def test_downgrade_lasts_one_solve(self, recovery_ladder):
        """A solver whose matrix-free solve was downgraded to direct LU runs
        its next solve matrix-free again."""
        broken = FaultSpec(
            site="preconditioner.build",
            action=lambda ctx: (_ for _ in ()).throw(
                SingularMatrixError("injected preconditioner build failure")
            ),
            count=None,
        )
        recovery_ladder("preconditioner_downgrade")
        mna, scales = _linear_rc()
        options = MPDEOptions(n_fast=8, n_slow=8, matrix_free=True)
        solver = MPDESolver(MPDEProblem(mna, scales, options))
        with inject_faults(broken):
            downgraded = solver.solve()
        assert downgraded.stats.recovered_by == "preconditioner_downgrade"
        assert downgraded.stats.jacobian_factorizations > 0
        again = solver.solve()
        assert again.stats.recovery_trace == []
        assert again.stats.jacobian_factorizations == 0
        assert again.stats.preconditioner_builds > 0


class TestBalancedMixerAcceptance:
    """The ISSUE acceptance scenario: the paper's balanced mixer recovers
    from a Jacobian going singular at the third Newton iterate."""

    def test_singular_jacobian_at_iterate_2_recovers(self):
        mix = balanced_lo_doubling_mixer()
        options = MPDEOptions(n_fast=32, n_slow=24)
        with inject_faults(singular_jacobian(at_iteration=2, count=1)):
            result = solve_mpde(mix.compile(), mix.scales, options)
        stats = result.stats
        assert stats.converged
        assert stats.recovered_by != ""
        recovered = [a for a in stats.recovery_trace if a.outcome == "recovered"]
        assert len(recovered) == 1
        assert recovered[0].rung == stats.recovered_by
        assert stats.recovery_trace[0].rung == "baseline"
        assert stats.recovery_trace[0].outcome == "failed"
        # The recovered solution is physical: outputs inside the rails.
        outp = result.bivariate("outp")
        assert 0.0 < outp.values.min() and outp.values.max() < 3.0


class TestCollocationPSSRecovery:
    """Collocation PSS runs on the MPDE solver, so it walks the same ladder."""

    def test_singular_jacobian_recovers_through_the_ladder(self, diode_rectifier):
        mna = diode_rectifier.compile()
        # A tight residual tolerance pins both solves to the same discrete
        # solution, whichever rung (and damping) produced the recovered one.
        options = MPDEOptions(newton=NewtonOptions(max_iterations=100, abstol=1e-12))
        reference = collocation_periodic_steady_state(mna, 1e-3, 41, options=options)
        with inject_faults(singular_jacobian(count=1)):
            result = collocation_periodic_steady_state(mna, 1e-3, 41, options=options)
        assert reference.stats.recovered_by == ""
        assert result.stats.recovered_by != ""
        assert result.stats.recovery_trace[0].rung == "baseline"
        assert result.stats.recovery_trace[0].outcome == "failed"
        np.testing.assert_allclose(result.states, reference.states, rtol=0.0, atol=1e-9)

    def test_one_shot_fault_is_absorbed_by_newton_refresh(self):
        """A direct one-axis solve re-runs its baseline on a transient fault.

        It refactors at every iterate, so the rung has nothing to drop; the
        re-run from the same start absorbs the fault at about the clean
        Newton count, where the damping rung took 76 steps against 7.
        """
        case = build_scenario_smoke("frequency_doubler").cases[0]
        assert case.analysis == "pss"
        clean = solve_case(case)
        with inject_faults(singular_jacobian(count=1)):
            faulted = solve_case(case)
        assert faulted.stats.recovered_by == "newton_refresh"
        assert [(a.rung, a.outcome) for a in faulted.stats.recovery_trace] == [
            ("baseline", "failed"),
            ("newton_refresh", "recovered"),
        ]
        assert faulted.stats.recovery_trace[-1].detail.startswith(
            "re-solved from the start point"
        )
        assert faulted.stats.newton_iterations <= 2 * clean.stats.newton_iterations
        np.testing.assert_array_equal(faulted.states, clean.states)

    def test_exhausted_newton_budget_recovers_through_the_ladder(self):
        ckt = Circuit("cubic")
        ckt.add(VoltageSource("vin", "a", ckt.GROUND, SinusoidStimulus(1.0, 1e3)))
        ckt.add(PolynomialConductance("gnl", "a", "b", [1e-3, 0.0, 1e-3]))
        ckt.add(Resistor("rload", "b", ckt.GROUND, 1.0))
        mna = ckt.compile()
        reference = collocation_periodic_steady_state(mna, 1e-3, 41)
        assert reference.newton_iterations > 2
        result = collocation_periodic_steady_state(
            mna, 1e-3, 41, options=MPDEOptions(newton=NewtonOptions(max_iterations=2))
        )
        assert result.stats.converged
        assert result.stats.recovered_by != ""
        assert result.stats.recovery_trace[0].trigger == ""
        assert result.stats.recovery_trace[1].trigger == "divergence"
        np.testing.assert_allclose(result.states, reference.states, rtol=0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# Per-solve deadlines (integration)
# ---------------------------------------------------------------------------


def _steady_state_front_end(front_end: str):
    """One steady-state front end as ``(solve(deadline_s), grid point count)``."""
    mna, scales = _linear_rc()
    if front_end == "solve_mpde":
        return (
            lambda deadline_s: solve_mpde(
                mna, scales, MPDEOptions(n_fast=8, n_slow=8), deadline_s=deadline_s
            ),
            8 * 8,
        )
    if front_end == "two_tone_harmonic_balance":
        return (
            lambda deadline_s: two_tone_harmonic_balance(
                mna, scales, n_harmonics_fast=1, n_harmonics_slow=1, deadline_s=deadline_s
            ),
            # OVERSAMPLING (2) times 2 * 1 + 1 harmonics on each axis.
            (2 * 3) * (2 * 3),
        )
    if front_end == "collocation_periodic_steady_state":
        return (
            lambda deadline_s: collocation_periodic_steady_state(
                mna, scales.fast_period, 16, deadline_s=deadline_s
            ),
            16,
        )
    scenario = build_scenario_smoke("frequency_doubler")
    case = scenario.cases[0]
    assert case.analysis == "pss"  # one axis: the case's fast grid
    if front_end == "solve_case":
        return (lambda deadline_s: solve_case(case, deadline_s=deadline_s)), case.grid[0]
    return (
        lambda deadline_s: run_scenario(scenario, first_case_only=True, deadline_s=deadline_s),
        case.grid[0],
    )


_FRONT_ENDS = (
    "solve_mpde",
    "two_tone_harmonic_balance",
    "collocation_periodic_steady_state",
    "solve_case",
    "run_scenario",
)


class TestSolveDeadlines:
    @pytest.mark.parametrize("front_end", _FRONT_ENDS)
    def test_expired_deadline_carries_partial_stats(self, front_end):
        solve, n_grid_points = _steady_state_front_end(front_end)
        with pytest.raises(DeadlineExceededError) as info:
            solve(1e-9)
        exc = info.value
        assert exc.partial_stats is not None
        # The partial stats describe the problem that was actually set up.
        assert exc.partial_stats.n_grid_points == n_grid_points
        assert not exc.partial_stats.converged
        assert exc.stage  # names the loop that observed the expiry
        assert exc.checkpoint is not None  # the state before the first step

    @pytest.mark.parametrize("front_end", _FRONT_ENDS)
    @pytest.mark.parametrize("deadline_s", [0.0, -1.0])
    def test_non_positive_deadline_is_rejected(self, front_end, deadline_s):
        solve, _ = _steady_state_front_end(front_end)
        with pytest.raises(ConfigurationError, match="deadline_s"):
            solve(deadline_s)

    def test_dc_deadline_checked_between_strategies(self, nmos_amplifier):
        mna = nmos_amplifier.compile()
        # Force plain Newton to fail so the analysis reaches the first
        # between-strategy deadline checkpoint.
        with inject_faults(singular_jacobian(site="newton.linear_solve", count=1)):
            with pytest.raises(DeadlineExceededError) as info:
                dc_operating_point(mna, deadline_s=1e-9)
        assert "gmin" in info.value.stage


# ---------------------------------------------------------------------------
# DC analysis resilience (satellite)
# ---------------------------------------------------------------------------


class TestDCRecovery:
    def test_gmin_stepping_recovers_from_singular_jacobian(self, nmos_amplifier):
        mna = nmos_amplifier.compile()
        reference = dc_operating_point(mna)
        with inject_faults(singular_jacobian(site="newton.linear_solve", count=1)):
            solution = dc_operating_point(mna)
        assert solution.strategy in ("gmin-stepping", "source-stepping")
        np.testing.assert_allclose(solution.x, reference.x, atol=1e-4)

    def test_terminal_dc_failure_carries_diagnostics(self, nmos_amplifier):
        mna = nmos_amplifier.compile()
        with inject_faults(
            singular_jacobian(site="newton.linear_solve", count=None)
        ):
            with pytest.raises(ConvergenceError, match="all diverged") as info:
                dc_operating_point(mna)
        diagnostics = getattr(info.value, "diagnostics", None)
        assert diagnostics is not None
        assert diagnostics.failure_kind == "divergence"
        assert diagnostics.dominant_unknowns
        assert "kind=divergence" in diagnostics.summary()


# ---------------------------------------------------------------------------
# Structured diagnostics
# ---------------------------------------------------------------------------


class TestFailureDiagnostics:
    def test_nan_poisoning_is_localised_to_named_unknowns(self, recovery_ladder):
        # Empty ladder: the poisoned baseline failure is terminal, and the
        # post-mortem re-evaluation sees the same NaN.
        recovery_ladder()
        with pytest.raises(SingularMatrixError) as info:
            _solve_rc(
                spec=nan_evaluation(count=None),
                x0=_linear_rc()[0].zero_state(),  # keep the DC guess solve out of the blast radius
            )
        diagnostics = getattr(info.value, "diagnostics", None)
        assert diagnostics is not None
        assert diagnostics.non_finite_unknowns
        names = [name for name, _hits in diagnostics.non_finite_unknowns]
        mna, _scales = _linear_rc()
        assert set(names) <= set(mna.unknown_names)
        assert diagnostics.suspect_devices  # mapped back to device instances
        assert "non-finite at" in diagnostics.summary()
        assert diagnostics.grid_shape == (64, 3)

    def test_matrix_free_nan_residual_fails_like_direct(self, recovery_ladder):
        # A NaN residual must not send GMRES through its whole iteration
        # budget: the matrix-free solve fails at once, as the direct one
        # does (the deadline only bounds the test if that regresses).
        recovery_ladder()
        with pytest.raises(SingularMatrixError) as info:
            _solve_rc(
                spec=nan_evaluation(count=None),
                x0=_linear_rc()[0].zero_state(),
                matrix_free=True,
                preconditioner="block_circulant_fast",
                deadline_s=60.0,
            )
        assert "non-finite" in str(info.value)
        assert info.value.diagnostics.non_finite_unknowns

    def test_residual_row_owners_names_stamping_devices(self):
        mna, _scales = _linear_rc()
        owners = mna.residual_row_owners()
        assert len(owners) == mna.n_unknowns
        out_row = mna.unknown_names.index("v(out)")
        assert {"r1", "c1"} <= set(owners[out_row])
