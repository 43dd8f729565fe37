"""Crash-consistent checkpoint/resume (the PR-8 tentpole, part 2).

The contract under test (see ``src/repro/resilience/checkpoint.py``):

* **Consistency** — checkpoints snapshot accepted iteration boundaries
  only; persistence is write-temporary + atomic rename; a corrupt or
  truncated file raises :class:`~repro.utils.exceptions.CheckpointError`,
  never garbage.
* **Identity** — a checkpoint carries a fingerprint of the solve it
  belongs to; resuming into a different circuit/grid/discretisation is a
  :class:`CheckpointError`, never a silently wrong answer.
* **Bitwise resume** — a deadline-interrupted direct-mode or matrix-free
  solve (either preconditioner kind), resumed via ``resume_from=`` (in memory or
  from a persisted ``.npz``), lands on exactly the iterate trajectory of the
  uninterrupted solve: the final states match **bit for bit** for MPDE,
  collocation PSS and two-tone HB.
* **Failures carry progress** — deadline expiries *and* exhausted-ladder
  terminal failures expose the latest checkpoint on ``exc.checkpoint``.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import replace

import numpy as np
import pytest

import repro.core.solver as solver_mod
from repro.analysis.pss_fd import collocation_periodic_steady_state
from repro.core import MPDESolver, solve_mpde
from repro.core.multitone_hb import two_tone_harmonic_balance
from repro.resilience import SolveCheckpoint, inject_faults, singular_jacobian, solve_fingerprint
from repro.rf import gilbert_cell_mixer
from repro.scenarios import build_scenario_smoke, scenario_names, solve_case
from repro.utils import (
    CheckpointError,
    DeadlineExceededError,
    MPDEOptions,
    SingularMatrixError,
)

from test_resilience import _linear_rc

pytestmark = pytest.mark.no_fault_injection

_OPTIONS = MPDEOptions(n_fast=8, n_slow=8)


def _gilbert():
    """Nonlinear two-tone problem whose chord-mode solve converges inside a
    single main Newton run (~13 iterations on the 8x8 grid) — enough
    trajectory for a counting deadline to split, without tripping the
    budget-exhaustion chord fallback (whose retry stage is budget-relative
    and therefore not a bitwise-resumable trajectory)."""
    mix = gilbert_cell_mixer(lo_frequency=2e6, difference_frequency=50e3)
    return mix.circuit.compile(), mix.scales


class _CountingDeadline:
    """Deadline double that expires after a fixed number of ``check`` calls.

    Wall-clock deadlines cannot split a solve at a *deterministic* Newton
    iteration; counting checks can.  A budget of ``None`` (the solver's
    idle ``Deadline(None)``) never expires, mirroring the real class.
    """

    #: Check budget for the next constructed instance (class-level so the
    #: solver's internal construction picks it up).
    budget = 3

    def __init__(self, seconds, *, clock=None):
        self.seconds = seconds
        self._checks = 0

    def elapsed(self) -> float:
        return 0.0

    def remaining(self) -> float:
        return float("inf")

    def expired(self) -> bool:
        return False

    def check(self, stage: str, *, partial_stats=None) -> None:
        if self.seconds is None:
            return
        self._checks += 1
        if self._checks > type(self).budget:
            raise DeadlineExceededError(
                f"injected deadline expiry (at {stage} boundary)",
                deadline_s=float(self.seconds),
                elapsed_s=0.0,
                stage=stage,
                partial_stats=partial_stats,
            )


@pytest.fixture
def counting_deadline(monkeypatch):
    """Patch the MPDE solver's Deadline; yields the class to tune ``budget``."""
    monkeypatch.setattr(solver_mod, "Deadline", _CountingDeadline)
    _CountingDeadline.budget = 3
    yield _CountingDeadline
    monkeypatch.undo()


def _interrupt(mna, scales, options, budget=3, checkpoint_path=None):
    """Run a solve to its injected deadline; return the carried checkpoint."""
    _CountingDeadline.budget = budget
    with pytest.raises(DeadlineExceededError) as info:
        solve_mpde(mna, scales, options, deadline_s=60.0, checkpoint_path=checkpoint_path)
    checkpoint = info.value.checkpoint
    assert checkpoint is not None
    assert checkpoint.stage == "newton"
    assert info.value.partial_stats is not None
    return checkpoint


class TestFingerprint:
    def test_is_order_insensitive(self):
        assert solve_fingerprint("mpde", a=1, b=2.5) == solve_fingerprint(
            "mpde", b=2.5, a=1
        )

    def test_distinguishes_kind_and_parts(self):
        base = solve_fingerprint("mpde", n_fast=8)
        assert solve_fingerprint("pss", n_fast=8) != base
        assert solve_fingerprint("mpde", n_fast=16) != base


class TestPersistence:
    def _checkpoint(self, **overrides):
        fields = dict(
            fingerprint="f" * 64,
            stage="newton",
            iterate=np.linspace(0.0, 1.0, 7),
            newton_iterations=4,
            residual_norm=1.25e-7,
            chord_state={
                "factored_at": np.arange(7.0),
                "baseline": 3,
                "last": 5,
                "just_built": False,
                "stale": True,
                "recent_ratios": [0.5, 0.25],
            },
            forcing_state={
                "previous_norm": 3.5e-4,
                "eta": 0.125,
                "force_tight": True,
                "tight": False,
            },
            recovery_trace=[{"rung": "baseline", "outcome": "failed"}],
            stats={"newton_iterations": 4},
        )
        fields.update(overrides)
        return SolveCheckpoint(**fields)

    def test_roundtrip_preserves_every_field(self, tmp_path):
        path = tmp_path / "solve.npz"
        original = self._checkpoint()
        original.save(path)
        loaded = SolveCheckpoint.load(path)
        assert loaded.fingerprint == original.fingerprint
        assert loaded.stage == original.stage
        np.testing.assert_array_equal(loaded.iterate, original.iterate)
        assert loaded.newton_iterations == original.newton_iterations
        assert loaded.residual_norm == original.residual_norm
        np.testing.assert_array_equal(
            loaded.chord_state["factored_at"], original.chord_state["factored_at"]
        )
        for key in ("baseline", "last", "just_built", "stale", "recent_ratios"):
            assert loaded.chord_state[key] == original.chord_state[key]
        assert loaded.forcing_state == original.forcing_state
        assert loaded.recovery_trace == original.recovery_trace
        assert loaded.stats == original.stats

    def test_roundtrip_without_chord_state(self, tmp_path):
        path = tmp_path / "solve.npz"
        self._checkpoint(chord_state=None, forcing_state=None).save(path)
        loaded = SolveCheckpoint.load(path)
        assert loaded.chord_state is None
        assert loaded.forcing_state is None

    def test_save_leaves_no_temporary_behind(self, tmp_path):
        path = tmp_path / "solve.npz"
        self._checkpoint().save(path)
        self._checkpoint().save(path)  # overwrite is atomic, not append
        assert sorted(p.name for p in tmp_path.iterdir()) == ["solve.npz"]

    def test_corrupt_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "solve.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(CheckpointError, match="corrupt"):
            SolveCheckpoint.load(path)

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            SolveCheckpoint.load(tmp_path / "never-written.npz")

    def test_truncated_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "solve.npz"
        self._checkpoint().save(path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError):
            SolveCheckpoint.load(path)

    def test_fingerprint_mismatch_raises(self):
        checkpoint = self._checkpoint()
        checkpoint.validate("f" * 64)  # matching fingerprint passes
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            checkpoint.validate("0" * 64)


class TestStatsSnapshot:
    @pytest.mark.parametrize("matrix_free", [False, True])
    def test_snapshot_equals_asdict_and_stays_put(self, monkeypatch, matrix_free):
        """Each checkpoint's ``stats`` is ``asdict(stats)`` at its iterate, and
        the live stats lists growing afterwards leaves it unchanged."""
        recorded = []
        record = solver_mod.MPDESolver._record_checkpoint

        def spy(self, x, stats, residual_norm, linear):
            record(self, x, stats, residual_norm, linear)
            assert self._checkpoint.stats == dataclasses.asdict(stats)
            recorded.append((self._checkpoint.stats, copy.deepcopy(self._checkpoint.stats)))

        monkeypatch.setattr(solver_mod.MPDESolver, "_record_checkpoint", spy)
        mna, scales = _linear_rc()
        with inject_faults(singular_jacobian(count=1)):
            result = solve_mpde(mna, scales, replace(_OPTIONS, matrix_free=matrix_free))
        assert result.stats.recovered_by
        assert any(snapshot["recovery_trace"] for snapshot, _ in recorded)
        assert len(recorded[-1][0]["residual_history"]) > len(recorded[0][0]["residual_history"])
        result.stats.residual_history.append(0.0)
        result.stats.recovery_trace.append(result.stats.recovery_trace[0])
        for snapshot, at_record in recorded:
            assert snapshot == at_record


class TestMPDEResume:
    def test_deadline_split_solve_is_bitwise(self, counting_deadline):
        mna, scales = _gilbert()
        reference = solve_mpde(mna, scales, _OPTIONS)
        checkpoint = _interrupt(mna, scales, _OPTIONS)
        assert checkpoint.newton_iterations < reference.stats.newton_iterations
        resumed = solve_mpde(mna, scales, _OPTIONS, resume_from=checkpoint)
        np.testing.assert_array_equal(resumed.states, reference.states)
        assert resumed.stats.newton_iterations < reference.stats.newton_iterations

    def test_resume_from_persisted_path_is_bitwise(self, counting_deadline, tmp_path):
        mna, scales = _gilbert()
        path = tmp_path / "mpde.npz"
        reference = solve_mpde(mna, scales, _OPTIONS)
        _interrupt(mna, scales, _OPTIONS, checkpoint_path=str(path))
        assert path.exists()
        resumed = solve_mpde(mna, scales, _OPTIONS, resume_from=str(path))
        np.testing.assert_array_equal(resumed.states, reference.states)

    def test_checkpoint_path_kwarg_persists_during_success(self, tmp_path):
        mna, scales = _linear_rc()
        path = tmp_path / "mpde.npz"
        result = solve_mpde(mna, scales, _OPTIONS, checkpoint_path=path)
        assert result.stats.converged
        final = SolveCheckpoint.load(path)
        # The last persisted snapshot is the converged trajectory's tail:
        # resuming from it reproduces the answer immediately.
        resumed = solve_mpde(mna, scales, _OPTIONS, resume_from=final)
        np.testing.assert_array_equal(resumed.states, result.states)

    def test_mismatched_options_refuse_to_resume(self, counting_deadline):
        mna, scales = _gilbert()
        checkpoint = _interrupt(mna, scales, _OPTIONS)
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            solve_mpde(
                mna, scales, _OPTIONS.with_grid(12, 8), resume_from=checkpoint
            )

    def test_full_newton_mode_resumes_bitwise(self, counting_deadline, diode_rectifier):
        """A one-axis problem refactors every step, so it checkpoints no LU
        state: the iterate alone carries the trajectory."""
        mna = diode_rectifier.compile()

        def solve(**kwargs):
            return collocation_periodic_steady_state(mna, 1e-3, 64, **kwargs)

        reference = solve()
        counting_deadline.budget = 4
        with pytest.raises(DeadlineExceededError) as info:
            solve(deadline_s=60.0)
        checkpoint = info.value.checkpoint
        assert 0 < checkpoint.newton_iterations < reference.stats.newton_iterations
        assert checkpoint.chord_state is None
        resumed = solve(resume_from=checkpoint)
        np.testing.assert_array_equal(resumed.states, reference.states)

    def test_matrix_free_mode_resumes_bitwise(self, counting_deadline, tmp_path):
        """The GMRES forcing state travels with the checkpoint.

        Each solve's tolerance depends on the previous residual norm and
        tolerance, so a resumed matrix-free solve replays the uninterrupted
        Krylov trajectory only when that state is restored.  The
        preconditioner is rebuilt from the iterate at every solve, so the
        solve resumes bit for bit.
        """
        mna, scales = _gilbert()
        path = tmp_path / "block_circulant_fast.npz"
        options = replace(_OPTIONS, matrix_free=True, preconditioner="block_circulant_fast")
        reference = solve_mpde(mna, scales, options)
        checkpoint = _interrupt(mna, scales, options, budget=12, checkpoint_path=path)
        assert 0 < checkpoint.newton_iterations < reference.stats.newton_iterations
        assert checkpoint.chord_state is None
        assert checkpoint.forcing_state["eta"] > MPDESolver.GMRES_TOL
        for resume_from in (checkpoint, str(path)):
            resumed = solve_mpde(mna, scales, options, resume_from=resume_from)
            np.testing.assert_array_equal(resumed.states, reference.states)
            tail = resumed.stats.linear_tolerance_history
            assert tail == reference.stats.linear_tolerance_history[-len(tail) :]

    def test_exhausted_ladder_failure_carries_checkpoint(self, recovery_ladder):
        recovery_ladder()
        mna, scales = _gilbert()
        reference = solve_mpde(mna, scales, _OPTIONS)
        with inject_faults(singular_jacobian(at_iteration=3, count=None)):
            with pytest.raises(SingularMatrixError) as info:
                solve_mpde(mna, scales, _OPTIONS)
        checkpoint = info.value.checkpoint
        assert checkpoint is not None
        assert checkpoint.newton_iterations > 0
        resumed = solve_mpde(mna, scales, _OPTIONS, resume_from=checkpoint)
        np.testing.assert_array_equal(resumed.states, reference.states)


class TestCollocationPSSResume:
    def _solve(self, mna, **kwargs):
        return collocation_periodic_steady_state(mna, 1e-3, 41, **kwargs)

    def test_deadline_split_pss_is_bitwise(self, diode_rectifier, monkeypatch):
        mna = diode_rectifier.compile()
        reference = self._solve(mna)
        monkeypatch.setattr(solver_mod, "Deadline", _CountingDeadline)
        _CountingDeadline.budget = 2
        with pytest.raises(DeadlineExceededError) as info:
            self._solve(mna, deadline_s=60.0)
        monkeypatch.undo()
        checkpoint = info.value.checkpoint
        assert checkpoint is not None
        assert checkpoint.stage == "newton"
        resumed = self._solve(mna, resume_from=checkpoint)
        np.testing.assert_array_equal(resumed.states, reference.states)

    def test_pss_checkpoint_ignores_the_unread_slow_method(self, diode_rectifier, monkeypatch):
        # A one-axis solve never reads the template's slow-axis rule, so a
        # checkpoint resumes under a template that differs only there.
        mna = diode_rectifier.compile()
        reference = self._solve(mna)
        monkeypatch.setattr(solver_mod, "Deadline", _CountingDeadline)
        _CountingDeadline.budget = 2
        with pytest.raises(DeadlineExceededError) as info:
            self._solve(mna, options=MPDEOptions(slow_method="central"), deadline_s=60.0)
        monkeypatch.undo()
        resumed = self._solve(mna, resume_from=info.value.checkpoint)
        np.testing.assert_array_equal(resumed.states, reference.states)

    def test_pss_checkpoint_persists_and_resumes_from_path(
        self, diode_rectifier, monkeypatch, tmp_path
    ):
        mna = diode_rectifier.compile()
        path = tmp_path / "pss.npz"
        reference = self._solve(mna)
        monkeypatch.setattr(solver_mod, "Deadline", _CountingDeadline)
        _CountingDeadline.budget = 2
        with pytest.raises(DeadlineExceededError):
            self._solve(mna, deadline_s=60.0, checkpoint_path=path)
        monkeypatch.undo()
        assert path.exists()
        resumed = self._solve(mna, resume_from=str(path))
        np.testing.assert_array_equal(resumed.states, reference.states)

    def test_pss_rejects_foreign_checkpoint(self, diode_rectifier):
        mna = diode_rectifier.compile()
        foreign = SolveCheckpoint(
            fingerprint="0" * 64,
            stage="newton",
            iterate=np.zeros(41 * mna.n_unknowns),
        )
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            self._solve(mna, resume_from=foreign)


class TestTwoToneHBResume:
    def _solve(self, mixer, **kwargs):
        return two_tone_harmonic_balance(
            mixer.circuit.compile(),
            mixer.scales,
            n_harmonics_fast=2,
            n_harmonics_slow=2,
            **kwargs,
        )

    def test_deadline_split_hb_is_bitwise(self, scaled_switching_mixer, counting_deadline):
        counting_deadline.budget = 10**9  # reference runs uninterrupted
        reference = self._solve(scaled_switching_mixer)
        counting_deadline.budget = 2
        with pytest.raises(DeadlineExceededError) as info:
            self._solve(scaled_switching_mixer, deadline_s=60.0)
        checkpoint = info.value.checkpoint
        assert checkpoint is not None
        counting_deadline.budget = 10**9
        resumed = self._solve(scaled_switching_mixer, resume_from=checkpoint)
        np.testing.assert_array_equal(resumed.mpde.states, reference.mpde.states)


class _NewtonCountingDeadline(_CountingDeadline):
    """A :class:`_CountingDeadline` that counts Newton-stage checks only.

    A matrix-free solve checks its deadline at every GMRES iteration too, so
    counting every check would split it at the first Newton step or two.
    """

    def check(self, stage: str, *, partial_stats=None) -> None:
        if stage == "newton":
            super().check(stage, partial_stats=partial_stats)


def _case_states(result):
    return result.mpde.states if hasattr(result, "mpde") else result.states


# The direct solves of the two 40x32 scenarios take seconds to a minute
# each, and the test solves each case three times.
_SLOW_DIRECT = ("multi_lo_receiver", "prbs_balanced_mixer")


@pytest.mark.parametrize(
    "name, matrix_free",
    [
        pytest.param(
            name,
            matrix_free,
            id=f"{name}-{'matrix_free' if matrix_free else 'direct'}",
            marks=[pytest.mark.slow] if name in _SLOW_DIRECT and not matrix_free else [],
        )
        for name in scenario_names()
        for matrix_free in (False, True)
    ],
)
def test_scenario_resume_is_bitwise(name, matrix_free, monkeypatch):
    """A deadline split halfway through the Newton steps of every scenario's
    first smoke case resumes onto the uninterrupted solve, bit for bit."""
    case = build_scenario_smoke(name).cases[0]
    options = MPDEOptions(matrix_free=matrix_free)
    monkeypatch.setattr(solver_mod, "Deadline", _NewtonCountingDeadline)
    reference = solve_case(case, options=options)
    steps = reference.stats.newton_iterations
    _NewtonCountingDeadline.budget = steps // 2
    with pytest.raises(DeadlineExceededError) as info:
        solve_case(case, options=options, deadline_s=60.0)
    checkpoint = info.value.checkpoint
    assert checkpoint.newton_iterations == steps // 2
    resumed = solve_case(case, options=options, resume_from=checkpoint)
    np.testing.assert_array_equal(_case_states(resumed), _case_states(reference))
    assert resumed.stats.newton_iterations == steps - steps // 2
