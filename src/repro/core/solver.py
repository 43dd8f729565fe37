"""Newton / continuation driver for the discretised MPDE.

The solver is a damped Newton-Raphson iteration on the global system
assembled by :class:`~repro.core.mpde.MPDEProblem`, with

* a sparse direct (LU) or matrix-free, block-circulant-preconditioned GMRES
  linear solver, the GMRES solves inexact (Eisenstat–Walker forcing terms,
  tight only when it matters),
* a backtracking line search (the same safeguards as the rest of the
  library), and
* a fixed recovery ladder (:data:`RECOVERY_LADDER`) whose
  ``continuation`` rung is the source-stepping fallback: when plain Newton
  fails from the available initial guess, the time-varying part of the
  excitation is ramped from zero (a DC-like problem) up to its full value —
  the strategy the paper reports as "using continuation reliably obtained
  solutions in 10-20m" for the hard starts.

The same driver solves the one-axis problems of
:meth:`~repro.core.mpde.MPDEProblem.periodic` (collocation PSS and
single-tone HB), so every analysis shares one Newton loop, one ladder, one
checkpoint format and one :class:`MPDEStats` record.

The result object :class:`MPDEResult` exposes the post-processing the
paper's figures need: bivariate surfaces (Figs. 3 and 5), the baseband
envelope along the difference-frequency axis (Fig. 4) and the diagonal
reconstruction of the one-time waveform (Fig. 6), plus solver statistics
used by the speed-up benchmarks.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from ..analysis.dc import dc_operating_point
from ..circuits.mna import MNASystem
from ..linalg.continuation import continuation_sweep
from ..linalg.krylov import CachedPreconditionedGMRES
from ..linalg.newton import line_search
from ..resilience.checkpoint import SolveCheckpoint, solve_fingerprint
from ..resilience.deadline import Deadline
from ..resilience.diagnostics import attach_diagnostics, build_failure_diagnostics
from ..resilience.faultinject import fault_site
from ..resilience.taxonomy import RecoveryAttempt, classify_failure
from ..signals.waveform import BivariateWaveform, Waveform
from ..utils.exceptions import (
    AnalysisError,
    ConfigurationError,
    ConvergenceError,
    DeadlineExceededError,
    MPDEError,
    SingularMatrixError,
)
from ..utils.logging import get_logger
from ..utils.options import MPDEOptions, NewtonOptions
from .mpde import MPDEProblem
from .timescales import ShearedTimeScales, UnshearedTimeScales

__all__ = ["MPDEStats", "MPDEResult", "MPDESolver", "RECOVERY_LADDER", "solve_mpde"]

_LOG = get_logger("core.solver")

#: The recovery ladder: the rungs a failed solve escalates through, in
#: order (see ``docs/resilience.md``).  Each name maps to the
#: ``MPDESolver._rung_<name>`` method that runs it.
RECOVERY_LADDER = (
    "newton_refresh",
    "damping",
    "preconditioner_downgrade",
    "continuation",
    "guess_retry",
)


@dataclass
class MPDEStats:
    """Cost accounting and convergence diagnostics for an MPDE solve."""

    newton_iterations: int = 0
    linear_solves: int = 0
    #: Sparse LU factorisations of the full MPDE Jacobian (direct mode).
    #: A one-axis problem refactors at every step, so this equals
    #: ``linear_solves``; on a 2-D grid chord Newton's reuse policy keeps it
    #: well below (0 for the matrix-free mode, whose factorisation effort is
    #: ``preconditioner_builds``).
    jacobian_factorizations: int = 0
    #: Total inner Krylov iterations across all GMRES linear solves (0 for
    #: the direct solver).
    linear_iterations: int = 0
    #: Inner Krylov iterations of each GMRES solve in order — the per-solve
    #: trace the convergence test harness asserts on (empty for the direct
    #: solver).
    linear_iteration_history: list[int] = field(default_factory=list)
    #: Relative GMRES tolerance of each GMRES solve, aligned with
    #: ``linear_iteration_history``: the Eisenstat–Walker forcing term, or
    #: ``MPDESolver.GMRES_TOL`` for a tight solve (empty for the direct solver).
    linear_tolerance_history: list[float] = field(default_factory=list)
    #: Number of preconditioner builds performed (one per GMRES solve).
    preconditioner_builds: int = 0
    #: Harmonic systems factored by the ``"block_circulant_fast"``
    #: preconditioner across the whole solve (all builds summed; one lazy LU
    #: per build covers the ``n_slow // 2 + 1`` distinct harmonics).
    preconditioner_harmonic_builds: int = 0
    #: Preconditioner mode used for the GMRES solves ("" for the direct
    #: solver).
    preconditioner_kind: str = ""
    #: True when any preconditioner build degraded to a weaker fallback
    #: (singular harmonic systems replaced by their pseudo-inverses).
    preconditioner_degraded: bool = False
    continuation_steps: int = 0
    used_continuation: bool = False
    converged: bool = False
    residual_norm: float = float("nan")
    wall_time_seconds: float = 0.0
    n_grid_points: int = 0
    n_total_unknowns: int = 0
    residual_history: list[float] = field(default_factory=list)
    # -- wall-time breakdown (PR 5) --------------------------------------
    # Populated by every solver mode; the four buckets cover the dominant
    # phases and sum to (at most) ``wall_time_seconds`` — the remainder is
    # Newton bookkeeping (norms, damping logic, result assembly).
    #: Device evaluation + residual assembly time: every
    #: ``evaluate`` / ``evaluate_sparse`` sweep the Newton loop and its
    #: line searches issue, including the sparse Jacobian assembly of the
    #: direct mode (one fused evaluation call).  Non-zero in every mode.
    eval_time_s: float = 0.0
    #: Sparse direct-solver time: LU factorisations of the full MPDE
    #: Jacobian plus their back-substitutions (direct mode only; 0.0 for
    #: the matrix-free mode).
    factorization_time_s: float = 0.0
    #: Preconditioner construction time across all builds (matrix-free
    #: mode only).  The partially-averaged mode factors its block-diagonal
    #: LU lazily inside the first GMRES apply, where it counts toward
    #: ``gmres_time_s``.
    preconditioner_build_time_s: float = 0.0
    #: Time inside the GMRES solves (matvecs, preconditioner applies,
    #: orthogonalisation; matrix-free mode only).
    gmres_time_s: float = 0.0
    #: Back-substitution time inside the preconditioner applies (summed
    #: solver-call durations).  A subdivision of ``gmres_time_s``, not an
    #: additional top-level bucket.
    gmres_backsub_time_s: float = 0.0
    # -- recovery ladder (resilience subsystem) ---------------------------
    #: Every recovery attempt made by the escalation ladder, in order: the
    #: failed baseline attempt first, then one
    #: :class:`~repro.resilience.taxonomy.RecoveryAttempt` per rung tried
    #: or skipped.  Empty when the baseline Newton run converged.
    recovery_trace: list = field(default_factory=list)
    #: Name of the ladder rung that produced the returned solution ("" when
    #: the baseline attempt converged on its own).
    recovered_by: str = ""

    def snapshot(self) -> dict:
        """``dataclasses.asdict(self)`` without its deep recursion, for every checkpoint.

        The fields are numbers, strings, lists of numbers and the trace's
        flat dataclasses, so copying lists and converting the trace suffices.
        """
        snapshot = {}
        for item in dataclasses.fields(self):
            value = getattr(self, item.name)
            snapshot[item.name] = list(value) if isinstance(value, list) else value
        snapshot["recovery_trace"] = [dataclasses.asdict(entry) for entry in self.recovery_trace]
        return snapshot


@dataclass
class MPDEResult:
    """Solution of the sheared multi-time problem.

    Attributes
    ----------
    states:
        Solution on the grid, shape ``(n_fast, n_slow, n)``.
    problem:
        The discretised problem (grid, scales, operators).
    stats:
        Solver statistics.
    """

    states: np.ndarray
    problem: MPDEProblem
    stats: MPDEStats

    # -- bookkeeping -----------------------------------------------------------
    @property
    def mna(self) -> MNASystem:
        """The compiled circuit the solution belongs to."""
        return self.problem.mna

    @property
    def grid(self):
        """The multi-time grid."""
        return self.problem.grid

    @property
    def scales(self):
        """The sheared time scales used."""
        return self.problem.scales

    # -- accessors ----------------------------------------------------------------
    def bivariate(self, node: str) -> BivariateWaveform:
        """Bivariate (multi-time) waveform of a node voltage.

        This is the object plotted in Figs. 3 and 5 of the paper: the fast
        (LO) variation along the first axis and the difference-frequency
        (baseband) variation along the second.
        """
        values = np.asarray(self.mna.voltage(self.states, node), dtype=float)
        return BivariateWaveform(
            values=values,
            period1=self.grid.period_fast,
            period2=self.grid.period_slow,
            name=f"v({node})",
        )

    def bivariate_differential(self, node_pos: str, node_neg: str) -> BivariateWaveform:
        """Bivariate waveform of a differential voltage (e.g. the mixer output)."""
        values = np.asarray(
            self.mna.differential_voltage(self.states, node_pos, node_neg), dtype=float
        )
        return BivariateWaveform(
            values=values,
            period1=self.grid.period_fast,
            period2=self.grid.period_slow,
            name=f"v({node_pos},{node_neg})",
        )

    def baseband_envelope(
        self, node: str, *, node_neg: str | None = None, mode: str = "mean"
    ) -> Waveform:
        """Baseband waveform along the difference-frequency axis (Fig. 4).

        ``mode`` selects how the fast (LO) variation is collapsed:
        ``"mean"`` averages over the LO cycle (the down-converted baseband
        content), ``"max"`` / ``"min"`` return the upper / lower envelope.
        """
        if node_neg is None:
            surface = self.bivariate(node)
        else:
            surface = self.bivariate_differential(node, node_neg)
        if mode == "mean":
            return surface.envelope_mean()
        if mode == "max":
            return surface.envelope_max()
        if mode == "min":
            return surface.envelope_min()
        raise MPDEError(f"unknown envelope mode {mode!r}; use 'mean', 'max' or 'min'")

    def diagonal_waveform(
        self,
        node: str,
        *,
        node_neg: str | None = None,
        t_start: float = 0.0,
        t_stop: float | None = None,
        n_samples: int = 2001,
    ) -> Waveform:
        """One-time waveform ``x(t) = x_hat(t, t)`` reconstructed from the grid.

        This is how Fig. 6 of the paper (a few LO cycles of the actual
        waveform) is produced from the multi-time solution.  The default
        span is one difference-frequency period.
        """
        if t_stop is None:
            t_stop = t_start + self.grid.period_slow
        if t_stop <= t_start:
            raise MPDEError("t_stop must be greater than t_start")
        times = np.linspace(t_start, t_stop, n_samples)
        if node_neg is None:
            surface = self.bivariate(node)
        else:
            surface = self.bivariate_differential(node, node_neg)
        return surface.diagonal(times, name=surface.name)


#: Newton made no real progress when the max-norm residual stays above this
#: fraction of its earlier value (a cut of less than 1%): over one step, the
#: next GMRES solve is tight; over ``DirectLU.STALL_STEPS`` steps, a
#: chord-Newton run ends.
_STALL_RATIO = 0.99

#: What every failed direct correction raises, as a SingularMatrixError.
_SINGULAR_LU = (
    "sparse LU of the MPDE Jacobian failed or produced non-finite values (singular "
    "Jacobian; check for floating nodes or an all-capacitive cutset)"
)


class _ForcingTerm:
    """Eisenstat–Walker tolerances for the GMRES solves of one Newton run.

    Choice 2 of Eisenstat and Walker (SIAM J. Sci. Comput. 17, 1996): the
    relative tolerance of the k-th linear solve is

        eta_k = min(ETA_MAX, GAMMA * (||F_k|| / ||F_{k-1}||) ** ALPHA)

    in 2-norms, raised to ``GAMMA * eta_{k-1} ** ALPHA`` whenever that
    safeguard exceeds ``SAFEGUARD`` (so eta cannot collapse while Newton is
    still far from the solution), and never below ``floor``
    (``MPDESolver.GMRES_TOL``).  A solve at the floor is *tight*.  Two
    guards keep the loose early solves from costing Newton iterations:

    * after a step that cut the max-norm residual by less than 1%, or whose
      line search failed, the next solve is tight (without it, loose solves
      repeat a useless direction: at ``ETA_MAX = 0.5`` the 40x30
      paper-mixer ``block_circulant_fast`` solve crawled for 60 Newton
      iterations at 2e-3, about one GMRES iteration each);
    * the run may report convergence only after a tight step (without it,
      a 16x8 switching-mixer solve under a grid-averaged preconditioner met
      its residual tolerance on a loose step and stopped at a relative
      state error of 3.8e-8 against the direct solution).

    A damped run (``NewtonOptions.damping < 1``) uses the forcing terms as
    well.  Its steps converge linearly and it stops just inside the residual
    tolerance, so the ladder's damping rung follows it with polish steps:
    full steps, every correction tight, until the update test passes.  The
    polish supplies the accuracy; tight damped corrections would cost
    hundreds of GMRES iterations each on the strongly switched scenarios.
    The constants were chosen on exact GMRES and Newton counts.  For the
    20x15 balanced mixer, ``ETA_MAX`` from 0.1 to 0.9 keeps Newton within
    one iteration of the exact-solve count.  Between 0.5 and 0.8, the
    36x18 spectral ``block_circulant_fast`` solve meets extra GMRES stalls;
    0.1 to 0.4 avoid them.
    """

    GAMMA = 0.9
    ALPHA = 2.0
    SAFEGUARD = 0.1
    ETA_0 = 0.1
    ETA_MAX = 0.4

    def __init__(self, floor: float) -> None:
        self.floor = float(floor)
        #: 2-norm of the residual the previous solve was made at.
        self.previous_norm: float | None = None
        #: Tolerance of the previous solve.
        self.eta: float | None = None
        #: The next solve must be tight (stall guard or tight final step).
        self.force_tight = False
        #: The last step was solved at the floor (True before any step).
        self.tight = True

    def tolerance(self, norm: float) -> float:
        """Relative tolerance of the next solve, made at residual 2-norm ``norm``."""
        if self.force_tight:
            eta = self.floor
        elif self.eta is None or not self.previous_norm:
            eta = self.ETA_0
        else:
            eta = self.GAMMA * (norm / self.previous_norm) ** self.ALPHA
            safeguard = self.GAMMA * self.eta**self.ALPHA
            if safeguard > self.SAFEGUARD:
                eta = max(eta, safeguard)
            eta = min(eta, self.ETA_MAX)
        eta = max(eta, self.floor)
        self.previous_norm = float(norm)
        self.eta = float(eta)
        return eta

    def record_step(self, ratio: float, accepted: bool) -> None:
        """Note one step's max-norm residual ratio and line-search outcome."""
        self.tight = self.eta is None or self.eta <= self.floor
        self.force_tight = not accepted or not ratio <= _STALL_RATIO

    def capture_state(self) -> dict | None:
        """Forcing state for a :class:`SolveCheckpoint` (None before any solve)."""
        if self.eta is None:
            return None
        return {
            "previous_norm": self.previous_norm,
            "eta": self.eta,
            "force_tight": self.force_tight,
            "tight": self.tight,
        }

    def restore_state(self, state: dict) -> None:
        self.previous_norm = float(state["previous_norm"])
        self.eta = float(state["eta"])
        self.force_tight = bool(state["force_tight"])
        self.tight = bool(state["tight"])


def _timed_residual(problem: MPDEProblem, x: np.ndarray, source_grid, stats: MPDEStats):
    # The wall-time breakdown wants every device sweep accounted to
    # ``eval_time_s`` whichever linear solve runs; timing here (rather than
    # inside MPDEProblem) keeps the problem object free of stats plumbing.
    start = time.perf_counter()
    try:
        return problem.residual(x, source_grid=source_grid)
    finally:
        stats.eval_time_s += time.perf_counter() - start


class DirectLU:
    """The sparse LU of the MPDE Jacobian: every direct-mode Newton correction.

    By default it is chord Newton's cached factorisation.  The first Newton
    step after a factorisation records its observed residual-reduction
    ratio, in ``RATIO_SCALE`` units, as the trend ``baseline``; once a later
    step's scaled ratio exceeds ``baseline * REFRESH_GROWTH +
    REFRESH_SLACK``, or a line search fails outright against the stale
    factorisation, the next linear solve refactors at the current iterate.
    A chord run that fails is retried by full Newton (:meth:`refresh`).

    With ``every_step`` set it refactors at every linear solve (full Newton)
    and keeps no trend, stall or checkpoint state.  It is set on one-axis
    problems unless given.
    """

    #: Scale turning a residual-reduction ratio into the integer trend
    #: metric (three decimal digits).
    RATIO_SCALE = 1000.0
    #: Ratios at or above this mean the chord step made no progress; the
    #: recorded metric saturates here (the trend then asks for a rebuild).
    RATIO_CAP = 2.0
    #: Absolute progress floor: a chord step that does not cut the residual
    #: at least 4x marks the factorisation stale regardless of the trend.
    #: The trend alone would accept an arbitrarily slow (but steady) linear
    #: crawl whenever the first post-rebuild step was itself slow; the floor
    #: bounds the extra chord iterations a stale factorisation can cost
    #: before the solver refactors.
    MAX_RATIO = 0.25
    #: Trend threshold: a step whose scaled ratio exceeds ``baseline *
    #: REFRESH_GROWTH + REFRESH_SLACK`` marks the factorisation stale.
    REFRESH_GROWTH = 1.6
    REFRESH_SLACK = 8
    #: A chord run ends when its last ``STALL_STEPS`` steps together cut the
    #: residual by less than 1% (``_STALL_RATIO``): refactoring has not
    #: helped either.  On the 16x8 switching mixer the chord iterates fall
    #: into a two-cycle at 1.1e-4 and used to burn the whole 80-iteration
    #: budget (47 LUs) before the full-Newton retry converged in 7.  A slow
    #: but real crawl is left alone: the PRBS mixer's damped chord steps cut
    #: the residual by at least 1.9% over any three.
    STALL_STEPS = 3
    #: Direct solves are exact.
    tight = True

    def __init__(
        self, problem: MPDEProblem, stats: MPDEStats, every_step: bool | None = None
    ) -> None:
        self.problem = problem
        self.stats = stats
        if every_step is None:
            # Full Newton only on one-axis problems.  Best-of-N on a 2-CPU
            # host, chord Newton wins on the 2-D inputs (1.4 vs 1.9 ms on the
            # 12x64 qpsk_mixer, 156 vs 214 ms on the 32x64 bpsk_mixer) but
            # loses on the frequency_doubler PSS: 3.7 vs 3.4 ms at 64
            # backward-Euler points (10 Newton steps and 5 LUs against 7 and
            # 7), 4.5 vs 4.2 ms at 128 bdf2 points (14 and 4 against 7 and 7).
            every_step = problem.grid.n_slow == 1
        #: Refactor at every linear solve (full Newton).
        self.every_step = every_step
        #: Back-substitution of the cached LU (None when there is none).
        self.backsolve = None
        #: Scaled ratio of the first step after the last build, and of the
        #: latest step (None until a step is recorded).
        self.baseline: int | None = None
        self.last: int | None = None
        #: Residual ratios of the last ``STALL_STEPS`` steps.
        self.recent_ratios: list[float] = []
        #: Iterate the resident factorisation was produced at — part of a
        #: checkpoint's chord state, because refactoring the same matrix
        #: data is bitwise deterministic (that is what makes chord-mode
        #: resume land exactly on the uninterrupted trajectory).
        self.factored_at: np.ndarray | None = None
        self.just_built = False
        self._stale = False

    def _record_trend(self, scaled: int) -> None:
        if self.baseline is None:
            self.baseline = scaled
        self.last = scaled

    def _trend_degraded(self) -> bool:
        if self.baseline is None or self.last is None:
            return False
        return self.last > self.baseline * self.REFRESH_GROWTH + self.REFRESH_SLACK

    def needs_refresh(self) -> bool:
        return (
            self.every_step
            or self.backsolve is None
            or self._stale
            or self._trend_degraded()
        )

    def store(self, backsolve) -> None:
        self.backsolve = backsolve
        self.just_built = True
        self._stale = False
        self.baseline = None
        self.last = None

    @property
    def stalled(self) -> bool:
        return (
            len(self.recent_ratios) == self.STALL_STEPS
            and float(np.prod(self.recent_ratios)) > _STALL_RATIO
        )

    def capture_state(self) -> dict:
        """The ``chord_state`` field of a :class:`SolveCheckpoint` (None when cold)."""
        if self.every_step or self.backsolve is None or self.factored_at is None:
            return {"chord_state": None}
        return {
            "chord_state": {
                "factored_at": np.array(self.factored_at, copy=True),
                "baseline": self.baseline,
                "last": self.last,
                "just_built": self.just_built,
                "stale": self._stale,
                "recent_ratios": list(self.recent_ratios),
            }
        }

    def restore_state(self, checkpoint: SolveCheckpoint | None) -> None:
        """Start a Newton run, rebuilding the cache exactly as ``checkpoint`` recorded it.

        The factorisation is redone at the recorded iterate; the trend and
        staleness flags are then replayed on top of the fresh build.
        """
        state = None if checkpoint is None else checkpoint.chord_state
        if state is None:
            # Every Newton run (the main solve, and each continuation stage)
            # starts from a fresh factorisation: a factor left over from a
            # different embedding is a poor chord matrix and can burn a
            # tight iteration budget before the refresh policy notices.
            self.backsolve = None
            self.recent_ratios = []
            return
        self.refactor(np.asarray(state["factored_at"], dtype=float))
        if state.get("baseline") is not None:
            self._record_trend(int(state["baseline"]))
        if state.get("last") is not None:
            self._record_trend(int(state["last"]))
        self.just_built = bool(state.get("just_built", False))
        self._stale = bool(state.get("stale", False))
        self.recent_ratios = [float(r) for r in state.get("recent_ratios", ())]

    def record_step(self, ratio: float, accepted: bool) -> None:
        """Feed one Newton step's residual-reduction ratio to the trend.

        A step whose line search failed drops the factorisation: the stale
        matrix did not even give a descent direction.
        """
        if self.every_step:
            return
        capped = ratio if ratio <= self.RATIO_CAP else self.RATIO_CAP  # NaN -> cap
        self.recent_ratios = [*self.recent_ratios, capped][-self.STALL_STEPS :]
        if not accepted:
            self.backsolve = None
            return
        self._record_trend(int(capped * self.RATIO_SCALE))
        if self.just_built:
            # The first step after a rebuild is the reference full-Newton
            # step; it sets the trend baseline but must not mark its own
            # (fresh) factorisation stale even when Newton itself is slow.
            self.just_built = False
        elif ratio > self.MAX_RATIO:
            self._stale = True

    def evaluate(self, x: np.ndarray, source_grid, residual=None) -> np.ndarray:
        """The residual at ``x``: the LU fetches the Jacobian data itself when it refactors."""
        if residual is None:
            residual = _timed_residual(self.problem, x, source_grid, self.stats)
        return residual

    def factor(self, c_data: np.ndarray, g_data: np.ndarray):
        """Sparse LU of the Jacobian with per-point data ``(c_data, g_data)``.

        Returns the LU's back-substitution.  The problem's first
        factorisation computes the COLAMD column order and records it on
        the Jacobian assembler; every later one factors the Jacobian
        assembled already in that order (``permc_spec="NATURAL"``, the same
        LU bit for bit, see :class:`~repro.linalg.sparse.ColumnOrder`).
        Assembly counts toward ``eval_time_s``, the LU toward
        ``factorization_time_s``; an exactly singular Jacobian raises
        ``RuntimeError`` (from ``splu``).
        """
        stats = self.stats
        start = time.perf_counter()
        assembler = self.problem.jacobian_assembler
        order = assembler.column_order
        ordered = order.perm_c is not None
        if ordered:
            jacobian = assembler.assemble_ordered(c_data, g_data)
        else:
            jacobian = self.problem.assemble_jacobian(c_data, g_data)
        factor_start = time.perf_counter()
        stats.eval_time_s += factor_start - start
        try:
            if ordered:
                factor = spla.splu(jacobian, permc_spec="NATURAL")
                return lambda rhs: order.solve(factor, rhs)
            factor = spla.splu(jacobian)
            order.record(factor.perm_c)
            return factor.solve
        finally:
            stats.factorization_time_s += time.perf_counter() - factor_start

    def refactor(self, x: np.ndarray) -> None:
        """Factor the Jacobian at iterate ``x`` and cache the LU."""
        start = time.perf_counter()
        c_data, g_data = self.problem.jacobian_values(x)
        self.stats.eval_time_s += time.perf_counter() - start
        try:
            backsolve = self.factor(c_data, g_data)
        except RuntimeError as exc:
            raise SingularMatrixError(_SINGULAR_LU) from exc
        self.stats.jacobian_factorizations += 1
        self.store(backsolve)
        self.factored_at = np.array(x, dtype=float, copy=True)

    def correction(self, residual: np.ndarray, x: np.ndarray, tight: bool) -> np.ndarray:
        """Direct correction at iterate ``x``, refactoring when the LU asks."""
        rhs = -residual

        def back_substitute() -> np.ndarray:
            start = time.perf_counter()
            dx = self.backsolve(rhs)
            self.stats.factorization_time_s += time.perf_counter() - start
            return dx

        if self.needs_refresh():
            self.refactor(x)
        dx = back_substitute()
        if not np.all(np.isfinite(dx)) and not self.just_built:
            # A stale factorisation can go numerically bad even though a
            # fresh one would not; rebuild at the current iterate and retry
            # once before declaring the Jacobian singular.
            self.refactor(x)
            dx = back_substitute()
        if not np.all(np.isfinite(dx)):
            raise SingularMatrixError(_SINGULAR_LU)
        return dx

    def tighten(self) -> None:
        """Nothing to do: every direct correction is tight."""

    @property
    def refresh_detail(self) -> str:
        """The ``newton_refresh`` rung's trace detail."""
        if self.every_step:
            return "re-solved from the start point; the LU is refactored at every Newton step"
        return "chord LU dropped; full Newton refresh"

    def refresh(self) -> "DirectLU":
        """Full Newton for a chord LU; one that refactors every step re-runs as it is.

        The re-run absorbs a transient fault, as :meth:`KrylovSolve.refresh`
        does.
        """
        return self if self.every_step else DirectLU(self.problem, self.stats, every_step=True)


class KrylovSolve:
    """Matrix-free GMRES on the Jacobian-vector-product operator.

    Every solve is preconditioned by the slow-axis averaged
    ``"block_circulant_fast"`` preconditioner, which
    :class:`~repro.linalg.krylov.CachedPreconditionedGMRES` builds through
    :meth:`MPDEProblem.build_preconditioner` from that iterate's Jacobian
    data, and runs at the tolerance the Eisenstat–Walker forcing term picks
    (:class:`_ForcingTerm`, floor ``tol``), restarted every ``restart``
    iterations; ``deadline`` is checked at every inner iteration.
    """

    # Nothing is cached across iterates: the rung re-runs the baseline,
    # which absorbs a transient fault only.
    refresh_detail = (
        "re-solved from the start point; the preconditioner is rebuilt at every GMRES solve"
    )
    stalled = False

    def __init__(
        self, problem: MPDEProblem, stats: MPDEStats, deadline: Deadline, tol: float, restart: int
    ) -> None:
        self.problem = problem
        self.stats = stats
        self.deadline = deadline
        self.tol = tol
        self.restart = restart
        self.gmres = CachedPreconditionedGMRES(lambda data: problem.build_preconditioner(*data))
        #: GMRES forcing terms of the running Newton run.
        self.forcing = _ForcingTerm(tol)
        #: Jacobian operator and per-point data at the last evaluated iterate.
        self._operator = None
        self._data = None

    @property
    def tight(self) -> bool:
        return self.forcing.tight

    def restore_state(self, checkpoint: SolveCheckpoint | None) -> None:
        """Start a Newton run with fresh forcing terms, or those ``checkpoint`` recorded."""
        self.forcing = _ForcingTerm(self.tol)
        if checkpoint is not None and checkpoint.forcing_state is not None:
            self.forcing.restore_state(checkpoint.forcing_state)

    def capture_state(self) -> dict:
        """The ``forcing_state`` field of a :class:`SolveCheckpoint`."""
        return {"forcing_state": self.forcing.capture_state()}

    def evaluate(self, x: np.ndarray, source_grid, residual=None) -> np.ndarray:
        """Residual, Jacobian operator and its data at ``x`` (a known ``residual`` lacks them)."""
        start = time.perf_counter()
        try:
            residual, c_data, g_data = self.problem.residual_and_values(x, source_grid=source_grid)
            self._operator = self.problem.jacobian_operator(c_data, g_data)
            self._data = (c_data, g_data)
            return residual
        finally:
            self.stats.eval_time_s += time.perf_counter() - start

    def correction(self, residual: np.ndarray, x: np.ndarray, tight: bool) -> np.ndarray:
        stats = self.stats
        tol = self.tol if tight else self.forcing.tolerance(float(np.linalg.norm(residual)))
        preconditioner = self.problem.options.preconditioner
        fault_site("solver.gmres", preconditioner=preconditioner)
        rhs = -residual
        if not np.all(np.isfinite(rhs)):
            # GMRES would grind through its whole iteration budget on a NaN
            # right-hand side; fail the way the direct path does instead.
            raise SingularMatrixError(
                "non-finite MPDE residual; the GMRES linear solve cannot proceed"
            )
        start = time.perf_counter()
        dx, report = self.gmres.solve(
            self._operator,
            rhs,
            context=self._data,
            tol=tol,
            restart=self.restart,
            deadline=self.deadline,
        )
        stats.preconditioner_builds += 1
        stats.preconditioner_harmonic_builds += report.harmonic_factorizations
        stats.preconditioner_build_time_s += report.build_time_s
        stats.gmres_time_s += time.perf_counter() - start - report.build_time_s
        stats.gmres_backsub_time_s += report.backsub_time_s
        stats.preconditioner_kind = preconditioner
        stats.linear_iterations += report.iterations
        stats.linear_iteration_history.append(report.iterations)
        stats.linear_tolerance_history.append(tol)
        stats.preconditioner_degraded |= report.preconditioner_degraded
        return dx

    def tighten(self) -> None:
        self.forcing.force_tight = True

    def record_step(self, ratio: float, accepted: bool) -> None:
        self.forcing.record_step(ratio, accepted)

    def refresh(self) -> "KrylovSolve":
        return self


class MPDESolver:
    """Damped Newton (+ continuation) solver for an :class:`MPDEProblem`.

    All settings come from ``problem.options``.  Each :meth:`solve` makes
    one linear solve for its Newton corrections, chosen by ``matrix_free``:

    * the default — :class:`DirectLU`, sparse LU on the assembled CSC
      Jacobian: on a 2-D grid it is reused across iterations (chord
      Newton), on a one-axis grid (:meth:`MPDEProblem.periodic`) it is
      refactored at every iterate (full Newton), and a chord run that
      fails, or the ``newton_refresh`` rung, switches to full Newton too;
    * ``matrix_free=True`` — :class:`KrylovSolve`, GMRES on the matrix-free
      Jacobian-vector-product operator, preconditioned by the slow-axis
      averaged ``"block_circulant_fast"`` preconditioner, built through
      :meth:`MPDEProblem.build_preconditioner` from fresh Jacobian data for
      every solve, at the tolerance the Eisenstat–Walker forcing term picks
      (:class:`_ForcingTerm`; floor :attr:`GMRES_TOL`, restart
      :attr:`GMRES_RESTART`).

    Both offer what the Newton loop calls (``restore_state``, ``evaluate``,
    ``correction``, ``tighten``, ``record_step``, ``capture_state``,
    ``refresh``, ``tight``, ``stalled``), so it never asks which one runs.
    Every solve fills the :class:`MPDEStats` wall-time breakdown
    (``eval_time_s``, ``factorization_time_s``,
    ``preconditioner_build_time_s``, ``gmres_time_s``) in either.
    """

    #: The ``damping`` rung multiplies the Newton damping by this factor and
    #: grants this many extra Newton iterations (damped steps make less
    #: progress each).
    DAMPING_FACTOR = 0.25
    DAMPING_EXTRA_ITERATIONS = 40
    #: Relative tolerance of a tight GMRES solve (the forcing-term floor)
    #: and the GMRES restart length of the matrix-free mode.  Restart 80
    #: against 30 (2-CPU host, best of 5 and 7): the same counts on the
    #: paper mixer at 40x30 and 20x15, fewer GMRES iterations on the 40x32
    #: multi_lo_receiver (200 vs 207) and prbs_balanced_mixer (272 vs 294),
    #: whose walls split within 10% either way.
    GMRES_TOL = 1e-9
    GMRES_RESTART = 80

    def __init__(self, problem: MPDEProblem) -> None:
        self.problem = problem
        self.options = problem.options
        # Resilience state: a no-op deadline until ``solve`` installs the
        # real one, the running solve's linear solve, and the last Newton
        # iterate (for failure diagnostics).
        self._deadline = Deadline(None)
        self._linear: DirectLU | KrylovSolve | None = None
        self._last_iterate: np.ndarray | None = None
        # Checkpoint state: the latest iteration-boundary snapshot (attached
        # to deadline / terminal failures), the fingerprint it is recorded
        # under, the file it is persisted to, and the checkpoint being
        # resumed, whose linear-solve state ``_newton`` restores.
        self._checkpoint: SolveCheckpoint | None = None
        self._solve_fingerprint = ""
        self._checkpoint_path: str | None = None
        self._resume: SolveCheckpoint | None = None

    # -- Newton loop -----------------------------------------------------------------
    def _newton(
        self,
        x0: np.ndarray,
        stats: MPDEStats,
        *,
        source_grid: np.ndarray | None = None,
        newton_options: NewtonOptions | None = None,
        polish: bool = False,
        linear: DirectLU | KrylovSolve | None = None,
    ) -> tuple[np.ndarray, bool]:
        """One Newton run from ``x0``; returns ``(x, converged)``.

        ``polish`` finishes an already converged answer: every GMRES solve
        is tight, and the run converges only through the post-step test,
        so it takes at least one step and stops when the update is small.
        ``linear`` is the run's linear solve (default: the solve's own).
        """
        opts = newton_options if newton_options is not None else self.options.newton
        linear = linear if linear is not None else self._linear
        x = np.asarray(x0, dtype=float).copy()
        self._last_iterate = x
        # Resuming from a checkpoint puts the linear solve back exactly as
        # the interrupted solve left it, so the resumed trajectory is
        # bitwise identical to the uninterrupted one.
        linear.restore_state(self._resume if source_grid is None else None)
        self._resume = None

        residual = linear.evaluate(x, source_grid)
        res_norm = float(np.max(np.abs(residual)))
        stats.residual_history.append(res_norm)
        if source_grid is None:
            # Iteration-boundary checkpoint (the continuation stages solve
            # embedded problems whose iterates are not resume points of the
            # real one, so only the un-embedded runs record).
            self._record_checkpoint(x, stats, res_norm, linear)

        def trial_residual(v: np.ndarray) -> np.ndarray:
            return _timed_residual(self.problem, v, source_grid, stats)

        for _iteration in range(1, opts.max_iterations + 1):
            self._deadline.check("newton", partial_stats=stats)
            if res_norm <= opts.abstol and not polish:
                if linear.tight:
                    stats.residual_norm = res_norm
                    return x, True
                # Converged on a loosely solved step: take one tight step.
                linear.tighten()
            fault_site("solver.linear_solve", iteration=_iteration - 1)
            stats.linear_solves += 1
            # A polish is there for accuracy; see _ForcingTerm.
            dx = linear.correction(residual, x, polish)
            x_new, residual_trial, trial_norm, damping, accepted, converged = line_search(
                trial_residual, x, dx, res_norm, opts
            )
            if residual_trial is None:
                # Every damping overflowed: fail at the last finite iterate.
                stats.residual_norm = res_norm
                raise ConvergenceError(
                    "MPDE Newton step overflowed at every damping "
                    f"(residual norm {res_norm:.3e})",
                    iterations=stats.newton_iterations,
                    residual_norm=res_norm,
                )
            ratio = trial_norm / res_norm if res_norm > 0.0 else 1.0
            linear.record_step(ratio, accepted)

            x = x_new
            self._last_iterate = x
            stats.newton_iterations += 1
            res_norm = trial_norm
            stats.residual_history.append(res_norm)
            if source_grid is None:
                self._record_checkpoint(x, stats, res_norm, linear)
            _LOG.debug(
                "MPDE newton iter=%d residual=%.3e damping=%.3g",
                stats.newton_iterations,
                res_norm,
                damping,
            )

            if converged and linear.tight:
                stats.residual_norm = res_norm
                return x, True
            if linear.stalled:
                break

            # Re-evaluate at the accepted iterate, where the line search
            # already evaluated the residual.
            residual = linear.evaluate(x, source_grid, residual_trial)
            res_norm = float(np.max(np.abs(residual)))

        stats.residual_norm = res_norm
        if res_norm <= opts.abstol and linear.tight and not polish:
            return x, True
        # A failed run gets one retry with the refreshed linear solve (a
        # chord run has spent steps on stale factorisations, which is not a
        # fair convergence verdict).  A solve that refreshes to itself would
        # only repeat the run.
        retry = linear.refresh()
        if retry is None or retry is linear:
            return x, False
        _LOG.debug("Newton run failed (residual %.3e); retrying with full Newton", res_norm)
        return self._newton(
            x0,
            stats,
            source_grid=source_grid,
            newton_options=newton_options,
            polish=polish,
            linear=retry,
        )

    # -- continuation fallback -----------------------------------------------------------
    class _SweepStage:
        """Adapter giving :func:`continuation_sweep` its per-stage protocol."""

        def __init__(self, x, converged, residual_norm):
            self.x = x
            self.converged = converged
            # Newton iterations are accumulated directly into the solver's
            # MPDEStats by ``_newton``; the sweep's own counter stays zero
            # so the cost is not double-booked.
            self.iterations = 0
            self.residual_norm = residual_norm

    def _continuation(self, x0: np.ndarray, stats: MPDEStats) -> np.ndarray:
        """Source-stepping continuation via the shared adaptive sweep driver."""
        stats.used_continuation = True

        def solve_at(lam: float, x_guess: np.ndarray) -> "MPDESolver._SweepStage":
            source_grid = self.problem.embedded_source_grid(lam)
            x_sol, converged = self._newton(x_guess, stats, source_grid=source_grid)
            return MPDESolver._SweepStage(x_sol, converged, stats.residual_norm)

        result = continuation_sweep(
            solve_at, np.asarray(x0, dtype=float).copy(), deadline=self._deadline
        )
        stats.continuation_steps += result.steps
        return result.x

    # -- checkpoint/resume -------------------------------------------------------------------
    def _fingerprint(self) -> str:
        """Identity hash of this solve (circuit, grid, discretisation, solver)."""
        opts = self.options
        grid = self.problem.grid
        return solve_fingerprint(
            "mpde",
            circuit=self.problem.mna.circuit.name,
            unknowns=list(self.problem.mna.unknown_names),
            n_fast=grid.n_fast,
            n_slow=grid.n_slow,
            t0=self.problem.t0,
            period_fast=grid.period_fast,
            period_slow=grid.period_slow,
            fast_method=opts.fast_method,
            slow_method=opts.slow_method,
            matrix_free=opts.matrix_free,
            preconditioner=opts.preconditioner,
        )

    def _record_checkpoint(
        self, x: np.ndarray, stats: MPDEStats, residual_norm: float, linear: DirectLU | KrylovSolve
    ) -> None:
        """Snapshot the accepted iterate (iteration-boundary consistency).

        Always kept in memory (attached to deadline / terminal failures);
        additionally persisted atomically to the ``checkpoint_path`` of the
        running :meth:`solve`, if any.
        """
        self._checkpoint = SolveCheckpoint(
            fingerprint=self._solve_fingerprint,
            stage="newton",
            iterate=np.array(x, copy=True),
            newton_iterations=stats.newton_iterations,
            residual_norm=float(residual_norm),
            recovery_trace=list(stats.recovery_trace),
            stats=stats.snapshot(),
            **linear.capture_state(),
        )
        if self._checkpoint_path is not None:
            self._checkpoint.save(self._checkpoint_path)

    # -- public API -------------------------------------------------------------------------------
    def solve(
        self,
        x0: np.ndarray | None = None,
        *,
        deadline_s: float | None = None,
        checkpoint_path: str | os.PathLike | None = None,
        resume_from: "SolveCheckpoint | str | os.PathLike | None" = None,
    ) -> MPDEResult:
        """Solve the MPDE and return an :class:`MPDEResult`.

        Parameters
        ----------
        x0:
            Optional flattened initial guess of length ``P * n`` (or a single
            circuit state of length ``n``, which is tiled over the grid).
            When omitted, the DC operating point is tiled over the grid.
        deadline_s:
            Cooperative wall-clock budget (seconds) for this call, recovery
            attempts included.  Checked at Newton/GMRES iteration boundaries
            and between recovery rungs — never mid-factorisation — and
            enforced by raising
            :class:`~repro.utils.exceptions.DeadlineExceededError` carrying
            the partial :class:`MPDEStats`.  ``None`` (default) disables it.
        checkpoint_path:
            Optional file the iteration-boundary checkpoints are persisted
            to (an ``.npz`` written to a temporary and atomically renamed,
            so a killed process leaves the previous consistent checkpoint or
            the new one, never a torn file).  Without it the latest one is
            still kept in memory and attached to deadline and terminal
            failures (``.checkpoint``).
        resume_from:
            A :class:`~repro.resilience.checkpoint.SolveCheckpoint` (or the
            path of one persisted via ``checkpoint_path``) recorded
            by an interrupted solve of *this same problem*.  The checkpoint
            fingerprint is validated (:class:`CheckpointError` on mismatch),
            its iterate becomes the initial guess (unless an explicit ``x0``
            overrides it) and the linear solve's state is restored (the
            chord cache of :class:`DirectLU`, the GMRES forcing state of
            :class:`KrylovSolve`) — so a deadline-split solve converges
            bit-for-bit to the uninterrupted answer.
        """
        stats = MPDEStats(
            n_grid_points=self.problem.n_grid_points,
            n_total_unknowns=self.problem.n_total_unknowns,
        )
        if deadline_s is not None and not deadline_s > 0:
            raise ConfigurationError(f"deadline_s must be positive, got {deadline_s!r}")
        self._deadline = Deadline(deadline_s)
        self._checkpoint_path = None if checkpoint_path is None else os.fspath(checkpoint_path)
        self._linear = (
            KrylovSolve(self.problem, stats, self._deadline, self.GMRES_TOL, self.GMRES_RESTART)
            if self.options.matrix_free
            else DirectLU(self.problem, stats)
        )
        self._last_iterate = None
        self._solve_fingerprint = self._fingerprint()
        self._checkpoint = None
        if resume_from is not None:
            if isinstance(resume_from, (str, os.PathLike)):
                resume_from = SolveCheckpoint.load(resume_from)
            resume_from.validate(self._solve_fingerprint)
            if x0 is None:
                x0 = np.array(resume_from.iterate, copy=True)
        self._resume = resume_from
        start = time.perf_counter()

        if x0 is None:
            x_start = self.problem.initial_guess_from_state(
                dc_operating_point(self.problem.mna).x
            )
        else:
            x0 = np.asarray(x0, dtype=float)
            if x0.size == self.problem.n_circuit_unknowns:
                x_start = self.problem.initial_guess_from_state(x0)
            else:
                x_start = x0.ravel().copy()
                if x_start.size != self.problem.n_total_unknowns:
                    raise MPDEError(
                        f"initial guess has {x_start.size} entries, expected "
                        f"{self.problem.n_total_unknowns} (or {self.problem.n_circuit_unknowns})"
                    )

        try:
            x = self._solve_with_recovery(x_start, stats)
        except DeadlineExceededError as exc:
            if exc.partial_stats is None:
                exc.partial_stats = stats
            if exc.checkpoint is None:
                exc.checkpoint = self._checkpoint
            raise
        except AnalysisError as exc:
            # Exhausted-ladder / terminal failures carry the latest
            # iteration-boundary checkpoint too, so even a failed solve's
            # progress can seed a retry — and the partial stats, so work
            # done before the failure stays visible to retry layers above.
            if exc.checkpoint is None:
                exc.checkpoint = self._checkpoint
            if getattr(exc, "partial_stats", None) is None:
                exc.partial_stats = stats
            raise
        finally:
            stats.wall_time_seconds = time.perf_counter() - start

        stats.converged = True
        states = self.problem.reshape_states(x)
        gridded = self.problem.grid.reshape_to_grid(states)
        return MPDEResult(states=gridded, problem=self.problem, stats=stats)

    # -- recovery escalation ladder ----------------------------------------------------
    def _solve_with_recovery(self, x_start: np.ndarray, stats: MPDEStats) -> np.ndarray:
        """Baseline Newton attempt plus the :data:`RECOVERY_LADDER` rungs.

        Every failed attempt is classified
        (:func:`~repro.resilience.taxonomy.classify_failure`) and the ladder
        rungs are tried in order, each recorded in ``stats.recovery_trace``.
        A rung that does not apply to the current failure kind (or the
        solver configuration) is recorded as skipped.
        :class:`DeadlineExceededError` is terminal and never recovered.
        """
        x, failure = self._ladder_attempt(
            stats, "baseline", "", lambda: self._newton(x_start, stats)
        )
        for rung in RECOVERY_LADDER:
            if failure is None:
                break
            self._deadline.check("recovery", partial_stats=stats)
            kind = classify_failure(failure)
            outcome = getattr(self, f"_rung_{rung}")(kind, x_start, stats)
            if isinstance(outcome, str):
                stats.recovery_trace.append(
                    RecoveryAttempt(rung=rung, trigger=kind, outcome="skipped", detail=outcome)
                )
            else:
                x, failure = outcome
        if failure is not None:
            raise self._attach_terminal_diagnostics(failure, classify_failure(failure))
        return x

    def _ladder_attempt(self, stats, rung, trigger, runner, detail=""):
        """Run one solve attempt, recording it in the recovery trace.

        Returns ``(x, failure)``: on success ``failure`` is None and the
        attempt is recorded as ``recovered`` (baseline successes are not
        recorded — the trace documents failures and their handling); on
        failure ``x`` is None and ``failure`` is the classified exception (a
        non-raising non-converged Newton run is wrapped in a
        :class:`ConvergenceError` so every failure has one representation).
        """
        if rung != "baseline":
            _LOG.info("recovery ladder: %s failure; trying rung %r", trigger, rung)
        started = time.perf_counter()
        failure = None
        x = None
        try:
            x, converged = runner()
            if not converged:
                failure = ConvergenceError(
                    "MPDE Newton iteration did not converge "
                    f"(residual norm {stats.residual_norm:.3e})",
                    iterations=stats.newton_iterations,
                    residual_norm=stats.residual_norm,
                )
        except DeadlineExceededError:
            raise
        except AnalysisError as exc:
            failure = exc
        duration = time.perf_counter() - started
        if failure is not None:
            stats.recovery_trace.append(
                RecoveryAttempt(
                    rung=rung,
                    trigger=trigger,
                    outcome="failed",
                    detail=detail or str(failure),
                    duration_s=duration,
                )
            )
            return None, failure
        if rung != "baseline":
            stats.recovery_trace.append(
                RecoveryAttempt(
                    rung=rung,
                    trigger=trigger,
                    outcome="recovered",
                    detail=detail,
                    duration_s=duration,
                )
            )
            stats.recovered_by = rung
            _LOG.info("recovery ladder: rung %r recovered the solve", rung)
        return x, None

    # Each rung below gets the failure ``kind`` and returns either the reason
    # it does not apply (recorded as skipped) or the ``(x, failure)`` of its
    # attempt from ``x_start``.
    def _rung_newton_refresh(self, kind, x_start, stats):
        if kind not in ("singular", "gmres_stagnation"):
            return f"not applicable to {kind} failures"
        refreshed = self._linear.refresh()
        return self._ladder_attempt(
            stats,
            "newton_refresh",
            kind,
            lambda: self._newton(x_start, stats, linear=refreshed),
            detail=self._linear.refresh_detail,
        )

    def _rung_damping(self, kind, x_start, stats):
        if kind not in ("divergence", "singular", "gmres_stagnation"):
            return f"not applicable to {kind} failures"
        base = self.options.newton
        damping = base.damping * self.DAMPING_FACTOR
        damped = base.with_(
            damping=damping,
            min_damping=min(base.min_damping, damping / 1024.0),
            max_iterations=base.max_iterations + self.DAMPING_EXTRA_ITERATIONS,
        )

        def run_damped():
            x, converged = self._newton(x_start, stats, newton_options=damped)
            if not converged:
                return x, False
            # The damped steps converge linearly and stop as soon as the
            # residual test passes, which can leave the state far from the
            # solution (6.7e-5 on the matrix-free multi_lo_receiver smoke
            # case); full steps from there converge quadratically.
            return self._newton(
                x, stats, newton_options=base.with_(damping=1.0), polish=True
            )

        return self._ladder_attempt(
            stats,
            "damping",
            kind,
            run_damped,
            detail=(
                f"damping {base.damping:g} -> {damping:g}, "
                f"max_iterations {base.max_iterations} -> {damped.max_iterations}"
            ),
        )

    def _rung_preconditioner_downgrade(self, kind, x_start, stats):
        if isinstance(self._linear, DirectLU):
            return "direct solver uses no preconditioner"
        # Re-solve with sparse direct LU, as a direct solve would; the later
        # rungs keep the direct solver.
        self._linear = DirectLU(self.problem, stats)
        return self._ladder_attempt(
            stats,
            "preconditioner_downgrade",
            kind,
            lambda: self._newton(x_start, stats),
            detail=f"preconditioner {self.options.preconditioner} -> direct LU",
        )

    def _rung_continuation(self, kind, x_start, stats):
        return self._ladder_attempt(
            stats,
            "continuation",
            kind,
            lambda: (self._continuation(x_start, stats), True),
            detail="source-stepping continuation",
        )

    def _rung_guess_retry(self, kind, x_start, stats):
        x_zero = self.problem.initial_guess_zero()
        return self._ladder_attempt(
            stats,
            "guess_retry",
            kind,
            lambda: self._newton(x_zero, stats),
            detail="retry from 'zero' initial guess",
        )

    def _attach_terminal_diagnostics(self, exc, kind: str):
        """Best-effort failure localisation attached to the terminal error."""
        try:
            x_last = self._last_iterate
            residual = (
                self.problem.residual(x_last, source_grid=None)
                if x_last is not None
                else None
            )
            diagnostics = build_failure_diagnostics(
                self.problem.mna, x_last, residual, kind
            )
        except Exception:  # diagnostics must never mask the real failure
            diagnostics = None
        return attach_diagnostics(exc, diagnostics)


def solve_mpde(
    mna: MNASystem,
    scales: ShearedTimeScales | UnshearedTimeScales,
    options: MPDEOptions | None = None,
    *,
    x0: np.ndarray | None = None,
    deadline_s: float | None = None,
    checkpoint_path: str | os.PathLike | None = None,
    resume_from: "SolveCheckpoint | str | os.PathLike | None" = None,
) -> MPDEResult:
    """One-call driver: discretise the MPDE and solve it.

    This is the main entry point of the library::

        scales = ShearedTimeScales.from_frequencies(f_lo, f_rf, lo_multiple=2)
        result = solve_mpde(circuit.compile(), scales, MPDEOptions(n_fast=40, n_slow=30))
        baseband = result.baseband_envelope("outp", node_neg="outn")

    ``deadline_s`` bounds the solve's wall time, ``checkpoint_path``
    persists its iteration-boundary
    :class:`~repro.resilience.checkpoint.SolveCheckpoint` snapshots and
    ``resume_from`` continues an interrupted solve from a checkpoint object
    or persisted file — see :meth:`MPDESolver.solve`.
    """
    return MPDESolver(MPDEProblem(mna, scales, options)).solve(
        x0=x0,
        deadline_s=deadline_s,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
