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
from ..resilience.checkpoint import SolveCheckpoint, solve_fingerprint
from ..resilience.deadline import Deadline
from ..resilience.diagnostics import attach_diagnostics, build_failure_diagnostics
from ..resilience.faultinject import fault_site
from ..resilience.taxonomy import RecoveryAttempt, classify_failure
from ..signals.waveform import BivariateWaveform, Waveform
from ..utils.exceptions import (
    AnalysisError,
    ConvergenceError,
    DeadlineExceededError,
    MPDEError,
    SingularMatrixError,
)
from ..utils.logging import get_logger
from ..utils.options import ContinuationOptions, MPDEOptions, NewtonOptions
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
    #: Without chord Newton this equals ``linear_solves``; with it the
    #: adaptive reuse policy keeps it well below (0 for the matrix-free
    #: mode, whose factorisation effort is ``preconditioner_builds``).
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
    #: ``options.gmres_tol`` for a tight solve (empty for the direct solver).
    linear_tolerance_history: list[float] = field(default_factory=list)
    #: Number of preconditioner builds performed (one per GMRES solve).
    preconditioner_builds: int = 0
    #: Harmonic systems factored by the partially-averaged
    #: ``"block_circulant_fast"`` preconditioner across the whole solve (all
    #: builds summed; one lazy LU per build covers the ``n_slow // 2 + 1``
    #: distinct harmonics).  Zero for ``"block_circulant"``.
    preconditioner_harmonic_builds: int = 0
    #: Preconditioner mode used for the GMRES solves ("" for the direct
    #: solver).
    preconditioner_kind: str = ""
    #: True when any preconditioner build degraded to a weaker fallback
    #: (a singular harmonic block replaced by its pseudo-inverse).
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
#: next GMRES solve is tight; over ``_ChordLU.STALL_STEPS`` steps, a
#: chord-Newton run ends.
_STALL_RATIO = 0.99


class _ForcingTerm:
    """Eisenstat–Walker tolerances for the GMRES solves of one Newton run.

    Choice 2 of Eisenstat and Walker (SIAM J. Sci. Comput. 17, 1996): the
    relative tolerance of the k-th linear solve is

        eta_k = min(ETA_MAX, GAMMA * (||F_k|| / ||F_{k-1}||) ** ALPHA)

    in 2-norms, raised to ``GAMMA * eta_{k-1} ** ALPHA`` whenever that
    safeguard exceeds ``SAFEGUARD`` (so eta cannot collapse while Newton is
    still far from the solution), and never below ``floor`` (the options'
    ``gmres_tol``).  A solve at the floor is *tight*.  Two guards keep the
    loose early solves from costing Newton iterations:

    * after a step that cut the max-norm residual by less than 1%, or whose
      line search failed, the next solve is tight (without it, loose solves
      repeat a useless direction: at ``ETA_MAX = 0.5`` the 40x30
      paper-mixer ``block_circulant_fast`` solve crawled for 60 Newton
      iterations at 2e-3, about one GMRES iteration each);
    * the run may report convergence only after a tight step (without it,
      the 16x8 switching-mixer ``block_circulant`` solve meets its residual
      tolerance on a loose step and stops at a relative state error of
      3.8e-8 against the direct solution).

    A direct solve never asks for a tolerance and so always counts as tight.
    A damped run (``NewtonOptions.damping < 1``) uses the forcing terms as
    well.  Its steps converge linearly and it stops just inside the residual
    tolerance, so the ladder's damping rung follows it with polish steps:
    full steps, every correction tight, until the update test passes.  The
    polish supplies the accuracy; tight damped corrections would cost
    hundreds of GMRES iterations each on the strongly switched scenarios.
    The constants were chosen on exact GMRES and Newton counts.  For the
    20x15 balanced mixer, ``ETA_MAX`` from 0.1 to 0.9 keeps Newton within
    one iteration of the exact-solve count.  Between 0.5 and 0.8, the
    36x18 spectral ``block_circulant_fast`` solve meets extra stalls and
    loses its 1.5x iteration lead over ``block_circulant``; 0.1 to 0.4 keep
    it at 1.8x to 3x.
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


class _ChordLU:
    """Cached sparse LU of the MPDE Jacobian for direct-mode chord Newton.

    The first Newton step after a factorisation records its observed
    residual-reduction ratio, in ``RATIO_SCALE`` units, as the trend
    ``baseline``; once a later step's scaled ratio exceeds ``baseline *
    REFRESH_GROWTH + REFRESH_SLACK``, or a line search fails outright
    against the stale factorisation, the next linear solve refactors at the
    current iterate.
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

    def __init__(self) -> None:
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
        return self.backsolve is None or self._stale or self._trend_degraded()

    def store(self, backsolve) -> None:
        self.backsolve = backsolve
        self.just_built = True
        self._stale = False
        self.baseline = None
        self.last = None

    def invalidate(self) -> None:
        self.backsolve = None

    @property
    def stalled(self) -> bool:
        return (
            len(self.recent_ratios) == self.STALL_STEPS
            and float(np.prod(self.recent_ratios)) > _STALL_RATIO
        )

    def capture_state(self) -> dict | None:
        """Chord cache state for a :class:`SolveCheckpoint` (None when cold)."""
        if self.backsolve is None or self.factored_at is None:
            return None
        return {
            "factored_at": np.array(self.factored_at, copy=True),
            "baseline": self.baseline,
            "last": self.last,
            "just_built": self.just_built,
            "stale": self._stale,
            "recent_ratios": list(self.recent_ratios),
        }

    def restore_state(self, state: dict, refactor) -> None:
        """Rebuild the cached factorisation exactly as a checkpoint recorded it.

        ``refactor`` is a callable refactoring at a given iterate (the
        solver's ``_chord_refactor``); the trend and staleness flags are
        then replayed on top of the fresh build.
        """
        refactor(np.asarray(state["factored_at"], dtype=float))
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
        capped = ratio if ratio <= self.RATIO_CAP else self.RATIO_CAP  # NaN -> cap
        self.recent_ratios = [*self.recent_ratios, capped][-self.STALL_STEPS :]
        if not accepted:
            self.invalidate()
            return
        self._record_trend(int(capped * self.RATIO_SCALE))
        if self.just_built:
            # The first step after a rebuild is the reference full-Newton
            # step; it sets the trend baseline but must not mark its own
            # (fresh) factorisation stale even when Newton itself is slow.
            self.just_built = False
        elif ratio > self.MAX_RATIO:
            self._stale = True


class MPDESolver:
    """Damped Newton (+ continuation) solver for an :class:`MPDEProblem`.

    Linear sub-solves come in two flavours, selected by the options:

    * the default — sparse LU on the assembled CSC Jacobian, reused across
      iterations by chord Newton (``options.chord_newton``);
    * ``matrix_free=True`` — GMRES on the matrix-free Jacobian-vector-product
      operator, preconditioned by ``options.preconditioner``
      (``"block_circulant_fast"`` or ``"block_circulant"``), built through
      :meth:`MPDEProblem.build_preconditioner` from fresh Jacobian data for
      every solve.

    Each GMRES solve runs at the tolerance the Eisenstat–Walker forcing term
    picks (see :class:`_ForcingTerm`), with ``options.gmres_tol`` as floor
    and for every tight step.

    Every solve populates the :class:`MPDEStats` wall-time
    breakdown (``eval_time_s``, ``factorization_time_s``,
    ``preconditioner_build_time_s``, ``gmres_time_s``) so benchmarks can
    see where the remaining time goes in any mode.
    """

    #: The ``damping`` rung multiplies the Newton damping by this factor and
    #: grants this many extra Newton iterations (damped steps make less
    #: progress each).
    DAMPING_FACTOR = 0.25
    DAMPING_EXTRA_ITERATIONS = 40
    #: Initial-guess modes the ``guess_retry`` rung tries, minus the one in use.
    GUESS_MODES = ("zero", "dc")
    #: Source-stepping schedule of the ``continuation`` rung.
    CONTINUATION = ContinuationOptions()

    def __init__(self, problem: MPDEProblem, options: MPDEOptions | None = None) -> None:
        self.problem = problem
        self.options = options or problem.options
        self._krylov = CachedPreconditionedGMRES(self._build_preconditioner)
        use_chord = self.options.chord_newton and not self.options.matrix_free
        self._chord = _ChordLU() if use_chord else None
        self._chord_suspended = False
        # Resilience state: a no-op deadline until ``solve`` installs the
        # real one, the recovery ladder's switch of a matrix-free solve to
        # direct LU, and the last Newton iterate (for failure diagnostics).
        self._deadline = Deadline(None)
        self._direct_fallback = False
        self._last_iterate: np.ndarray | None = None
        # Checkpoint state: the latest iteration-boundary snapshot (attached
        # to deadline / terminal failures), the fingerprint it is recorded
        # under, and the chord and forcing states waiting to be restored by
        # ``_newton`` when resuming.
        self._checkpoint: SolveCheckpoint | None = None
        self._solve_fingerprint = ""
        self._pending_chord_state: dict | None = None
        self._pending_forcing_state: dict | None = None
        # GMRES forcing terms of the running Newton run.
        self._forcing: _ForcingTerm | None = None

    @property
    def _matrix_free(self) -> bool:
        """GMRES solves are in effect (matrix-free, not switched to LU)."""
        return bool(self.options.matrix_free) and not self._direct_fallback

    @property
    def _chord_active(self) -> bool:
        return self._chord is not None and not self._chord_suspended

    # -- residual/Jacobian evaluation -------------------------------------------
    def _evaluate(self, x: np.ndarray, source_grid: np.ndarray | None):
        """Residual plus whatever the linear solver needs at ``x``.

        Returns ``(residual, operator, data)`` where ``operator`` is the
        matrix-free Jacobian ``LinearOperator`` (``None`` in direct mode)
        and ``data`` carries the per-point Jacobian value arrays the
        preconditioners and the full-Newton LU are built from (the chord
        iterate in chord mode).
        """
        if self._chord_active:
            # Chord Newton: residual-only sweep; the (cached) factorisation
            # is produced lazily inside the linear solve, at the iterate
            # carried through ``data``, only when the refresh policy asks.
            residual = self.problem.residual(x, source_grid=source_grid)
            return residual, None, x
        residual, c_data, g_data = self.problem.residual_and_values(x, source_grid=source_grid)
        operator = self.problem.jacobian_operator(c_data, g_data) if self._matrix_free else None
        return residual, operator, (c_data, g_data)

    # -- linear sub-solves -------------------------------------------------------
    def _build_preconditioner(self, data):
        """Build callback for the :class:`CachedPreconditionedGMRES` manager."""
        c_data, g_data = data
        return self.problem.build_preconditioner(
            self.options.preconditioner, c_data=c_data, g_data=g_data
        )

    def _factor_jacobian(self, c_data: np.ndarray, g_data: np.ndarray, stats: MPDEStats):
        """Sparse LU of the Jacobian with per-point data ``(c_data, g_data)``.

        Returns the LU's back-substitution.  The problem's first
        factorisation computes the COLAMD column order and records it on
        the Jacobian assembler; every later one factors the Jacobian
        assembled already in that order (``permc_spec="NATURAL"``, the same
        LU bit for bit, see :class:`~repro.linalg.sparse.ColumnOrder`).
        Assembly counts toward ``eval_time_s``, the LU toward
        ``factorization_time_s``; a singular Jacobian raises
        ``RuntimeError`` (from ``splu``).
        """
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

    def _chord_refactor(self, x: np.ndarray, stats: MPDEStats) -> None:
        start = time.perf_counter()
        c_data, g_data = self.problem.jacobian_values(x)
        stats.eval_time_s += time.perf_counter() - start
        try:
            backsolve = self._factor_jacobian(c_data, g_data, stats)
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse LU failed on the MPDE Jacobian: {exc}") from exc
        stats.jacobian_factorizations += 1
        self._chord.store(backsolve)
        self._chord.factored_at = np.array(x, dtype=float, copy=True)

    def _chord_solve(self, rhs: np.ndarray, stats: MPDEStats, x: np.ndarray) -> np.ndarray:
        chord = self._chord
        if chord.needs_refresh():
            self._chord_refactor(x, stats)
        start = time.perf_counter()
        dx = chord.backsolve(rhs)
        stats.factorization_time_s += time.perf_counter() - start
        if not np.all(np.isfinite(dx)):
            if chord.just_built:
                raise SingularMatrixError(
                    "sparse LU produced non-finite values (singular MPDE Jacobian; check for "
                    "floating nodes or an all-capacitive cutset)"
                )
            # A stale factorisation can go numerically bad even though a
            # fresh one would not; rebuild at the current iterate and retry
            # once before declaring the Jacobian singular.
            self._chord_refactor(x, stats)
            start = time.perf_counter()
            dx = chord.backsolve(rhs)
            stats.factorization_time_s += time.perf_counter() - start
            if not np.all(np.isfinite(dx)):
                raise SingularMatrixError(
                    "sparse LU produced non-finite values (singular MPDE Jacobian; check for "
                    "floating nodes or an all-capacitive cutset)"
                )
        return dx

    def _solve_linear(
        self, operator, rhs: np.ndarray, stats: MPDEStats, data, tol: float | None
    ) -> np.ndarray:
        """One Newton correction; ``tol`` is the GMRES tolerance (None for direct)."""
        stats.linear_solves += 1
        if not self._matrix_free:
            if self._chord_active:
                return self._chord_solve(rhs, stats, data)
            stats.jacobian_factorizations += 1
            try:
                backsolve = self._factor_jacobian(*data, stats)
            except RuntimeError:
                # Exactly singular: reported like a non-finite solution.
                dx = None
            else:
                start = time.perf_counter()
                dx = backsolve(rhs)
                stats.factorization_time_s += time.perf_counter() - start
            if dx is None or not np.all(np.isfinite(dx)):
                raise SingularMatrixError(
                    "sparse LU produced non-finite values (singular MPDE Jacobian; check for "
                    "floating nodes or an all-capacitive cutset)"
                )
            return dx

        fault_site("solver.gmres", preconditioner=self.options.preconditioner)
        if not np.all(np.isfinite(rhs)):
            # GMRES would grind through its whole iteration budget on a NaN
            # right-hand side; fail the way the direct path does instead.
            raise SingularMatrixError(
                "non-finite MPDE residual; the GMRES linear solve cannot proceed"
            )
        builds_before = self._krylov.builds
        harmonic_before = self._krylov.harmonic_builds
        build_time_before = self._krylov.build_time_s
        solve_time_before = self._krylov.solve_time_s
        backsub_before = self._krylov.apply_backsub_time_s
        dx, report = self._krylov.solve(
            operator,
            rhs,
            context=data,
            tol=tol,
            restart=self.options.gmres_restart,
            deadline=self._deadline,
        )
        stats.preconditioner_builds += self._krylov.builds - builds_before
        stats.preconditioner_harmonic_builds += (
            self._krylov.harmonic_builds - harmonic_before
        )
        stats.preconditioner_build_time_s += self._krylov.build_time_s - build_time_before
        stats.gmres_time_s += self._krylov.solve_time_s - solve_time_before
        stats.gmres_backsub_time_s += self._krylov.apply_backsub_time_s - backsub_before
        stats.preconditioner_kind = self.options.preconditioner
        stats.linear_iterations += report.iterations
        stats.linear_iteration_history.append(report.iterations)
        stats.linear_tolerance_history.append(tol)
        stats.preconditioner_degraded |= report.preconditioner_degraded
        return dx

    # -- timed evaluation wrappers -----------------------------------------------
    # The wall-time breakdown wants every device sweep accounted to
    # ``eval_time_s`` regardless of which linear mode runs; wrapping here
    # (rather than inside MPDEProblem) keeps the problem object free of
    # stats plumbing.
    def _timed_evaluate(self, x: np.ndarray, source_grid, stats: MPDEStats):
        start = time.perf_counter()
        try:
            return self._evaluate(x, source_grid)
        finally:
            stats.eval_time_s += time.perf_counter() - start

    def _timed_residual(
        self, x: np.ndarray, source_grid, stats: MPDEStats
    ) -> np.ndarray:
        start = time.perf_counter()
        try:
            return self.problem.residual(x, source_grid=source_grid)
        finally:
            stats.eval_time_s += time.perf_counter() - start

    # -- Newton loop -----------------------------------------------------------------
    def _newton(
        self,
        x0: np.ndarray,
        stats: MPDEStats,
        *,
        source_grid: np.ndarray | None = None,
        max_iterations: int | None = None,
        newton_options: NewtonOptions | None = None,
        polish: bool = False,
    ) -> tuple[np.ndarray, bool]:
        """One Newton run from ``x0``; returns ``(x, converged)``.

        ``polish`` finishes an already converged answer: every GMRES solve
        is tight, and the run converges only through the post-step test,
        so it takes at least one step and stops when the update is small.
        """
        opts = newton_options if newton_options is not None else self.options.newton
        max_iter = max_iterations if max_iterations is not None else opts.max_iterations
        x = np.asarray(x0, dtype=float).copy()
        self._last_iterate = x

        if self._chord_active:
            if source_grid is None and self._pending_chord_state is not None:
                # Resuming from a checkpoint: rebuild the chord cache exactly
                # as the interrupted solve left it, so the resumed trajectory
                # is bitwise identical to the uninterrupted one.
                state = self._pending_chord_state
                self._pending_chord_state = None
                self._chord.restore_state(
                    state, lambda x_at: self._chord_refactor(x_at, stats)
                )
            else:
                # Every Newton run (the main solve, and each continuation
                # stage) starts from a fresh factorisation: a factor left
                # over from a different embedding is a poor chord matrix and
                # can burn a tight iteration budget before the refresh
                # policy notices.
                self._chord.invalidate()
                self._chord.recent_ratios = []
        # Direct solves are exact: they never ask for a tolerance, so their
        # forcing state stays tight.
        forcing = self._forcing = _ForcingTerm(self.options.gmres_tol)
        if source_grid is None and self._pending_forcing_state is not None:
            forcing.restore_state(self._pending_forcing_state)
        self._pending_forcing_state = None

        residual, operator, data = self._timed_evaluate(x, source_grid, stats)
        res_norm = float(np.max(np.abs(residual)))
        stats.residual_history.append(res_norm)
        if source_grid is None:
            # Iteration-boundary checkpoint (the continuation stages solve
            # embedded problems whose iterates are not resume points of the
            # real one, so only the un-embedded runs record).
            self._record_checkpoint(x, stats, res_norm)

        for _iteration in range(1, max_iter + 1):
            self._deadline.check("newton", partial_stats=stats)
            if res_norm <= opts.abstol and not polish:
                if forcing.tight:
                    stats.residual_norm = res_norm
                    return x, True
                # Converged on a loosely solved step: take one tight step.
                forcing.force_tight = True
            tol = None
            if self._matrix_free and polish:
                # A polish is there for accuracy; see _ForcingTerm.
                tol = self.options.gmres_tol
            elif self._matrix_free:
                tol = forcing.tolerance(float(np.linalg.norm(residual)))
            fault_site("solver.linear_solve", iteration=_iteration - 1)
            dx = self._solve_linear(operator, -residual, stats, data, tol)
            step_norm = float(np.max(np.abs(dx)))
            if np.isfinite(opts.max_step_norm) and step_norm > opts.max_step_norm:
                dx *= opts.max_step_norm / step_norm

            damping = opts.damping
            accepted = False
            while damping >= opts.min_damping:
                x_trial = x + damping * dx
                residual_trial = self._timed_residual(x_trial, source_grid, stats)
                trial_norm = float(np.max(np.abs(residual_trial)))
                if np.isfinite(trial_norm) and trial_norm < res_norm * (1.0 + 1e-12):
                    accepted = True
                    break
                damping *= 0.5
            if not accepted:
                x_trial = x + opts.min_damping * dx
                residual_trial = self._timed_residual(x_trial, source_grid, stats)
                trial_norm = float(np.max(np.abs(residual_trial)))

            ratio = trial_norm / res_norm if res_norm > 0.0 else 1.0
            if self._chord_active:
                self._chord.record_step(ratio, accepted)
            forcing.record_step(ratio, accepted)

            update_norm = float(np.max(np.abs(x_trial - x)))
            x = x_trial
            self._last_iterate = x
            stats.newton_iterations += 1
            res_norm = trial_norm
            stats.residual_history.append(res_norm)
            if source_grid is None:
                self._record_checkpoint(x, stats, res_norm)
            _LOG.debug(
                "MPDE newton iter=%d residual=%.3e update=%.3e damping=%.3g",
                stats.newton_iterations,
                res_norm,
                update_norm,
                damping,
            )

            x_scale = float(np.max(np.abs(x))) if x.size else 0.0
            if (
                res_norm <= opts.abstol
                and update_norm <= opts.reltol * x_scale + opts.abstol
                and forcing.tight
            ):
                stats.residual_norm = res_norm
                return x, True
            if self._chord_active and self._chord.stalled:
                break

            # Re-evaluate residual and Jacobian at the accepted iterate.  In
            # chord mode the line search already evaluated the residual at
            # the accepted iterate and no Jacobian data is needed up front.
            if self._chord_active:
                residual, operator, data = residual_trial, None, x
            else:
                residual, operator, data = self._timed_evaluate(x, source_grid, stats)
            res_norm = float(np.max(np.abs(residual)))

        stats.residual_norm = res_norm
        if res_norm <= opts.abstol and forcing.tight and not polish:
            return x, True
        if self._chord_active:
            # The chord run stalled or spent its budget, partly on
            # stale-factorisation steps, which is not a fair convergence
            # verdict.  Mirror the transient layer's chord fallback: retry
            # the run with a fresh factorisation at every iterate before
            # reporting failure, so robustness matches
            # ``chord_newton=False`` exactly.
            _LOG.debug(
                "chord Newton run stalled (residual %.3e); retrying with per-iterate "
                "factorisation",
                res_norm,
            )
            self._chord_suspended = True
            try:
                return self._newton(
                    x0,
                    stats,
                    source_grid=source_grid,
                    max_iterations=max_iterations,
                    newton_options=newton_options,
                    polish=polish,
                )
            finally:
                self._chord_suspended = False
        return x, False

    # -- continuation fallback -----------------------------------------------------------
    class _SweepStage:
        """Adapter giving :func:`continuation_sweep` its per-stage protocol."""

        __slots__ = ("x", "converged", "iterations", "residual_norm")

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
            solve_at,
            np.asarray(x0, dtype=float).copy(),
            self.CONTINUATION,
            deadline=self._deadline,
        )
        stats.continuation_steps += result.steps
        return result.x

    # -- initial guess -----------------------------------------------------------------------
    def _initial_guess(self, mode: str | None = None) -> np.ndarray:
        mode = mode if mode is not None else self.options.initial_guess
        if mode == "zero":
            return self.problem.initial_guess_zero()
        if mode == "dc":
            x_dc = dc_operating_point(self.problem.mna).x
            return self.problem.initial_guess_from_state(x_dc)
        if mode == "transient":
            # A short settling transient (a few fast periods) often lands much
            # closer to the steady state than the DC point for switching
            # circuits; the final state is tiled over the grid.
            from ..analysis.transient import run_transient  # local import to avoid cycles

            period = self.problem.grid.period_fast
            result = run_transient(
                self.problem.mna,
                t_stop=5.0 * period,
                dt=period / max(20, self.problem.grid.n_fast),
            )
            return self.problem.initial_guess_from_state(result.final_state())
        raise MPDEError(f"unknown initial_guess mode {mode!r}")

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
            fast_method=self.problem.options.fast_method,
            slow_method=self.problem.options.slow_method,
            matrix_free=opts.matrix_free,
            preconditioner=opts.preconditioner,
            chord_newton=opts.chord_newton,
        )

    def _record_checkpoint(
        self, x: np.ndarray, stats: MPDEStats, residual_norm: float
    ) -> None:
        """Snapshot the accepted iterate (iteration-boundary consistency).

        Always kept in memory (attached to deadline / terminal failures);
        additionally persisted atomically when ``options.checkpoint_path``
        is set.
        """
        chord_state = self._chord.capture_state() if self._chord_active else None
        self._checkpoint = SolveCheckpoint(
            fingerprint=self._solve_fingerprint,
            stage="newton",
            iterate=np.array(x, copy=True),
            newton_iterations=stats.newton_iterations,
            residual_norm=float(residual_norm),
            chord_state=chord_state,
            forcing_state=self._forcing.capture_state(),
            recovery_trace=list(stats.recovery_trace),
            stats=dataclasses.asdict(stats),
        )
        if self.options.checkpoint_path:
            self._checkpoint.save(self.options.checkpoint_path)

    # -- public API -------------------------------------------------------------------------------
    def solve(
        self,
        x0: np.ndarray | None = None,
        *,
        resume_from: "SolveCheckpoint | str | os.PathLike | None" = None,
    ) -> MPDEResult:
        """Solve the MPDE and return an :class:`MPDEResult`.

        Parameters
        ----------
        x0:
            Optional flattened initial guess of length ``P * n`` (or a single
            circuit state of length ``n``, which is tiled over the grid).
            When omitted, the guess selected by ``options.initial_guess`` is
            used.
        resume_from:
            A :class:`~repro.resilience.checkpoint.SolveCheckpoint` (or the
            path of one persisted via ``options.checkpoint_path``) recorded
            by an interrupted solve of *this same problem*.  The checkpoint
            fingerprint is validated (:class:`CheckpointError` on mismatch),
            its iterate becomes the initial guess (unless an explicit ``x0``
            overrides it) and the chord cache state (chord-Newton mode) or
            the GMRES forcing state (matrix-free mode) is restored — so a
            deadline-split solve converges bit-for-bit to the uninterrupted
            answer.
        """
        stats = MPDEStats(
            n_grid_points=self.problem.n_grid_points,
            n_total_unknowns=self.problem.n_total_unknowns,
        )
        if self.options.matrix_free:
            # A chord LU here was made by an earlier solve's
            # preconditioner_downgrade rung.
            self._chord = None
        if self._chord is not None:
            self._chord.invalidate()
        self._deadline = Deadline(self.options.deadline_s)
        self._direct_fallback = False
        self._last_iterate = None
        self._solve_fingerprint = self._fingerprint()
        self._checkpoint = None
        self._pending_chord_state = None
        self._pending_forcing_state = None
        if resume_from is not None:
            if isinstance(resume_from, (str, os.PathLike)):
                resume_from = SolveCheckpoint.load(resume_from)
            resume_from.validate(self._solve_fingerprint)
            if x0 is None:
                x0 = np.array(resume_from.iterate, copy=True)
            if resume_from.chord_state is not None and self._chord is not None:
                self._pending_chord_state = dict(resume_from.chord_state)
            if resume_from.forcing_state is not None:
                self._pending_forcing_state = dict(resume_from.forcing_state)
        start = time.perf_counter()

        if x0 is None:
            x_start = self._initial_guess()
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
            # Release the chord factorisation now: no later solve reuses it,
            # and the solver itself is freed only by the cycle collector (the
            # Krylov manager holds a bound method of it), which would keep its
            # native LU memory alive well past the solve.
            if self._chord is not None:
                self._chord.invalidate()

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
        if self._chord is None and not self._matrix_free:
            return "no cached factorisation or preconditioner to refresh"

        def run_refresh():
            # Drop the cached factorisation and solve with full Newton
            # (chord suspended → refactor at each iterate).  A matrix-free
            # solve has nothing to drop: the run repeats the baseline, which
            # absorbs a transient fault only.
            if self._chord is not None:
                self._chord.invalidate()
            suspended = self._chord_suspended
            self._chord_suspended = True
            try:
                return self._newton(x_start, stats)
            finally:
                self._chord_suspended = suspended

        return self._ladder_attempt(
            stats,
            "newton_refresh",
            kind,
            run_refresh,
            detail=(
                "chord LU dropped; full Newton refresh"
                if self._chord is not None
                else "re-solved from the start point; the preconditioner is "
                "rebuilt at every GMRES solve"
            ),
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
        if not self._matrix_free:
            return "direct solver uses no preconditioner"
        # Re-solve with sparse direct LU, by chord Newton when the options
        # ask for it, as a direct solve would; the later rungs keep the
        # direct solver.  The next ``solve`` drops the chord.
        self._direct_fallback = True
        if self.options.chord_newton:
            self._chord = _ChordLU()
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
        failure = None
        for mode in self.GUESS_MODES:
            if mode == self.options.initial_guess:
                continue
            try:
                x_retry = self._initial_guess(mode)
            except AnalysisError as exc:
                stats.recovery_trace.append(
                    RecoveryAttempt(
                        rung="guess_retry",
                        trigger=kind,
                        outcome="failed",
                        detail=f"initial guess {mode!r} failed: {exc}",
                    )
                )
                failure = exc
                continue
            x, failure = self._ladder_attempt(
                stats,
                "guess_retry",
                kind,
                lambda: self._newton(x_retry, stats),
                detail=f"retry from {mode!r} initial guess",
            )
            if failure is None:
                return x, None
            kind = classify_failure(failure)
        return None, failure

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
    resume_from: "SolveCheckpoint | str | os.PathLike | None" = None,
    checkpoint_path: str | os.PathLike | None = None,
) -> MPDEResult:
    """One-call driver: discretise the MPDE and solve it.

    This is the main entry point of the library::

        scales = ShearedTimeScales.from_frequencies(f_lo, f_rf, lo_multiple=2)
        result = solve_mpde(circuit.compile(), scales, MPDEOptions(n_fast=40, n_slow=30))
        baseband = result.baseband_envelope("outp", node_neg="outn")

    ``checkpoint_path`` persists iteration-boundary
    :class:`~repro.resilience.checkpoint.SolveCheckpoint` snapshots there
    (atomic rename; shorthand for ``MPDEOptions.checkpoint_path``);
    ``resume_from`` continues an interrupted solve from a checkpoint object
    or persisted file — see :meth:`MPDESolver.solve`.
    """
    if checkpoint_path is not None:
        options = dataclasses.replace(
            options if options is not None else MPDEOptions(),
            checkpoint_path=os.fspath(checkpoint_path),
        )
    problem = MPDEProblem(mna, scales, options)
    return MPDESolver(problem, options).solve(x0=x0, resume_from=resume_from)
