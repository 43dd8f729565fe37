"""Solver resilience layer: taxonomy, deadlines, diagnostics, fault injection.

The solves in this package fail for many distinct reasons — Newton
divergence on hard starts, singular or ill-conditioned Jacobians, GMRES
stagnation, degraded preconditioners, NaN device evaluations.
This subpackage gives those failures a single structured treatment:

* :mod:`~repro.resilience.taxonomy` — an enumerated failure model
  (:func:`~repro.resilience.taxonomy.classify_failure`) and the
  :class:`~repro.resilience.taxonomy.RecoveryAttempt` records that make up
  ``MPDEStats.recovery_trace``.  The escalation ladder itself is the fixed
  :data:`~repro.core.solver.RECOVERY_LADDER` walked by
  :class:`~repro.core.solver.MPDESolver`.
* :mod:`~repro.resilience.deadline` — cooperative per-solve deadlines
  (:class:`~repro.resilience.deadline.Deadline`), checked at iteration
  boundaries and raising
  :class:`~repro.utils.exceptions.DeadlineExceededError` with partial
  statistics attached.
* :mod:`~repro.resilience.diagnostics` — terminal-failure localisation:
  NaN/Inf and dominant residual entries mapped back to node names and
  device instances (:class:`~repro.resilience.diagnostics.FailureDiagnostics`),
  attached to the raised exception's ``diagnostics`` attribute.
* :mod:`~repro.resilience.faultinject` — a deterministic fault-injection
  registry (:func:`~repro.resilience.faultinject.inject_faults`) so every
  recovery rung is exercised by ``tests/test_resilience.py``
  instead of waiting for rare real failures, plus seeded random chaos
  schedules (:func:`~repro.resilience.faultinject.chaos_specs`) for the
  soak harness.
* :mod:`~repro.resilience.checkpoint` — crash-consistent
  checkpoint/resume
  (:class:`~repro.resilience.checkpoint.SolveCheckpoint`): iteration-
  boundary snapshots of the Newton iterate (in-memory always, atomic-rename
  ``.npz`` persistence with ``checkpoint_path=``), fingerprint-validated
  resume via ``solve_mpde(resume_from=...)``.

The modules are deliberately leaf-level (stdlib + numpy + ``repro.utils``
only) so every layer of the solver stack can import them.
"""

from .checkpoint import SolveCheckpoint, solve_fingerprint
from .deadline import Deadline
from .diagnostics import (
    FailureDiagnostics,
    attach_diagnostics,
    build_failure_diagnostics,
)
from .faultinject import (
    FaultInjected,
    FaultSpec,
    active_fault_plan,
    build_profile_specs,
    cache_build_fault,
    chaos_specs,
    dispatch_fault,
    fault_site,
    gmres_stall,
    inject_faults,
    nan_evaluation,
    singular_jacobian,
)
from .taxonomy import (
    FAILURE_KINDS,
    RecoveryAttempt,
    classify_failure,
)

__all__ = [
    "Deadline",
    "FailureDiagnostics",
    "attach_diagnostics",
    "build_failure_diagnostics",
    "FaultInjected",
    "FaultSpec",
    "active_fault_plan",
    "build_profile_specs",
    "chaos_specs",
    "fault_site",
    "inject_faults",
    "singular_jacobian",
    "gmres_stall",
    "nan_evaluation",
    "cache_build_fault",
    "dispatch_fault",
    "SolveCheckpoint",
    "solve_fingerprint",
    "FAILURE_KINDS",
    "RecoveryAttempt",
    "classify_failure",
]
