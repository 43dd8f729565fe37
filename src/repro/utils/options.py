"""Option bundles shared by the numerical analyses.

The simulator keeps its tunable knobs in small frozen dataclasses rather than
loose keyword arguments so that

* the defaults are documented in one place,
* option bundles can be passed through several layers (driver -> analysis ->
  Newton loop) without each layer re-declaring every knob, and
* tests can assert on the exact configuration used by an analysis.

All bundles validate themselves on construction and raise
:class:`~repro.utils.exceptions.ConfigurationError` for inconsistent values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from .exceptions import ConfigurationError

__all__ = [
    "EvaluationOptions",
    "NewtonOptions",
    "TransientOptions",
    "ShootingOptions",
    "MPDEOptions",
    "EVALUATION_BACKENDS",
    "PRECONDITIONER_KINDS",
]

#: The preconditioner mode names ``MPDEOptions.preconditioner`` accepts:
#: one, the slow-axis averaged ``"block_circulant_fast"``.  The name stays an
#: option because solve checkpoints record it in their fingerprint.
PRECONDITIONER_KINDS = ("block_circulant_fast",)

#: Device-evaluation backends of :class:`~repro.circuits.mna.MNASystem`:
#: ``"batched"`` routes stamps through the compiled gather/compute/scatter
#: engine (:mod:`repro.circuits.engine`), ``"loop"`` is the per-device
#: reference path the engine is property-tested against.
EVALUATION_BACKENDS = ("batched", "loop")


def _require_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def _require_in(name: str, value: Any, allowed: tuple[Any, ...]) -> None:
    if value not in allowed:
        raise ConfigurationError(
            f"{name} must be one of {allowed!r}, got {value!r}"
        )


@dataclass(frozen=True)
class EvaluationOptions:
    """Controls for circuit-equation evaluation (``Circuit.compile``).

    Attributes
    ----------
    evaluation_backend:
        ``"batched"`` (default) evaluates device stamps through the
        compile-time batched engine — devices grouped by class, one
        vectorised kernel per group, no per-device Python dispatch.
        ``"loop"`` is the per-device reference path; the two are bit-for-bit
        equal (property-tested) so the knob only trades speed, never
        results.
    """

    evaluation_backend: str = "batched"

    def __post_init__(self) -> None:
        _require_in("evaluation_backend", self.evaluation_backend, EVALUATION_BACKENDS)


@dataclass(frozen=True)
class NewtonOptions:
    """Controls for damped Newton-Raphson iterations.

    Attributes
    ----------
    max_iterations:
        Iteration budget before a :class:`ConvergenceError` is raised.
    abstol:
        Absolute tolerance on the residual norm (per equation), also the
        absolute part of the update test (whose relative part is
        :data:`repro.linalg.newton.RELTOL`).
    damping:
        Initial damping factor applied to the Newton step (1.0 = full step).
    min_damping:
        Smallest damping factor the line search may fall back to.
    """

    max_iterations: int = 60
    abstol: float = 1e-9
    damping: float = 1.0
    min_damping: float = 1.0 / 1024.0

    def __post_init__(self) -> None:
        _require_positive("max_iterations", self.max_iterations)
        _require_positive("abstol", self.abstol)
        _require_positive("damping", self.damping)
        _require_positive("min_damping", self.min_damping)
        if self.damping > 1.0:
            raise ConfigurationError("damping must be <= 1.0")
        if self.min_damping > self.damping:
            raise ConfigurationError("min_damping must be <= damping")

    def with_(self, **changes: Any) -> "NewtonOptions":
        """Return a copy with ``changes`` applied."""
        return replace(self, **changes)


@dataclass(frozen=True)
class TransientOptions:
    """Controls for SPICE-style time-stepping (transient) analysis.

    Every implicit step is solved by full Newton under ``newton``, which
    refactors the dense step Jacobian at every iteration.
    """

    method: str = "trapezoidal"
    adaptive: bool = False
    ltetol: float = 1e-4
    min_step: float = 1e-15
    max_step: float = float("inf")
    max_rejections: int = 20
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    store_every: int = 1

    _ALLOWED_METHODS = ("backward-euler", "trapezoidal", "gear2")

    def __post_init__(self) -> None:
        _require_in("method", self.method, self._ALLOWED_METHODS)
        _require_positive("ltetol", self.ltetol)
        _require_positive("min_step", self.min_step)
        _require_positive("max_step", self.max_step)
        _require_positive("max_rejections", self.max_rejections)
        _require_positive("store_every", self.store_every)
        if self.min_step > self.max_step:
            raise ConfigurationError("min_step must be <= max_step")


@dataclass(frozen=True)
class ShootingOptions:
    """Controls for single-tone periodic steady state via shooting.

    The inner integration steps are solved like transient steps, by full
    Newton under ``newton``.
    """

    steps_per_period: int = 200
    max_shooting_iterations: int = 30
    abstol: float = 1e-8
    reltol: float = 1e-6
    integration_method: str = "trapezoidal"
    newton: NewtonOptions = field(default_factory=NewtonOptions)

    def __post_init__(self) -> None:
        _require_positive("steps_per_period", self.steps_per_period)
        _require_positive("max_shooting_iterations", self.max_shooting_iterations)
        _require_positive("abstol", self.abstol)
        _require_positive("reltol", self.reltol)
        _require_in(
            "integration_method",
            self.integration_method,
            TransientOptions._ALLOWED_METHODS,
        )


@dataclass(frozen=True)
class MPDEOptions:
    """Controls for the difference-time-scale MPDE solver (the paper's core).

    Attributes
    ----------
    n_fast / n_slow:
        Number of grid points along the fast (carrier) and slow
        (difference-frequency) artificial time axes.  The paper's balanced
        mixer example uses a 40 x 30 grid.
    fast_method / slow_method:
        Finite-difference rule used to discretise the two time derivatives;
        backward Euler ("backward-euler") is robust for the sharp switching
        waveforms targeted by the paper, "central" gives second order on
        smooth problems.
    matrix_free:
        Solve the Newton linear systems with GMRES on a matrix-free
        Jacobian-vector-product operator (the Jacobian is never assembled),
        preconditioned per the ``preconditioner`` mode.  Without it every
        correction is a sparse direct (LU) solve: by chord Newton on a 2-D
        grid (the LU is reused across iterations and refactored when the
        residual reduction degrades), by full Newton on a one-axis problem;
        ``MPDEStats.jacobian_factorizations`` counts the LUs.
    preconditioner:
        Preconditioner of the matrix-free GMRES solves, rebuilt from fresh
        Jacobian data at every Newton iterate.  The one kind,
        ``"block_circulant_fast"``, averages the device blocks only along
        the slow axis, keeping the per-fast-point (LO-phase) variation that
        carries the physics of strongly switched circuits.  Only the slow
        axis is FFT-diagonalised, leaving one sparse ``(n_fast * n, n_fast
        * n)`` complex system per slow harmonic.  The ``n_slow // 2 + 1``
        distinct ones (conjugate symmetry supplies the rest) are factored by
        one block-diagonal LU on the first apply;
        ``MPDEStats.preconditioner_harmonic_builds`` counts them.
        See ``docs/preconditioners.md`` for the measurements.

    Every steady-state analysis takes its numerics from one of these:
    ``solve_mpde`` as given, two-tone HB with the grid fields set by its
    truncation, collocation PSS and single-tone HB with the grid fields
    replaced by their one sampled axis.  A solve's wall-clock budget and
    checkpoint file are per-call arguments (``deadline_s=``,
    ``checkpoint_path=``, ``resume_from=``) of those front ends.
    """

    n_fast: int = 40
    n_slow: int = 30
    fast_method: str = "bdf2"
    slow_method: str = "bdf2"
    newton: NewtonOptions = field(default_factory=lambda: NewtonOptions(max_iterations=80))
    matrix_free: bool = False
    preconditioner: str = "block_circulant_fast"

    _ALLOWED_FD = ("backward-euler", "bdf2", "central", "fourier")
    _ALLOWED_PRECONDITIONERS = PRECONDITIONER_KINDS

    def __post_init__(self) -> None:
        _require_positive("n_fast", self.n_fast)
        _require_positive("n_slow", self.n_slow)
        if self.n_fast < 3 or self.n_slow < 3:
            raise ConfigurationError("MPDE grids need at least 3 points per axis")
        _require_in("fast_method", self.fast_method, self._ALLOWED_FD)
        _require_in("slow_method", self.slow_method, self._ALLOWED_FD)
        _require_in("preconditioner", self.preconditioner, self._ALLOWED_PRECONDITIONERS)

    def with_grid(self, n_fast: int, n_slow: int) -> "MPDEOptions":
        """Return a copy with a different multi-time grid resolution."""
        return replace(self, n_fast=n_fast, n_slow=n_slow)


def options_from_mapping(cls: type, mapping: Mapping[str, Any]) -> Any:
    """Build an option bundle of type ``cls`` from a plain mapping.

    Unknown keys raise :class:`ConfigurationError` instead of being silently
    ignored, which catches typos in user configuration dictionaries.
    """
    import dataclasses

    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = set(mapping) - valid
    if unknown:
        raise ConfigurationError(
            f"unknown option(s) for {cls.__name__}: {sorted(unknown)!r}"
        )
    return cls(**dict(mapping))
