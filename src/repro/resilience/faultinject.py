"""Deterministic fault injection for the solver stack.

Real solver failures — singular Jacobians, stalled Krylov solves, NaN
device evaluations — are far too rare to exercise in CI, so the recovery
paths that handle them would otherwise ship untested.  This module lets tests *schedule* those failures at named sites
in the production code:

>>> from repro.resilience import inject_faults, singular_jacobian
>>> with inject_faults(singular_jacobian(at_iteration=2)):
...     solver.solve()  # doctest: +SKIP

Production code marks injection points with :func:`fault_site`::

    fault_site("solver.linear_solve", iteration=iteration)

which is a no-op (one global read, no allocation) unless a plan is active,
so the hooks cost nothing in normal operation.  The registry is a plain
module global, so injection is process-wide; the per-spec
``calls``/``fired`` counters are guarded by a lock because sites are
visited from concurrent threads (the simulation service runs jobs on a
thread pool) — a fault scheduled to fire ``count`` times fires exactly
``count`` times no matter how the visits interleave.

Sites currently compiled into the stack:

=========================  ====================================================
site                       context keys
=========================  ====================================================
``solver.linear_solve``    ``iteration`` (MPDE Newton iterate, 0-based)
``solver.gmres``           ``preconditioner`` (active mode name)
``newton.linear_solve``    ``iteration`` (dense Newton iterate, 0-based)
``krylov.solve``           ``raise_on_failure`` (caller wants exceptions?)
``preconditioner.build``   ``kind`` (preconditioner mode name)
``mna.evaluate``           ``f`` (residual vector, mutable, poison in place)
``service.cache_build``    ``key`` (compiled-circuit cache key being built)
``service.job_dispatch``   ``job``, ``case``, ``attempt`` (1-based attempt)
=========================  ====================================================
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..utils.exceptions import (
    GMRESStagnationError,
    SingularMatrixError,
    TransientServiceError,
)

__all__ = [
    "FaultInjected",
    "FaultSpec",
    "active_fault_plan",
    "build_profile_specs",
    "cache_build_fault",
    "chaos_specs",
    "dispatch_fault",
    "fault_site",
    "inject_faults",
    "singular_jacobian",
    "gmres_stall",
    "nan_evaluation",
]


class FaultInjected(Exception):
    """Raised by injected faults that model *unclassified* errors.

    Most convenience faults raise the production exception type they
    emulate (``SingularMatrixError``, ``GMRESStagnationError``, ...) so the
    real handling paths are exercised; this type exists for tests that want
    a failure nothing in the stack claims to understand.
    """


@dataclass
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    site:
        Name of the :func:`fault_site` this fault attaches to.
    action:
        Callable invoked with the site's context dict when the fault fires.
        Raising an exception is the usual payload; mutating a context value
        (e.g. poisoning the ``f`` array of ``mna.evaluate``) also works.
    at_call:
        Fire starting from the Nth *matching* visit to the site (1-based).
        ``None`` means from the first.
    count:
        Maximum number of firings.  ``None`` means unlimited.
    predicate:
        Optional extra gate ``predicate(context) -> bool``; visits it
        rejects do not advance the call counter.
    """

    site: str
    action: Callable[[dict[str, Any]], None]
    at_call: int | None = None
    count: int | None = 1
    predicate: Callable[[dict[str, Any]], bool] | None = None
    calls: int = field(default=0, init=False)
    fired: int = field(default=0, init=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def visit(self, context: dict[str, Any]) -> bool:
        """Record a matching visit; return True if the fault should fire.

        The ``calls``/``fired`` bookkeeping is atomic under ``_lock``: sites
        visited from concurrent threads advance the counters without
        interleaving, so ``at_call``/``count`` schedules stay exact.
        The predicate runs outside the lock — it only reads the context.
        """
        if self.predicate is not None and not self.predicate(context):
            return False
        with self._lock:
            self.calls += 1
            if self.at_call is not None and self.calls < self.at_call:
                return False
            if self.count is not None and self.fired >= self.count:
                return False
            self.fired += 1
            return True


class FaultPlan:
    """The set of :class:`FaultSpec` objects currently armed."""

    def __init__(self, specs: tuple[FaultSpec, ...]) -> None:
        self.specs = specs

    def visit(self, site: str, context: dict[str, Any]) -> None:
        for spec in self.specs:
            if spec.site == site and spec.visit(context):
                spec.action(context)


#: The active plan, or ``None``.  A module global (not a contextvar) so
#: service worker threads see it and ``fault_site`` stays one attribute
#: read in the common case.
_ACTIVE: FaultPlan | None = None


def active_fault_plan() -> FaultPlan | None:
    """Return the currently armed plan, or ``None``."""
    return _ACTIVE


def fault_site(site: str, **context: Any) -> None:
    """Production-code injection hook; no-op unless a plan is armed."""
    plan = _ACTIVE
    if plan is not None:
        plan.visit(site, context)


@contextmanager
def inject_faults(*specs: FaultSpec) -> Iterator[FaultPlan]:
    """Arm ``specs`` for the duration of the ``with`` block.

    Plans do not nest: arming a new plan while one is active replaces it
    for the block and restores the outer plan afterwards (the outer plan's
    counters keep their values).
    """
    global _ACTIVE
    previous = _ACTIVE
    plan = FaultPlan(tuple(specs))
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


# ---------------------------------------------------------------------------
# Convenience fault constructors
# ---------------------------------------------------------------------------


def singular_jacobian(
    *,
    at_iteration: int | None = None,
    count: int | None = 1,
    site: str = "solver.linear_solve",
) -> FaultSpec:
    """Inject a :class:`SingularMatrixError` from a Newton linear solve.

    ``at_iteration`` gates on the site's 0-based ``iteration`` context key
    (e.g. ``at_iteration=2`` emulates a Jacobian going singular at the
    third Newton iterate); ``None`` fires on any iterate.
    """

    def _raise(context: dict[str, Any]) -> None:
        iteration = context.get("iteration")
        raise SingularMatrixError(
            f"injected singular Jacobian (site={site!r}, iteration={iteration!r})"
        )

    predicate = None
    if at_iteration is not None:
        predicate = lambda ctx: ctx.get("iteration") == at_iteration  # noqa: E731
    return FaultSpec(site=site, action=_raise, count=count, predicate=predicate)


def gmres_stall(
    *,
    at_call: int | None = None,
    count: int | None = 1,
    site: str = "krylov.solve",
) -> FaultSpec:
    """Inject a stagnated GMRES solve (no progress over a restart cycle).

    The default site fires on *every* Krylov solve (including direct unit
    tests of :func:`~repro.linalg.krylov.gmres_solve`, which have no retry
    machinery above them); pass ``site="solver.gmres"`` to hit only the MPDE
    solver's GMRES linear solves, where the recovery ladder can absorb it.
    """

    def _raise(context: dict[str, Any]) -> None:
        raise GMRESStagnationError(
            "injected GMRES stagnation (no residual progress over a restart cycle)"
        )

    return FaultSpec(site=site, action=_raise, at_call=at_call, count=count)


def nan_evaluation(
    *,
    at_call: int | None = None,
    count: int | None = 1,
    entry: int = 0,
    min_points: int = 0,
) -> FaultSpec:
    """Poison a device-evaluation residual with NaN (models a bad model eval).

    ``min_points`` gates the fault on batched evaluations of at least that
    many grid points — the chaos profile uses it to hit only the multi-time
    / collocation solves (which own recovery machinery for non-finite
    residuals) while sparing single-point DC / transient evaluations that
    have no retry ladder above them.
    """

    def _poison(context: dict[str, Any]) -> None:
        f = context.get("f")
        if f is not None and np.size(f) > entry:
            f[entry] = np.nan

    predicate = None
    if min_points > 0:
        predicate = (
            lambda ctx: ctx.get("f") is not None
            and np.ndim(ctx["f"]) >= 1
            and np.shape(ctx["f"])[0] >= min_points
        )  # noqa: E731
    return FaultSpec(
        site="mna.evaluate",
        action=_poison,
        at_call=at_call,
        count=count,
        predicate=predicate,
    )


def cache_build_fault(*, at_call: int | None = None, count: int | None = 1) -> FaultSpec:
    """Fail a compiled-circuit cache build (models an OOM or compile race).

    Fires at the ``service.cache_build`` site of the simulation service's
    :class:`~repro.service.cache.CompiledCircuitCache`, *before* the build
    runs, so no half-built system is ever cached.  Raises
    :class:`TransientServiceError` — classified as the retryable
    ``"service"`` kind, so the job layer's retry budget (not the solver
    ladder) absorbs it.
    """

    def _raise(context: dict[str, Any]) -> None:
        raise TransientServiceError(
            f"injected cache-build failure (key={context.get('key')!r})"
        )

    return FaultSpec(
        site="service.cache_build", action=_raise, at_call=at_call, count=count
    )


def dispatch_fault(*, at_call: int | None = None, count: int | None = 1) -> FaultSpec:
    """Fail a job dispatch (models a lost work item / executor hiccup).

    Fires at the ``service.job_dispatch`` site, visited once per solve
    attempt of every job, before the attempt touches the cache or the
    solver.  Raises :class:`TransientServiceError` so the attempt is
    retried against the job's backoff budget.
    """

    def _raise(context: dict[str, Any]) -> None:
        raise TransientServiceError(
            f"injected dispatch failure (job={context.get('job')!r}, "
            f"case={context.get('case')!r}, attempt={context.get('attempt')!r})"
        )

    return FaultSpec(
        site="service.job_dispatch", action=_raise, at_call=at_call, count=count
    )


# ---------------------------------------------------------------------------
# Randomized chaos schedules
# ---------------------------------------------------------------------------


def chaos_specs(
    seed: int,
    *,
    n_faults: int | None = None,
    include_service: bool = False,
) -> tuple[FaultSpec, ...]:
    """Build a seeded random fault schedule for chaos-soak runs.

    Draws ``n_faults`` (default: 1–3, seed-dependent) faults across the
    registered sites — solver-level GMRES stalls (``solver.gmres``),
    singular Newton linear solves (``solver.linear_solve``) and
    NaN-poisoned batched evaluations (``mna.evaluate``) — each with a
    randomized ``at_call`` / iteration offset and ``count=1``.  Every draw
    is *recoverable by design*: stalls and singular solves through the
    recovery ladder, NaN poison (gated to multi-point evaluations) through
    the ladder's damping/retry rungs — so a suite run under a chaos schedule
    must still pass, and a chaos-soak loop can assert the answers against
    the fault-free solve.

    Service-layer faults (cache builds, job dispatches — recovered by the
    job retry budget of :mod:`repro.service` rather than the solver ladder)
    are likewise opt-in via ``include_service=True``: the opt-in keeps the
    kind list — and therefore every existing seeded schedule — unchanged
    for consumers that predate the service layer.  ``chaos-service:<seed>``
    is the corresponding :func:`build_profile_specs` spelling.

    The same ``seed`` always yields the same schedule (``numpy``
    ``default_rng`` determinism), so a failing chaos run is replayable.
    """
    rng = np.random.default_rng(seed)
    kinds = ["gmres_stall", "singular_jacobian", "nan_evaluation"]
    if include_service:
        kinds.extend(["cache_build", "dispatch"])
    if n_faults is None:
        n_faults = int(rng.integers(1, 4))
    if n_faults < 1:
        raise ValueError(f"n_faults must be >= 1, got {n_faults}")
    specs: list[FaultSpec] = []
    for _ in range(n_faults):
        kind = kinds[int(rng.integers(len(kinds)))]
        at_call = int(rng.integers(1, 4))
        if kind == "gmres_stall":
            specs.append(gmres_stall(at_call=at_call, count=1, site="solver.gmres"))
        elif kind == "singular_jacobian":
            specs.append(
                singular_jacobian(at_iteration=int(rng.integers(0, 3)), count=1)
            )
        elif kind == "cache_build":
            specs.append(cache_build_fault(at_call=at_call, count=1))
        elif kind == "dispatch":
            specs.append(dispatch_fault(at_call=at_call, count=1))
        else:
            specs.append(nan_evaluation(at_call=at_call, count=1, min_points=4))
    return tuple(specs)


# ---------------------------------------------------------------------------
# Named CI profiles
# ---------------------------------------------------------------------------

#: Profiles selectable via the ``REPRO_FAULT_PROFILE`` environment variable
#: (comma-separated).  Each profile is *recoverable by design* — the suite
#: must still pass with it armed, proving the recovery paths end-to-end.
_PROFILES: dict[str, Callable[[], FaultSpec]] = {
    # First MPDE-solver GMRES solve stalls; the recovery ladder must absorb
    # it.  Scoped to the solver-level site so direct unit tests of the
    # Krylov layer (which have no recovery machinery above them) still pass.
    "gmres_stall": lambda: gmres_stall(count=1, site="solver.gmres"),
    # First solver Newton linear solve hits a singular Jacobian; the ladder
    # must recover (MPDE, HB and collocation PSS all run on the solver; only
    # DC keeps its own gmin/source stepping).
    "singular_jacobian": lambda: singular_jacobian(count=1),
    # First compiled-circuit cache build fails; the simulation service's
    # job retry budget must rebuild and complete the request.  Outside the
    # service layer the site is never visited, so the profile is inert for
    # plain solver tests.
    "cache_build": lambda: cache_build_fault(count=1),
    # First job dispatch fails; the job layer must back off and retry.
    "dispatch": lambda: dispatch_fault(count=1),
}


def build_profile_specs(profile: str) -> tuple[FaultSpec, ...]:
    """Build fresh specs for a comma-separated profile string.

    Besides the named profiles, ``chaos:<seed>`` expands to the seeded
    random schedule of :func:`chaos_specs` — the CI ``tier1-chaos`` job
    arms one per test, so the whole suite soaks under (replayable) random
    recoverable faults — and ``chaos-service:<seed>`` to the same schedule
    with the service-layer fault kinds included (the ``tier1-service``
    job's profile).  Unknown names raise ``ValueError`` (catches typos in
    CI config).  Returns new spec objects each call so per-test counters
    start at zero.
    """
    specs = []
    for name in profile.split(","):
        name = name.strip()
        if not name:
            continue
        if name.startswith(("chaos:", "chaos-service:")):
            kind, _, tail = name.partition(":")
            try:
                seed = int(tail)
            except ValueError:
                raise ValueError(
                    f"chaos profile needs an integer seed, got {name!r}"
                ) from None
            specs.extend(chaos_specs(seed, include_service=(kind == "chaos-service")))
            continue
        try:
            factory = _PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown fault profile {name!r}; known: "
                f"{sorted(_PROFILES)}, 'chaos:<seed>' or 'chaos-service:<seed>'"
            ) from None
        specs.append(factory())
    return tuple(specs)
