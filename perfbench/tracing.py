"""Span recorder for the traced benchmark run.

The benchmark times the program from outside: :class:`Tracer` wraps the
public entry points of each layer of :mod:`repro` (listed in ``HOOKS``) with
a function that records one span per call — name, request id, parent span,
start and end — plus the counts the layer's result objects already carry
(``MPDEStats``, ``ShootingStats``, ``NewtonResult``).  No file under
``src/`` is changed: the wrappers are installed by rebinding the names in
every loaded ``repro`` module (and the scipy ``splu`` the solvers call
through ``scipy.sparse.linalg``), and :meth:`Tracer.disable` puts the
originals back, so untraced requests run the unmodified program.

Spans are kept in memory and written out by :meth:`Tracer.write` when the
run ends.  A span's self time is its duration minus the time its child
spans cover; a layer's busy time counts only the outermost span of that
name on a call stack, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, class or None, attribute, span name).  Every later performance
# change cites the per-layer metrics derived from these spans.
HOOKS = (
    ("repro.rf.mixers", None, "balanced_lo_doubling_mixer", "rf.build"),
    ("repro.rf.mixers", None, "unbalanced_switching_mixer", "rf.build"),
    ("repro.circuits.netlist", "Circuit", "compile", "circuits.compile"),
    ("repro.circuits.mna", "MNASystem", "evaluate", "circuits.eval"),
    ("repro.circuits.mna", "MNASystem", "evaluate_sparse", "circuits.eval"),
    ("repro.core.mpde", "MPDEProblem", "assemble_jacobian", "core.assemble"),
    ("repro.core.solver", None, "solve_mpde", "core.solve"),
    ("repro.linalg.krylov", "CachedPreconditionedGMRES", "solve", "linalg.gmres"),
    ("repro.linalg.preconditioners", "BlockCirculantFastPreconditioner", "__init__",
     "linalg.precond_build"),
    ("repro.linalg.preconditioners", "BlockCirculantFastPreconditioner", "solve",
     "linalg.precond_apply"),
    ("repro.linalg.newton", None, "newton_solve", "linalg.newton"),
    ("repro.analysis.dc", None, "dc_operating_point", "analysis.dc"),
    ("repro.analysis.transient", None, "run_transient", "analysis.transient"),
    ("repro.analysis.transient", None, "solve_implicit_step", "analysis.transient"),
    ("repro.analysis.shooting", None, "shooting_periodic_steady_state", "analysis.shooting"),
    ("repro.analysis.pss_fd", None, "collocation_periodic_steady_state", "analysis.pss"),
    ("repro.core.multitone_hb", None, "two_tone_harmonic_balance", "analysis.hb"),
    ("repro.scenarios.registry", None, "build_scenario_smoke", "scenarios.build"),
    ("repro.scenarios.registry", None, "solve_case", "scenarios.solve_case"),
    ("repro.scenarios.registry", None, "run_scenario", "scenarios.run"),
    ("repro.service.jobs", "Job", "execute", "service.execute"),
)

# splu is reached as ``scipy.sparse.linalg.splu`` from three places; the
# caller's module decides which layer the factorisation belongs to.
_SPLU_LAYER = {"repro.linalg.preconditioners": "linalg.harmonic_lu"}


def _points(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _count_eval(counts, args, kwargs, result):
    counts["circuits.eval_points"] += _points(args[1] if len(args) > 1 else kwargs["x"])


def _count_mpde(counts, args, kwargs, result):
    stats = result.stats
    counts["core.newton_iterations"] += stats.newton_iterations
    counts["linalg.gmres_iterations"] += stats.linear_iterations
    counts["linalg.harmonic_lus"] += stats.preconditioner_harmonic_builds
    counts["linalg.jacobian_factorizations"] += stats.jacobian_factorizations
    counts["resilience.recovery_attempts"] += len(stats.recovery_trace)


def _count_newton(counts, args, kwargs, result):
    counts["linalg.newton_iterations"] += result.iterations


def _count_shooting(counts, args, kwargs, result):
    counts["analysis.transient_steps"] += result.stats.total_time_steps
    counts["analysis.shooting_iterations"] += result.stats.shooting_iterations


_COUNTERS = {
    ("MNASystem", "evaluate"): _count_eval,
    ("MNASystem", "evaluate_sparse"): _count_eval,
    (None, "solve_mpde"): _count_mpde,
    (None, "newton_solve"): _count_newton,
    (None, "shooting_periodic_steady_state"): _count_shooting,
}


class Tracer:
    """In-memory spans and counts for the calls listed in ``HOOKS``.

    A span is the tuple ``(id, name, request id, parent id, start, end)``.
    Spans of one request share its id; the service's worker threads take the
    job id as request id.  Self time and nesting are worked out afterwards,
    in :meth:`layer_times`, to keep the recording path short.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._count_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = self._collect_patches()

    # -- span recording ------------------------------------------------------

    def _recorder(self, original, name, counter=None, rid_of=None):
        """Wrap ``original`` to record one span per call.

        ``name=None`` names the span after the caller's module
        (``_SPLU_LAYER``); ``rid_of(args)`` gives the request id when the
        call opens a thread's outermost span.
        """
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        counts, lock = self.counts, self._count_lock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if not stack:
                local.rid = rid_of(args) if rid_of is not None else None
            span_name = name
            if span_name is None:
                caller = sys._getframe(1).f_globals.get("__name__")
                span_name = _SPLU_LAYER.get(caller, "linalg.lu")
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, span_name, local.rid, parent, start, end))
            if counter is not None:
                with lock:
                    counter(counts, args, kwargs, result)
            return result

        return traced

    def call_request(self, rid, function, *args):
        """``function(*args)`` inside a root span named ``request``."""
        return self._recorder(function, "request", rid_of=lambda _: rid)(*args)

    # -- installing and removing the wrappers --------------------------------

    def _collect_patches(self):
        """``(owner, attribute, original, wrapper)`` for every rebinding."""
        patches = []
        for module_name, class_name, attr, span_name in HOOKS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr]
            wrapper = self._recorder(
                original,
                span_name,
                _COUNTERS.get((class_name, attr)),
                rid_of=(lambda args: args[0].id) if span_name == "service.execute" else None,
            )
            if class_name:
                patches.append((owner, attr, original, wrapper))
                continue
            # Functions imported by name elsewhere: rebind every alias.
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not name.startswith("repro"):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        patches.append((loaded, alias, original, wrapper))
        spla = importlib.import_module("scipy.sparse.linalg")
        patches.append((spla, "splu", spla.splu, self._recorder(spla.splu, None)))
        return patches

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------------

    def layer_times(self):
        """Per span name: busy seconds, self seconds and call count.

        Busy time sums only the outermost span of a name on each call
        stack; self time is a span's duration minus its children's.
        """
        names = {sid: (name, parent) for sid, name, _, parent, _, _ in self.spans}
        child_s: dict = defaultdict(float)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        busy: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for sid, name, _, parent, start, end in self.spans:
            duration = end - start
            own[name] += duration - child_s.get(sid, 0.0)
            calls[name] += 1
            while parent is not None:
                parent_name, parent = names[parent]
                if parent_name == name:
                    break
            else:
                busy[name] += duration
        return busy, own, calls

    def durations(self, name: str) -> dict:
        """Request id -> summed duration of the spans named ``name``."""
        totals: dict = defaultdict(float)
        for _, span_name, rid, _, start, end in self.spans:
            if span_name == name:
                totals[rid] += end - start
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# [id, name, request, parent, start_s, end_s]\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")
