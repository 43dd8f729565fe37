"""Decorator-registered scenario registry.

A *scenario* is a named, parameterised factory producing everything needed to
run and judge one RF workload end to end: compiled-circuit sources, stimuli,
the sheared time scales, a declared :class:`~repro.core.timescales.TimescaleBandwidths`
and the collocation grid recommended for it, the analysis to run (MPDE, PSS
or two-tone HB), and metric extractors.  Scenarios register themselves with
the :func:`register_scenario` decorator::

    @register_scenario(
        "qam16_mixer",
        params=dict(lo_frequency=1.0e9, difference_frequency=10.0e3),
        description="16-QAM symbol stream through the ideal multiplier mixer",
    )
    def _qam16(name, params):
        ...
        return BuiltScenario(name=name, params=params, cases=(case,), ...)

making the workload vocabulary *enumerable*: the verification suite, the
smoke-solve conftest hook and the benchmarks all iterate
:func:`scenario_names` rather than maintaining hand-picked circuit lists.
The decorator-registry shape follows the registered-stimulus-type pattern of
neurodamus (``StimulusManager.register_type``).

The registry also ships its own verification harness:
:func:`cross_validate` re-solves a scenario's first case by brute-force
transient integration and compares spectral amplitude and DC level — the
pattern of ``tests/test_integration_cross_validation.py`` generalised to
every registered workload.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping

from ..analysis.pss_fd import collocation_periodic_steady_state
from ..analysis.transient import run_transient
from ..core.multitone_hb import two_tone_harmonic_balance
from ..core.solver import solve_mpde
from ..core.timescales import ShearedTimeScales, TimescaleBandwidths
from ..resilience.checkpoint import solve_fingerprint
from ..signals.spectrum import fourier_coefficient
from ..signals.waveform import Waveform
from ..utils.exceptions import ConfigurationError
from ..utils.options import MPDEOptions, TransientOptions

__all__ = [
    "ScenarioSpec",
    "ScenarioCase",
    "BuiltScenario",
    "CrossValidationPlan",
    "CrossValidationReport",
    "CaseRun",
    "ScenarioRun",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "checked_scenario",
    "build_scenario",
    "build_scenario_smoke",
    "solve_case",
    "case_baseband",
    "run_scenario",
    "cross_validate",
    "scenario_fingerprint",
]

#: Analyses a scenario case may request.
ANALYSES = ("mpde", "pss", "hb")

_REGISTRY: dict[str, "ScenarioSpec"] = {}


@dataclass(frozen=True)
class ScenarioCase:
    """One concrete solve inside a scenario (sweeps carry several).

    ``compute_metrics(case, result)`` must return a mapping of metric name to
    float; the solver result it receives is whatever :func:`solve_case`
    produced for ``analysis`` (an ``MPDEResult``, ``CollocationPSSResult`` or
    ``TwoToneHBResult``).
    """

    label: str
    circuit: Any
    analysis: str
    output_pos: str
    output_neg: str | None
    bandwidths: TimescaleBandwidths
    grid: tuple[int, int]
    compute_metrics: Callable[["ScenarioCase", Any], Mapping[str, float]]
    scales: ShearedTimeScales | None = None
    period: float | None = None

    def __post_init__(self) -> None:
        if self.analysis not in ANALYSES:
            raise ConfigurationError(
                f"unknown analysis {self.analysis!r}; supported: {ANALYSES}"
            )
        if self.analysis in ("mpde", "hb") and self.scales is None:
            raise ConfigurationError(f"{self.analysis} cases need sheared time scales")
        if self.analysis == "pss" and self.period is None:
            raise ConfigurationError("pss cases need an explicit period")


@dataclass(frozen=True)
class CrossValidationPlan:
    """How to check a scenario against brute-force transient integration.

    ``frequency`` is the spectral line compared (typically the difference
    frequency for mixers, ``2*f1`` for the doubler); ``rtol`` the documented
    relative tolerance on its amplitude.  Small spectral amplitudes are
    compared against ``rtol * amplitude_floor_fraction * peak-to-peak`` of
    the reference instead, so near-zero lines cannot produce meaningless
    relative errors.
    """

    frequency: float
    rtol: float = 0.08
    dc_rtol: float = 0.03
    points_per_cycle: int = 48
    settle_periods: float = 1.0
    amplitude_floor_fraction: float = 0.02


@dataclass(frozen=True)
class CrossValidationReport:
    """Outcome of one :func:`cross_validate` run (all fields observable)."""

    scenario: str
    case_label: str
    frequency: float
    amplitude_solver: float
    amplitude_transient: float
    dc_solver: float
    dc_transient: float
    rtol: float
    dc_rtol: float
    amplitude_floor: float
    passed: bool

    def summary(self) -> str:
        """One-line human-readable verdict (used in assertion messages)."""
        return (
            f"{self.scenario}[{self.case_label}] @ {self.frequency:g} Hz: "
            f"solver {self.amplitude_solver:.6g} vs transient "
            f"{self.amplitude_transient:.6g} (rtol {self.rtol:g}, floor "
            f"{self.amplitude_floor:.3g}); DC {self.dc_solver:.6g} vs "
            f"{self.dc_transient:.6g} (rtol {self.dc_rtol:g}) -> "
            f"{'PASS' if self.passed else 'FAIL'}"
        )


@dataclass(frozen=True)
class BuiltScenario:
    """A scenario instantiated at concrete parameter values.

    ``aggregate`` (optional) maps the per-case metric dict
    (``{label: {metric: value}}``) to scenario-level metrics — e.g. the IIP3
    extrapolated from an amplitude sweep, or the conversion-gain flatness of
    an LO sweep.
    """

    name: str
    params: dict[str, Any]
    cases: tuple[ScenarioCase, ...]
    cross_validation: CrossValidationPlan
    aggregate: Callable[[dict[str, dict[str, float]]], Mapping[str, float]] | None = None

    def __post_init__(self) -> None:
        if not self.cases:
            raise ConfigurationError(f"scenario {self.name!r} built zero cases")
        labels = [case.label for case in self.cases]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"scenario {self.name!r} has duplicate case labels")
        if "aggregate" in labels:
            raise ConfigurationError("the case label 'aggregate' is reserved")


@dataclass(frozen=True)
class ScenarioSpec:
    """Registry entry: the factory plus its defaults and verification knobs.

    ``smoke_overrides`` downsizes the scenario (lower disparity, fewer
    symbols) to the configuration every automated check runs at: the tier-1
    cross-validation suite, the goldens in ``tests/goldens/scenarios.json``,
    the conftest smoke hook and the enumeration benchmark all use
    :func:`build_scenario_smoke`.  ``golden_rtol``/``golden_atol`` are the
    pinned-metric comparison tolerances.
    """

    name: str
    factory: Callable[..., BuiltScenario]
    params: dict[str, Any]
    description: str = ""
    tags: tuple[str, ...] = ()
    smoke_overrides: dict[str, Any] = field(default_factory=dict)
    golden_rtol: float = 1e-2
    golden_atol: float = 1e-9


@dataclass(frozen=True)
class CaseRun:
    """One solved case: the case, the raw solver result, and its metrics."""

    case: ScenarioCase
    result: Any
    metrics: dict[str, float]


@dataclass(frozen=True)
class ScenarioRun:
    """All case runs of a scenario plus per-case and aggregate metrics."""

    scenario: BuiltScenario
    case_runs: tuple[CaseRun, ...]
    aggregate_metrics: dict[str, float]

    @property
    def case_metrics(self) -> dict[str, dict[str, float]]:
        """Metric dicts keyed by case label."""
        return {run.case.label: dict(run.metrics) for run in self.case_runs}

    def all_metrics(self) -> dict[str, dict[str, float]]:
        """Per-case metrics plus (when present) an ``"aggregate"`` entry."""
        metrics = self.case_metrics
        if self.aggregate_metrics:
            metrics["aggregate"] = dict(self.aggregate_metrics)
        return metrics


# -- registration ------------------------------------------------------------


def register_scenario(
    name: str,
    *,
    params: Mapping[str, Any],
    description: str = "",
    tags: tuple[str, ...] = (),
    smoke: Mapping[str, Any] | None = None,
    golden_rtol: float = 1e-2,
    golden_atol: float = 1e-9,
):
    """Class/function decorator registering a scenario factory under ``name``.

    The decorated factory is called as ``factory(name, params)`` with the
    fully resolved parameter dict and must return a :class:`BuiltScenario`.
    Registering a name twice raises (re-register deliberately via
    :func:`unregister_scenario` first); ``smoke`` keys must be a subset of
    ``params`` keys.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"scenario name must be a non-empty string, got {name!r}")
    smoke_overrides = dict(smoke or {})
    unknown = set(smoke_overrides) - set(params)
    if unknown:
        raise ConfigurationError(
            f"smoke overrides for scenario {name!r} name unknown parameters: "
            f"{sorted(unknown)}"
        )

    def decorator(factory: Callable[..., BuiltScenario]) -> Callable[..., BuiltScenario]:
        if name in _REGISTRY:
            raise ConfigurationError(
                f"scenario {name!r} is already registered (by "
                f"{_REGISTRY[name].factory.__module__}.{_REGISTRY[name].factory.__qualname__}); "
                "unregister_scenario() first to replace it"
            )
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            factory=factory,
            params=dict(params),
            description=description,
            tags=tuple(tags),
            smoke_overrides=smoke_overrides,
            golden_rtol=golden_rtol,
            golden_atol=golden_atol,
        )
        return factory

    return decorator


def unregister_scenario(name: str) -> None:
    """Remove a registered scenario (no-op names raise, to catch typos)."""
    if name not in _REGISTRY:
        raise ConfigurationError(f"cannot unregister unknown scenario {name!r}")
    del _REGISTRY[name]


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario; unknown names list near-misses."""
    try:
        return _REGISTRY[name]
    except KeyError:
        close = difflib.get_close_matches(name, list(_REGISTRY), n=3, cutoff=0.4)
        hint = f"; did you mean {', '.join(repr(c) for c in close)}?" if close else ""
        raise ConfigurationError(
            f"unknown scenario {name!r}{hint} "
            f"(registered: {', '.join(scenario_names()) or '<none>'})"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """Sorted names of every registered scenario."""
    return tuple(sorted(_REGISTRY))


def iter_scenarios() -> tuple[ScenarioSpec, ...]:
    """Every registered scenario spec, sorted by name."""
    return tuple(_REGISTRY[name] for name in scenario_names())


# -- building and running ----------------------------------------------------


def checked_scenario(name: str, overrides: Mapping[str, Any]) -> ScenarioSpec:
    """The registry entry of ``name``, once ``overrides`` are checked against it.

    Override keys must name declared parameters — the parameter dict is the
    scenario's public contract, and silently accepting a typo would quietly
    run the default workload instead.  Raises :class:`ConfigurationError`
    for an unknown scenario or parameter.
    """
    spec = get_scenario(name)
    unknown = set(overrides) - set(spec.params)
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) {sorted(unknown)} for scenario {name!r}; "
            f"valid parameters: {sorted(spec.params)}"
        )
    return spec


def build_scenario(name: str, **overrides: Any) -> BuiltScenario:
    """Instantiate a scenario at its defaults, with keyword overrides
    (checked by :func:`checked_scenario`)."""
    spec = checked_scenario(name, overrides)
    params = {**spec.params, **overrides}
    built = spec.factory(name, dict(params))
    if not isinstance(built, BuiltScenario):
        raise ConfigurationError(
            f"scenario factory for {name!r} returned {type(built).__name__}, "
            "expected BuiltScenario"
        )
    if built.name != name or built.params != params:
        raise ConfigurationError(
            f"scenario factory for {name!r} must echo the name and resolved "
            "params it was called with"
        )
    return built


def build_scenario_smoke(name: str, **overrides: Any) -> BuiltScenario:
    """Instantiate a scenario at its downsized smoke/golden configuration."""
    spec = get_scenario(name)
    return build_scenario(name, **{**spec.smoke_overrides, **overrides})


def solve_case(
    case: ScenarioCase,
    *,
    mna=None,
    options: MPDEOptions | None = None,
    deadline_s: float | None = None,
    checkpoint_path=None,
    resume_from=None,
):
    """Solve one case with the analysis it declared, on its recommended grid.

    ``mna`` supplies a pre-compiled system (the simulation service's
    compiled-circuit cache hands warm systems in here; ``None`` compiles
    ``case.circuit`` fresh).  ``options`` is an :class:`MPDEOptions`
    template for every analysis — the grid the case declares always
    overrides the grid fields, everything else (Newton settings, direct or
    matrix-free solve, preconditioner) is honored.  ``deadline_s``,
    ``checkpoint_path`` and ``resume_from`` plumb the resilience layer's
    per-solve deadline and checkpoint/resume through to whichever analysis
    the case declared, so registry workloads honor per-request budgets and
    a retried request can continue from its
    :class:`~repro.resilience.checkpoint.SolveCheckpoint` instead of
    restarting from zero.
    """
    if mna is None:
        mna = case.circuit.compile()
    per_call = dict(
        deadline_s=deadline_s, checkpoint_path=checkpoint_path, resume_from=resume_from
    )
    if case.analysis == "mpde":
        on_grid = replace(options or MPDEOptions(), n_fast=case.grid[0], n_slow=case.grid[1])
        return solve_mpde(mna, case.scales, on_grid, **per_call)
    if case.analysis == "hb":
        return two_tone_harmonic_balance(
            mna,
            case.scales,
            n_harmonics_fast=case.bandwidths.fast_harmonics,
            n_harmonics_slow=case.bandwidths.slow_harmonics,
            options=options,
            **per_call,
        )
    return collocation_periodic_steady_state(
        mna, case.period, case.grid[0], options=options, **per_call
    )


def case_baseband(case: ScenarioCase, result) -> Waveform:
    """The decision waveform of a solved case.

    For MPDE/HB this is the LO-cycle-mean baseband envelope of the
    (differential) output over one difference period; for PSS it is the
    output waveform over the solve period.
    """
    neg = None if case.output_neg in (None, "0") else case.output_neg
    if case.analysis == "mpde":
        return result.baseband_envelope(case.output_pos, node_neg=neg, mode="mean")
    if case.analysis == "hb":
        return result.mpde.baseband_envelope(case.output_pos, node_neg=neg, mode="mean")
    if neg is None:
        return result.waveform(case.output_pos)
    return result.differential_waveform(case.output_pos, neg)


def run_scenario(
    scenario: BuiltScenario,
    *,
    first_case_only: bool = False,
    solve: Callable[[ScenarioCase], Any] | None = None,
    deadline_s: float | None = None,
    checkpoint_path=None,
    resume_from=None,
) -> ScenarioRun:
    """Solve a built scenario's cases and evaluate every metric.

    ``first_case_only`` is the smoke mode: one representative solve per
    scenario, skipping sweep tails and aggregate metrics.  ``solve``
    replaces the per-case solver (default :func:`solve_case`) — the
    simulation service injects its cache-leasing, retrying solver here
    while reusing this function's metric and aggregate logic unchanged.
    ``deadline_s`` is a *per-case* budget (each case gets its own);
    ``checkpoint_path``/``resume_from`` are forwarded to every case's
    :func:`solve_case` (single-case scenarios are the useful shape — a
    multi-case sweep would overwrite one checkpoint file per case).
    """
    if solve is None:
        def solve(case: ScenarioCase):
            return solve_case(
                case,
                deadline_s=deadline_s,
                checkpoint_path=checkpoint_path,
                resume_from=resume_from,
            )

    cases = scenario.cases[:1] if first_case_only else scenario.cases
    case_runs = []
    for case in cases:
        result = solve(case)
        metrics = {
            key: float(value) for key, value in case.compute_metrics(case, result).items()
        }
        case_runs.append(CaseRun(case=case, result=result, metrics=metrics))
    aggregate: dict[str, float] = {}
    if scenario.aggregate is not None and not first_case_only:
        per_case = {run.case.label: dict(run.metrics) for run in case_runs}
        aggregate = {
            key: float(value) for key, value in scenario.aggregate(per_case).items()
        }
    return ScenarioRun(
        scenario=scenario, case_runs=tuple(case_runs), aggregate_metrics=aggregate
    )


def cross_validate(scenario: BuiltScenario, result=None) -> CrossValidationReport:
    """Check the scenario's first case against brute-force transient stepping.

    The reference integrates the *same compiled circuit* through
    ``settle_periods + 1`` periods of single-time trapezoidal transient at
    ``points_per_cycle`` steps per fast cycle, windows the final period (the
    start-up transient has decayed), and compares (a) the spectral amplitude
    at ``plan.frequency`` and (b) the DC level against the solver's waveform
    from :func:`case_baseband`.  Amplitudes are compared in magnitude only:
    the MPDE slow-axis phase origin is arbitrary, and the transient window
    starts at an arbitrary absolute time.
    """
    case = scenario.cases[0]
    plan = scenario.cross_validation
    if result is None:
        result = solve_case(case)
    solver_wave = case_baseband(case, result)

    if case.analysis == "pss":
        period = case.period
        dt = period / plan.points_per_cycle
    else:
        period = case.scales.difference_period
        dt = case.scales.fast_period / plan.points_per_cycle
    t_stop = (plan.settle_periods + 1.0) * period
    transient = run_transient(
        case.circuit.compile(),
        t_stop=t_stop,
        dt=dt,
        options=TransientOptions(method="trapezoidal"),
    )
    neg = None if case.output_neg in (None, "0") else case.output_neg
    if neg is None:
        reference = transient.waveform(case.output_pos)
    else:
        reference = transient.differential_waveform(case.output_pos, neg)
    steady = reference.window(plan.settle_periods * period, t_stop)

    amplitude_solver = 2.0 * abs(fourier_coefficient(solver_wave, plan.frequency))
    amplitude_transient = 2.0 * abs(fourier_coefficient(steady, plan.frequency))
    floor = plan.amplitude_floor_fraction * steady.peak_to_peak()
    amplitude_ok = abs(amplitude_solver - amplitude_transient) <= plan.rtol * max(
        amplitude_transient, floor
    )
    dc_solver = solver_wave.mean()
    dc_transient = steady.mean()
    dc_ok = abs(dc_solver - dc_transient) <= plan.dc_rtol * max(abs(dc_transient), floor)

    return CrossValidationReport(
        scenario=scenario.name,
        case_label=case.label,
        frequency=plan.frequency,
        amplitude_solver=float(amplitude_solver),
        amplitude_transient=float(amplitude_transient),
        dc_solver=float(dc_solver),
        dc_transient=float(dc_transient),
        rtol=plan.rtol,
        dc_rtol=plan.dc_rtol,
        amplitude_floor=float(floor),
        passed=bool(amplitude_ok and dc_ok),
    )


# -- identity ----------------------------------------------------------------


def _device_descriptor(device) -> dict[str, Any]:
    """Deterministic rendering of one device: repr plus its public fields."""
    fields = {
        key: repr(value)
        for key, value in sorted(vars(device).items())
        if not key.startswith("_")
    }
    return {"repr": repr(device), "fields": fields}


def scenario_fingerprint(scenario: BuiltScenario) -> str:
    """Content hash of a built scenario's full physical identity.

    Covers every case's netlist (device types, names, nodes and parameter
    fields), time scales, analysis and grid, plus the resolved scenario
    parameters — so rebuilding a scenario from ``scenario.params`` must
    reproduce the same fingerprint (the round-trip property tested by
    ``tests/test_scenarios.py``), while any physical change to the workload
    changes it.  Built on the same canonical-JSON hashing as the solver's
    checkpoint validation (:func:`repro.resilience.checkpoint.solve_fingerprint`).
    """
    cases = [
        {
            "label": case.label,
            "analysis": case.analysis,
            "output": [case.output_pos, case.output_neg],
            "scales": repr(case.scales),
            "period": case.period,
            "bandwidths": [case.bandwidths.fast_harmonics, case.bandwidths.slow_harmonics],
            "grid": list(case.grid),
            "devices": [_device_descriptor(device) for device in case.circuit.devices],
        }
        for case in scenario.cases
    ]
    return solve_fingerprint(
        "scenario", name=scenario.name, params=scenario.params, cases=cases
    )
