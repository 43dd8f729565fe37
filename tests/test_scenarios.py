"""Scenario registry + library verification: golden-pinned cross-validation.

Four layers, mirroring the contract of :mod:`repro.scenarios`:

1. **Registry semantics** — registration, lookup with near-miss hints,
   override validation, unregistration, and parameter round-trip identity
   through :func:`repro.scenarios.scenario_fingerprint`.
2. **Enumeration** — every registered scenario builds at its smoke
   configuration, solves with the analysis it declared on the grid
   :func:`repro.core.recommend_grid` picked, converges, and produces finite
   metrics.
3. **Verification** — every scenario's first case is cross-validated against
   brute-force single-time transient integration (amplitude of the planned
   spectral line plus DC, magnitudes only), and every metric is pinned to
   ``tests/goldens/scenarios.json``.  Regenerate the goldens deliberately
   with ``PYTHONPATH=src python -m repro.scenarios.goldens --out
   tests/goldens/scenarios.json`` after an intentional physics change.
4. **Cross-mode agreement** — every scenario's first MPDE/HB case, solved
   matrix-free with the ``block_circulant_fast`` preconditioner, lands within
   ``CROSS_MODE_ATOL`` of the default direct solution.

The expensive part — solving all scenarios — happens once per module in the
``all_runs`` fixture; cross-validation, goldens and metric checks reuse the
cached results.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.scenarios import (
    ANALYSES,
    BuiltScenario,
    CrossValidationPlan,
    ScenarioCase,
    build_scenario,
    build_scenario_smoke,
    cross_validate,
    get_scenario,
    iter_scenarios,
    register_scenario,
    run_scenario,
    scenario_fingerprint,
    scenario_names,
    solve_case,
    unregister_scenario,
)
from repro.utils import MPDEOptions
from repro.utils.exceptions import ConfigurationError

GOLDENS_PATH = Path(__file__).parent / "goldens" / "scenarios.json"

ALL_NAMES = scenario_names()


# -- solved-scenario cache ---------------------------------------------------


@pytest.fixture(scope="module")
def all_runs():
    """Build and fully solve every registered scenario once (smoke config)."""
    runs = {}
    for name in ALL_NAMES:
        scenario = build_scenario_smoke(name)
        runs[name] = (scenario, run_scenario(scenario))
    return runs


@pytest.fixture(scope="module")
def goldens():
    document = json.loads(GOLDENS_PATH.read_text())
    assert set(document) == set(ALL_NAMES), (
        "goldens out of sync with the registry — regenerate with "
        "`PYTHONPATH=src python -m repro.scenarios.goldens --out "
        "tests/goldens/scenarios.json`"
    )
    return document


# -- registry semantics ------------------------------------------------------


def test_library_registers_at_least_eight_scenarios():
    assert len(ALL_NAMES) >= 8
    assert ALL_NAMES == tuple(sorted(ALL_NAMES))


def test_library_covers_all_three_analyses():
    used = {
        case.analysis
        for name in ALL_NAMES
        for case in build_scenario_smoke(name).cases
    }
    assert used == set(ANALYSES)


def test_duplicate_registration_raises_and_names_prior_factory():
    @register_scenario("scenario_test_dup", params=dict(x=1.0))
    def first(name, params):  # pragma: no cover - never built
        raise AssertionError

    try:
        with pytest.raises(ConfigurationError, match="already registered") as excinfo:

            @register_scenario("scenario_test_dup", params=dict(x=1.0))
            def second(name, params):  # pragma: no cover - never registered
                raise AssertionError

        # The error must point at the factory holding the name.
        assert "first" in str(excinfo.value)
    finally:
        unregister_scenario("scenario_test_dup")


def test_unknown_scenario_lists_near_misses():
    with pytest.raises(ConfigurationError, match="qam16_mixer"):
        get_scenario("qam16_mixr")


def test_unknown_scenario_without_near_miss_lists_registry():
    with pytest.raises(ConfigurationError, match="registered:"):
        get_scenario("zzzz_nothing_like_any_name")


def test_unknown_override_raises_and_lists_valid_parameters():
    with pytest.raises(ConfigurationError, match="difference_frequency"):
        build_scenario("qam16_mixer", lo_freq=1e6)


def test_unregister_unknown_raises():
    with pytest.raises(ConfigurationError, match="unregister"):
        unregister_scenario("never_registered_scenario")


def test_smoke_overrides_must_be_known_parameters():
    with pytest.raises(ConfigurationError, match="unknown parameters"):

        @register_scenario(
            "scenario_test_bad_smoke", params=dict(x=1.0), smoke=dict(y=2.0)
        )
        def factory(name, params):  # pragma: no cover - never registered
            raise AssertionError


def test_factory_must_echo_name_and_params():
    @register_scenario("scenario_test_echo", params=dict(x=1.0))
    def factory(name, params):
        template = build_scenario_smoke(ALL_NAMES[0])
        return BuiltScenario(
            name="something_else",
            params=params,
            cases=template.cases,
            cross_validation=template.cross_validation,
        )

    try:
        with pytest.raises(ConfigurationError, match="echo"):
            build_scenario("scenario_test_echo")
    finally:
        unregister_scenario("scenario_test_echo")


def test_case_validation_rejects_unknown_analysis():
    template = build_scenario_smoke("qam16_mixer").cases[0]
    with pytest.raises(ConfigurationError, match="unknown analysis"):
        ScenarioCase(
            label="bad",
            circuit=template.circuit,
            analysis="shooting",
            output_pos=template.output_pos,
            output_neg=template.output_neg,
            bandwidths=template.bandwidths,
            grid=template.grid,
            compute_metrics=template.compute_metrics,
            scales=template.scales,
        )


def test_case_validation_requires_scales_and_period():
    template = build_scenario_smoke("qam16_mixer").cases[0]
    with pytest.raises(ConfigurationError, match="sheared time scales"):
        ScenarioCase(
            label="bad",
            circuit=template.circuit,
            analysis="mpde",
            output_pos=template.output_pos,
            output_neg=template.output_neg,
            bandwidths=template.bandwidths,
            grid=template.grid,
            compute_metrics=template.compute_metrics,
        )
    with pytest.raises(ConfigurationError, match="period"):
        ScenarioCase(
            label="bad",
            circuit=template.circuit,
            analysis="pss",
            output_pos=template.output_pos,
            output_neg=template.output_neg,
            bandwidths=template.bandwidths,
            grid=template.grid,
            compute_metrics=template.compute_metrics,
        )


def test_built_scenario_rejects_duplicate_and_reserved_labels():
    template = build_scenario_smoke("qam16_mixer")
    case = template.cases[0]
    with pytest.raises(ConfigurationError, match="duplicate"):
        BuiltScenario(
            name="x",
            params={},
            cases=(case, case),
            cross_validation=template.cross_validation,
        )
    with pytest.raises(ConfigurationError, match="zero cases"):
        BuiltScenario(
            name="x", params={}, cases=(), cross_validation=template.cross_validation
        )


def test_every_spec_has_description_and_smoke_config():
    for spec in iter_scenarios():
        assert spec.description, f"{spec.name} has no description"
        assert spec.smoke_overrides, (
            f"{spec.name} has no smoke overrides — the tier-1 suite would "
            "solve it at paper-scale disparity"
        )
        assert set(spec.smoke_overrides) <= set(spec.params)


# -- fingerprint round-trips -------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_fingerprint_round_trip_is_deterministic(name):
    """Building the same scenario twice yields the identical fingerprint."""
    first = scenario_fingerprint(build_scenario_smoke(name))
    second = scenario_fingerprint(build_scenario_smoke(name))
    assert first == second


def test_fingerprint_changes_with_parameters():
    base = scenario_fingerprint(build_scenario_smoke("qam16_mixer"))
    changed = scenario_fingerprint(
        build_scenario_smoke("qam16_mixer", rf_amplitude=0.5)
    )
    assert base != changed


def test_fingerprints_distinct_across_scenarios():
    prints = [scenario_fingerprint(build_scenario_smoke(name)) for name in ALL_NAMES]
    assert len(set(prints)) == len(prints)


# -- enumeration: every scenario solves --------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scenario_solves_with_finite_metrics(name, all_runs):
    scenario, run = all_runs[name]
    assert len(run.case_runs) == len(scenario.cases)
    for case_run in run.case_runs:
        stats = getattr(case_run.result, "stats", None)
        if stats is not None:
            assert getattr(stats, "converged", True), (
                f"{name}[{case_run.case.label}] did not converge"
            )
        assert case_run.metrics, f"{name}[{case_run.case.label}] produced no metrics"
        for key, value in case_run.metrics.items():
            assert math.isfinite(value), f"{name}: metric {key} = {value!r}"


# ``all_runs`` is module-scoped, so pytest builds it before the
# function-scoped ``_fault_profile`` fixture arms a plan: its solves run
# fault-free in the fault and chaos lanes as well.
@pytest.mark.parametrize("name", ALL_NAMES)
def test_scenario_converges_without_recovery(name, all_runs):
    """Every case converges under default options with no recovery rung."""
    _, run = all_runs[name]
    for case_run in run.case_runs:
        stats = case_run.result.stats
        label = f"{name}[{case_run.case.label}]"
        assert stats.converged, f"{label} did not converge"
        assert stats.recovered_by == "", f"{label} recovered by {stats.recovered_by}"
        assert stats.recovery_trace == [], f"{label}: {stats.recovery_trace}"


def test_aggregate_metrics_present_for_sweeps(all_runs):
    _, conversion = all_runs["swept_lo_conversion_gain"]
    assert conversion.aggregate_metrics["gain_flatness"] >= 1.0
    _, ip3 = all_runs["ip3_sweep"]
    # The front end's only nonlinearity is cubic: the IM3 line must grow with
    # a slope close to 3 (slightly compressed at the top of the sweep).
    assert 2.7 <= ip3.aggregate_metrics["im3_slope"] <= 3.1
    assert ip3.aggregate_metrics["iip3_tone_amplitude"] > 0.0


def test_decision_metrics_recover_the_transmitted_bits(all_runs):
    for name in ("prbs_balanced_mixer", "multi_lo_receiver"):
        _, run = all_runs[name]
        metrics = run.case_runs[0].metrics
        assert metrics["bit_match"] == 1.0, f"{name} failed to recover its bits"
        assert metrics["eye_opening"] > 0.2


def test_modulation_evm_is_small(all_runs):
    # The multiplier mixer is distortion-free: demodulated constellations
    # must match essentially exactly.  The switching mixers compress, so
    # their EVM is bounded but nonzero.
    for name, bound in (
        ("qpsk_mixer", 1e-6),
        ("qam16_mixer", 1e-6),
        ("ofdm_mixer", 1e-6),
        ("bpsk_mixer", 0.25),
        ("psk8_mixer", 0.25),
    ):
        _, run = all_runs[name]
        assert run.case_runs[0].metrics["evm"] <= bound, name


# -- cross-validation against brute-force transient --------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cross_validation_against_transient(name, all_runs):
    scenario, run = all_runs[name]
    report = cross_validate(scenario, run.case_runs[0].result)
    assert report.passed, report.summary()


def test_cross_validation_solves_when_no_result_is_passed():
    scenario = build_scenario_smoke("swept_lo_conversion_gain")
    report = cross_validate(scenario)
    assert report.passed, report.summary()


def test_cross_validation_plan_is_declared_by_every_scenario():
    for name in ALL_NAMES:
        scenario = build_scenario_smoke(name)
        assert isinstance(scenario.cross_validation, CrossValidationPlan)
        assert scenario.cross_validation.frequency > 0.0


# -- cross-mode agreement ----------------------------------------------------

#: Max-abs bound between the default direct solution and the matrix-free
#: ``block_circulant_fast`` solution of the same case.  Both solves stop at
#: the same Newton tolerance, so the bound checks that the Krylov path lands
#: on the direct answer, not only on a small residual.
CROSS_MODE_ATOL = 1e-6
MATRIX_FREE = MPDEOptions(matrix_free=True, preconditioner="block_circulant_fast")


def _first_two_tone_case(scenario):
    """Label of the scenario's first MPDE or HB case (None if it has none)."""
    for case in scenario.cases:
        if case.analysis in ("mpde", "hb"):
            return case.label
    return None


CROSS_MODE_NAMES = [
    name for name in ALL_NAMES if _first_two_tone_case(build_scenario_smoke(name)) is not None
]


def _two_tone_states(result):
    return result.mpde.states if hasattr(result, "mpde") else result.states


# The bound holds for ladder-recovered solves too: under an injected fault
# profile the matrix-free solve may be recovered by the damping rung, which
# ends on full Newton steps (its damped steps alone stopped 6.7e-5 from the
# fault-free multi_lo_receiver solution).
@pytest.mark.parametrize("name", CROSS_MODE_NAMES)
def test_matrix_free_solution_matches_direct(name, all_runs):
    scenario, run = all_runs[name]
    label = _first_two_tone_case(scenario)
    case_run = next(r for r in run.case_runs if r.case.label == label)
    matrix_free = solve_case(case_run.case, options=MATRIX_FREE)
    difference = np.max(
        np.abs(_two_tone_states(matrix_free) - _two_tone_states(case_run.result))
    )
    assert difference <= CROSS_MODE_ATOL, f"{name}[{label}]: {difference:.3e}"


# -- golden metrics ----------------------------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_golden_metrics_pinned(name, all_runs, goldens):
    scenario, run = all_runs[name]
    spec = get_scenario(name)
    pinned = goldens[name]

    assert pinned["grids"] == {
        case.label: list(case.grid) for case in scenario.cases
    }, f"{name}: recommended grid drifted from the pinned goldens"
    assert pinned["analyses"] == {case.label: case.analysis for case in scenario.cases}
    assert pinned["fingerprint"] == scenario_fingerprint(scenario), (
        f"{name}: scenario identity (circuit/params/grid) drifted — "
        "regenerate the goldens if the change is intentional"
    )

    observed = run.all_metrics()
    assert set(observed) == set(pinned["metrics"]), f"{name}: metric keys drifted"
    for label, metrics in pinned["metrics"].items():
        for key, expected in metrics.items():
            actual = observed[label][key]
            assert actual == pytest.approx(
                expected, rel=spec.golden_rtol, abs=spec.golden_atol
            ), f"{name}[{label}].{key}: {actual} != pinned {expected}"


# -- service plumbing: deadlines, checkpoints, solve hook --------------------


def test_run_scenario_uses_the_injected_solve_hook():
    scenario = build_scenario_smoke("frequency_doubler")
    calls = []

    def counting_solve(case):
        calls.append(case.label)
        return solve_case(case)

    run = run_scenario(scenario, first_case_only=True, solve=counting_solve)
    assert calls == [scenario.cases[0].label]
    assert run.case_runs[0].metrics  # the hook's results still feed metrics


@pytest.mark.no_fault_injection
def test_solve_case_accepts_a_precompiled_system():
    case = build_scenario_smoke("frequency_doubler").cases[0]
    default = solve_case(case)
    precompiled = solve_case(case, mna=case.circuit.compile())
    np.testing.assert_array_equal(default.states, precompiled.states)


def test_solve_case_checkpoint_resume_round_trip(tmp_path):
    # Persist checkpoints from a full solve, then resume a fresh solve from
    # the final persisted snapshot: it validates and reproduces the states.
    scenario = build_scenario_smoke("prbs_balanced_mixer")
    case = scenario.cases[0]
    path = tmp_path / "case.ckpt"
    first = solve_case(case, checkpoint_path=path)
    assert path.exists()
    resumed = solve_case(case, resume_from=path)
    np.testing.assert_allclose(resumed.states, first.states, rtol=1e-9, atol=1e-12)
