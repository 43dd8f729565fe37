"""Unit tests for the option bundles."""

from __future__ import annotations

import pytest

from repro.utils import (
    ConfigurationError,
    MPDEOptions,
    NewtonOptions,
    ShootingOptions,
    TransientOptions,
    options_from_mapping,
)


class TestNewtonOptions:
    def test_defaults_are_valid(self):
        opts = NewtonOptions()
        assert opts.max_iterations > 0
        assert opts.abstol > 0
        assert opts.damping <= 1.0

    def test_with_returns_modified_copy(self):
        opts = NewtonOptions()
        modified = opts.with_(max_iterations=5)
        assert modified.max_iterations == 5
        assert opts.max_iterations != 5 or opts.max_iterations == 60

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"abstol": -1.0},
            {"abstol": 0.0},
            {"damping": 0.0},
            {"damping": 1.5},
            {"min_damping": 2.0},
            {"min_damping": 0.0},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            NewtonOptions(**kwargs)

    def test_min_damping_must_not_exceed_damping(self):
        with pytest.raises(ConfigurationError):
            NewtonOptions(damping=0.5, min_damping=0.6)

    def test_frozen(self):
        opts = NewtonOptions()
        with pytest.raises(Exception):
            opts.abstol = 1.0  # type: ignore[misc]


class TestTransientOptions:
    def test_defaults(self):
        opts = TransientOptions()
        assert opts.method == "trapezoidal"
        assert not opts.adaptive

    @pytest.mark.parametrize("method", ["backward-euler", "trapezoidal", "gear2"])
    def test_valid_methods(self, method):
        assert TransientOptions(method=method).method == method

    def test_invalid_method_raises(self):
        with pytest.raises(ConfigurationError):
            TransientOptions(method="rk4")

    def test_min_step_must_not_exceed_max_step(self):
        with pytest.raises(ConfigurationError):
            TransientOptions(min_step=1.0, max_step=0.5)


class TestShootingOptions:
    def test_defaults(self):
        opts = ShootingOptions()
        assert opts.steps_per_period > 0
        assert opts.integration_method in ("backward-euler", "trapezoidal", "gear2")

    def test_invalid_integration_method(self):
        with pytest.raises(ConfigurationError):
            ShootingOptions(integration_method="leapfrog")

    def test_invalid_steps(self):
        with pytest.raises(ConfigurationError):
            ShootingOptions(steps_per_period=0)


class TestMPDEOptions:
    def test_paper_grid_is_default(self):
        opts = MPDEOptions()
        assert (opts.n_fast, opts.n_slow) == (40, 30)

    def test_with_grid(self):
        opts = MPDEOptions().with_grid(16, 12)
        assert (opts.n_fast, opts.n_slow) == (16, 12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_fast": 2},
            {"n_slow": 1},
            {"fast_method": "rk4"},
            {"slow_method": "nope"},
            {"preconditioner": "ilu"},
            {"preconditioner": "block_circulant"},
            {"fast_method": "gear2"},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            MPDEOptions(**kwargs)

    @pytest.mark.parametrize("method", ["backward-euler", "bdf2", "central", "fourier"])
    def test_valid_differentiation_methods(self, method):
        opts = MPDEOptions(fast_method=method, slow_method=method)
        assert opts.fast_method == method


class TestOptionsFromMapping:
    def test_builds_from_mapping(self):
        opts = options_from_mapping(NewtonOptions, {"max_iterations": 10, "abstol": 1e-6})
        assert opts.max_iterations == 10
        assert opts.abstol == 1e-6

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigurationError, match="unknown option"):
            options_from_mapping(NewtonOptions, {"max_iters": 10})

    @pytest.mark.parametrize(
        "key, value, cls",
        [
            ("linear_solver", "gmres", MPDEOptions),
            ("reuse_preconditioner", True, MPDEOptions),
            ("precond_refresh_growth", 1.6, MPDEOptions),
            ("precond_refresh_slack", 8, MPDEOptions),
            ("chord_newton", True, TransientOptions),
            ("chord_max_iterations", 12, TransientOptions),
            ("chord_slow_iterations", 5, TransientOptions),
            ("chord_newton", True, ShootingOptions),
            ("recovery", {"ladder": ()}, MPDEOptions),
            ("continuation", {"max_steps": 10}, MPDEOptions),
            ("chord_newton", False, MPDEOptions),
            ("deadline_s", 5.0, MPDEOptions),
            ("checkpoint_path", "solve.npz", MPDEOptions),
            ("gmres_tol", 1e-10, MPDEOptions),
            ("gmres_restart", 40, MPDEOptions),
            ("initial_guess", "zero", MPDEOptions),
            ("max_step_norm", 5.0, NewtonOptions),
            ("reltol", 1e-6, NewtonOptions),
        ],
    )
    def test_removed_mpde_options_are_unknown(self, key, value, cls):
        with pytest.raises(ConfigurationError, match="unknown option"):
            options_from_mapping(cls, {key: value})
