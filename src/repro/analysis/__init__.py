"""Classical circuit analyses: DC, transient, shooting, collocation PSS, HB, AC."""

from .ac import ACResult, ac_sweep, unit_excitation_pattern
from .dc import DCSolution, dc_operating_point
from .harmonic_balance import HarmonicBalanceResult, harmonic_balance
from .integration import (
    BackwardEuler,
    IntegrationRule,
    StepContext,
    Trapezoidal,
)
from .pss_fd import CollocationPSSResult, collocation_periodic_steady_state
from .shooting import ShootingResult, ShootingStats, shooting_periodic_steady_state
from .transient import TransientResult, TransientStepStats, run_transient

__all__ = [
    "DCSolution",
    "dc_operating_point",
    "TransientResult",
    "TransientStepStats",
    "run_transient",
    "ShootingResult",
    "ShootingStats",
    "shooting_periodic_steady_state",
    "CollocationPSSResult",
    "collocation_periodic_steady_state",
    "HarmonicBalanceResult",
    "harmonic_balance",
    "ACResult",
    "ac_sweep",
    "unit_excitation_pattern",
    "IntegrationRule",
    "BackwardEuler",
    "Trapezoidal",
    "StepContext",
]
