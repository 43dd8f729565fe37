"""Shared utilities: exceptions, option bundles, logging and validation."""

from .exceptions import (
    AnalysisError,
    CheckpointError,
    CircuitError,
    ConfigurationError,
    ConvergenceError,
    DeadlineExceededError,
    DeviceError,
    GMRESStagnationError,
    MPDEError,
    NodeError,
    ReproError,
    ShearError,
    SingularMatrixError,
    WaveformError,
)
from .logging import configure_logging, get_logger, timed
from .options import (
    EvaluationOptions,
    MPDEOptions,
    NewtonOptions,
    ShootingOptions,
    TransientOptions,
    options_from_mapping,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CircuitError",
    "NodeError",
    "DeviceError",
    "AnalysisError",
    "ConvergenceError",
    "SingularMatrixError",
    "GMRESStagnationError",
    "DeadlineExceededError",
    "CheckpointError",
    "MPDEError",
    "ShearError",
    "WaveformError",
    "EvaluationOptions",
    "NewtonOptions",
    "TransientOptions",
    "ShootingOptions",
    "MPDEOptions",
    "options_from_mapping",
    "get_logger",
    "configure_logging",
    "timed",
]
