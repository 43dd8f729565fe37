"""Single-tone harmonic balance.

Harmonic balance (HB) represents every waveform in the circuit by a truncated
Fourier series and enforces the circuit equations on the harmonic
coefficients.  The implementation here uses the *time-sample* (spectral
collocation) form: the unknowns are the waveform samples at
``N = OVERSAMPLING * (2K + 1)`` uniformly spaced points, the time derivative
is applied with the exact Fourier differentiation matrix, and the harmonic
coefficients are recovered by FFT.  This is algebraically equivalent to
classical frequency-domain HB with ``K`` harmonics (the two formulations are
related by the invertible DFT).  It runs on collocation PSS, i.e. on the
MPDE solver's one-axis problem, so it shares the Newton loop, recovery
ladder and stats of the rest of the library.

The paper's motivation section argues that HB struggles with the sharp,
switching waveforms of integrated RF mixers because many Fourier terms are
needed; the benchmark ``bench_hb_vs_timedomain_sharp_waveforms.py`` measures
exactly that effect using this module, and the MPDE core deliberately uses
low-order finite differences instead.

Multi-tone (two-tone) harmonic balance is available through the MPDE core by
selecting the ``"fourier"`` differentiation option on both artificial time
axes — see :func:`repro.core.multitone_hb.two_tone_harmonic_balance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.mna import MNASystem
from ..core.solver import MPDEStats
from ..signals.waveform import Waveform
from ..utils.exceptions import AnalysisError
from ..utils.options import MPDEOptions
from .pss_fd import CollocationPSSResult, collocation_periodic_steady_state

__all__ = ["HarmonicBalanceResult", "harmonic_balance"]

#: Collocation samples per retained harmonic (at least 2 avoids aliasing the
#: quadratic nonlinearities; 4 leaves margin for sharper ones).
OVERSAMPLING = 4


@dataclass
class HarmonicBalanceResult:
    """Result of a single-tone harmonic-balance analysis.

    Attributes
    ----------
    collocation:
        The underlying collocation solution (time samples over one period).
    fundamental:
        The fundamental frequency in Hz.
    n_harmonics:
        Number of harmonics retained (``K``).
    """

    collocation: CollocationPSSResult
    fundamental: float
    n_harmonics: int

    @property
    def period(self) -> float:
        """Fundamental period."""
        return self.collocation.period

    @property
    def newton_iterations(self) -> int:
        """Newton iterations spent on the HB system."""
        return self.collocation.newton_iterations

    @property
    def stats(self) -> MPDEStats:
        """Solver statistics of the underlying one-axis MPDE solve."""
        return self.collocation.stats

    def waveform(self, node: str) -> Waveform:
        """Time-domain waveform of a node voltage over one period."""
        return self.collocation.waveform(node)

    def harmonics(self, node: str) -> np.ndarray:
        """Complex harmonic coefficients ``X_0 .. X_K`` of a node voltage.

        ``X_0`` is the DC value; for ``k >= 1`` the time-domain component is
        ``2 * |X_k| * cos(2*pi*k*f0*t + arg X_k)``.
        """
        return self.collocation.fourier_harmonics(node, self.n_harmonics)

    def harmonic_amplitude(self, node: str, k: int) -> float:
        """Peak amplitude of harmonic ``k`` of a node voltage."""
        coeffs = self.harmonics(node)
        if k < 0 or k >= coeffs.size:
            raise AnalysisError(f"harmonic index {k} out of range 0..{coeffs.size - 1}")
        if k == 0:
            return float(abs(coeffs[0]))
        return float(2.0 * abs(coeffs[k]))

    def total_harmonic_distortion(self, node: str) -> float:
        """THD of a node voltage (harmonics 2..K relative to the fundamental)."""
        coeffs = self.harmonics(node)
        fundamental = 2.0 * abs(coeffs[1]) if coeffs.size > 1 else 0.0
        # Guard against waveforms with essentially no AC content (e.g. a DC
        # node): a THD relative to numerical noise would be meaningless.
        floor = 1e-9 * max(float(np.max(np.abs(coeffs))), 1e-30)
        if fundamental <= floor:
            raise AnalysisError(f"node {node!r} has no fundamental component")
        harmonic_rms = np.sqrt(np.sum((2.0 * np.abs(coeffs[2:])) ** 2))
        return float(harmonic_rms / fundamental)


def harmonic_balance(
    mna: MNASystem,
    fundamental: float,
    *,
    harmonics: int = 7,
    options: MPDEOptions | None = None,
    x0: np.ndarray | None = None,
) -> HarmonicBalanceResult:
    """Run single-tone harmonic balance at the given fundamental frequency.

    Parameters
    ----------
    mna:
        Compiled circuit equations; the excitation must be periodic with
        ``1 / fundamental``.
    fundamental:
        Fundamental frequency in Hz.
    harmonics:
        The truncation ``K``; the collocation grid has
        ``OVERSAMPLING * (2K + 1)`` samples.
    options:
        The solver numerics (:class:`~repro.utils.options.MPDEOptions`,
        default ``MPDEOptions()``); the grid fields are not read.
    x0:
        Optional initial guess (see
        :func:`~repro.analysis.pss_fd.collocation_periodic_steady_state`).
    """
    if fundamental <= 0:
        raise AnalysisError("fundamental frequency must be positive")
    if harmonics < 1:
        raise AnalysisError("harmonic truncation must be at least 1")
    collocation = collocation_periodic_steady_state(
        mna,
        1.0 / fundamental,
        OVERSAMPLING * (2 * harmonics + 1),
        method="fourier",
        x0=x0,
        options=options,
    )
    return HarmonicBalanceResult(
        collocation=collocation, fundamental=fundamental, n_harmonics=harmonics
    )
