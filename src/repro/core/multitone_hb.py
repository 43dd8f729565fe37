"""Two-tone harmonic balance on top of the multi-time machinery.

Classical multi-tone harmonic balance expands every waveform in mixing
products ``m*f1 + k*fd`` of the driving tones.  The same solution is
obtained from the multi-time formulation by using the *spectral* (Fourier)
differentiation operators on both artificial time axes — the collocation
points then carry exactly the information of a box-truncated two-tone HB,
and the mixing-product coefficients are recovered from the solution grid by
a 2-D FFT.

This module packages that combination as a convenience API, mostly so the
library also covers the frequency-domain standard method the paper compares
itself against conceptually.  For the sharp switching waveforms the paper
targets, the finite-difference MPDE options (``bdf2``) remain the better
choice (see the MOT-HB benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..circuits.mna import MNASystem
from ..utils.exceptions import AnalysisError
from ..utils.options import MPDEOptions
from .solver import MPDEResult, solve_mpde
from .timescales import ShearedTimeScales

__all__ = ["TwoToneHBResult", "two_tone_harmonic_balance"]

#: Collocation points per retained harmonic on each axis (at least 2 avoids
#: aliasing the quadratic nonlinearities).
OVERSAMPLING = 2


@dataclass
class TwoToneHBResult:
    """Result of a two-tone harmonic-balance analysis.

    Attributes
    ----------
    mpde:
        The underlying multi-time solution (spectral collocation).
    n_harmonics_fast, n_harmonics_slow:
        Harmonic truncation per axis (``K1``, ``K2``).
    """

    mpde: MPDEResult
    n_harmonics_fast: int
    n_harmonics_slow: int

    @property
    def scales(self) -> ShearedTimeScales:
        """The time scales (tone frequencies) used."""
        return self.mpde.scales

    @property
    def stats(self):
        """Solver statistics of the underlying MPDE solve.

        Exposes the Newton/GMRES cost accounting (including the per-solve
        ``linear_iteration_history`` and ``preconditioner_builds``) so HB
        users can compare preconditioner modes without reaching into
        ``result.mpde``.
        """
        return self.mpde.stats

    def mixing_product(self, node: str, m: int, k: int, *, node_neg: str | None = None) -> complex:
        """Complex amplitude of the mixing product ``m*f1 + k*fd`` of a node voltage.

        ``m`` indexes harmonics of the fast (LO) tone and ``k`` harmonics of
        the difference frequency; ``(0, 1)`` is the baseband difference
        tone, ``(1, -1)`` the RF carrier (for ``lo_multiple = 1``).  Peak
        amplitude of the real signal is ``2 * abs(...)`` for any non-DC
        product.
        """
        if node_neg is None:
            surface = self.mpde.bivariate(node)
        else:
            surface = self.mpde.bivariate_differential(node, node_neg)
        values = surface.values
        n1, n2 = values.shape
        if abs(m) > self.n_harmonics_fast or abs(k) > self.n_harmonics_slow:
            raise AnalysisError(
                f"mixing product ({m}, {k}) exceeds the truncation "
                f"({self.n_harmonics_fast}, {self.n_harmonics_slow})"
            )
        spectrum = np.fft.fft2(values) / (n1 * n2)
        # With numpy's forward-transform sign convention, the coefficient of
        # exp(+2j*pi*(m*t1/T1 + k*t2/Td)) lands in bin [m % n1, k % n2].
        return complex(spectrum[m % n1, k % n2])

    def mixing_product_amplitude(self, node: str, m: int, k: int, *, node_neg: str | None = None) -> float:
        """Peak amplitude of the (m, k) mixing product (DC returns the absolute value)."""
        coefficient = self.mixing_product(node, m, k, node_neg=node_neg)
        if m == 0 and k == 0:
            return abs(coefficient)
        return 2.0 * abs(coefficient)


def two_tone_harmonic_balance(
    mna: MNASystem,
    scales: ShearedTimeScales,
    *,
    n_harmonics_fast: int = 7,
    n_harmonics_slow: int = 7,
    options: MPDEOptions | None = None,
    deadline_s: float | None = None,
    checkpoint_path: str | None = None,
    resume_from=None,
) -> TwoToneHBResult:
    """Run two-tone (box-truncated) harmonic balance for a closely-spaced-tone circuit.

    Parameters
    ----------
    mna:
        Compiled circuit equations.
    scales:
        The sheared time scales describing the two tones.
    n_harmonics_fast, n_harmonics_slow:
        Harmonic truncation along the LO and difference-frequency axes; each
        axis gets ``max(4, OVERSAMPLING * (2K + 1))`` points.
    options:
        Base :class:`MPDEOptions`; the grid size and differentiation methods
        are overridden to the spectral settings implied by the truncation.
        Large truncations are best run matrix-free
        (``MPDEOptions(matrix_free=True)``): the spectral fast axis makes
        the direct LU factor dense blocks, while the slow-axis averaged
        preconditioner solves the 36 x 18 balanced mixer 14x faster (see
        ``docs/preconditioners.md``).
    deadline_s, checkpoint_path, resume_from:
        The underlying MPDE solve's wall-clock budget and crash-consistent
        checkpointing (see :func:`~repro.core.solver.solve_mpde` and
        ``docs/resilience.md``) — a deadline-split spectral HB solve
        resumes to the uninterrupted answer.
    """
    if n_harmonics_fast < 1 or n_harmonics_slow < 1:
        raise AnalysisError("harmonic truncations must be at least 1")
    spectral_options = replace(
        options or MPDEOptions(),
        n_fast=max(4, OVERSAMPLING * (2 * n_harmonics_fast + 1)),
        n_slow=max(4, OVERSAMPLING * (2 * n_harmonics_slow + 1)),
        fast_method="fourier",
        slow_method="fourier",
    )
    result = solve_mpde(
        mna,
        scales,
        spectral_options,
        deadline_s=deadline_s,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
    )
    return TwoToneHBResult(
        mpde=result,
        n_harmonics_fast=n_harmonics_fast,
        n_harmonics_slow=n_harmonics_slow,
    )
