"""Numerical building blocks: Newton, continuation, sparse assembly, Krylov."""

from .continuation import ContinuationResult, continuation_solve, continuation_sweep
from .krylov import (
    CachedPreconditionedGMRES,
    GMRESReport,
    gmres_solve,
)
from .newton import NewtonResult, newton_solve, solve_linear_system
from .preconditioners import (
    BlockCirculantFastPreconditioner,
    Preconditioner,
    circulant_eigenvalues,
    slow_averaged_data,
)
from .sparse import (
    BlockDiagStructure,
    CollocationJacobianAssembler,
    StampPattern,
    block_diag_from_array,
    kron_identity,
    kron_sum,
    periodic_backward_difference,
    periodic_bdf2_difference,
    periodic_central_difference,
    periodic_fourier_differentiation,
)

__all__ = [
    "NewtonResult",
    "newton_solve",
    "solve_linear_system",
    "ContinuationResult",
    "continuation_solve",
    "continuation_sweep",
    "CachedPreconditionedGMRES",
    "GMRESReport",
    "gmres_solve",
    "Preconditioner",
    "BlockCirculantFastPreconditioner",
    "circulant_eigenvalues",
    "slow_averaged_data",
    "StampPattern",
    "BlockDiagStructure",
    "CollocationJacobianAssembler",
    "block_diag_from_array",
    "kron_identity",
    "kron_sum",
    "periodic_backward_difference",
    "periodic_bdf2_difference",
    "periodic_central_difference",
    "periodic_fourier_differentiation",
]
