"""Host-speed probe: a fixed kernel that times the machine, not the program.

The recording host is a shared 2-vCPU virtual machine whose speed drifts by
+-20% over tens of seconds and by up to 1.5-1.9x for minutes at a time; the
same request's wall time follows that drift.  A run therefore times this
probe between its request slices and reports the window's time metrics
scaled to the speed at which the probe takes ``REFERENCE_S``.  The probe uses only
Python, numpy and scipy — nothing from ``repro`` — so a change to the
program moves the scaled metrics exactly as it moves the raw ones.

The probe mixes the three kinds of work the workloads do: interpreted
Python (per-call overhead of small evaluations), small numpy array
operations (device kernels) and a sparse LU factor-and-solve (the MPDE
Jacobian).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median probe time on the recording host (Intel Xeon, 2 vCPUs).  Only a
# scale: every run divides by its own measured probe time.
REFERENCE_S = 0.014

_GRID = 36
_MATRIX = (
    sp.kron(sp.eye(_GRID), sp.diags([-1.0, 4.2, -1.0], [-1, 0, 1], shape=(_GRID, _GRID)))
    + sp.diags([-1.0, -1.0], [-_GRID, _GRID], shape=(_GRID**2, _GRID**2))
).tocsc()
_RHS = np.linspace(0.0, 1.0, _GRID**2)
_VECTOR = np.linspace(-1.0, 1.0, 64)


def _python_part() -> int:
    total = 0
    table = {}
    for i in range(12000):
        total += divmod(i * 7, 13)[1]
        table[i & 127] = total
    return total + len(table)


def _numpy_part() -> float:
    acc = 0.0
    for _ in range(500):
        acc += float((np.tanh(_VECTOR) * _VECTOR + _VECTOR.sum()).max())
    return acc


def _lu_part() -> float:
    return float(spla.splu(_MATRIX).solve(_RHS)[0])


def probe() -> float:
    """Seconds one pass of the fixed kernel takes now."""
    start = time.perf_counter()
    _python_part()
    _numpy_part()
    _lu_part()
    return time.perf_counter() - start


def factor(samples) -> float:
    """Host slowness: median probe time over ``REFERENCE_S`` (1 = reference)."""
    return statistics.median(samples) / REFERENCE_S
