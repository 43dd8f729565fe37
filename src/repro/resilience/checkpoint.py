"""Crash-consistent checkpoint/resume for long solves.

A :class:`~repro.utils.exceptions.DeadlineExceededError` (PR 6) or a killed
process used to discard all Newton progress — every failed request restarted
from zero.  This module makes solve progress durable instead:

* :class:`SolveCheckpoint` snapshots the accepted Newton iterate, a
  fingerprint of the problem/options it belongs to, the chord-Newton cache
  state and the GMRES forcing-term state needed for *bitwise* resume, the
  recovery trace and a JSON-able partial-statistics snapshot — taken at
  iteration boundaries only, so a checkpoint is always a consistent point
  on the Newton trajectory, never a half-updated state.
* Checkpoints are always kept **in memory** (attached to the ``checkpoint``
  attribute of deadline / exhausted-ladder failures); with
  ``checkpoint_path=`` set they are additionally **persisted** as ``.npz``
  files via write-to-temporary + ``os.replace`` — the POSIX atomic-rename
  pattern, so a crash mid-write leaves either the previous consistent file
  or the new one, never a torn mix.
* ``solve_mpde(resume_from=...)`` (and the PSS / two-tone-HB front ends)
  :meth:`~SolveCheckpoint.validate` the fingerprint and continue from the
  stored iterate.  Because the Newton step is a pure function of the
  iterate in the direct and matrix-free modes (the preconditioner is
  rebuilt from the iterate at every solve, and the chord and forcing states
  travel with the checkpoint), a deadline-split solve lands
  **bit-for-bit** on the uninterrupted solution.

Like the rest of :mod:`repro.resilience`, this module is leaf-level
(stdlib + numpy + ``repro.utils`` only).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..utils.exceptions import CheckpointError

__all__ = ["SolveCheckpoint", "solve_fingerprint"]

#: Format version stamped into persisted checkpoints; bumped on layout
#: changes so an old file fails loudly instead of deserialising garbage.
_FORMAT = 1


def solve_fingerprint(kind: str, **parts: Any) -> str:
    """Hash the identity of a solve: circuit, grid, discretisation, solver.

    ``kind`` names the front end (``"mpde"``, ``"pss"``); ``parts`` are the
    problem/options values that change the answer a resumed iterate
    converges to.  The hash is over a canonical JSON rendering (sorted
    keys, ``repr`` for non-JSON values — float ``repr`` round-trips
    exactly), so equality means "same solve", not "same object".
    """
    canonical = json.dumps(
        {"kind": kind, **parts}, sort_keys=True, default=repr
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serialisable structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


@dataclass
class SolveCheckpoint:
    """A consistent snapshot of an interrupted solve, resumable later.

    Attributes
    ----------
    fingerprint:
        :func:`solve_fingerprint` of the problem/options this iterate
        belongs to.  :meth:`validate` refuses a mismatch — resuming into a
        different circuit, grid or discretisation would converge to the
        wrong problem's answer.
    stage:
        The solve stage that recorded the snapshot (``"newton"``,
        ``"collocation"``, ...).
    iterate:
        The accepted iterate (flat, as the recording solve laid it out).
    newton_iterations:
        Accepted Newton iterations completed up to this snapshot.
    residual_norm:
        Residual infinity-norm at the snapshot iterate.
    chord_state:
        ``None`` when no chord LU is cached (matrix-free solves, one-axis
        problems and full-Newton runs); otherwise the chord cache state
        needed for bitwise resume: ``{"factored_at": ndarray`` (the iterate
        the resident LU was factored at), ``"baseline"``/``"last"``
        (adaptive-refresh iteration counters, ``None`` when unset),
        ``"just_built"``/``"stale"`` (refresh flags), ``"recent_ratios"``
        (residual ratios of the last steps, for the stall rule)``}``.
        Refactoring the same matrix data is bitwise deterministic, so
        restoring this state reproduces the uninterrupted trajectory
        exactly.
    forcing_state:
        ``None`` in direct mode and before the first GMRES solve; otherwise
        the Eisenstat–Walker forcing state of the GMRES solves:
        ``{"previous_norm"`` (residual 2-norm of the previous linear solve),
        ``"eta"`` (its tolerance), ``"force_tight"`` (the next solve is
        tight), ``"tight"`` (the last step was solved tight)``}``.
    recovery_trace:
        JSON-able copy of the recovery attempts recorded up to the
        snapshot (:class:`~repro.resilience.taxonomy.RecoveryAttempt`
        fields as dicts after a round trip through persistence).
    stats:
        JSON-able snapshot of the partial solve statistics at the
        snapshot (informational; a resumed solve starts fresh counters).
    """

    fingerprint: str
    stage: str
    iterate: np.ndarray
    newton_iterations: int = 0
    residual_norm: float = float("inf")
    chord_state: dict | None = None
    forcing_state: dict | None = None
    recovery_trace: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    # -- validation --------------------------------------------------------
    def validate(self, expected_fingerprint: str) -> None:
        """Refuse to resume into a solve this checkpoint does not belong to."""
        if self.fingerprint != expected_fingerprint:
            raise CheckpointError(
                "checkpoint fingerprint mismatch: the checkpoint was recorded "
                f"for solve {self.fingerprint[:12]}... but is being resumed "
                f"into solve {expected_fingerprint[:12]}... — circuit, grid, "
                "discretisation or solver configuration differ, so the "
                "stored iterate belongs to a different problem"
            )

    # -- persistence -------------------------------------------------------
    def save(self, path: str | os.PathLike) -> None:
        """Persist atomically: write ``<path>.tmp``, fsync, rename over ``path``.

        ``os.replace`` is atomic on POSIX (same directory, same
        filesystem), so readers only ever observe a complete previous or
        complete new checkpoint.
        """
        path = os.fspath(path)
        meta = {
            "format": _FORMAT,
            "fingerprint": self.fingerprint,
            "stage": self.stage,
            "newton_iterations": int(self.newton_iterations),
            "residual_norm": float(self.residual_norm),
            "chord": None
            if self.chord_state is None
            else {
                "baseline": self.chord_state.get("baseline"),
                "last": self.chord_state.get("last"),
                "just_built": bool(self.chord_state.get("just_built", False)),
                "stale": bool(self.chord_state.get("stale", False)),
                "recent_ratios": [
                    float(r) for r in self.chord_state.get("recent_ratios", ())
                ],
            },
            "forcing": _jsonable(self.forcing_state),
            "recovery_trace": _jsonable(self.recovery_trace),
            "stats": _jsonable(self.stats),
        }
        arrays = {
            "meta": np.array(json.dumps(meta)),
            "iterate": np.asarray(self.iterate),
        }
        if self.chord_state is not None:
            arrays["chord_factored_at"] = np.asarray(self.chord_state["factored_at"])
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "SolveCheckpoint":
        """Load a persisted checkpoint; any defect raises :class:`CheckpointError`."""
        path = os.fspath(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                if meta.get("format") != _FORMAT:
                    raise CheckpointError(
                        f"checkpoint {path!r} has format "
                        f"{meta.get('format')!r}, expected {_FORMAT!r}"
                    )
                iterate = np.array(data["iterate"], copy=True)
                chord_meta = meta.get("chord")
                chord_state = None
                if chord_meta is not None:
                    chord_state = {
                        "factored_at": np.array(data["chord_factored_at"], copy=True),
                        "baseline": chord_meta.get("baseline"),
                        "last": chord_meta.get("last"),
                        "just_built": bool(chord_meta.get("just_built", False)),
                        "stale": bool(chord_meta.get("stale", False)),
                        "recent_ratios": list(chord_meta.get("recent_ratios", [])),
                    }
                forcing_state = meta.get("forcing")
        except CheckpointError:
            raise
        except Exception as exc:  # noqa: BLE001 - every load defect maps to CheckpointError
            raise CheckpointError(
                f"checkpoint {path!r} could not be loaded "
                f"({type(exc).__name__}: {exc}); the file is missing, "
                "truncated or corrupt"
            ) from exc
        return cls(
            fingerprint=str(meta["fingerprint"]),
            stage=str(meta["stage"]),
            iterate=iterate,
            newton_iterations=int(meta["newton_iterations"]),
            residual_norm=float(meta["residual_norm"]),
            chord_state=chord_state,
            forcing_state=forcing_state,
            recovery_trace=list(meta.get("recovery_trace", [])),
            stats=dict(meta.get("stats", {})),
        )
