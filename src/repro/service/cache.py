"""LRU cache of compiled circuits with lease-based concurrent access.

Compiling a :class:`~repro.circuits.mna.MNASystem` is the per-request work
the service amortises across identical requests: stamp-pattern compilation
and batched-engine setup.  The
cache keys entries by whatever identity string the caller derives — the
service uses ``scenario_fingerprint(scenario) + case label``, so two
requests hit the same entry exactly when they solve the same physical
problem.

Compiled systems are *not* thread-safe (solves share the engine's scratch
buffers), so the cache never hands the same system to two jobs at once:
:meth:`CompiledCircuitCache.lease` grants exclusive use for the duration of
a ``with`` block, and a second job leasing the same key blocks until the
first releases it.  Entries that are leased (or merely pinned while a
lease is being acquired) are never evicted; when every resident entry is
in use the cache temporarily overflows its capacity rather than closing a
system under a running solve, and trims back on the next release.

Eviction and :meth:`~CompiledCircuitCache.close` call ``close()`` on a
cached value that has one (idempotent by contract), so values holding
external resources release them when they leave the cache.

The build path is a :func:`~repro.resilience.faultinject.fault_site`
(``service.cache_build``), fired *before* the build runs so an injected
failure can never leave a half-built system resident.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..resilience.faultinject import fault_site
from ..utils.exceptions import ConfigurationError, ServiceError

__all__ = ["CacheStats", "CompiledCircuitCache"]


@dataclass(frozen=True)
class CacheStats:
    """Counters of one :class:`CompiledCircuitCache` at a point in time."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def lookups(self) -> int:
        """Total lease acquisitions served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from a resident entry (0.0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


class _Entry:
    """One cached system: the value, its lease lock, and a pin count.

    ``pins`` counts jobs that hold or are about to acquire the lease; the
    eviction scan skips pinned entries so a system is never closed between
    a lookup and the lease acquisition (or mid-solve).
    """

    __slots__ = ("system", "lock", "pins")

    def __init__(self, system: Any) -> None:
        self.system = system
        self.lock = threading.Lock()
        self.pins = 0


class CompiledCircuitCache:
    """Thread-safe LRU cache of compiled circuits (see the module docstring)."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1 or int(capacity) != capacity:
            raise ConfigurationError(
                f"cache capacity must be a positive integer, got {capacity!r}"
            )
        self._capacity = int(capacity)
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._closed = False

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @contextmanager
    def lease(self, key: str, build: Callable[[], Any]) -> Iterator[Any]:
        """Exclusive use of the compiled system for ``key``; builds on miss.

        ``build()`` runs outside the registry lock (builds are slow), so
        two threads missing the same cold key may both build; the loser's
        system is closed immediately and the winner's is cached — wasted
        work, never a correctness problem.  The yielded system must not be
        used after the ``with`` block exits.
        """
        entry = self._acquire(key, build)
        try:
            yield entry.system
        finally:
            entry.lock.release()
            with self._lock:
                entry.pins -= 1
                evicted = self._collect_evictable_locked()
            self._close_all(evicted)

    def _acquire(self, key: str, build: Callable[[], Any]) -> _Entry:
        with self._lock:
            if self._closed:
                raise ServiceError("compiled-circuit cache is closed")
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                entry.pins += 1
                self._entries.move_to_end(key)
        if entry is None:
            fault_site("service.cache_build", key=key)
            system = build()
            duplicate = None
            with self._lock:
                if self._closed:
                    duplicate = system
                    evicted: list[Any] = []
                else:
                    entry = self._entries.get(key)
                    if entry is not None:
                        duplicate = system
                        entry.pins += 1
                        self._entries.move_to_end(key)
                    else:
                        self._misses += 1
                        entry = _Entry(system)
                        entry.pins = 1
                        self._entries[key] = entry
                    evicted = self._collect_evictable_locked()
            self._close_all(evicted)
            if duplicate is not None:
                self._close_system(duplicate)
            if entry is None:
                raise ServiceError("compiled-circuit cache is closed")
        entry.lock.acquire()
        return entry

    def _collect_evictable_locked(self) -> list[Any]:
        """Pop LRU entries past capacity that nobody holds; return their systems.

        Caller must hold ``self._lock``; the returned systems are closed
        *outside* it (a value's ``close()`` may block).
        """
        evicted: list[Any] = []
        while len(self._entries) > self._capacity:
            victim_key = None
            for candidate_key, candidate in self._entries.items():
                if candidate.pins == 0 and not candidate.lock.locked():
                    victim_key = candidate_key
                    break
            if victim_key is None:
                break  # everything resident is in use; overflow until a release
            victim = self._entries.pop(victim_key)
            self._evictions += 1
            evicted.append(victim.system)
        return evicted

    @staticmethod
    def _close_system(system: Any) -> None:
        close = getattr(system, "close", None)
        if close is not None:
            close()

    def _close_all(self, systems: list[Any]) -> None:
        for system in systems:
            self._close_system(system)

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self._capacity,
            )

    def clear(self) -> int:
        """Evict every entry not currently in use; return how many were evicted."""
        with self._lock:
            evicted = []
            for key in [
                key
                for key, entry in self._entries.items()
                if entry.pins == 0 and not entry.lock.locked()
            ]:
                evicted.append(self._entries.pop(key).system)
                self._evictions += 1
        self._close_all(evicted)
        return len(evicted)

    def close(self) -> None:
        """Close every cached system and refuse further leases (idempotent).

        Waits for in-flight leases: each entry's lease lock is acquired
        before its system is closed, so a solve running on a leased system
        finishes before the system is closed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            with entry.lock:
                self._close_system(entry.system)
