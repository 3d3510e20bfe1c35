"""The service's bounded, thread-safe LRU cache of answered ranges, and
the entry it holds.

The **result cache** (owned by the service state) memoises full query
answers keyed by ``(algorithm, source, first, last, epoch)``; an entry
is a :class:`CachedRange`, the answer as *first snapshot + sparse Δ per
later snapshot*.  It is the only store of answers: a miss reads the
snapshots it can reuse from the live entries of the same
``(algorithm, source, epoch)`` (:meth:`LRUCache.items`), so an evicted
entry is gone for every reader.  The state keeps its queries' roots in
it too, under keys of their own, so one bound covers both; a root is
read with :meth:`LRUCache.peek`, which counts in no statistic.

No reader writes a :class:`CachedRange`, so a hit returns the entry
itself and :meth:`CachedRange.rows` expands fresh arrays.

An answer key embeds the decomposition *epoch*: every ingest or window
slide bumps it, so answers from a superseded decomposition can never be
returned.  Stale-epoch answers are also purged eagerly
(:meth:`LRUCache.purge`) to free memory immediately rather than waiting
for LRU pressure.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import compact_range, expand_range

__all__ = ["CacheStats", "CachedRange", "LRUCache"]


class CachedRange:
    """One answered range held as base + sparse changes.

    ``compact`` (:func:`~repro.core.results.compact_range`) is never
    written after construction, so a hit hands out the entry itself.
    ``wire`` is the slot for the encoded ``values`` of the entry's reply,
    filled by the server on the entry's first reuse: an answer for fixed
    versions of one epoch never changes, so neither do its bytes.  The
    slot lives and dies with the entry (LRU eviction, epoch purge).
    ``tag`` is filled the same way, on the entry's first conditional
    reuse: :func:`~repro.service.protocol.values_tag` of ``compact``.
    :meth:`rows` are fresh arrays, but an answer holding the entry ships
    the stored bytes whatever its rows say: rows read from a hit must not
    be changed in place.
    """

    __slots__ = ("compact", "wire", "tag")

    def __init__(self, values: Sequence[np.ndarray]) -> None:
        self.compact = compact_range(values)
        self.wire: Optional[bytes] = None
        self.tag: Optional[str] = None

    def rows(self) -> List[np.ndarray]:
        """Fresh dense rows, one per snapshot."""
        return expand_range(self.compact)


@dataclass
class CacheStats:
    """Counters for one cache; cheap enough to sample on every status call."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """A small thread-safe LRU map with observable statistics; values are
    held as given."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (most-recently-used afterwards), or ``None``."""
        with self._lock:
            value = self._hit_locked(key)
            if value is None:
                self.stats.misses += 1
            return value

    def get_nowait(self, key: Hashable) -> Optional[Any]:
        """:meth:`get` that never waits and counts only a hit.

        A miss and a lock held elsewhere both read as ``None`` and are
        not counted: the caller falls back to :meth:`get`, which counts
        the lookup.
        """
        if not self._lock.acquire(blocking=False):
            return None
        try:
            return self._hit_locked(key)
        finally:
            self._lock.release()

    def peek(self, key: Hashable) -> Optional[Any]:
        """The cached value or ``None``, counted in no statistic and left
        where it is in the LRU order."""
        with self._lock:
            return self._entries.get(key)

    def _hit_locked(self, key: Hashable) -> Optional[Any]:  # holds-lock: _lock
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key matches; returns the count dropped."""
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
            self.stats.invalidations += len(stale)
        return len(stale)

    def items(self) -> List[Tuple[Hashable, Any]]:
        """A snapshot of the ``(key, value)`` pairs, least recently used
        first; it counts in no statistic and leaves the LRU order as is."""
        with self._lock:
            return list(self._entries.items())

    def __repr__(self) -> str:
        return (f"LRUCache({len(self)}/{self.max_entries} entries, "
                f"hit_rate={self.stats.hit_rate:.2f})")
