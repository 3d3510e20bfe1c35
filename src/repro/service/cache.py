"""Bounded, thread-safe LRU caches for the query service.

Two caches share this machinery:

* the **result cache** memoises full query answers keyed by
  ``(algorithm, source, first, last, epoch)``;
* the **node-state cache** memoises converged :class:`VertexState`
  objects at Triangular-Grid nodes, keyed by
  ``(algorithm, source, epoch, (i, j))`` — this is what lets a query
  over an overlapping range resume from another query's interior work.

Neither holds dense vectors per entry: through the ``copy_in`` hook a
result is stored as a :class:`~repro.service.state.CachedRange` (*first
snapshot + sparse Δ per later snapshot*, which no reader writes, so a
hit returns the entry itself), and through ``copy_in`` / ``copy_out`` a
node state as *its walk's base + sparse Δ*
(:func:`repro.service.planner.node_state_cache`), rebuilt fresh on every
hit so it never aliases an entry.

Both keys embed the decomposition *epoch*: every ingest or window
slide bumps it, so entries from a superseded decomposition can never be
returned.  Stale-epoch entries are also purged eagerly
(:meth:`LRUCache.purge`) to free memory immediately rather than waiting
for LRU pressure.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

__all__ = ["CacheStats", "LRUCache"]


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
    """A small thread-safe LRU map with observable statistics.

    ``copy_in`` / ``copy_out`` (optional) encode values on insert and
    rebuild them on hit — the planner mutates states in place, so cached
    arrays must never alias live ones.
    """

    def __init__(
        self,
        max_entries: int,
        copy_in: Optional[Callable[[Any], Any]] = None,
        copy_out: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._copy_in = copy_in
        self._copy_out = copy_out
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value (most-recently-used afterwards), or ``None``."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return self._copy_out(value) if self._copy_out else value

    def put(self, key: Hashable, value: Any) -> None:
        if self._copy_in:
            value = self._copy_in(value)
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

    def clear(self) -> int:
        return self.purge(lambda _key: True)

    def keys(self) -> Tuple[Hashable, ...]:
        with self._lock:
            return tuple(self._entries)

    def __repr__(self) -> str:
        return (f"LRUCache({len(self)}/{self.max_entries} entries, "
                f"hit_rate={self.stats.hit_rate:.2f})")
