"""Consistent hashing of query sources onto replicas.

The fleet router spreads queries across replicas *by source vertex*:
the same source always lands on the same replica, so that replica's
result cache keeps the answered snapshots for that source warm
(`node_cache` hit affinity).  A plain ``source % n`` mapping would reshuffle
almost every source whenever a replica joins or leaves; consistent
hashing moves only the ejected replica's share.

The ring is deterministic — SHA-1 of ``"<replica>#<vnode>"`` for ring
positions and of ``"src:<source>"`` for keys — so a seeded test (and a
restarted router) always computes the same layout.  Each replica owns
``vnodes`` virtual points to smooth the load split.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

from repro.errors import FleetError

__all__ = ["ConsistentHashRing"]


def _position(token: str) -> int:
    """A stable 64-bit ring position for ``token``."""
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """A deterministic consistent-hash ring over replica names."""

    def __init__(self, members: Iterable[str] = (), *,
                 vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._positions: List[int] = []
        self._members: Dict[str, bool] = {}
        for name in members:
            self.add(name)

    # -- membership ----------------------------------------------------------
    def add(self, name: str) -> None:
        """Add ``name``; idempotent so a re-entering replica is safe."""
        if name in self._members:
            return
        self._members[name] = True
        for k in range(self.vnodes):
            self._points.append((_position(f"{name}#{k}"), name))
        self._points.sort()
        self._positions = [point for point, _ in self._points]

    def remove(self, name: str) -> None:
        """Remove ``name``; idempotent so a double ejection is safe."""
        if name not in self._members:
            return
        del self._members[name]
        self._points = [(p, n) for p, n in self._points if n != name]
        self._positions = [point for point, _ in self._points]

    def members(self) -> Tuple[str, ...]:
        return tuple(sorted(self._members))

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __len__(self) -> int:
        return len(self._members)

    # -- lookup --------------------------------------------------------------
    def owner(self, source: int) -> str:
        """The replica owning query source ``source``."""
        return self.owners(source, 1)[0]

    def owners(self, source: int, count: int) -> List[str]:
        """Up to ``count`` *distinct* replicas for ``source``, in
        failover order: the owner first, then the next distinct replicas
        walking clockwise around the ring.  The router retries a failed
        query down this list so a re-routed source still lands
        deterministically.
        """
        if not self._members:
            raise FleetError("hash ring is empty: no replicas in rotation")
        want = min(count, len(self._members))
        start = bisect.bisect_left(self._positions, _position(f"src:{source}"))
        ordered: List[str] = []
        for offset in range(len(self._points)):
            _, name = self._points[(start + offset) % len(self._points)]
            if name not in ordered:
                ordered.append(name)
                if len(ordered) == want:
                    break
        return ordered

    def assignment(self, sources: Iterable[int]) -> Dict[str, int]:
        """How many of ``sources`` each member owns (for tests/status)."""
        counts: Dict[str, int] = dict.fromkeys(self._members, 0)
        for source in sources:
            counts[self.owner(source)] += 1
        return counts

    def __repr__(self) -> str:
        return (f"ConsistentHashRing(members={len(self._members)}, "
                f"vnodes={self.vnodes})")
