"""Live evolving-graph query service.

A long-lived serving layer over a :class:`~repro.evolving.store.SnapshotStore`:

* :mod:`repro.service.state` — :class:`ServiceState`: ingestion with
  *incremental* CommonGraph/Triangular-Grid maintenance, a sliding
  window over the last W snapshots, and epoch bookkeeping;
* :mod:`repro.service.cache` — bounded LRU caches and the answer entry
  (:class:`~repro.service.cache.CachedRange`) they point at;
* :mod:`repro.service.planner` — the memoizing work-sharing planner
  that shares answered snapshots across queries;
* :mod:`repro.service.admission` — bounded admission lanes that shed
  load explicitly instead of queueing without limit;
* :mod:`repro.service.server` — the asyncio JSON-lines front end
  (request coalescing, deadlines, the ingest retry and store circuit
  breaker, graceful drain);
* :mod:`repro.service.client` — a small blocking client;
* :mod:`repro.service.status` — the machine-readable store/service
  summary shared with ``python -m repro info --json``.

See ``docs/service.md`` for the protocol and the cache/epoch semantics.
"""

from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.cache import CacheStats, LRUCache
from repro.service.client import ServiceClient
from repro.service.planner import MemoizingPlanner, PlannedAnswer
from repro.service.server import GraphService, ServiceConfig, ServiceRunner
from repro.service.state import QueryAnswer, ServiceState
from repro.service.status import store_summary

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "CacheStats",
    "GraphService",
    "LRUCache",
    "MemoizingPlanner",
    "PlannedAnswer",
    "QueryAnswer",
    "ServiceClient",
    "ServiceConfig",
    "ServiceRunner",
    "ServiceState",
    "store_summary",
]
