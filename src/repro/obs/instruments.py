"""The canonical instrument table: every metric the stack emits.

Central declarations keep names, types, label sets and bucket layouts
consistent between the code that updates a metric and the exporters
that publish it — the facade helpers (:func:`repro.obs.counter_inc`
and friends) look instruments up here, so an instrumented call site is
one line and cannot drift from the documented schema.

Naming follows Prometheus conventions: ``repro_`` prefix, ``_total``
suffix on counters, base-unit (seconds) histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.metrics import DEFAULT_BUCKETS, MetricFamily, MetricsRegistry

__all__ = ["INSTRUMENTS", "InstrumentSpec", "family", "lookup", "prime"]


@dataclass(frozen=True)
class InstrumentSpec:
    """Declared shape of one metric family."""

    kind: str
    help: str
    labelnames: Tuple[str, ...] = ()
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS


INSTRUMENTS: Dict[str, InstrumentSpec] = {
    # -- service front end --------------------------------------------------
    "repro_requests_total": InstrumentSpec(
        "counter", "Requests handled by the service, by operation.",
        ("op",),
    ),
    "repro_errors_total": InstrumentSpec(
        "counter", "Requests answered with an error response.",
    ),
    "repro_coalesced_total": InstrumentSpec(
        "counter", "Queries answered by joining an identical in-flight one.",
    ),
    "repro_query_seconds": InstrumentSpec(
        "histogram", "End-to-end service query latency in seconds.",
    ),
    "repro_ingest_seconds": InstrumentSpec(
        "histogram", "End-to-end service ingest latency in seconds.",
    ),
    # -- overload protection ------------------------------------------------
    "repro_admission_shed_total": InstrumentSpec(
        "counter",
        "Requests shed by admission control, by class and reason.",
        ("kind", "reason"),
    ),
    "repro_admission_depth": InstrumentSpec(
        "gauge", "Requests currently queued for an execution slot.",
        ("kind",),
    ),
    "repro_admission_active": InstrumentSpec(
        "gauge", "Requests currently holding an execution slot.",
        ("kind",),
    ),
    "repro_admission_queue_high_water": InstrumentSpec(
        "gauge", "Deepest admission queue observed since start.",
        ("kind",),
    ),
    "repro_breaker_state": InstrumentSpec(
        "gauge",
        "Circuit breaker state (0 closed, 1 half-open, 2 open).",
        ("breaker",),
    ),
    "repro_breaker_transitions_total": InstrumentSpec(
        "counter", "Circuit breaker state transitions, by target state.",
        ("breaker", "to"),
    ),
    "repro_drain_seconds": InstrumentSpec(
        "histogram", "Time spent waiting for in-flight work during drain.",
    ),
    # -- caches (refreshed by the service-state collector) ------------------
    "repro_cache_hit_rate": InstrumentSpec(
        "gauge", "Lifetime hit rate of a service cache.", ("cache",),
    ),
    "repro_cache_hits": InstrumentSpec(
        "gauge", "Lifetime hits of a service cache.", ("cache",),
    ),
    "repro_cache_misses": InstrumentSpec(
        "gauge", "Lifetime misses of a service cache.", ("cache",),
    ),
    "repro_cache_evictions": InstrumentSpec(
        "gauge", "LRU evictions of a service cache.", ("cache",),
    ),
    "repro_cache_invalidations": InstrumentSpec(
        "gauge", "Epoch-purge invalidations of a service cache.", ("cache",),
    ),
    "repro_cache_entries": InstrumentSpec(
        "gauge", "Current entries in a service cache.", ("cache",),
    ),
    # -- service state ------------------------------------------------------
    "repro_epoch": InstrumentSpec(
        "gauge", "Current decomposition epoch of the service state.",
    ),
    "repro_ingests": InstrumentSpec(
        "gauge", "Batches ingested into the live decomposition.",
    ),
    "repro_resyncs": InstrumentSpec(
        "gauge", "Full rebuilds after a failed incremental extension.",
    ),
    "repro_poisoned": InstrumentSpec(
        "gauge", "1 when the state diverged from the store, else 0.",
    ),
    # -- temporal analytics -------------------------------------------------
    "repro_temporal_queries_total": InstrumentSpec(
        "counter", "Temporal specs answered, by query mode.",
        ("mode",),
    ),
    "repro_temporal_snapshots_scanned_total": InstrumentSpec(
        "counter",
        "Snapshots materialised by temporal evaluation (one per version "
        "in each coalesced range; the coalescing win is this counter "
        "staying flat while specs pile up).",
    ),
    "repro_temporal_range_width": InstrumentSpec(
        "histogram",
        "Width (snapshots) of each coalesced range a temporal batch "
        "evaluated.",
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
    ),
    # -- live tip (per-update overlay + compaction) -------------------------
    "repro_livetip_updates_total": InstrumentSpec(
        "counter", "Single-edge updates absorbed by the live-tip overlay.",
        ("kind",),
    ),
    "repro_livetip_update_seconds": InstrumentSpec(
        "histogram", "End-to-end service update latency in seconds.",
    ),
    "repro_livetip_depth": InstrumentSpec(
        "gauge", "Pending (not yet compacted) updates in the overlay log.",
    ),
    "repro_livetip_compactions_total": InstrumentSpec(
        "counter", "Update-log folds into the Triangular Grid.",
    ),
    # -- storage ------------------------------------------------------------
    "repro_store_appends_total": InstrumentSpec(
        "counter", "Durable batch appends committed by the snapshot store.",
    ),
    # -- fleet (router + replicas) ------------------------------------------
    "repro_fleet_requests_total": InstrumentSpec(
        "counter", "Requests handled by the fleet router, by operation.",
        ("op",),
    ),
    "repro_fleet_replica_up": InstrumentSpec(
        "gauge", "1 while a replica is in rotation, else 0.",
        ("replica",),
    ),
    "repro_fleet_ejections_total": InstrumentSpec(
        "counter",
        "Replicas taken out of rotation, by replica and reason.",
        ("replica", "reason"),
    ),
    "repro_fleet_rebalance_total": InstrumentSpec(
        "counter",
        "Hash-ring membership changes (ejections and restores).",
    ),
    "repro_fleet_failover_total": InstrumentSpec(
        "counter", "Queries retried on another replica after a failure.",
    ),
    "repro_fleet_fanout_lag_seconds": InstrumentSpec(
        "histogram",
        "Spread between the fastest and slowest ingest fan-out leg.",
    ),
    # -- phases (engine, planner, store, kernels) ---------------------------
    "repro_phase_seconds": InstrumentSpec(
        "histogram", "Duration of one instrumented phase, by layer.",
        ("layer", "phase"),
    ),
    # -- tracer self-metrics ------------------------------------------------
    "repro_spans_total": InstrumentSpec(
        "counter", "Finished spans recorded by the tracer.",
    ),
}


def lookup(name: str) -> Optional[InstrumentSpec]:
    return INSTRUMENTS.get(name)


def family(registry: MetricsRegistry, name: str) -> MetricFamily:
    """Create-or-fetch ``name`` in ``registry`` per the instrument table.

    Undeclared names are refused rather than auto-created: sticking to
    the table is what keeps exports coherent across the stack.
    """
    spec = INSTRUMENTS.get(name)
    if spec is None:
        from repro.errors import ObservabilityError

        raise ObservabilityError(
            f"unknown instrument {name!r}; declare it in "
            "repro.obs.instruments.INSTRUMENTS"
        )
    if spec.kind == "counter":
        return registry.counter(name, spec.help, spec.labelnames)
    if spec.kind == "gauge":
        return registry.gauge(name, spec.help, spec.labelnames)
    return registry.histogram(name, spec.help, spec.labelnames, spec.buckets)


def prime(registry: MetricsRegistry) -> None:
    """Pre-create the key series scrapers watch, initialised to zero.

    Counters that only appear after their first increment make rate
    queries blind to the first event; priming the known label sets
    publishes an explicit 0 from the first scrape.
    """
    for name in ("repro_requests_total",):
        requests = family(registry, name)
        for op in ("query", "temporal", "ingest", "update", "status"):
            requests.labels(op=op)
    updates = family(registry, "repro_livetip_updates_total")
    for kind in ("insert", "delete"):
        updates.labels(kind=kind)
    for name in ("repro_livetip_update_seconds", "repro_livetip_depth",
                 "repro_livetip_compactions_total"):
        family(registry, name).labels()
    temporal_queries = family(registry, "repro_temporal_queries_total")
    for mode in ("point", "timeline", "aggregate", "diff", "rollup"):
        temporal_queries.labels(mode=mode)
    family(registry, "repro_temporal_snapshots_scanned_total").labels()
    family(registry, "repro_temporal_range_width").labels()
    for name in ("repro_errors_total", "repro_coalesced_total",
                 "repro_store_appends_total", "repro_spans_total",
                 "repro_query_seconds", "repro_ingest_seconds"):
        fam = family(registry, name)
        fam.labels()
    caches = ("result", "node")
    for name in ("repro_cache_hit_rate", "repro_cache_hits",
                 "repro_cache_misses", "repro_cache_evictions",
                 "repro_cache_invalidations", "repro_cache_entries"):
        fam = family(registry, name)
        for cache in caches:
            fam.labels(cache=cache)
    for name in ("repro_epoch", "repro_ingests",
                 "repro_resyncs", "repro_poisoned"):
        family(registry, name).labels()
    shed = family(registry, "repro_admission_shed_total")
    for kind in ("query", "ingest", "live"):
        for reason in ("queue_full", "timeout", "draining"):
            shed.labels(kind=kind, reason=reason)
    for name in ("repro_admission_depth", "repro_admission_active",
                 "repro_admission_queue_high_water"):
        fam = family(registry, name)
        for kind in ("query", "ingest", "live"):
            fam.labels(kind=kind)
    breaker_state = family(registry, "repro_breaker_state")
    transitions = family(registry, "repro_breaker_transitions_total")
    breaker_state.labels(breaker="store")
    for to in ("open", "half_open", "closed"):
        transitions.labels(breaker="store", to=to)
    family(registry, "repro_drain_seconds").labels()
