"""The asyncio front end: JSON-lines over TCP.

Request lifecycle — one path, steered by the op's row in
:data:`repro.service.protocol.OPS`::

    client line ──> LineServer: decode ──> validate ──> ``_handle_<op>``
        handler ──> parse; build the *primary* closure (fault hook +
                    one ``ServiceState`` call); a query first coalesces
                    onto an identical in-flight one
        gated run ──> admission slot of the op's lane
                    ──> a query that is an unpatched result-cache hit is
                        answered right here, on the event loop, within
                        one loop turn (never while a fault plan is active)
                    ──> anything else takes one executor hop, under the
                        request deadline
        handler ──> encode the response
    ping / status / shutdown answer without a gated run; an ingest
    wraps its hop in the store breaker and the retry policy
    (:meth:`GraphService._handle_ingest`).

Design points, mirroring the rest of the codebase:

* **Reads are pure** — a ``query`` or ``temporal`` evaluates on one
  captured, immutable view of the state; running it again cannot heal
  anything, so a read is never retried and has no fallback: a failure
  is the error reply.
* **Coalescing** — concurrent identical queries (same algorithm,
  source, range) share one execution; followers await the leader's
  future, each on its own deadline, and receive the same payload.
* **Stored replies** — an answer served unpatched from the result
  cache ships the encoded ``values`` its cache entry stored on its
  first reuse (``wire="cached"`` on the ``server.query`` span); every
  other answer is encoded for its own reply (``wire="encoded"``).  A
  conditional query (``if_none_match``) answered from the cache also
  gets the entry's content tag, ``values_tag``, and no ``values`` at
  all when it already holds that tag (``wire="held"``); the coalescing
  key includes the request's tag.
* **Loop-answered hits** — a query whose answer is an unpatched
  result-cache hit (:meth:`ServiceState.cached_answer`: one load of the
  state's published value, no state or overlay lock, never plans,
  computes or patches) costs no executor hop, also while an ingest or a
  fold is in flight; a miss and a live-tip-patched answer fall through
  to the executor, where the lookup is counted once.
* **Admission control** — queries, ingests and updates each pass a
  bounded :class:`~repro.service.admission.AdmissionController` lane
  before touching an executor thread; a full waiting room or an expired
  queue budget sheds the request with an explicit ``overloaded``
  response (``retry_after_ms`` hint) instead of buffering without limit.
* **Deadlines** — the client-supplied ``timeout_ms`` (capped by the
  server's ``request_timeout``) becomes one shared
  :class:`~repro.resilience.Deadline` that flows through admission
  wait → (ingest retries →) executor hop, so a request never queues,
  retries or sleeps past its own budget.
* **Ingest retry and circuit breaker** — an append's store I/O can
  fail transiently, so an ingest is retried under the server's retry
  policy behind the ``store`` :class:`~repro.resilience.CircuitBreaker`;
  repeated exhausted-retry failures trip it open, after which ingests
  fail fast with a ``retry_after_ms`` hint until a half-open probe
  heals it.  Client errors (malformed batch, stale tip) are never
  retried and never trip it.
* **Graceful drain** — :meth:`GraphService.drain` stops accepting new
  work (admission sheds with reason ``"draining"``), lets in-flight
  requests finish within a drain deadline, and only then stops the
  loop; ``status`` exposes
  ``live`` / ``ready`` / ``draining`` so orchestrators can sequence
  rollouts.
* **Fault hooks** — every primary closure calls
  :func:`repro.faults.service_check`, so tests inject failures and
  latency deterministically.
"""

from __future__ import annotations

import asyncio
import contextvars
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from repro import faults, obs
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    RetryExhaustedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.obs.clock import Clock
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    RetryPolicy,
    check_seconds,
    retry_call_async,
)
from repro.service import protocol
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.lineserver import LineServer, LoopThreadRunner
from repro.service.state import QueryAnswer, ServiceState

__all__ = ["GraphService", "ServiceConfig", "ServiceRunner"]

T = TypeVar("T")

#: Coalescing key of a query: algorithm, source, first, last and
#: ``if_none_match`` (as sent) — a values-less reply is only for the
#: requests holding its tag.
QueryKey = Tuple[str, int, Optional[int], Optional[int], Optional[str]]

#: Breaker states as gauge values (``repro_breaker_state``).
BREAKER_STATE_VALUES = {
    CircuitBreaker.CLOSED: 0,
    CircuitBreaker.HALF_OPEN: 1,
    CircuitBreaker.OPEN: 2,
}


def _query_payload(answer: QueryAnswer,
                   if_none_match: Optional[str] = None) -> Dict[str, Any]:
    """A ``query`` response.

    An answer served unpatched from the result cache ships its entry's
    stored ``values``, encoded on the entry's first reuse.  Asked
    conditionally (``if_none_match`` set), it also carries the entry's
    ``values_tag``, hashed on the entry's first conditional reuse, and
    ships no ``values`` when the request already holds that tag.  A
    miss and a live-tip-patched answer carry no tag and are encoded for
    this reply alone, a miss from the compact form its entry holds; a
    miss stores nothing, since most entries are never reused.
    """
    entry = answer.entry
    tag: Optional[str] = None
    if entry is not None and if_none_match is not None:
        if entry.tag is None:
            entry.tag = protocol.values_tag(entry.compact)
        tag = entry.tag
    values: Any = None
    if tag is not None and tag == if_none_match:
        obs.annotate(wire="held")
    elif entry is None:
        values = protocol.encode_values(answer.values, answer.compact)
        obs.annotate(wire="encoded")
    else:
        if entry.wire is None:
            entry.wire = protocol.Encoded.of(
                protocol.encode_values((), compact=entry.compact))
        values = entry.wire
        obs.annotate(wire="cached")
    response = {
        "ok": True,
        "op": "query",
        "algorithm": answer.algorithm,
        "source": answer.source,
        "first": answer.first,
        "last": answer.last,
        "epoch": answer.epoch,
        "from_cache": answer.from_cache,
        "node_hits": answer.node_hits,
        "node_misses": answer.node_misses,
    }
    if tag is not None:
        response["values_tag"] = tag
    if values is not None:
        response["values"] = values
    if answer.livetip_seq is not None:
        # The tip column was patched by the live-tip overlay: expose
        # which update stream position the answer reflects, so a client
        # (or a chaos test) can pin expectations to it.
        response["livetip_seq"] = answer.livetip_seq
    return response


@dataclass
class ServiceConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick an ephemeral port
    #: Per-request wall-clock budget in seconds (``None`` = unbounded).
    #: A client-supplied ``timeout_ms`` can only shrink it, never grow.
    request_timeout: Optional[float] = 30.0
    #: Retry policy of an ingest's store append.
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=3, base_delay=0.005, multiplier=2.0, max_delay=0.1,
        retry_on=(OSError,),
    ))
    #: Admission bounds per request class (the overload valve).
    query_admission: AdmissionPolicy = field(
        default_factory=lambda: AdmissionPolicy(
            max_concurrent=8, max_queue=64, queue_timeout=5.0,
        ))
    ingest_admission: AdmissionPolicy = field(
        default_factory=lambda: AdmissionPolicy(
            max_concurrent=1, max_queue=32, queue_timeout=10.0,
        ))
    #: The ``update`` lane: one slot (the state's writer lock
    #: serialises updates anyway) with a deep, short-fused waiting room
    #: — see :class:`~repro.service.admission.AdmissionController`.
    live_admission: AdmissionPolicy = field(
        default_factory=lambda: AdmissionPolicy(
            max_concurrent=1, max_queue=256, queue_timeout=2.0,
        ))
    #: Consecutive exhausted-retry failures before a breaker opens.
    breaker_failure_threshold: int = 5
    #: Seconds an open breaker waits before admitting a probe.
    breaker_reset_timeout: float = 5.0
    #: Hard cap on one request line; longer lines are rejected with a
    #: ``ProtocolError`` response instead of being buffered into memory.
    max_line_bytes: int = 1 << 20
    #: Default budget for :meth:`GraphService.drain`.
    drain_timeout: float = 10.0
    #: Injected time source for the breakers (tests pass ``FakeClock``).
    clock: Optional[Clock] = None

    def __post_init__(self) -> None:
        check_seconds("request_timeout", self.request_timeout,
                      zero_ok=False, unbounded_ok=True)
        check_seconds("breaker_reset_timeout", self.breaker_reset_timeout,
                      zero_ok=True)
        check_seconds("drain_timeout", self.drain_timeout, zero_ok=True)


class GraphService(LineServer):
    """One serving instance: a :class:`ServiceState` behind a TCP listener."""

    def __init__(self, state: ServiceState, config: Optional[ServiceConfig] = None) -> None:
        super().__init__(config or ServiceConfig())
        self.state = state
        # "retried" counts ingests a retry answered; "degraded" stays 0
        # (no read degrades) for readers of the status shape.
        self.counters.update({
            "queries": 0, "coalesced": 0, "temporals": 0, "ingests": 0,
            "updates": 0, "retried": 0, "degraded": 0, "errors": 0,
            "shed": 0,
        })
        self.admission = AdmissionController(
            query=self.config.query_admission,
            ingest=self.config.ingest_admission,
            live=self.config.live_admission,
        )
        #: The store append's circuit breaker, by name (``status`` reports
        #: each breaker under its name).
        self.breakers: Dict[str, CircuitBreaker] = {
            "store": self._make_breaker("store"),
        }
        self._inflight: Dict[QueryKey, "asyncio.Future[Dict[str, Any]]"] = {}
        # Lifecycle (event-loop-confined).
        self._draining = False
        self._drain_report: Optional[Dict[str, Any]] = None
        self._unregister_collector = lambda: None

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        await self._listen()
        self._unregister_collector = obs.register_collector(
            self._collect_metrics
        )

    async def wait_closed(self) -> None:
        await super().wait_closed()
        self._unregister_collector()

    async def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Graceful shutdown: stop admitting, finish in-flight, stop.

        Sequence: flag the service as draining (admission sheds every
        not-yet-admitted query/ingest with reason ``"draining"``), close
        the listener so no new connections arrive, wait up to the drain
        deadline for in-flight requests to land, then stop the serve
        loop.  Idempotent: a second
        call returns the first call's report.
        """
        if self._draining:
            return dict(self._drain_report or {"draining": True})
        self._draining = True
        budget = self.config.drain_timeout if timeout is None else timeout
        deadline = Deadline.after(budget)
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
        with obs.timer("repro_drain_seconds"):
            abandoned = await self._wait_idle(deadline.remaining())
        report = {
            "drained": abandoned == 0,
            "abandoned_requests": abandoned,
            "abandoned_futures": len(self._inflight),
            "shed_total": self.admission.total_shed(),
        }
        self._drain_report = report
        self.request_stop()
        return report

    def _lifecycle_payload(self, serving: bool = True) -> Dict[str, Any]:
        """``live`` / ``ready`` / ``draining`` for orchestrators.

        *live* — the listener exists (restart me if false); *ready* —
        accepting new work (route traffic only if true); *draining* —
        shutting down gracefully (stop routing, don't kill yet).
        """
        return {
            "live": self._live,
            "ready": self._live and serving and not self._draining,
            "draining": self._draining,
        }

    def _collect_metrics(self, registry: "obs.MetricsRegistry") -> None:
        """Scrape-time bridge: admission + breaker health → gauges."""
        def gauge(name: str, value: float, **labels: str) -> None:
            obs.instruments.family(registry, name).labels(**labels).set(value)

        snapshot = self.admission.snapshot()
        for kind in ("query", "ingest", "live"):
            gate = snapshot[kind]
            gauge("repro_admission_depth", gate["waiting"], kind=kind)
            gauge("repro_admission_active", gate["active"], kind=kind)
            gauge("repro_admission_queue_high_water", gate["max_depth"],
                  kind=kind)
        for breaker in self.breakers.values():
            gauge("repro_breaker_state",
                  BREAKER_STATE_VALUES[breaker.snapshot()["state"]],
                  breaker=breaker.name)

    # -- error envelope --------------------------------------------------------
    def _error_payload(self, exc: BaseException) -> Dict[str, Any]:
        """Build an error response without touching the counters."""
        response = super()._error_payload(exc)
        if isinstance(exc, ServiceOverloadedError):
            if self._draining:
                response["draining"] = True
        elif isinstance(exc, CircuitOpenError):
            response["retry_after_ms"] = max(
                0, int(exc.retry_after * 1000)
            )
        return response

    def _error_response(self, exc: BaseException) -> Dict[str, Any]:
        self.counters["errors"] += 1
        if isinstance(exc, ServiceOverloadedError):
            self.counters["shed"] += 1
        obs.counter_inc("repro_errors_total")
        return self._error_payload(exc)

    # -- the request path ------------------------------------------------------
    async def _dispatch(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Every op in :data:`protocol.OPS` has a ``_handle_<op>``."""
        op = doc["op"]
        obs.counter_inc("repro_requests_total", op=op)
        return await getattr(self, f"_handle_{op}")(doc)

    async def _in_executor(self, fn: Callable[[], T], deadline: Deadline,
                           what: str) -> T:
        """The one hop onto an executor thread, under the request deadline.

        ``run_in_executor`` does not propagate contextvars, so the
        active span is carried across explicitly — the planner, kernel,
        store and overlay spans of the call nest under the request's
        trace.  A timeout is converted to
        :class:`DeadlineExceededError` *here*, before any retry policy
        sees it: ``TimeoutError`` is an ``OSError`` subclass on Python
        3.11+, and retrying a deadline expiry would race a duplicate
        attempt against the still-running executor task.
        """
        deadline.check(what)
        ctx = contextvars.copy_context()
        try:
            return await asyncio.wait_for(
                asyncio.get_running_loop().run_in_executor(
                    None, ctx.run, fn),
                timeout=deadline.remaining(),
            )
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                f"{what} exceeded its deadline"
            ) from None

    async def _run_gated(
        self, op: str, what: str, deadline: Deadline,
        primary: Callable[[], T],
        cached: Optional[Callable[[], Optional[T]]] = None,
    ) -> T:
        """Run ``primary`` in an admission slot of the op's lane.

        ``cached`` is asked first and answers on the event loop or
        returns ``None``; only ``None`` takes the executor hop to
        ``primary``.  While a fault plan is active ``cached`` is
        skipped, so the primary's fault hook (and any delay it injects)
        always runs off the loop.
        """
        async with self.admission.slot(protocol.OPS[op].lane, deadline,
                                       what=what):
            if cached is not None and not faults.has_active_plan():
                answer = cached()
                if answer is not None:
                    return answer
            return await self._in_executor(primary, deadline, what)

    async def _run_read(
        self, doc: Dict[str, Any], label: str,
        primary: Callable[[], T],
        respond: Callable[[T], Dict[str, Any]],
        cached: Optional[Callable[[], Optional[T]]] = None,
        **attributes: Any,
    ) -> Dict[str, Any]:
        """A gated read under one root span, answered by ``respond``.

        Shared by ``query`` and ``temporal`` — a temporal batch is just
        a bigger read on the same lane.  ``respond(answer)`` builds the
        response inside the span, so its encoding is part of the read's
        trace; the span's ``trace_id`` is added to it.
        """
        op = doc["op"]

        def hooked() -> T:
            faults.service_check(op, label)
            return primary()

        with obs.timer("repro_query_seconds"):
            with obs.phase_span("server", op, label=label,
                                **attributes) as root_span:
                answer = await self._run_gated(
                    op, f"{op} {label}", self._request_deadline(doc),
                    hooked, cached,
                )
                response = respond(answer)
        if root_span.trace_id is not None:
            response["trace_id"] = root_span.trace_id
        return response

    # -- op handlers: parse, the primary closure, response encoding -----------
    async def _handle_ping(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "op": "ping"}

    async def _handle_shutdown(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "op": "shutdown"}

    async def _handle_status(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(None, self.state.status)
        payload.update({
            "ok": True,
            "op": "status",
            "wire_version": protocol.WIRE_VERSION,
            "server": dict(self.counters),
            "lifecycle": self._lifecycle_payload(
                serving=bool(payload.get("serving", True))
            ),
            "admission": self.admission.snapshot(),
            "breakers": {
                breaker.name: breaker.snapshot()
                for breaker in self.breakers.values()
            },
        })
        return payload

    async def _handle_ingest(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """One batch append: slot → store breaker → retry.

        The breaker counts *requests* (one ``before_call`` each), not
        attempts: a retried-then-healed ingest records one success, an
        exhausted one one failure, and anything that says nothing about
        the store's health (client errors, expired budgets) records
        neutrally so a half-open probe is always returned.  The state's
        append lock keeps one total order of appends, whatever the
        lane's configured concurrency.
        """
        batch = protocol.parse_ingest_batch(doc)
        deadline = self._request_deadline(doc)
        breaker = self.breakers["store"]
        attempts = 0

        def primary() -> Dict[str, Any]:
            nonlocal attempts
            attempts += 1
            faults.service_check("ingest", self.state.num_versions)
            return self.state.ingest(batch)

        async def attempt() -> Dict[str, Any]:
            return await self._in_executor(primary, deadline, "ingest")

        with obs.timer("repro_ingest_seconds"):
            with obs.phase_span("server", "ingest", batch_size=batch.size):
                async with self.admission.slot("ingest", deadline,
                                               what="ingest"):
                    breaker.before_call("ingest")
                    try:
                        receipt = await retry_call_async(
                            attempt, policy=self.config.retry,
                            deadline=deadline, label="ingest",
                        )
                    except RetryExhaustedError:
                        breaker.record_failure()
                        raise
                    except BaseException:
                        breaker.record_neutral()
                        raise
                    breaker.record_success()
        self.counters["ingests"] += 1
        if attempts > 1:
            self.counters["retried"] += 1
        receipt.update({"ok": True, "op": "ingest",
                        "batch_size": batch.size})
        return receipt

    async def _handle_update(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """One single-edge update (or explicit fold) through the live lane.

        Never retried: a retried insert whose first attempt landed would
        bounce off the overlay's already-present validation.  Each update
        either applies exactly once (receipt carries its overlay ``seq``)
        or fails with the state untouched.
        """
        kind, u, v = protocol.parse_update(doc)

        def primary() -> Dict[str, Any]:
            faults.service_check("update", self.state.num_versions)
            return self.state.update(kind, u, v)

        with obs.timer("repro_livetip_update_seconds"):
            receipt = await self._run_gated(
                "update", f"update:{kind}", self._request_deadline(doc),
                primary,
            )
        self.counters["updates"] += 1
        receipt.update({"ok": True, "op": "update"})
        return receipt

    async def _handle_query(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        algorithm, source = doc["algorithm"], doc["source"]
        first, last = doc.get("first"), doc.get("last")
        label = f"{algorithm}:{source}:{first}:{last}"
        tag = doc.get("if_none_match")
        key: QueryKey = (algorithm.lower(), source, first, last, tag)
        inflight = self._inflight.get(key)
        if inflight is not None:
            # Identical query already running: share its outcome — but
            # on this request's own budget.  The shield keeps a
            # follower's expiry from cancelling the leader's future.
            self.counters["coalesced"] += 1
            obs.counter_inc("repro_coalesced_total")
            try:
                shared = await asyncio.wait_for(
                    asyncio.shield(inflight),
                    timeout=self._request_deadline(doc).remaining(),
                )
            except asyncio.TimeoutError:
                raise DeadlineExceededError(
                    f"query {label} exceeded its deadline waiting on an "
                    "identical in-flight query"
                ) from None
            return {**shared, "coalesced": True}
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[key] = future
        try:
            self.counters["queries"] += 1
            response = await self._run_read(
                doc, label,
                lambda: self.state.query(algorithm, source, first, last),
                lambda answer: _query_payload(answer, tag),
                lambda: self.state.cached_answer(algorithm, source,
                                                 first, last),
                algorithm=algorithm, source=source,
            )
        except BaseException as exc:
            # Resolve followers with an error payload, then re-raise for
            # this request's own error path.  The payload builder does
            # not bump the "errors" counter — _handle_line counts the
            # failure exactly once when the re-raised exception lands.
            future.set_result(self._error_payload(exc))
            raise
        else:
            future.set_result(response)
            return response
        finally:
            del self._inflight[key]

    async def _handle_temporal(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """One temporal batch through the query lane."""
        from repro.temporal.plan import parse_specs
        from repro.temporal.timeline import encode_results

        algorithm, source = doc["algorithm"], doc["source"]
        specs = parse_specs(doc["queries"])

        def respond(answer: Any) -> Dict[str, Any]:
            return {
                "ok": True,
                "op": "temporal",
                "algorithm": answer.algorithm,
                "source": answer.source,
                "window_first": answer.window_first,
                "window_last": answer.window_last,
                "epoch": answer.epoch,
                "ranges_evaluated": answer.ranges_evaluated,
                "snapshots_scanned": answer.snapshots_scanned,
                "results": encode_results(answer.results),
            }

        self.counters["temporals"] += 1
        return await self._run_read(
            doc, f"{algorithm}:{source}:{len(specs)} specs",
            lambda: self.state.temporal(algorithm, source, specs),
            respond,
            algorithm=algorithm, source=source, specs=len(specs),
        )


class ServiceRunner(LoopThreadRunner):
    """Run a :class:`GraphService` on a background thread.

    For tests, benchmarks and embedding (see
    :class:`~repro.service.lineserver.LoopThreadRunner`).  ``drain()``
    performs the graceful variant of ``stop()`` and returns the drain
    report.
    """

    thread_name = "repro-service"
    what = "service"

    def __init__(self, state: ServiceState,
                 config: Optional[ServiceConfig] = None) -> None:
        super().__init__()
        self.state = state
        self.config = config or ServiceConfig()
        self.service: Optional[GraphService] = None

    def _make_server(self) -> GraphService:
        self.service = GraphService(self.state, self.config)
        return self.service

    def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Gracefully drain the service and join the serve thread.

        Blocks the calling thread until the drain report is available
        (at most the drain deadline plus scheduling slack), then joins
        the serve loop.  Raises :class:`ServiceError` if the service
        never started.
        """
        service = self.service
        if self._loop is None or service is None:
            raise ServiceError("cannot drain: the service never started")
        budget = (timeout if timeout is not None
                  else self.config.drain_timeout)
        try:
            report = self.call(lambda: service.drain(timeout),
                               timeout=budget + 30)
        except TimeoutError:
            raise ServiceError(
                "drain did not complete within its deadline plus slack"
            ) from None
        if self._thread is not None:
            self._thread.join(timeout=30)
        return report
