"""An unpatched result-cache hit is answered on the event loop.

Such a hit costs no executor hop: :meth:`ServiceState.cached_answer`
loads the state's published value once, takes no state or overlay lock,
and the server answers from it within one loop turn — also while an
ingest or a fold is in flight.  A miss, a live-tip-patched answer and
every query under an active fault plan take the hop as before.  The admission
gate takes a free slot without a task or a loop turn, and still admits
waiters in arrival order.  Every answer here is compared with the naive
oracle.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time
import traceback

import pytest

from repro import faults
from repro.core.common import CommonGraphDecomposition
from repro.errors import ServiceOverloadedError
from repro.resilience import Deadline
from repro.service import ServiceClient, ServiceRunner
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.server import GraphService

from tests.conftest import state_oracle
from tests.service.conftest import valid_batch
from tests.service.test_conditional import Versions, assert_oracle

pytestmark = pytest.mark.service


@pytest.fixture
def hops(monkeypatch):
    """Every executor hop the server makes, by its ``what`` label."""
    made = []
    original = GraphService._in_executor

    async def counted(self, fn, deadline, what):
        made.append(what)
        return await original(self, fn, deadline, what)

    monkeypatch.setattr(GraphService, "_in_executor", counted)
    return made


@pytest.fixture
def runner(service_state):
    with ServiceRunner(service_state) as running:
        yield running


def expected(state, reply, algorithm, source):
    return Versions(state.store).expected(reply, algorithm, source,
                                          state.weight_fn)


class TestLoopHits:
    def test_a_repeated_query_takes_no_executor_hop(self, service_state,
                                                    runner, hops):
        stats = service_state.result_cache.stats
        with ServiceClient(port=runner.port) as client:
            miss = client.query("SSSP", 0)
            assert len(hops) == 1 and (stats.hits, stats.misses) == (0, 1)
            for _ in range(3):
                hit = client.query("SSSP", 0)
                assert hit["from_cache"] is True
                assert_oracle(hit, expected(service_state, hit, "SSSP", 0),
                              "loop hit")
            part = client.query("SSSP", 0, first=1, last=3)
            part = client.query("SSSP", 0, first=1, last=3)
        assert part["from_cache"] is True
        assert_oracle(part, expected(service_state, part, "SSSP", 0),
                      "loop hit, sub-range")
        assert miss["from_cache"] is False
        assert len(hops) == 2  # the two misses, no hit
        # Each query counted once: a hit on the loop, a miss off it.
        assert (stats.hits, stats.misses) == (4, 2)

    def test_a_hit_is_answered_on_the_loop_while_an_ingest_is_in_flight(
        self, service_state, runner, hops, monkeypatch
    ):
        with ServiceClient(port=runner.port) as client:
            client.query("BFS", 5)
        want = state_oracle(service_state, "BFS", 5)
        stats = service_state.result_cache.stats
        before = (stats.hits, stats.misses)
        # Park an ingest inside the state's writer, after its batch is
        # durable and before the next value is published.
        parked, release = threading.Event(), threading.Event()
        extended = CommonGraphDecomposition.extended

        def parked_extended(self, *args):
            parked.set()
            assert release.wait(timeout=30)
            return extended(self, *args)

        monkeypatch.setattr(CommonGraphDecomposition, "extended",
                            parked_extended)
        ingest = threading.Thread(target=service_state.ingest,
                                  args=(valid_batch(service_state.store),))
        ingest.start()
        try:
            assert parked.wait(timeout=30)
            with ServiceClient(port=runner.port, timeout=5,
                               reconnect_attempts=0) as client:
                reply = client.query("BFS", 5)
        finally:
            release.set()
            ingest.join(timeout=30)
        assert not ingest.is_alive()
        assert hops == ["query BFS:5:None:None"]  # the miss; no hit hopped
        assert reply["from_cache"] is True
        assert reply["epoch"] == 0
        assert_oracle(reply, want, "loop hit beside a parked ingest")
        assert (stats.hits, stats.misses) == (before[0] + 1, before[1])
        assert service_state.published.epoch == 1

    def test_each_query_counts_once_under_contention(self, service_state,
                                                     runner):
        keys = [(source, first, last) for source in (0, 3)
                for first, last in ((None, None), (1, 3), (2, 2))]
        # The oracle is built here, before any thread starts: loading the
        # store parses each .npy header with ast.literal_eval, and on
        # CPython 3.11 two threads in ast.parse at once can trip its
        # shared recursion counter (SystemError "AST constructor
        # recursion depth mismatch").
        model = Versions(service_state.store)
        window = (service_state.published.base, service_state.latest_version)
        want = {
            (source, first, last): model.expected(
                {"first": window[0] if first is None else first,
                 "last": window[1] if last is None else last},
                "SSSP", source, service_state.weight_fn)
            for source, first, last in keys
        }
        failures = []
        stop = threading.Event()

        def contend():  # reads the state and the cache over and over
            while not stop.is_set():
                service_state.status()

        def issue(seed):
            rng = random.Random(seed)
            try:
                with ServiceClient(port=runner.port) as client:
                    for _ in range(30):
                        key = rng.choice(keys)
                        reply = client.query("SSSP", *key)
                        assert_oracle(reply, want[key], f"seed {seed}")
            except Exception as exc:  # reported below, with the seed
                failures.append((seed, exc))

        threads = [threading.Thread(target=contend)]
        threads += [threading.Thread(target=issue, args=(seed,))
                    for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads[1:]:
                thread.join(timeout=120)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        threads[0].join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, "\n".join(
            f"seed {seed}: " + "".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__))
            for seed, exc in failures)
        stats = service_state.result_cache.stats
        queries = runner.service.counters["queries"]
        assert queries + runner.service.counters["coalesced"] == 4 * 30
        # One hit or one miss per executed query, on or off the loop.
        assert stats.hits + stats.misses == queries
        assert stats.misses == len(keys)

    def test_pending_updates_patch_the_tip_through_the_executor(
        self, service_state, runner, hops
    ):
        latest = service_state.latest_version
        with ServiceClient(port=runner.port) as client:
            client.query("BFS", 0)
            client.query("BFS", 0, last=latest - 1)
            model = Versions(service_state.store)
            (u, v), = zip(*valid_batch(service_state.store, n_add=1,
                                       n_del=0).additions.arrays())
            client.update("insert", int(u), int(v))
            model.live.add((int(u), int(v)))
            del hops[:]
            tip = client.query("BFS", 0)
            assert len(hops) == 1 and tip["livetip_seq"] == 1
            before = client.query("BFS", 0, last=latest - 1)
            assert len(hops) == 1 and "livetip_seq" not in before
        assert tip["from_cache"] is True and before["from_cache"] is True
        assert_oracle(tip, model.expected(tip, "BFS", 0,
                                          service_state.weight_fn),
                      "patched tip")
        assert_oracle(before, model.expected(before, "BFS", 0,
                                             service_state.weight_fn),
                      "range before the tip")

    def test_a_fault_plan_sends_a_cached_key_through_the_hook(
            self, service_state, runner, hops):
        with ServiceClient(port=runner.port) as client:
            client.query("SSSP", 3)
            plan = faults.FaultPlan().fail_service(match="query:*",
                                                   times=1)
            with plan.active():
                faulted = client.request({"op": "query", "algorithm": "SSSP",
                                          "source": 3})
                hit = client.query("SSSP", 3)
        assert faulted["ok"] is False
        assert faulted["error_type"] == "InjectedFault"
        assert plan.events == ["query:SSSP:3:None:None"] * 2
        assert hit["from_cache"] is True
        assert hops.count("query SSSP:3:None:None") == 3
        assert_oracle(hit, expected(service_state, hit, "SSSP", 3),
                      "hit through the hook")


class TestAdmissionFastPath:
    def test_a_free_slot_takes_no_task_and_no_loop_turn(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            created = []

            def factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(factory)
            admission = AdmissionController(
                query=AdmissionPolicy(max_concurrent=2, max_queue=0),
            )
            turned = []
            loop.call_soon(turned.append, True)
            async with admission.slot("query", Deadline.never()):
                async with admission.slot("query", Deadline.never()):
                    inside = (list(created), list(turned))
            loop.set_task_factory(None)
            return inside, admission.gate("query").snapshot()

        (created, turned), snapshot = asyncio.run(scenario())
        assert created == [] and turned == []
        assert snapshot["admitted"] == 2 and snapshot["max_depth"] == 1
        assert snapshot["active"] == snapshot["waiting"] == 0

    def test_a_queued_waiter_is_never_overtaken(self):
        async def scenario():
            admission = AdmissionController(
                query=AdmissionPolicy(max_concurrent=1, max_queue=4,
                                      queue_timeout=5.0),
            )
            gate = admission.gate("query")
            order = []

            async def admit(tag):
                await gate.acquire(Deadline.never(), draining=False)
                order.append(tag)
                gate.release()

            await gate.acquire(Deadline.never(), draining=False)
            queued = asyncio.ensure_future(admit("queued"))
            for _ in range(10):
                await asyncio.sleep(0)
            assert gate.snapshot()["waiting"] == 1
            # The slot frees, and in the same loop turn — before the
            # woken waiter resumes — a new request arrives.
            gate.release()
            await admit("later")
            await queued
            return order, gate.snapshot()

        order, snapshot = asyncio.run(scenario())
        assert order == ["queued", "later"]
        assert snapshot["admitted"] == 3 and sum(snapshot["shed"].values()) == 0
        assert snapshot["active"] == snapshot["waiting"] == 0

    def test_an_arrival_behind_a_woken_waiter_keeps_its_queue_budget(self):
        # The slot is free by ``active`` but promised to the woken
        # waiter: the arrival queues under its timeout, it does not
        # block on the semaphore with no budget at all.
        async def scenario():
            admission = AdmissionController(
                query=AdmissionPolicy(max_concurrent=1, max_queue=4,
                                      queue_timeout=0.05),
            )
            gate = admission.gate("query")

            async def hold(seconds):
                await gate.acquire(Deadline.never(), draining=False)
                await asyncio.sleep(seconds)
                gate.release()

            await gate.acquire(Deadline.never(), draining=False)
            queued = asyncio.ensure_future(hold(1.0))
            for _ in range(10):
                await asyncio.sleep(0)
            gate.release()
            with pytest.raises(ServiceOverloadedError):
                await gate.acquire(Deadline.never(), draining=False)
            await queued
            return gate.snapshot()

        snapshot = asyncio.run(scenario())
        assert snapshot["shed"] == {"queue_full": 0, "timeout": 1,
                                    "draining": 0}
        assert snapshot["admitted"] == 2
