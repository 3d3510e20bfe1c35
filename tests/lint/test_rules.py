"""Positive and negative fixture snippets for every lint rule.

Each rule gets at least one snippet that must fire and one twin that
must stay silent; the negatives encode the sanctioned idioms the rules
were designed around (snapshot-under-lock, run_in_executor, seeded
RNGs, the errors doctrine), so a regression here means the analyzer
started fighting the codebase's own style.
"""

from tests.lint.conftest import rule_findings

# ---------------------------------------------------------------- locks

LOCKED_CLASS = """\
    import threading


    class State:
        def __init__(self):
            self._lock = threading.Lock()
            self.epoch = 0  # guarded-by: _lock

        def bad(self):
            return self.epoch

        def good(self):
            with self._lock:
                return self.epoch

        def helper(self):  # holds-lock: _lock
            return self.epoch

        def snapshot(self):
            with self._lock:
                epoch = self.epoch
            return epoch
"""


def test_lock_discipline_positive(lint_project):
    result = lint_project({"repro/state.py": LOCKED_CLASS})
    findings = rule_findings(result, "lock-discipline")
    assert len(findings) == 1
    (finding,) = findings
    assert finding.context == "State.bad"
    assert "_lock" in finding.message


def test_lock_discipline_negative_idioms(lint_project):
    # Drop the one offender: with-block, holds-lock pragma,
    # snapshot-then-use and __init__ must all stay silent.
    source = LOCKED_CLASS.replace(
        "    def bad(self):\n            return self.epoch\n\n", ""
    )
    result = lint_project({"repro/state.py": source})
    assert rule_findings(result, "lock-discipline") == []


def test_lock_discipline_closure_resets_held_locks(lint_project):
    result = lint_project({"repro/state.py": """\
        import threading


        class State:
            def __init__(self):
                self._lock = threading.Lock()
                self.epoch = 0  # guarded-by: _lock

            def make_callback(self):
                with self._lock:
                    def callback():
                        return self.epoch
                    return callback

            def make_safe_callback(self):
                with self._lock:
                    def callback():  # holds-lock: _lock
                        return self.epoch
                    return callback
    """})
    findings = rule_findings(result, "lock-discipline")
    # The closure outlives the with-block, so the first callback is a
    # race; the second re-declares its guarantee and is accepted.
    assert len(findings) == 1
    assert findings[0].context == "State.make_callback.callback"


def test_lock_discipline_is_self_scoped(lint_project):
    # Accesses through an alias of another object are out of scope by
    # design (the snapshot idiom); only `self.<attr>` is checked.
    result = lint_project({"repro/state.py": """\
        import threading


        class State:
            def __init__(self):
                self._lock = threading.Lock()
                self.epoch = 0  # guarded-by: _lock


        def outside(state):
            return state.epoch
    """})
    assert rule_findings(result, "lock-discipline") == []


def test_multiple_locks_all_required(lint_project):
    result = lint_project({"repro/state.py": """\
        import threading


        class State:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()
                self.shared = 0  # guarded-by: _a, _b

            def half(self):
                with self._a:
                    return self.shared

            def both(self):
                with self._a:
                    with self._b:
                        return self.shared
    """})
    findings = rule_findings(result, "lock-discipline")
    assert len(findings) == 1
    assert findings[0].context == "State.half"


# ---------------------------------------------------------- async-safety

ASYNC_HANDLERS = """\
    import asyncio
    import time


    async def bad_handler():
        time.sleep(0.1)

    async def good_handler():
        await asyncio.sleep(0.1)

    async def executor_handler(loop):
        def work():
            return open("data.txt").read()
        return await loop.run_in_executor(None, work)
"""


def test_async_blocking_positive(lint_project):
    result = lint_project({"repro/service/handlers.py": ASYNC_HANDLERS})
    findings = rule_findings(result, "async-blocking")
    assert len(findings) == 1
    assert findings[0].context == "bad_handler"
    assert "time.sleep" in findings[0].message


def test_async_blocking_ignores_awaits_and_executor_targets(lint_project):
    source = ASYNC_HANDLERS.replace(
        "    async def bad_handler():\n        time.sleep(0.1)\n\n", ""
    )
    result = lint_project({"repro/service/handlers.py": source})
    assert rule_findings(result, "async-blocking") == []


def test_async_blocking_scoped_to_service(lint_project):
    # The same offender outside repro/service/ is out of scope.
    result = lint_project({"repro/analysis/handlers.py": ASYNC_HANDLERS})
    assert rule_findings(result, "async-blocking") == []


def test_async_blocking_bare_future_result(lint_project):
    result = lint_project({"repro/service/joins.py": """\
        async def joiner(fut):
            return fut.result()

        async def poller(fut):
            return fut.result(0)
    """})
    findings = rule_findings(result, "async-blocking")
    # A no-arg .result() blocks until completion; .result(0) polls.
    assert len(findings) == 1
    assert findings[0].context == "joiner"


def test_async_blocking_covers_fleet_package(lint_project):
    # The fleet router is a second asyncio surface: the same offender
    # under repro/fleet/ is in scope.
    result = lint_project({"repro/fleet/router.py": ASYNC_HANDLERS})
    findings = rule_findings(result, "async-blocking")
    assert len(findings) == 1
    assert findings[0].context == "bad_handler"


def test_async_blocking_covers_livetip_package(lint_project):
    # The live-tip overlay sits on the service's hot path (the update
    # lane's executor hand-off): the same offender under
    # repro/livetip/ is in scope.
    result = lint_project({"repro/livetip/overlay2.py": ASYNC_HANDLERS})
    findings = rule_findings(result, "async-blocking")
    assert len(findings) == 1
    assert findings[0].context == "bad_handler"


def test_async_blocking_covers_resilience_module(lint_project):
    # The retry/breaker helpers run on the event loop too: the same
    # time.sleep that is flagged under repro/service/ is flagged in
    # repro/resilience.py.
    result = lint_project({"repro/resilience.py": ASYNC_HANDLERS})
    findings = rule_findings(result, "async-blocking")
    assert len(findings) == 1
    assert findings[0].context == "bad_handler"


def test_async_blocking_sync_joins_flagged(lint_project):
    result = lint_project({"repro/service/admission.py": """\
        import threading


        class Gate:
            def __init__(self):
                self._lock = threading.Lock()

            async def admit(self):
                self._lock.acquire()

            async def drain(self, thread):
                thread.join()
    """})
    findings = rule_findings(result, "async-blocking")
    assert len(findings) == 2
    assert {f.context for f in findings} == {"Gate.admit", "Gate.drain"}
    assert any(".acquire()" in f.message for f in findings)
    assert any(".join()" in f.message for f in findings)


def test_async_blocking_asyncio_primitives_exempt(lint_project):
    # A semaphore constructed from asyncio has a *coroutine* acquire —
    # handing it to asyncio.wait_for is the non-blocking idiom, not a
    # stall, so receivers assigned from asyncio.* are not flagged.
    result = lint_project({"repro/service/admission.py": """\
        import asyncio


        class Gate:
            def __init__(self):
                self._semaphore = asyncio.Semaphore(4)
                self._updates = asyncio.Queue()

            async def admit(self, budget):
                await asyncio.wait_for(self._semaphore.acquire(),
                                       timeout=budget)

            async def next_update(self, budget):
                return await asyncio.wait_for(self._updates.get(),
                                              timeout=budget)
    """})
    assert rule_findings(result, "async-blocking") == []


# --------------------------------------------------------- frozen-graph

MUTATOR = """\
    import numpy as np


    def clobber(graph):
        graph.indptr[0] = 7

    def reorder(edges):
        edges._codes.sort()

    def alias(graph, deltas):
        np.add(graph.weights, deltas, out=graph.weights)

    def degrees(graph):
        return graph.indptr[1:] - graph.indptr[:-1]
"""


def test_frozen_graph_positive(lint_project):
    result = lint_project({"repro/analysis/mut.py": MUTATOR})
    findings = rule_findings(result, "frozen-graph")
    contexts = sorted(f.context for f in findings)
    # assignment-into, in-place sort and out= aliasing all fire;
    # the read-only degrees computation does not.
    assert contexts == ["alias", "clobber", "reorder"]


def test_frozen_graph_exempts_graph_package(lint_project):
    result = lint_project({"repro/graph/builder.py": MUTATOR})
    assert rule_findings(result, "frozen-graph") == []


def test_frozen_graph_exempts_own_init_slot(lint_project):
    result = lint_project({"repro/analysis/model.py": """\
        class Model:
            def __init__(self):
                self.weights = [1.0, 2.0]

            def retrain(self):
                self.weights = [0.0]
    """})
    findings = rule_findings(result, "frozen-graph")
    # `self.weights` in a foreign __init__ is that class's own slot;
    # re-assigning it later is indistinguishable from a graph write
    # and stays flagged.
    assert len(findings) == 1
    assert findings[0].context == "Model.retrain"


# ------------------------------------------------------- error-taxonomy

def test_taxonomy_generic_raise_positive_and_negative(lint_project):
    result = lint_project({"repro/util2.py": """\
        from repro.errors import EngineError


        def bad():
            raise RuntimeError("boom")

        def contract(n):
            if n < 0:
                raise ValueError("n must be >= 0")

        def domain():
            raise EngineError("tile failed")
    """})
    findings = rule_findings(result, "error-taxonomy")
    assert len(findings) == 1
    assert findings[0].context == "bad"
    assert "RuntimeError" in findings[0].message


def test_taxonomy_broad_handler_positive_and_negative(lint_project):
    result = lint_project({"repro/util2.py": """\
        from repro.errors import EngineError


        def swallow(work):
            try:
                work()
            except Exception:
                pass

        def converts(work):
            try:
                work()
            except Exception as exc:
                raise EngineError(str(exc))

        def logs(work, log):
            try:
                work()
            except Exception as exc:
                log.warning("failed: %s", exc)

        def records(work, outcomes):
            try:
                work()
            except Exception:
                outcomes.append("failed")
    """})
    findings = rule_findings(result, "error-taxonomy")
    assert len(findings) == 1
    assert findings[0].context == "swallow"


def test_taxonomy_bare_except_must_reraise(lint_project):
    result = lint_project({"repro/util2.py": """\
        def guarded(work, log):
            try:
                work()
            except:
                log.warning("failed")

        def reraises(work, cleanup):
            try:
                work()
            except:
                cleanup()
                raise
    """})
    findings = rule_findings(result, "error-taxonomy")
    # Referencing/recording is not enough for a *bare* except — only a
    # raise is.
    assert len(findings) == 1
    assert findings[0].context == "guarded"


# --------------------------------------------------------- determinism

IMPURE = """\
    import random
    import time

    import numpy as np


    def wall():
        return time.time()

    def stall():
        time.sleep(0.1)

    def draw():
        return random.random()

    def unseeded():
        return np.random.default_rng()

    def seeded(seed):
        return np.random.default_rng(seed)

    def telemetry():
        start = time.perf_counter()
        return time.perf_counter() - start
"""


def test_determinism_positive(lint_project):
    result = lint_project({"repro/core/algo.py": IMPURE})
    findings = rule_findings(result, "determinism")
    contexts = sorted(f.context for f in findings)
    # Seeded construction and perf_counter telemetry are sanctioned;
    # everything else in the fixture is a determinism leak.
    assert contexts == ["draw", "stall", "unseeded", "wall"]


def test_determinism_scoped_to_algorithm_packages(lint_project):
    result = lint_project({
        "repro/bench/algo.py": IMPURE,
        "repro/kickstarter/algo.py": "import time\n\ndef f():\n    return time.time()\n",
    })
    findings = rule_findings(result, "determinism")
    # bench/ may read clocks; kickstarter/ may not.
    assert [f.path for f in findings] == ["repro/kickstarter/algo.py"]


def test_determinism_covers_temporal_package(lint_project):
    # Temporal answers must be replayable: as-of-timestamp resolution
    # works off ingest stamps passed *in* (version_times), never off a
    # wall clock read inside repro/temporal/.
    result = lint_project({"repro/temporal/engine2.py": IMPURE})
    findings = rule_findings(result, "determinism")
    contexts = sorted(f.context for f in findings)
    assert contexts == ["draw", "stall", "unseeded", "wall"]


def test_determinism_covers_livetip_package(lint_project):
    # Per-update receipts must replay bit-identically (and fleet
    # replicas must agree on them): repro/livetip/ may not read the
    # wall clock or an unseeded RNG — age-based compaction works off
    # an *injected* time_fn only.
    result = lint_project({"repro/livetip/overlay2.py": IMPURE})
    findings = rule_findings(result, "determinism")
    contexts = sorted(f.context for f in findings)
    assert contexts == ["draw", "stall", "unseeded", "wall"]


ALIASED_CLOCKS = """\
    import time as t
    from time import time
    from datetime import datetime


    def aliased_module():
        return t.time()

    def aliased_name():
        return time()

    def from_import_method():
        return datetime.now()

    def naked_method(event):
        return event.utcnow()
"""


def test_determinism_sees_through_import_aliases(lint_project):
    result = lint_project({"repro/core/algo.py": ALIASED_CLOCKS})
    findings = rule_findings(result, "determinism")
    contexts = sorted(f.context for f in findings)
    # Aliasing the clock in does not launder it, and calendar-clock
    # methods on arbitrary receivers are treated as wall-clock reads.
    assert contexts == [
        "aliased_module", "aliased_name", "from_import_method",
        "naked_method",
    ]


INJECTED_CLOCK = """\
    from repro import obs
    from repro.obs.clock import Clock


    class Timed:
        def __init__(self, clock):
            self.clock = clock
            self._clock = clock

        def measure(self):
            start = self.clock.now()
            with obs.phase_span("kernel", "step"):
                pass
            obs.counter_inc("repro_spans_total")
            return self._clock.now() - start

    def free_function(clock):
        return clock.now()
"""


def test_determinism_sanctions_injected_clock_and_obs(lint_project):
    result = lint_project({"repro/kickstarter/algo.py": INJECTED_CLOCK})
    findings = rule_findings(result, "determinism")
    # Injected Clock receivers (clock/_clock) and the obs facade are the
    # sanctioned instrumentation pattern: no findings.
    assert findings == []
