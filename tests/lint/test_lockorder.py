"""The interprocedural lock-order / await-under-lock detector."""

from repro.lint.rules.lockorder import LockOrderRule

from tests.lint.conftest import rule_findings


def lock_rules():
    return [LockOrderRule()]


# -------------------------------------------------------------- fixtures

def two_state_fixture(reverse_body):
    """Two classes, each with its own lock, calling across each other."""
    return {
        "repro/service/state.py": """
            import threading


            class StateA:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.peer = StateB()

                def use(self):
                    with self._lock:
                        return self.peer.push()


            class StateB:
                def __init__(self):
                    self._guard = threading.Lock()

                def push(self):
                    with self._guard:
                        return 1

                def reverse(self, a: "StateA"):
                    with self._guard:
        """ + "\n" + "            " + reverse_body + "\n",
    }


# ------------------------------------------------------------- cycles

def test_two_lock_cycle_across_classes_is_caught(lint_project):
    result = lint_project(
        two_state_fixture("            return a.use()"),
        rules=lock_rules(),
    )
    findings = rule_findings(result, "lock-order")
    assert len(findings) == 1
    assert "cycle" in findings[0].message
    assert "StateA._lock" in findings[0].message
    assert "StateB._guard" in findings[0].message


def test_consistent_order_is_clean(lint_project):
    # Same two locks, but reverse() never re-enters StateA: the edge
    # set stays acyclic (A -> B only).
    result = lint_project(
        two_state_fixture("            return 2"),
        rules=lock_rules(),
    )
    assert rule_findings(result, "lock-order") == []


def test_direct_nested_with_cycle_is_caught(lint_project):
    result = lint_project({
        "repro/fleet/router.py": """
            import threading

            A = threading.Lock()
            B = threading.Lock()


            def forward():
                with A:
                    with B:
                        pass


            def backward():
                with B:
                    with A:
                        pass
        """,
    }, rules=lock_rules())
    findings = rule_findings(result, "lock-order")
    assert len(findings) == 1
    assert "cycle" in findings[0].message


def test_reentrant_self_loop_is_not_a_cycle(lint_project):
    # Re-acquiring the same lock is lock-discipline's concern, not an
    # ordering violation: a self-loop must not be reported as a cycle.
    result = lint_project({
        "repro/service/state.py": """
            import threading


            class Cache:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        return self.inner()

                def inner(self):
                    with self._lock:
                        return 1
        """,
    }, rules=lock_rules())
    assert rule_findings(result, "lock-order") == []


def test_acquire_release_participates_in_edges(lint_project):
    result = lint_project({
        "repro/service/state.py": """
            import threading


            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    # A bare .acquire() under a held lock is an ordering
                    # edge just like a nested with-statement.
                    with self._b:
                        self._a.acquire()
                        self._a.release()
        """,
    }, rules=lock_rules())
    findings = rule_findings(result, "lock-order")
    assert len(findings) == 1
    assert "Pair._a" in findings[0].message
    assert "Pair._b" in findings[0].message


def test_holds_lock_pragma_seeds_the_held_set(lint_project):
    # flush() is documented (and checked by lock-discipline) to run
    # under _a; acquiring _b inside it closes the loop against sync().
    result = lint_project({
        "repro/service/state.py": """
            import threading


            class Store:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def flush(self):
                    # holds-lock: _a
                    with self._b:
                        return 1

                def sync(self):
                    with self._b:
                        with self._a:
                            return 2
        """,
    }, rules=lock_rules())
    findings = rule_findings(result, "lock-order")
    assert len(findings) == 1
    assert "cycle" in findings[0].message


# ------------------------------------------------------ await under lock

AWAIT_UNDER_LOCK = """
    import threading


    class Plane:
        def __init__(self):
            self._lock = threading.Lock()

        async def relay(self, peer):
            with self._lock:
                return await peer.send()
"""


def test_await_under_thread_lock_in_service_plane_is_caught(lint_project):
    result = lint_project(
        {"repro/service/server.py": AWAIT_UNDER_LOCK}, rules=lock_rules()
    )
    findings = rule_findings(result, "lock-order")
    assert len(findings) == 1
    assert "await" in findings[0].message
    assert "Plane._lock" in findings[0].message
    assert "asyncio.Lock" in findings[0].message


def test_await_under_thread_lock_in_fleet_plane_is_caught(lint_project):
    result = lint_project(
        {"repro/fleet/router.py": AWAIT_UNDER_LOCK}, rules=lock_rules()
    )
    assert len(rule_findings(result, "lock-order")) == 1


def test_await_under_lock_outside_async_planes_is_exempt(lint_project):
    # Core algorithm code is synchronous by charter; the async-plane
    # check must not leak into it.
    result = lint_project(
        {"repro/core/pipeline.py": AWAIT_UNDER_LOCK}, rules=lock_rules()
    )
    assert rule_findings(result, "lock-order") == []


def test_await_under_asyncio_lock_is_fine(lint_project):
    result = lint_project({
        "repro/service/server.py": """
            import asyncio


            class Plane:
                def __init__(self):
                    self._lock = asyncio.Lock()

                async def relay(self, peer):
                    async with self._lock:
                        return await peer.send()
        """,
    }, rules=lock_rules())
    assert rule_findings(result, "lock-order") == []


def test_await_after_lock_released_is_fine(lint_project):
    result = lint_project({
        "repro/service/server.py": """
            import threading


            class Plane:
                def __init__(self):
                    self._lock = threading.Lock()

                async def relay(self, peer):
                    with self._lock:
                        payload = 1
                    return await peer.send(payload)
        """,
    }, rules=lock_rules())
    assert rule_findings(result, "lock-order") == []
