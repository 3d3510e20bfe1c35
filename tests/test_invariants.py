"""Whole-package invariants, checked by running or reading the package.

* **Determinism.** The evaluation paths — decomposing a history, a
  work-sharing range walk, a live-tip capture, a temporal plan, a
  KickStarter streaming session — are pure functions of their inputs
  and explicit seeds: they read no wall clock, never sleep and draw
  from no global RNG.  The runs below repeat with those entry points
  made to raise and must give the same answers bit for bit.
* **Error taxonomy.** Domain failures raise a ``repro.errors`` class,
  never a bare ``Exception``/``BaseException``/``RuntimeError`` that a
  caller cannot dispatch on.
* **Instruments.** ``obs.instruments.INSTRUMENTS`` is the one list of
  metric families: ``docs/observability.md``'s metric table names
  exactly those families with exactly their labels, and each is named
  somewhere outside the registry (no dead instrument).  An emission of
  an undeclared name or with a wrong label set already fails at run
  time (``instruments.family``, ``MetricFamily.labels``).
"""

from __future__ import annotations

import ast
import functools
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms.registry import get_algorithm
from repro.core.common import CommonGraphDecomposition
from repro.core.engine import WorkSharingEvaluator
from repro.evolving.version_control import VersionController
from repro.graph.weights import HashWeights
from repro.kickstarter.streaming import StreamingSession
from repro.livetip.overlay import LiveTipOverlay
from repro.obs.instruments import INSTRUMENTS
from repro.temporal.engine import TemporalEngine
from repro.temporal.plan import compile_plan
from repro.temporal.timeline import dumps_stable, encode_results

PACKAGE = Path(repro.__file__).resolve().parent
DOCS = Path(__file__).resolve().parents[1] / "docs"
WF = HashWeights(max_weight=16, seed=5)


@functools.lru_cache(maxsize=1)
def _modules():
    """``(path, tree)`` of every module of the package."""
    return tuple((path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
                 for path in sorted(PACKAGE.rglob("*.py")))


# -- determinism ---------------------------------------------------------------
#: Module-level entry points of the wall clock and the global RNGs.
_FORBIDDEN = (
    [(time, name) for name in ("time", "time_ns", "sleep")]
    + [(random, name) for name in (
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "getrandbits", "seed")]
    + [(np.random, name) for name in (
        "random", "random_sample", "rand", "randn", "randint", "choice",
        "shuffle", "permutation", "uniform", "normal", "seed")]
)


def _forbid(monkeypatch, calls):
    """Make every entry point in ``_FORBIDDEN`` (and an unseeded
    ``numpy.random.default_rng``) record its use and raise."""
    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called on an evaluation path")
        return call

    for module, name in _FORBIDDEN:
        monkeypatch.setattr(module, name,
                            forbidden(f"{module.__name__}.{name}"))
    seeded = np.random.default_rng

    def default_rng(seed=None):
        if seed is None:
            return forbidden("numpy.random.default_rng()")()
        return seeded(seed)

    monkeypatch.setattr(np.random, "default_rng", default_rng)


def _answers(evolving, algorithm):
    """Every answer of the five evaluation paths, as comparable values."""
    alg = get_algorithm(algorithm)
    n = evolving.num_snapshots
    decomposition = CommonGraphDecomposition.from_evolving(evolving)
    out = {"common": decomposition.common.codes.tobytes(),
           "surpluses": [s.codes.tobytes() for s in decomposition.surpluses]}
    walk = WorkSharingEvaluator(decomposition, alg, 0, weight_fn=WF,
                                first=1, last=n - 2).run()
    out["range"] = [row.tobytes() for row in walk.snapshot_values]
    out["range_counters"] = vars(walk.counters)
    tip = evolving.snapshot_edges(n - 1)
    (u,), (v,) = (arr[:1].tolist() for arr in tip.arrays())
    absent = next((0, w) for w in range(1, evolving.num_vertices)
                  if (0, w) not in tip)
    overlay = (LiveTipOverlay(decomposition, n - 1, weight_fn=WF)
               .apply_update("delete", u, v).apply_update("insert", *absent))
    out["livetip"] = overlay.capture(alg, 0).resolve().tobytes()
    plan = compile_plan(algorithm, 0, [
        {"mode": "point", "as_of": 2},
        {"mode": "timeline", "vertex": 3, "first": 0, "last": n - 1},
        {"mode": "aggregate", "agg": "min", "first": 1, "last": 4},
        {"mode": "diff", "a": 0, "b": n - 1},
    ])
    engine = TemporalEngine.for_controller(
        VersionController(evolving, weight_fn=WF), alg, 0)
    out["temporal"] = dumps_stable(encode_results(engine.run(plan.specs).results))
    session = StreamingSession(evolving, alg, 0, weight_fn=WF).run()
    out["streaming"] = [row.tobytes() for row in session.snapshot_values]
    out["streaming_counters"] = vars(session.counters)
    return out


@pytest.mark.parametrize("algorithm", ["BFS", "SSSP"])
def test_evaluation_reads_no_clock_and_no_global_rng(small_evolving,
                                                     monkeypatch, algorithm):
    want = _answers(small_evolving, algorithm)
    calls = []
    with monkeypatch.context() as patched:
        _forbid(patched, calls)
        got = _answers(small_evolving, algorithm)
    assert calls == []
    assert got == want


# -- error taxonomy ------------------------------------------------------------
GENERIC = {"Exception", "BaseException", "RuntimeError"}


def test_no_generic_raise():
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in GENERIC:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {exc.id}")
    assert found == []


# -- instruments ---------------------------------------------------------------
_DOC_METRIC = re.compile(r"`(repro_[a-z0-9_]+)(?:\{([a-z0-9_,]*)\})?`")


def _documented():
    """``name -> labels`` of the first column of the metric table."""
    documented = {}
    for line in (DOCS / "observability.md").read_text(encoding="utf-8").splitlines():
        if not line.startswith("| `repro_"):
            continue
        for name, labels in _DOC_METRIC.findall(line.split("|")[1]):
            assert name not in documented, f"{name} has two rows"
            documented[name] = set(filter(None, labels.split(",")))
    return documented


def test_the_metric_table_lists_exactly_the_instruments():
    declared = {name: set(spec.labelnames) for name, spec in INSTRUMENTS.items()}
    assert _documented() == declared


def test_every_instrument_is_named_outside_the_registry():
    registry = PACKAGE / "obs" / "instruments.py"
    named = {node.value for path, tree in _modules() if path != registry
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(set(INSTRUMENTS) - named) == []
