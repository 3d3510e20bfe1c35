"""Self-test of the benchmark (``PYTHONPATH=src python -m pytest benchmarks/perf -q``).

Not part of tier-1 (``testpaths = ["tests"]``): it checks the measuring
instrument, not the program — stream determinism and validity, the
percentile rule, that a smoke run emits exactly the declared names, that
``BENCHMARK.json`` is the generated one, and that tracing leaves no
wrapper behind.
"""

from __future__ import annotations

import inspect
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spec
import stats
import trace as tracing
import workloads
from repro.evolving.delta import DeltaBatch
from repro.graph.edgeset import EdgeSet

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.mark.parametrize("workload", [w.name for w in spec.WORKLOADS])
def test_stream_is_a_function_of_the_seed(workload):
    evolving = workloads.build_evolving(spec.WORKLOAD_BY_NAME[workload], 11)
    first = workloads.stream_sha256(workload, 11, evolving)
    assert first == workloads.stream_sha256(workload, 11, evolving)
    assert first == workloads.stream_sha256(workload, 11)  # rebuilt input
    assert first != workloads.stream_sha256(workload, 12)


def test_fleet_replays_the_evolve_stream():
    assert (workloads.stream_sha256("fleet_mixed", 11)
            == workloads.stream_sha256("evolve_mixed", 11))


def test_every_generated_write_is_valid_against_the_tracked_tip():
    evolving = workloads.build_evolving(
        spec.WORKLOAD_BY_NAME["evolve_mixed"], 11)
    model = workloads.TipModel(evolving)
    source = workloads.stream("evolve_mixed", 11, evolving, model)
    tip = evolving.snapshot_edges(-1)  # replayed independently of the model
    pending = version = 0
    writes = 0
    for _ in range(600):
        op, expect = next(source)
        if op["type"] == "update":
            edge = EdgeSet.from_pairs([tuple(op["edge"])])
            batch = (DeltaBatch(additions=edge) if op["kind"] == "insert"
                     else DeltaBatch(deletions=edge))
            pending += 1
        elif op["type"] == "ingest":
            batch = DeltaBatch(
                additions=EdgeSet.from_pairs(map(tuple, op["additions"])),
                deletions=EdgeSet.from_pairs(map(tuple, op["deletions"])))
            assert (len(batch.additions), len(batch.deletions)) == (
                workloads.INGEST_ADDS, workloads.INGEST_DELETES)
            version += 1 + (1 if pending else 0)  # folds pending first
            pending = 0
        else:
            if op["type"] == "tip_query":
                assert op["first"] == op["last"] == expect.tip_version
            continue
        tip = batch.apply(tip, strict=True)  # raises on an invalid write
        writes += 1
        if pending >= spec.FOLD_EVERY:
            version, pending = version + 1, 0
        assert expect.live == tip
        assert expect.tip_version == evolving.num_snapshots - 1 + version
    assert writes > 100


def test_calibration_rescales_to_reference_speed():
    import worker

    slow = 2 * spec.PROBE_REFERENCE_MS  # the box at half speed
    rows = [["query", 10.0 + k, True, float(k), slow] for k in range(20)]
    rows[7][4] = 40 * slow  # one pre-empted probe: the window median drops it
    rows.append(["query", None, False, 20.0, slow])  # a failed op
    speed = worker._calibrate(rows)
    assert speed == pytest.approx(2.0)
    for k, (kind, ms, ok, measured) in enumerate(rows[:20]):
        assert (measured, ms) == (10.0 + k, pytest.approx((10.0 + k) / 2))
    assert rows[20] == ["query", None, False, None]


def test_percentile_rule():
    assert stats.percentile(list(range(200)), 95) == 189
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(199)), 95)
    assert stats.percentile(list(range(100)), 90) == 89
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0  # median: always


def test_benchmark_json_is_generated_and_within_the_contract():
    text = spec.BENCHMARK_JSON.read_text()
    assert text == spec.benchmark_json_text()
    doc = json.loads(text)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert len(text.encode()) <= 64 * 1024
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in doc["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    setup = [e for e in doc["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in doc["end_to_end"])


def _wrappers_left():
    """Every callable under ``repro.*`` that is still a tracing wrapper."""
    def is_wrapper(value):
        fn = getattr(value, "__func__", value)
        return "Tracer._wrap" in getattr(fn, "__qualname__", "")

    left = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if is_wrapper(value):
                left.append(f"{name}.{attr}")
            elif inspect.isclass(value) and value.__module__ == name:
                left += [f"{name}.{attr}.{key}"
                         for key, member in vars(value).items()
                         if is_wrapper(member)]
    return left


def test_tracing_wrappers_are_fully_removed():
    from repro.graph.edgeset import EdgeSet as traced_class
    from repro.service import planner

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert len({seam.target for seam in tracing.SEAMS}) == len(tracing.SEAMS)
        assert _wrappers_left()
        # Importers and aliases are patched too, not just the definition.
        assert "Tracer._wrap" in planner.static_compute.__qualname__
        assert traced_class.__or__ is traced_class.union
        with tracer.op(0):
            assert len(EdgeSet.from_pairs([(1, 2)]) | EdgeSet.from_pairs([(2, 3)])) == 2
    finally:
        tracer.uninstall()
    for owner, attr, original in tracer.patches:
        assert inspect.getattr_static(owner, attr) is original
    assert _wrappers_left() == []
    budget = tracer.budget({0: "query"})
    assert budget.ops == {"query": 1} and budget.calls["graph.edgeset"] == 1


def test_smoke_run_emits_exactly_the_declared_names():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(spec.PERF_DIR / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    # ~40 s here: 15 worker processes at ~1.3 s of set-up each.
    assert elapsed < 90, f"smoke run took {elapsed:.1f}s"
    run_dir = Path(done.stdout.strip().splitlines()[-1].split("artifacts: ")[1])
    summary = json.loads((run_dir / "summary.json").read_text())
    declared = json.loads(spec.BENCHMARK_JSON.read_text())
    assert list(summary["workloads"]) == [w["name"] for w in declared["workloads"]]
    for outcome in summary["workloads"].values():
        assert list(outcome["untraced"]["end_to_end"]) == [
            m["name"] for m in declared["end_to_end"]]
        assert list(outcome["traced"]["per_layer"]) == [
            m["name"] for m in declared["per_layer"]]
        assert outcome["untraced"]["failed"] == outcome["traced"]["failed"] == 0
    for name in ("manifest.json", "samples.jsonl", "spans.jsonl"):
        assert (run_dir / name).stat().st_size > 0
