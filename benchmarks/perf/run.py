"""The benchmark's one command.

Driver form (one workload, one pass, result as the last stdout line)::

    python3 benchmarks/perf/run.py --workload serve_hot --seed 11 \\
        --seconds 12 --trace 0

Without ``--workload`` it runs all five workloads, both passes, prints
every metric with unit and sample count plus the per-layer time budget,
and writes ``runs/<utc>-<git sha>/`` (manifest, raw samples, spans,
summary).  ``--compare A/summary.json B/summary.json`` reads two such
summaries against the regression bounds; ``--write-benchmark-json``
regenerates ``BENCHMARK.json`` from ``spec.py``.

Each round runs in a fresh ``worker.py`` process.  An untraced run is
three time-bounded rounds; a traced run is one fixed-count untraced round
(for the untraced per-op-type latencies) and its traced twin: same ops,
one client.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import report
import spec
from stats import TooFewSamples, median, percentile, round_spread

WORKER = spec.PERF_DIR / "worker.py"
WORK_ROOT = spec.PERF_DIR / ".work"
RUNS_ROOT = spec.PERF_DIR / "runs"
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A round could not be measured; the command exits non-zero."""


def run_child(job: Dict[str, Any]) -> Dict[str, Any]:
    """One round in a fresh process, in a work directory of its own."""
    work_dir = WORK_ROOT / f"{os.getpid()}-{time.monotonic_ns()}"
    work_dir.mkdir(parents=True)
    job = dict(job, work_dir=str(work_dir), spawned_at=time.time())
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise BenchmarkError(
            f"{job['workload']}: round exceeded {CHILD_TIMEOUT_S}s") from None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if done.returncode != 0:
        raise BenchmarkError(
            f"{job['workload']}: worker exited {done.returncode}\n"
            f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _latencies(rounds: List[Dict[str, Any]], op_type: str,
               measured: bool = False) -> List[float]:
    """Latencies of one op type: calibrated, or as ``measured``."""
    return [raw if measured else ms
            for r in rounds for kind, ms, ok, raw in r["samples"]
            if kind == op_type and ok and ms is not None]


def _ops_per_s(result: Dict[str, Any], measured: bool = False) -> float:
    good = sum(1 for _, _, ok, _ in result["samples"] if ok)
    speed = 1.0 if measured else result["speed"]
    return good * speed / result["wall_s"]


def _verdict(rounds: List[Dict[str, Any]]) -> Dict[str, Any]:
    shas = {r["stream_sha256"] for r in rounds}
    failed = sum(r["failed"] for r in rounds)
    return {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "oracle_checked": sum(r["oracle_checked"] for r in rounds),
        "correct": (failed == 0 and len(shas) == 1
                    and all(r["oracle_checked"] > 0 for r in rounds)),
        "stream_sha256": sorted(shas)[0] if len(shas) == 1 else None,
        "problems": [p for r in rounds for p in r["problems"]][:10],
    }


def measure(workload: spec.Workload, seed: int, seconds: float,
            rounds: int = spec.ROUNDS, smoke: bool = False) -> Dict[str, Any]:
    """The untraced pass: ``rounds`` time-bounded rounds on fresh state."""
    results = [
        run_child({
            "workload": workload.name, "seed": seed, "round": index,
            "trace": False, "seconds": seconds / rounds, "max_ops": None,
            "min_queries": 0 if smoke else spec.MIN_QUERIES_PER_ROUND,
            "clients": workload.clients,
        })
        for index in range(rounds)
    ]
    queries = _latencies(results, "query")
    per_round = {
        "ops_per_s": [_ops_per_s(r) for r in results],
        "query_p50_ms": [percentile(_latencies([r], "query"), 50)
                         for r in results],
        "query_p90_ms": [percentile(_latencies([r], "query"), 90,
                                    enforce=False) for r in results],
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
    }
    try:
        p90: Optional[float] = percentile(queries, 90)
    except TooFewSamples:
        if not smoke:
            raise BenchmarkError(
                f"{workload.name}: only {len(queries)} range queries "
                f"finished; p90 needs 100") from None
        p90 = None
    values = {
        "ops_per_s": median(per_round["ops_per_s"]),
        "query_p50_ms": percentile(queries, 50),
        "query_p90_ms": p90,
        "peak_rss_mb": median(per_round["peak_rss_mb"]),
        "setup_s": median(per_round["setup_s"]),
    }
    samples = {"ops_per_s": rounds, "query_p50_ms": len(queries),
               "query_p90_ms": len(queries), "peak_rss_mb": rounds,
               "setup_s": rounds}
    return {
        **_verdict(results),
        "end_to_end": {
            m.name: {"value": values[m.name], "unit": m.unit,
                     "n": samples[m.name]}
            for m in spec.END_TO_END
        },
        # The same numbers without the speed-probe calibration.
        "measured": {
            "ops_per_s": median([_ops_per_s(r, measured=True)
                                 for r in results]),
            "query_p50_ms": percentile(
                _latencies(results, "query", measured=True), 50),
            "setup_s": median([r["setup_measured_s"] for r in results]),
            "speed": median([r["speed"] for r in results]),
        },
        "round_spread": {name: round_spread(series)
                         for name, series in per_round.items()},
        "op_types": _op_type_rows(results),
        "rounds": results,
    }


def _op_type_rows(rounds: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    kinds = sorted({row[0] for r in rounds for row in r["samples"]})
    rows = {}
    for kind in kinds:
        latencies = _latencies(rounds, kind)
        if latencies:
            rows[kind] = {"n": len(latencies),
                          "p50_ms": percentile(latencies, 50)}
    return rows


def trace_pass(workload: spec.Workload, seed: int, seconds: float,
               spans_path: Optional[Path] = None) -> Dict[str, Any]:
    """The traced pass: a fixed-count untraced round and its traced twin."""
    job = {
        "workload": workload.name, "seed": seed, "round": 0,
        "seconds": seconds, "min_queries": 0, "clients": 1,
        "max_ops": max(8, int(workload.traced_ops_per_second * seconds)),
    }
    twin = run_child(dict(job, trace=False))
    traced = run_child(dict(job, trace=True,
                            spans_path=str(spans_path) if spans_path else None))
    layers = dict(traced["layers"])
    op_rows = _op_type_rows([twin])
    for kind in ("query", "tip_query", "update", "ingest", "temporal"):
        layers[f"op.{kind}_p50_ms"] = op_rows.get(kind, {}).get("p50_ms", 0.0)
    return {
        **_verdict([twin, traced]),
        "per_layer": {m.name: {"value": layers[m.name], "unit": m.unit}
                      for m in spec.PER_LAYER},
        "budget": traced["budget"],
        "ops": traced["attempted"],
        "rounds": [twin, traced],
    }


# -- the driver's form -----------------------------------------------------------

def driver_run(args: argparse.Namespace) -> int:
    workload = spec.WORKLOAD_BY_NAME[args.workload]
    if args.trace:
        outcome = trace_pass(workload, args.seed, args.seconds)
        metrics = outcome["per_layer"]
        report.print_layers(workload.name, outcome)
    else:
        outcome = measure(workload, args.seed, args.seconds)
        metrics = outcome["end_to_end"]
        report.print_end_to_end(workload.name, outcome)
    for problem in outcome["problems"]:
        print("problem:", problem)
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


# -- all workloads, with artifacts --------------------------------------------------

def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=spec.REPO_ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "nogit"
    return done.stdout.strip() if done.returncode == 0 else "nogit"


def full_run(args: argparse.Namespace) -> int:
    import numpy

    seconds = 1.5 if args.smoke else args.seconds
    rounds = 1 if args.smoke else spec.ROUNDS
    sha = _git_sha()
    run_dir = RUNS_ROOT / f"{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}-{sha}"
    run_dir.mkdir(parents=True)
    summary: Dict[str, Any] = {"seed": args.seed, "seconds": seconds,
                               "rounds": rounds, "workloads": {}}
    with open(run_dir / "samples.jsonl", "w") as samples_out:
        for workload in spec.WORKLOADS:
            untraced = measure(workload, args.seed, seconds, rounds,
                               smoke=args.smoke)
            traced = trace_pass(workload, args.seed, seconds,
                                run_dir / "spans.jsonl")
            report.print_end_to_end(workload.name, untraced)
            report.print_layers(workload.name, traced)
            for label, outcome in (("untraced", untraced), ("traced", traced)):
                for result in outcome.pop("rounds"):
                    for kind, ms, ok, raw in result["samples"]:
                        samples_out.write(json.dumps({
                            "workload": workload.name, "pass": label,
                            "traced": result["traced"],
                            "round": result["round"], "op": kind,
                            "ms": ms, "measured_ms": raw, "ok": ok}) + "\n")
            summary["workloads"][workload.name] = {
                "untraced": untraced, "traced": traced}
    manifest = {
        "seed": args.seed, "seconds": seconds, "rounds": rounds,
        "smoke": args.smoke, "git_sha": sha, "host": platform.node(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "workloads": {
            w.name: {
                "why": w.why, "dataset": w.dataset, "snapshots": w.snapshots,
                "clients": w.clients,
                "traced_ops": summary["workloads"][w.name]["traced"]["ops"],
                "stream_sha256":
                    summary["workloads"][w.name]["untraced"]["stream_sha256"],
            } for w in spec.WORKLOADS
        },
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nartifacts: {run_dir}")
    outcomes = [o for w in summary["workloads"].values() for o in w.values()]
    failed = sum(o["failed"] for o in outcomes)
    if failed or not all(o["correct"] for o in outcomes):
        print(f"FAILED: {failed} failed or mismatched ops")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, one short round each")
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY_JSON")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        spec.BENCHMARK_JSON.write_text(spec.benchmark_json_text())
        print(f"wrote {spec.BENCHMARK_JSON}")
        return 0
    if args.compare:
        return report.compare(*(json.loads(Path(p).read_text())
                                for p in args.compare))
    try:
        return driver_run(args) if args.workload else full_run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
