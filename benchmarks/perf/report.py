"""What a run prints, and the parent/change comparison."""

from __future__ import annotations

from typing import Any, Dict

import spec

__all__ = ["print_end_to_end", "print_layers", "compare"]


def _number(value: Any) -> str:
    if value is None:
        return "n/a (too few samples)"
    return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"


def print_end_to_end(workload: str, outcome: Dict[str, Any]) -> None:
    print(f"\n== {workload}: end to end (untraced) — attempted "
          f"{outcome['attempted']}, failed {outcome['failed']}, oracle-checked "
          f"{outcome['oracle_checked']}, correct {outcome['correct']}")
    for name, m in outcome["end_to_end"].items():
        spread = outcome["round_spread"][name]
        print(f"  {name:<16} {_number(m['value']):>12} {m['unit']:<4} "
              f"n={m['n']:<5} round_spread={spread:.3f}")
    for kind, row in outcome["op_types"].items():
        print(f"  op {kind:<13} p50 {row['p50_ms']:>10.3f} ms   n={row['n']}")
    measured = outcome["measured"]
    print(f"  as measured (box at {measured['speed']:.2f}x the reference probe "
          f"time): ops_per_s {measured['ops_per_s']:.4f}, query_p50_ms "
          f"{measured['query_p50_ms']:.4f}, setup_s {measured['setup_s']:.4f}")


def print_layers(workload: str, outcome: Dict[str, Any]) -> None:
    print(f"\n== {workload}: per layer (traced, 1 client, {outcome['ops']} "
          f"ops) — failed {outcome['failed']}, correct {outcome['correct']}")
    layer_of = {m.name: m.layer for m in spec.PER_LAYER}
    current = None
    for name, m in outcome["per_layer"].items():
        if layer_of[name] != current:
            current = layer_of[name]
            print(f"  [{current}]")
        print(f"    {name:<36} {_number(m['value']):>14} {m['unit']}")
    print(f"  -- time budget: self ms per op and share of the op's latency")
    for kind, table in outcome["budget"].items():
        print(f"  {kind}: n={table['ops']}, latency "
              f"{table['latency_ms']:.3f} ms")
        for row, ms, share in table["rows"]:
            print(f"      {row:<18} {ms:>9.3f} ms {100 * share:>6.1f}%")


def compare(parent: Dict[str, Any], change: Dict[str, Any]) -> int:
    """One row per (workload, end-to-end metric); exit 1 on any ``worse``.

    ``worse``: the change's value is worse than the parent's by more than
    the metric's bound.  ``unresolved``: either side's round spread
    exceeds the bound, so the run cannot tell — not the same as ``ok``.
    """
    print(f"{'workload':<14} {'metric':<14} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    worst = 0
    for metric in spec.END_TO_END:
        for workload in spec.WORKLOADS:
            sides = [side["workloads"][workload.name]["untraced"]
                     for side in (parent, change)]
            a, b = (side["end_to_end"][metric.name]["value"] for side in sides)
            if a is None or b is None:
                verdict, worse_by = "unresolved", float("nan")
            else:
                worse_by = (b - a) / a if metric.better == "lower" \
                    else (a - b) / a
                spread = max(side["round_spread"][metric.name]
                             for side in sides)
                if spread > metric.bound:
                    verdict = "unresolved"
                elif worse_by > metric.bound:
                    verdict = "worse"
                    worst = 1
                else:
                    verdict = "ok"
            print(f"{workload.name:<14} {metric.name:<14} {_number(a):>12} "
                  f"{_number(b):>12} {worse_by:>+9.3f} {metric.bound:>6.2f}  "
                  f"{verdict}")
    return worst
