#!/usr/bin/env python
"""Parallel Direct-Hop: breaking the streaming dependency chain.

KickStarter must visit snapshots in order — snapshot t's results seed
snapshot t+1.  The CommonGraph breaks that chain: every snapshot is an
independent additions-only hop from the same converged state, so hops
can run concurrently.  This example reproduces the Table 5 projection
(longest single hop, "given a system with sufficient cores").

Run:  python examples/parallel_snapshots.py
"""

import repro


def main() -> None:
    base = repro.generate_dataset("LJ", edge_scale=0.5)
    spec_vertices = repro.DATASETS["LJ"].num_vertices
    base_csr = repro.CSRGraph.from_edge_set(base, spec_vertices)
    source = int(base_csr.degrees().argmax())

    evolving = repro.generate_evolving_graph(
        num_vertices=spec_vertices,
        base=base,
        num_snapshots=25,
        batch_size=75,
        seed=5,
        name="LJ-parallel",
        protect_vertex=source,
    )
    weight_fn = repro.default_weights()
    decomp = repro.CommonGraphDecomposition.from_evolving(evolving)

    # Sequential baseline: KickStarter streaming.
    streaming = repro.StreamingSession(
        evolving, repro.SSSP(), source, weight_fn=weight_fn, keep_values=False
    ).run()
    print(f"KickStarter (sequential, forced): {streaming.total_seconds:.3f}s")

    parallel = repro.ParallelDirectHop(
        decomp, repro.SSSP(), source, weight_fn=weight_fn
    ).run()

    print(f"Direct-Hop, sequential sum of hops: "
          f"{parallel.sequential_seconds:.3f}s "
          f"(+ {parallel.initial_seconds:.3f}s once on the common graph)")
    print(f"Direct-Hop, longest single hop:     "
          f"{parallel.critical_path_seconds * 1e3:.2f}ms")

    projection = streaming.total_seconds / parallel.critical_path_seconds
    print(f"\ncritical-path projection (paper's Table 5 metric): "
          f"{projection:.0f}x over KickStarter")
    print("\n(the projection assumes one core per snapshot; the hops above ran\n"
          " one after another, each timed on its own)")


if __name__ == "__main__":
    main()
