"""KickStarter-style streaming substrate: push engine, incremental
additions, trim-and-repair deletions, and the sequential streaming
baseline the paper compares against."""

from repro.kickstarter.deletion import trim_and_repair
from repro.kickstarter.engine import (
    ASYNC_THRESHOLD,
    EngineCounters,
    VertexState,
    incremental_additions,
    push_until_stable,
    seed_edges,
    static_compute,
)
from repro.kickstarter.streaming import StreamingResult, StreamingSession

__all__ = [
    "EngineCounters",
    "VertexState",
    "static_compute",
    "push_until_stable",
    "seed_edges",
    "incremental_additions",
    "trim_and_repair",
    "StreamingSession",
    "StreamingResult",
    "ASYNC_THRESHOLD",
]
