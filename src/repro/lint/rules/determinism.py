"""Determinism: algorithm paths never read the wall clock or global RNG.

Fault-injection reproducibility (``repro.faults``) and the bit-exact
equivalence tests between evaluators both depend on ``repro/core/``,
``repro/kickstarter/`` and ``repro/temporal/`` being pure functions of
their inputs plus an explicit seed.  (The temporal engine resolves
``as_of_timestamp`` from a version→timestamp mapping *passed in* by the
service state, never by reading the clock itself — exactly the
discipline this rule enforces.)  This rule flags, in those packages
only:

* wall-clock reads — ``time.time``, ``datetime.now`` and friends,
  including through import aliases (``from time import time``,
  ``import time as t``); monotonic *duration* telemetry via
  ``time.perf_counter`` / ``time.monotonic`` stays legal: it never
  feeds back into values;
* calendar-clock *methods* — a ``.now()`` / ``.utcnow()`` /
  ``.today()`` call on any receiver **except an injected clock**: the
  sanctioned way to time things in an algorithm path is the
  :class:`repro.obs.clock.Clock` protocol, recognised here by the
  receiver being named ``clock`` / ``_clock`` (e.g. ``self.clock.now()``,
  ``self._clock.now()``);
* ``time.sleep`` — a timing-dependent stall in an algorithm path;
* the process-global RNG — any ``random.*`` / ``numpy.random.*`` call,
  and *unseeded* constructions ``random.Random()`` /
  ``numpy.random.default_rng()``.  Seeded constructions
  (``random.Random(seed)``, ``default_rng(seed)``) are the sanctioned
  pattern.

The :mod:`repro.obs` facade (``obs.phase_span``, ``obs.span``,
``obs.counter_inc``, …) is explicitly exempt: its timing comes from an
injected clock, so instrumented algorithm code stays deterministic.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, dotted_name

__all__ = ["DeterminismRule"]

WALL_CLOCK = {
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
}

#: Seeded-RNG constructors: legal with at least one argument.
SEEDED_CONSTRUCTORS = {
    "random.Random",
    "np.random.default_rng", "numpy.random.default_rng",
    "np.random.RandomState", "numpy.random.RandomState",
    "np.random.SeedSequence", "numpy.random.SeedSequence",
}

#: Calendar-clock method names: flagged on any receiver that is not an
#: injected clock.
CLOCK_METHODS = {"now", "utcnow", "today"}

#: Receiver names recognised as the injected-Clock pattern.
CLOCK_RECEIVERS = {"clock", "_clock"}

#: Call prefixes that are exempt wholesale: the observability facade
#: times through an injected Clock, never the wall clock.
SANCTIONED_PREFIXES = ("obs.", "repro.obs.")


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the canonical dotted names they import.

    ``import time as t`` → ``{"t": "time"}``; ``from time import time``
    → ``{"time": "time.time"}``; relative imports are skipped (they
    cannot smuggle the stdlib clock in under another name).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".", 1)[0]
                canonical = name.name if name.asname else local
                if local != canonical:
                    aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module is None:
                continue
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def _normalise(dotted: str, aliases: Dict[str, str]) -> str:
    """Rewrite the leading segment of ``dotted`` through the alias map."""
    head, sep, rest = dotted.partition(".")
    canonical = aliases.get(head)
    if canonical is None:
        return dotted
    return canonical + sep + rest if sep else canonical


class DeterminismRule(Rule):
    name = "determinism"
    title = "no wall-clock reads or unseeded RNG in algorithm paths"

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith(
            ("repro/core/", "repro/kickstarter/", "repro/livetip/",
             "repro/temporal/")
        )

    def check(self, module, project) -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            message = self._classify(_normalise(dotted, aliases), node)
            if message is not None:
                yield self.finding(module, node, message)

    @staticmethod
    def _classify(dotted: str, call: ast.Call) -> Optional[str]:
        if dotted.startswith(SANCTIONED_PREFIXES):
            return None
        if dotted in WALL_CLOCK:
            return (
                f"wall-clock read '{dotted}' in an algorithm path breaks "
                "replay determinism; thread a timestamp in explicitly "
                "(perf_counter/monotonic durations are fine)"
            )
        if dotted == "time.sleep":
            return (
                "'time.sleep' in an algorithm path makes behaviour "
                "timing-dependent; inject the sleep function "
                "(repro.resilience pattern) so tests pass a no-op"
            )
        if dotted in SEEDED_CONSTRUCTORS:
            if not call.args and not call.keywords:
                return (
                    f"'{dotted}()' without a seed is entropy-seeded; "
                    "pass an explicit seed for reproducible runs"
                )
            return None
        if dotted.startswith(("random.", "np.random.", "numpy.random.")):
            return (
                f"'{dotted}' uses the process-global RNG; construct a "
                "seeded generator (numpy.random.default_rng(seed) / "
                "random.Random(seed)) and thread it through"
            )
        receiver, _, method = dotted.rpartition(".")
        if method in CLOCK_METHODS and receiver:
            if receiver.rpartition(".")[2] in CLOCK_RECEIVERS:
                return None  # injected Clock (repro.obs.clock) — sanctioned
            return (
                f"'{dotted}' looks like a calendar-clock read in an "
                "algorithm path; inject a repro.obs.clock.Clock "
                "(receiver named 'clock'/'_clock') instead of reading "
                "the wall clock"
            )
        return None
