"""Pluggable rule registry.

The default ruleset ships the seven project invariants; downstream code
(or tests) can :func:`register_rule` additional ones — registration is
by *class*, instantiated fresh per engine run so rules stay stateless
between runs.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.errors import LintError
from repro.lint.rules.async_safety import AsyncSafetyRule
from repro.lint.rules.base import ProjectRule, Rule
from repro.lint.rules.contracts import InstrumentContractRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.immutability import FrozenGraphRule
from repro.lint.rules.lockorder import LockOrderRule
from repro.lint.rules.locks import LockDisciplineRule
from repro.lint.rules.taxonomy import ErrorTaxonomyRule

__all__ = [
    "ProjectRule",
    "Rule",
    "AsyncSafetyRule",
    "DeterminismRule",
    "ErrorTaxonomyRule",
    "FrozenGraphRule",
    "InstrumentContractRule",
    "LockDisciplineRule",
    "LockOrderRule",
    "default_rules",
    "register_rule",
    "rule_names",
]

_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(rule_cls: Type[Rule]) -> Type[Rule]:
    """Add a rule class to the default registry (usable as a decorator)."""
    name = rule_cls.name
    if not name or name == Rule.name:
        raise LintError(f"rule {rule_cls.__name__} needs a distinct name")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not rule_cls:
        raise LintError(f"duplicate rule name {name!r}")
    _REGISTRY[name] = rule_cls
    return rule_cls


for _cls in (
    LockDisciplineRule,
    AsyncSafetyRule,
    FrozenGraphRule,
    ErrorTaxonomyRule,
    DeterminismRule,
    InstrumentContractRule,
    LockOrderRule,
):
    register_rule(_cls)


def rule_names() -> List[str]:
    """Registered rule names, sorted."""
    return sorted(_REGISTRY)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [_REGISTRY[name]() for name in rule_names()]
