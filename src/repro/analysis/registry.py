"""Rule base classes, registries, and the per-file analysis context.

Rules self-register at import time via :func:`register` (per-file) or
:func:`register_program` (interprocedural); the runner asks
:func:`all_rules` / :func:`all_program_rules` for the catalogs. A
per-file rule sees a :class:`FileContext` — the module's record
(:class:`~repro.analysis.callgraph.ModuleUnit`) plus the active policy. A
:class:`ProgramRule` sees the whole
:class:`~repro.analysis.callgraph.ProgramContext` instead and declares a
``scope``:

* ``"file"`` — every finding is explained by the finding-file's import
  closure, so the runner merges it into that file's per-file findings
  before suppressions apply (X101 taint chains, X202 lock-across-dispatch).
* ``"program"`` — findings depend on facts outside any single closure
  (lock-order cycles across unrelated files, reverse reachability from
  worker entries), so the runner only filters them against their anchor
  file's allows (X201, X301).
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import ModuleUnit, ProgramContext
from repro.analysis.findings import Finding
from repro.analysis.policy import DEFAULT_POLICY, LintPolicy
from repro.errors import FillError


@dataclass(frozen=True)
class FileContext(ModuleUnit):
    """Everything a rule may consult about one file under analysis: the
    module's record plus the active policy.

    Attributes:
        path: the path findings are reported under.
        module: dotted module name (``""`` for non-package files, e.g.
            fixture snippets — package-scoped rules then skip the file
            unless the caller forces a module name).
        source: raw file text.
        tree: parsed AST of ``source``.
        policy: the active :class:`LintPolicy`.

    Suppressions and import bindings are the record's cached properties;
    rules resolve imported names with :meth:`ModuleUnit.imported_name`.
    """

    policy: LintPolicy = field(default_factory=lambda: DEFAULT_POLICY)


class Rule(abc.ABC):
    """One analysis rule: an id, a one-line summary, and a check."""

    #: Unique id, e.g. ``"D104"``. Families: D = determinism,
    #: C = concurrency, A = suppression hygiene.
    rule_id: str = ""
    #: One-line description, published as the rule's ``shortDescription``
    #: in the SARIF report's ``tool.driver.rules`` catalog.
    summary: str = ""

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> list[Finding]:
        """Findings for one file (empty when clean)."""

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """A finding anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


class ProgramRule(abc.ABC):
    """One interprocedural rule over the whole program.

    Findings from a program rule must be anchored (``path``) at a file
    of the program so suppressions and per-file filtering apply; rules
    with ``scope == "file"`` additionally promise every finding is fully
    determined by that file's import closure.
    """

    #: Unique id, e.g. ``"X101"``. Families: X1xx = determinism taint,
    #: X2xx = lock order, X3xx = shard purity.
    rule_id: str = ""
    #: One-line description, published as the rule's ``shortDescription``
    #: in the SARIF report's ``tool.driver.rules`` catalog.
    summary: str = ""
    #: ``"file"`` when findings are closure-local (merged into the
    #: anchor file's findings), ``"program"`` when they depend on the
    #: whole program.
    scope: str = "file"

    @abc.abstractmethod
    def check_program(self, ctx: ProgramContext) -> list[Finding]:
        """Findings for the whole program (empty when clean)."""


_RULES: dict[str, Rule] = {}
_PROGRAM_RULES: dict[str, ProgramRule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (by instance) to the registry."""
    rule = rule_cls()
    if not rule.rule_id:
        raise FillError(f"rule {rule_cls.__name__} has no rule_id")
    if rule.rule_id in _RULES or rule.rule_id in _PROGRAM_RULES:
        raise FillError(f"duplicate rule id {rule.rule_id!r}")
    _RULES[rule.rule_id] = rule
    return rule_cls


def register_program(rule_cls: type[ProgramRule]) -> type[ProgramRule]:
    """Class decorator adding a program rule to the registry."""
    rule = rule_cls()
    if not rule.rule_id:
        raise FillError(f"rule {rule_cls.__name__} has no rule_id")
    if rule.rule_id in _RULES or rule.rule_id in _PROGRAM_RULES:
        raise FillError(f"duplicate rule id {rule.rule_id!r}")
    if rule.scope not in ("file", "program"):
        raise FillError(f"rule {rule.rule_id} has invalid scope {rule.scope!r}")
    _PROGRAM_RULES[rule.rule_id] = rule
    return rule_cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered per-file rule, ordered by id (import side
    effects load the built-in rule modules)."""
    _load_builtin_rules()
    return tuple(_RULES[rule_id] for rule_id in sorted(_RULES))


def all_program_rules() -> tuple[ProgramRule, ...]:
    """Every registered interprocedural rule, ordered by id."""
    _load_builtin_rules()
    return tuple(_PROGRAM_RULES[rule_id] for rule_id in sorted(_PROGRAM_RULES))


def known_rule_ids() -> frozenset[str]:
    """The ids suppression comments may reference."""
    _load_builtin_rules()
    return frozenset(_RULES) | frozenset(_PROGRAM_RULES)


def _load_builtin_rules() -> None:
    # Imported lazily (not at module top) to avoid a registry/rules
    # import cycle; idempotent because registration is keyed by id.
    from repro.analysis import (  # noqa: F401
        rules_concurrency,
        rules_determinism,
        rules_lockorder,
        rules_purity,
        rules_taint,
    )
