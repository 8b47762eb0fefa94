"""Static analysis for the repo's determinism & concurrency contracts.

PRs 1-3 established load-bearing invariants — bit-identical results
across the serial/thread/process backends, per-tile seeded RNGs,
picklable pool payloads, lock-guarded shared caches — that dynamic tests
only catch when a test happens to exercise the violating path. This
package checks them *statically*, with one rule per contract:

* :mod:`repro.analysis.rules_determinism` — D101 (global RNG), D102
  (wall clock), D103 (set-order iteration), D104 (float equality);
* :mod:`repro.analysis.rules_concurrency` — C202 (payload registry
  picklability), C203/C204 (lock-guarded caches);
* interprocedural families over the function-level call graph
  (:mod:`repro.analysis.callgraph`): :mod:`repro.analysis.rules_taint`
  — X101 (an environment read or ``id()``/``hash()`` reaching a
  digest/payload sink, with the full source→sink chain; clock, RNG and
  set-order sources are the D-rules' alone);
  :mod:`repro.analysis.rules_lockorder` — X201 (lock-order cycles),
  X202 (lock held across pool dispatch);
  :mod:`repro.analysis.rules_purity` — X301 (worker-reachable writes to
  unshipped module state);
* suppressions: ``# pilfill: allow[rule-id] -- justification`` (the
  justification is mandatory — A001 flags blanket allows).

Strict typing is mypy's gate (``[[tool.mypy.overrides]]`` in
``pyproject.toml``), not a lint rule.

Entry points: the ``pilfill lint`` CLI subcommand and
``tests/test_analysis_selfcheck.py``, which fails the suite on any
finding over ``src/repro``.
"""

from __future__ import annotations

from repro.analysis.callgraph import CallGraph, ModuleUnit, ProgramContext
from repro.analysis.findings import Finding, TraceStep
from repro.analysis.policy import DEFAULT_POLICY, LintPolicy
from repro.analysis.registry import (
    FileContext,
    ProgramRule,
    Rule,
    all_program_rules,
    all_rules,
    known_rule_ids,
)
from repro.analysis.report import findings_from_json, render_json, render_text
from repro.analysis.runner import (
    LintReport,
    collect_files,
    lint_modules,
    lint_paths,
    lint_source,
)
from repro.analysis.sarif import render_sarif

__all__ = [
    "CallGraph",
    "DEFAULT_POLICY",
    "FileContext",
    "Finding",
    "LintPolicy",
    "LintReport",
    "ModuleUnit",
    "ProgramContext",
    "ProgramRule",
    "Rule",
    "TraceStep",
    "all_program_rules",
    "all_rules",
    "collect_files",
    "findings_from_json",
    "known_rule_ids",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_sarif",
    "render_text",
]
