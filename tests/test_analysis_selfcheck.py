"""The lint gate: the shipped source tree must be finding-free.

This is the enforcement point of the determinism/concurrency/typing
contracts — any rule violation (or blanket/unknown suppression, which
the suppression layer itself reports as A001/A002) fails the suite with
the same ``path:line:col: RULE message`` lines the CLI prints.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis import lint_paths, render_text

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_source_tree_is_lint_clean() -> None:
    report = lint_paths([str(SRC)])
    assert report.files_checked > 0, f"no files found under {SRC}"
    assert report.clean, "\n" + render_text(report.findings, report.files_checked)


def test_analysis_package_checks_itself() -> None:
    # The linter is part of the lint scope: its own modules obey the
    # rules they enforce (including T301 strict typing).
    report = lint_paths([str(SRC / "analysis")])
    assert report.files_checked >= 10
    assert report.clean, "\n" + render_text(report.findings, report.files_checked)


def test_interprocedural_rules_are_live_over_the_tree() -> None:
    # A clean tree must be clean because the X passes *ran and found
    # nothing*, not because they were skipped: the default policy's
    # sinks, dispatch functions, and worker entries must all resolve in
    # the real call graph.
    from repro.analysis import DEFAULT_POLICY, all_program_rules
    from repro.analysis.modgraph import ModuleGraph
    from repro.analysis.rules_purity import module_level_names
    from repro.analysis.runner import _build_whole_program

    assert {r.rule_id for r in all_program_rules()} == {"X101", "X201", "X202", "X301"}
    graph = ModuleGraph(SRC.parent)
    program = _build_whole_program(graph, DEFAULT_POLICY, {})
    functions = program.callgraph.functions
    for entry in DEFAULT_POLICY.worker_entry_functions:
        assert entry in functions, f"worker entry {entry} not in call graph"
    for fn in DEFAULT_POLICY.pool_dispatch_functions:
        assert fn in functions, f"dispatch function {fn} not in call graph"
    for sink in DEFAULT_POLICY.taint_sink_functions:
        assert sink in functions, f"taint sink {sink} not in call graph"
    # The digest sinks are actually *called* somewhere — the taint pass
    # has real edges to examine.
    sink_calls = {
        site.callee
        for qual in functions
        for site in program.callgraph.sites_of(qual)
        if site.callee in set(DEFAULT_POLICY.taint_sink_functions)
    }
    assert sink_calls, "no call sites of any taint sink resolved"
    # Every payload-registry and worker-state entry names a top-level
    # definition in the tree: a stale entry for deleted code would
    # otherwise pass silently.
    defined = {
        module: module_level_names(unit)
        | {
            stmt.name
            for stmt in unit.tree.body
            if isinstance(stmt, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for module, unit in program.units.items()
    }
    for dotted in DEFAULT_POLICY.payload_registry + DEFAULT_POLICY.worker_state_allowlist:
        module, _, name = dotted.rpartition(".")
        if module:
            assert name in defined.get(module, ()), f"policy entry {dotted} not defined"
        else:
            assert any(name in names for names in defined.values()), (
                f"policy entry {dotted} not defined in any module"
            )
    # Module-scoped entries name modules in the tree: a stale entry for a
    # deleted module would otherwise narrow nothing and pass silently.
    for module in DEFAULT_POLICY.worker_entry_modules + DEFAULT_POLICY.wall_clock_allowlist:
        assert module in program.units, f"policy module {module} not in the tree"

