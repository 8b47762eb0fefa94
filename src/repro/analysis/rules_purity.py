"""X3xx: shard purity for pool-worker code.

Sharding the fill run (ROADMAP) only works if worker-side code is a pure
function of its payload: any module-level
state a worker mutates is invisible to the other shards and to the
serial baseline, breaking the bit-identity contract in ways no per-file
rule can see (the write usually sits in a helper far from the worker
entry point).

X301 walks the call graph from the policy-listed worker entry functions
and reports, for every reachable function, writes to module-level names:
``global NAME`` rebinding, ``NAME[...] = ...`` / ``NAME[...] += ...``
subscript stores, in-place mutator calls (``NAME.append`` etc.), and
attribute stores on imported modules. Workers are pure functions of
their payload, so ``worker_state_allowlist`` is empty by default; a
policy may name module-level state it sanctions there.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    ModuleUnit,
    ProgramContext,
    owned_statements,
)
from repro.analysis.findings import Finding, TraceStep
from repro.analysis.registry import ProgramRule, register_program
from repro.analysis.rules_concurrency import MUTATOR_METHODS

def module_level_names(unit: ModuleUnit) -> frozenset[str]:
    """Names bound at module top level (assignment targets)."""
    out: set[str] = set()
    for stmt in unit.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                out.add(stmt.target.id)
    return frozenset(out)


def _locally_bound(node: ast.AST) -> frozenset[str]:
    """Names definitely rebound locally inside a function (params plus
    bare-name assignment/loop/with targets), minus ``global`` names."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return frozenset()
    bound: set[str] = set()
    args = node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(arg.arg)
    globals_declared: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            globals_declared.update(sub.names)
        elif isinstance(sub, ast.Assign):
            for target in sub.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
        elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(sub.target, ast.Name):
                bound.add(sub.target.id)
        elif isinstance(sub, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(sub.target):
                if isinstance(name_node, ast.Name):
                    bound.add(name_node.id)
        elif isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                if item.optional_vars is not None:
                    for name_node in ast.walk(item.optional_vars):
                        if isinstance(name_node, ast.Name):
                            bound.add(name_node.id)
    return frozenset(bound - globals_declared)


def _module_state_writes(
    info: FunctionInfo, unit: ModuleUnit, module_names: frozenset[str]
) -> list[tuple[ast.AST, str, str]]:
    """(node, dotted state name, description) for each module-state
    write inside ``info``."""
    writes: list[tuple[ast.AST, str, str]] = []
    local = _locally_bound(info.node)

    def is_module_name(name: str) -> bool:
        return name in module_names and name not in local

    for root in owned_statements(info):
        globals_declared: set[str] = set()
        for node in ast.walk(root):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        for node in ast.walk(root):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in globals_declared
                    ):
                        writes.append(
                            (
                                node,
                                f"{info.module}.{target.id}",
                                f"rebinds module global {target.id!r}",
                            )
                        )
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        if is_module_name(target.value.id):
                            writes.append(
                                (
                                    node,
                                    f"{info.module}.{target.value.id}",
                                    f"stores into module-level {target.value.id!r}",
                                )
                            )
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Name) and target.id in globals_declared:
                    writes.append(
                        (
                            node,
                            f"{info.module}.{target.id}",
                            f"rebinds module global {target.id!r}",
                        )
                    )
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    if is_module_name(target.value.id):
                        writes.append(
                            (
                                node,
                                f"{info.module}.{target.value.id}",
                                f"stores into module-level {target.value.id!r}",
                            )
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                base = node.func.value
                if (
                    isinstance(base, ast.Name)
                    and node.func.attr in MUTATOR_METHODS
                    and is_module_name(base.id)
                ):
                    writes.append(
                        (
                            node,
                            f"{info.module}.{base.id}",
                            f"mutates module-level {base.id!r} "
                            f"via .{node.func.attr}(...)",
                        )
                    )
    return writes


@register_program
class ShardPurityRule(ProgramRule):
    """X301: worker-reachable code must not write unshipped module state."""

    rule_id = "X301"
    summary = (
        "function reachable from a pool-worker entry point writes module "
        "state not shipped in its payload — invisible to other shards and "
        "to the serial baseline"
    )
    scope = "program"

    def check_program(self, ctx: ProgramContext) -> list[Finding]:
        graph = ctx.callgraph
        entries = tuple(
            entry
            for entry in ctx.policy.worker_entry_functions
            if entry in graph.functions
        )
        if not entries:
            return []
        reachable = graph.reachable_from(entries)
        allowlist = frozenset(ctx.policy.worker_state_allowlist)
        module_names = {
            module: module_level_names(unit)
            for module, unit in sorted(ctx.units.items())
        }
        findings: list[Finding] = []
        for qualname in sorted(reachable):
            info = graph.functions[qualname]
            unit = ctx.units.get(info.module)
            if unit is None:
                continue
            for node, state_name, desc in _module_state_writes(
                info, unit, module_names[info.module]
            ):
                if state_name in allowlist:
                    continue
                entry, chain = self._witness(graph, entries, qualname)
                trace = [
                    TraceStep(
                        path=graph.functions[entry].path,
                        line=graph.functions[entry].lineno,
                        note=f"worker entry: {entry}",
                    )
                ]
                for site in chain:
                    caller_info = graph.functions[site.caller]
                    trace.append(
                        TraceStep(
                            path=caller_info.path,
                            line=site.line,
                            note=f"call: {site.caller} -> {site.callee}",
                        )
                    )
                trace.append(
                    TraceStep(
                        path=info.path,
                        line=getattr(node, "lineno", info.lineno),
                        note=f"write: {desc} (in {qualname})",
                    )
                )
                findings.append(
                    Finding(
                        path=info.path,
                        line=getattr(node, "lineno", info.lineno),
                        col=getattr(node, "col_offset", 0),
                        rule_id=self.rule_id,
                        message=(
                            f"worker-reachable {qualname} {desc}; ship state "
                            "in the payload instead"
                        ),
                        trace=tuple(trace),
                    )
                )
        return sorted(findings)

    @staticmethod
    def _witness(
        graph: CallGraph, entries: tuple[str, ...], target: str
    ) -> tuple[str, list[CallSite]]:
        """Shortest (entry, call chain) witness that reaches ``target``."""
        best: tuple[str, list[CallSite]] | None = None
        for entry in entries:
            chain = graph.call_path(entry, target)
            if chain is None:
                continue
            if best is None or len(chain) < len(best[1]):
                best = (entry, list(chain))
        assert best is not None  # target came from reachable_from(entries)
        return best
