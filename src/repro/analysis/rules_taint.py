"""X1xx: interprocedural determinism taint.

The D-family rules catch a nondeterminism source where it is *used*; the
taint pass catches one where it *matters* — an ``os.environ`` lookup
three calls away from a sha256 digest helper poisons a cache key just as
surely as one inline. X101 walks the call graph: for every call site
whose callee is a policy-listed digest sink (or a C202 payload-registry
constructor), any nondeterminism source in the calling function or its
transitive callees is reported with the full source → call chain → sink
trace.

Sources are only those no per-file rule flags: environment reads
(``os.environ`` / ``os.getenv``) and the process-dependent builtins
``id()`` / ``hash()`` (outside ``__hash__``). Wall-clock reads, global
RNG calls and set-order iteration are reported once, at the source, by
D102, D101 and D103.

Approximation: value-flow is not tracked — a source anywhere in the
sink-caller's forward call cone is assumed to be able to reach the sink
arguments. That over-approximates, but the sources are things
deterministic code has no business touching near a digest anyway.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleUnit,
    ProgramContext,
    owned_statements,
)
from repro.analysis.findings import Finding, TraceStep
from repro.analysis.registry import ProgramRule, register_program


@dataclass(frozen=True)
class TaintSource:
    """One nondeterminism source occurrence inside a function."""

    qualname: str
    path: str
    line: int
    desc: str


def function_sources(info: FunctionInfo, unit: ModuleUnit) -> list[TaintSource]:
    """Nondeterminism sources inside one function's owned statements
    (``unit`` is the function's module record, which resolves ``os``
    names through its imports)."""
    out: list[TaintSource] = []

    def add(node: ast.AST, desc: str) -> None:
        out.append(
            TaintSource(
                qualname=info.qualname,
                path=info.path,
                line=getattr(node, "lineno", info.lineno),
                desc=desc,
            )
        )

    # ``id()``/``hash()`` inside __hash__ are the identity hash itself —
    # flagging them there flags the language, not the program.
    in_hash_dunder = info.name == "__hash__"
    for root in owned_statements(info):
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in ("id", "hash"):
                    if not in_hash_dunder:
                        add(node, f"process-dependent builtin {func.id}()")
                elif unit.imported_name(func) == "os.getenv":
                    add(node, "environment read os.getenv(...)")
            elif isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            ):
                if unit.imported_name(node) == "os.environ":
                    add(node, "environment read os.environ")
    return sorted(out, key=lambda s: (s.line, s.desc))


def _chain_trace(
    graph: CallGraph, source: TaintSource, sink_caller: str
) -> list[TraceStep]:
    """Trace ordered source → intermediate call sites → (sink appended
    by the caller). The chain runs from the sink-calling function down
    to the source function, reversed so the taint's journey reads
    source-first."""
    steps = [
        TraceStep(path=source.path, line=source.line, note=f"source: {source.desc}")
    ]
    path = graph.call_path(sink_caller, source.qualname)
    if path:
        for site in reversed(path):
            caller_info = graph.functions[site.caller]
            steps.append(
                TraceStep(
                    path=caller_info.path,
                    line=site.line,
                    note=f"call: {site.caller} -> {site.callee}",
                )
            )
    return steps


@register_program
class DeterminismTaintRule(ProgramRule):
    """X101: no nondeterminism source may reach a digest/payload sink."""

    rule_id = "X101"
    summary = (
        "environment read or id()/hash() reaches a digest or payload sink "
        "through the call graph — the full source→sink chain is attached"
    )

    def check_program(self, ctx: ProgramContext) -> list[Finding]:
        graph = ctx.callgraph
        sinks = frozenset(ctx.policy.taint_sink_functions) | frozenset(
            ctx.policy.payload_registry
        )
        sources: dict[str, list[TaintSource]] = {}
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            found = function_sources(info, ctx.units[info.module])
            if found:
                sources[qualname] = found
        if not sources:
            return []
        findings: list[Finding] = []
        seen: set[tuple[str, int, str, str]] = set()
        for qualname in sorted(graph.functions):
            sink_sites = [
                site for site in graph.sites_of(qualname) if site.callee in sinks
            ]
            if not sink_sites:
                continue
            cone = graph.reachable_from((qualname,))
            tainted = sorted(fn for fn in cone if fn in sources)
            if not tainted:
                continue
            info = graph.functions[qualname]
            for site in sink_sites:
                for fn in tainted:
                    source = sources[fn][0]
                    key = (info.path, site.line, site.callee, fn)
                    if key in seen:
                        continue
                    seen.add(key)
                    trace = _chain_trace(graph, source, qualname)
                    trace.append(
                        TraceStep(
                            path=info.path,
                            line=site.line,
                            note=f"sink: call of {site.callee}",
                        )
                    )
                    findings.append(
                        Finding(
                            path=info.path,
                            line=site.line,
                            col=site.col,
                            rule_id=self.rule_id,
                            message=(
                                f"nondeterminism source in {fn} "
                                f"({source.desc}) reaches digest sink "
                                f"{site.callee}"
                            ),
                            trace=tuple(trace),
                        )
                    )
        return sorted(findings)
