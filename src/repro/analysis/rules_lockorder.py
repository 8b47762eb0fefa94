"""X2xx: interprocedural lock-order analysis.

The pool registry (:mod:`repro.pilfill.parallel`), the capacitance LUT
cache and the impact model's locate memo each guard their own state
with a private lock; none of them may *nest* in inconsistent order, and none
may be held while work is handed to a process pool (a worker result
callback that wants the same lock deadlocks the dispatcher; at minimum
the pool round-trip serializes under the lock).

* X201 (``scope="program"``) — lock acquisition ordering: an edge
  A → B is recorded when B is acquired (directly, or transitively
  through calls) while A is held. A cycle in the edge graph — including
  a non-reentrant self-cycle — is a potential deadlock.
* X202 (``scope="file"``) — a call made while holding any lock must not
  reach a pool dispatch boundary (a policy-listed dispatch function or a
  literal ``<pool>.submit(...)``).

Locks are identified statically: module-level ``NAME = threading.Lock()``
(→ ``module.NAME``) and ``self.attr = threading.Lock()`` in ``__init__``
(→ ``module.Class.attr``). Acquisition means a ``with`` statement on the
lock (the repo's only idiom); bare ``.acquire()`` calls are not tracked.
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

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})


@dataclass(frozen=True)
class LockDef:
    """One statically-identified lock object.

    ``lock_id`` is ``module.NAME`` or ``module.Class.attr``; ``reentrant``
    is True for ``RLock`` (self-nesting is then legal).
    """

    lock_id: str
    reentrant: bool


@dataclass(frozen=True)
class Acquisition:
    """One ``with <lock>:`` site."""

    lock_id: str
    qualname: str
    path: str
    line: int


def _is_lock_factory_call(node: ast.expr) -> str | None:
    """``"Lock"``/``"RLock"`` when ``node`` constructs one, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _LOCK_FACTORIES:
        return func.attr
    return None


def collect_locks(units: dict[str, ModuleUnit]) -> dict[str, LockDef]:
    """Every lock definition in the program, keyed by lock id."""
    out: dict[str, LockDef] = {}

    def record(lock_id: str, factory: str) -> None:
        out[lock_id] = LockDef(lock_id=lock_id, reentrant=factory == "RLock")

    for module in sorted(units):
        unit = units[module]
        for stmt in unit.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                factory = _is_lock_factory_call(stmt.value)
                if factory and isinstance(target, ast.Name):
                    record(f"{module}.{target.id}", factory)
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if not isinstance(item, ast.FunctionDef) or item.name != "__init__":
                        continue
                    for node in ast.walk(item):
                        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                            continue
                        target = node.targets[0]
                        factory = _is_lock_factory_call(node.value)
                        if (
                            factory
                            and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            record(f"{module}.{stmt.name}.{target.attr}", factory)
    return out


def _lock_id_of(
    expr: ast.expr, info: FunctionInfo, graph: CallGraph, locks: dict[str, LockDef]
) -> str | None:
    """Lock id a with-item expression refers to, or None."""
    if isinstance(expr, ast.Name):
        candidate = f"{info.module}.{expr.id}"
        return candidate if candidate in locks else None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id == "self" and info.class_name:
            candidate = f"{info.module}.{info.class_name}.{expr.attr}"
            return candidate if candidate in locks else None
        # ``mod.NAME`` through an import alias.
        dotted = graph.resolve_call(
            info.module, info.class_name, expr
        )  # reuses alias resolution; returns module.NAME for module attrs
        if dotted is not None and dotted in locks:
            return dotted
    return None


@dataclass(frozen=True)
class _HeldEvent:
    """Something observed while a lock is held in one function body."""

    kind: str  # "acquire" | "call" | "submit"
    payload: str  # inner lock id, resolved callee, or pool attr text
    line: int
    col: int


def _is_submit(node: ast.Call) -> bool:
    return isinstance(node.func, ast.Attribute) and node.func.attr == "submit"


def _scan_function(
    info: FunctionInfo, graph: CallGraph, locks: dict[str, LockDef]
) -> tuple[list[Acquisition], dict[str, list[_HeldEvent]], bool]:
    """Acquisitions, per-lock held-region events, and whether the
    function contains a direct ``.submit(...)`` call anywhere."""
    acquisitions: list[Acquisition] = []
    held_events: dict[str, list[_HeldEvent]] = {}

    def record_calls(roots: list[ast.AST], held: tuple[str, ...]) -> None:
        if not held:
            return
        for root in roots:
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                if _is_submit(node):
                    for lock_id in held:
                        held_events.setdefault(lock_id, []).append(
                            _HeldEvent(
                                kind="submit",
                                payload="submit",
                                line=node.lineno,
                                col=node.col_offset,
                            )
                        )
                    continue
                callee = graph.resolve_call(info.module, info.class_name, node.func)
                if callee is None:
                    continue
                for lock_id in held:
                    held_events.setdefault(lock_id, []).append(
                        _HeldEvent(
                            kind="call",
                            payload=callee,
                            line=node.lineno,
                            col=node.col_offset,
                        )
                    )

    def walk(stmts: list[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                record_calls([item.context_expr for item in stmt.items], held)
                inner = held
                for item in stmt.items:
                    lock_id = _lock_id_of(item.context_expr, info, graph, locks)
                    if lock_id is None:
                        continue
                    acquisitions.append(
                        Acquisition(
                            lock_id=lock_id,
                            qualname=info.qualname,
                            path=info.path,
                            line=stmt.lineno,
                        )
                    )
                    for outer in inner:
                        held_events.setdefault(outer, []).append(
                            _HeldEvent(
                                kind="acquire",
                                payload=lock_id,
                                line=stmt.lineno,
                                col=stmt.col_offset,
                            )
                        )
                    inner = inner + (lock_id,)
                walk(stmt.body, inner)
            elif isinstance(stmt, (ast.If, ast.While)):
                record_calls([stmt.test], held)
                walk(stmt.body, held)
                walk(stmt.orelse, held)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                record_calls([stmt.iter], held)
                walk(stmt.body, held)
                walk(stmt.orelse, held)
            elif isinstance(stmt, ast.Try):
                walk(stmt.body, held)
                for handler in stmt.handlers:
                    walk(handler.body, held)
                walk(stmt.orelse, held)
                walk(stmt.finalbody, held)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # A def under a lock does not *run* under the lock.
                continue
            else:
                record_calls([stmt], held)

    roots = owned_statements(info)
    for root in roots:
        if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walk(root.body, ())
        else:
            walk([root], ())
    has_submit = any(
        isinstance(node, ast.Call) and _is_submit(node)
        for root in roots
        for node in ast.walk(root)
    )
    return acquisitions, held_events, has_submit


@dataclass
class LockFacts:
    """Program-wide lock facts shared by X201 and X202."""

    locks: dict[str, LockDef]
    acquisitions: dict[str, list[Acquisition]]  # qualname -> sites
    held_events: dict[str, dict[str, list[_HeldEvent]]]  # qualname -> lock -> events
    direct_submit: frozenset[str]  # qualnames with a literal .submit(...)

    @staticmethod
    def build(ctx: ProgramContext) -> "LockFacts":
        graph = ctx.callgraph
        locks = collect_locks(ctx.units)
        acquisitions: dict[str, list[Acquisition]] = {}
        held_events: dict[str, dict[str, list[_HeldEvent]]] = {}
        direct_submit: set[str] = set()
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            acq, events, has_submit = _scan_function(info, graph, locks)
            if acq:
                acquisitions[qualname] = acq
            if events:
                held_events[qualname] = events
            if has_submit:
                direct_submit.add(qualname)
        return LockFacts(
            locks=locks,
            acquisitions=acquisitions,
            held_events=held_events,
            direct_submit=frozenset(direct_submit),
        )


def may_acquire(facts: LockFacts, graph: CallGraph) -> dict[str, frozenset[str]]:
    """Fixpoint: lock ids each function may acquire, transitively."""
    out: dict[str, set[str]] = {
        qual: {a.lock_id for a in acq} for qual, acq in facts.acquisitions.items()
    }
    changed = True
    while changed:
        changed = False
        for qualname in sorted(graph.functions):
            acc = out.setdefault(qualname, set())
            before = len(acc)
            for callee in graph.callees_of(qualname):
                acc |= out.get(callee, set())
            if len(acc) != before:
                changed = True
    return {qual: frozenset(ids) for qual, ids in out.items()}


class _OrderGraph:
    """Lock-ordering edges with witness acquisition sites."""

    def __init__(self) -> None:
        self.edges: dict[str, set[str]] = {}
        self.witness: dict[tuple[str, str], TraceStep] = {}

    def add(self, outer: str, inner: str, step: TraceStep) -> None:
        self.edges.setdefault(outer, set()).add(inner)
        self.witness.setdefault((outer, inner), step)

    def cycles(self) -> list[tuple[str, ...]]:
        """Elementary cycles, canonicalized (rotation-minimal), sorted."""
        found: set[tuple[str, ...]] = set()
        nodes = sorted(self.edges)

        def dfs(start: str, current: str, path: list[str]) -> None:
            for target in sorted(self.edges.get(current, set())):
                if target == start:
                    cycle = tuple(path)
                    pivot = cycle.index(min(cycle))
                    found.add(cycle[pivot:] + cycle[:pivot])
                elif target not in path and target > start:
                    # Only explore nodes >= start: each cycle is found
                    # exactly once, from its smallest node.
                    dfs(start, target, path + [target])

        for node in nodes:
            dfs(node, node, [node])
        return sorted(found)


@register_program
class LockOrderCycleRule(ProgramRule):
    """X201: lock acquisition order must be acyclic."""

    rule_id = "X201"
    summary = (
        "inconsistent lock acquisition order (A taken while holding B and "
        "B while holding A, directly or through calls) — potential deadlock"
    )
    scope = "program"

    def check_program(self, ctx: ProgramContext) -> list[Finding]:
        graph = ctx.callgraph
        facts = LockFacts.build(ctx)
        if not facts.locks:
            return []
        acquires = may_acquire(facts, graph)
        order = _OrderGraph()
        for qualname in sorted(facts.held_events):
            info = graph.functions[qualname]
            for outer in sorted(facts.held_events[qualname]):
                for event in facts.held_events[qualname][outer]:
                    if event.kind == "acquire":
                        order.add(
                            outer,
                            event.payload,
                            TraceStep(
                                path=info.path,
                                line=event.line,
                                note=(
                                    f"{event.payload} acquired while holding "
                                    f"{outer} (in {qualname})"
                                ),
                            ),
                        )
                    elif event.kind == "call":
                        callee = event.payload
                        target = graph.as_function(callee)
                        if target is None:
                            continue
                        for inner in sorted(acquires.get(target, frozenset())):
                            order.add(
                                outer,
                                inner,
                                TraceStep(
                                    path=info.path,
                                    line=event.line,
                                    note=(
                                        f"call {qualname} -> {callee} may acquire "
                                        f"{inner} while holding {outer}"
                                    ),
                                ),
                            )
        findings: list[Finding] = []
        for cycle in order.cycles():
            if len(cycle) == 1:
                lock = facts.locks.get(cycle[0])
                if lock is not None and lock.reentrant:
                    continue  # RLock self-nesting is legal
            steps = []
            for index, outer in enumerate(cycle):
                inner = cycle[(index + 1) % len(cycle)]
                steps.append(order.witness[(outer, inner)])
            anchor = steps[0]
            findings.append(
                Finding(
                    path=anchor.path,
                    line=anchor.line,
                    col=0,
                    rule_id=self.rule_id,
                    message=(
                        "lock-order cycle: " + " -> ".join(cycle + (cycle[0],))
                    ),
                    trace=tuple(steps),
                )
            )
        return sorted(findings)


@register_program
class LockAcrossDispatchRule(ProgramRule):
    """X202: no lock may be held across a pool dispatch boundary."""

    rule_id = "X202"
    summary = (
        "lock held across a pool dispatch (<pool>.submit or a policy "
        "dispatch function, directly or through calls) — deadlock-prone "
        "and serializes the pool round-trip"
    )
    scope = "file"

    def check_program(self, ctx: ProgramContext) -> list[Finding]:
        graph = ctx.callgraph
        facts = LockFacts.build(ctx)
        dispatch_roots = frozenset(ctx.policy.pool_dispatch_functions)
        # Fixpoint: functions that transitively reach a dispatch.
        dispatches: set[str] = set(facts.direct_submit)
        for dotted in dispatch_roots:
            if dotted in graph.functions:
                dispatches.add(dotted)
        changed = True
        while changed:
            changed = False
            for qualname in sorted(graph.functions):
                if qualname in dispatches:
                    continue
                for callee in graph.callees_of(qualname):
                    if callee in dispatches:
                        dispatches.add(qualname)
                        changed = True
                        break
        findings: list[Finding] = []
        for qualname in sorted(facts.held_events):
            info = graph.functions[qualname]
            for lock_id in sorted(facts.held_events[qualname]):
                acq_line = min(
                    (
                        a.line
                        for a in facts.acquisitions.get(qualname, [])
                        if a.lock_id == lock_id
                    ),
                    default=info.lineno,
                )
                for event in facts.held_events[qualname][lock_id]:
                    reason: str | None = None
                    if event.kind == "submit":
                        reason = "pool submit"
                    elif event.kind == "call":
                        target = graph.as_function(event.payload)
                        if event.payload in dispatch_roots or (
                            target is not None and target in dispatches
                        ):
                            reason = f"call of dispatching {event.payload}"
                    if reason is None:
                        continue
                    findings.append(
                        Finding(
                            path=info.path,
                            line=event.line,
                            col=event.col,
                            rule_id=self.rule_id,
                            message=(
                                f"{lock_id} held across pool dispatch ({reason})"
                            ),
                            trace=(
                                TraceStep(
                                    path=info.path,
                                    line=acq_line,
                                    note=f"lock acquired: {lock_id} (in {qualname})",
                                ),
                                TraceStep(
                                    path=info.path,
                                    line=event.line,
                                    note=f"dispatch while held: {reason}",
                                ),
                            ),
                        )
                    )
        return sorted(findings)
