"""C-family rules: the parallel-solve contract, checked statically.

These protect the PR-2/3 pool contracts — compact picklable payloads and
lock-guarded shared caches (worker purity is X301's, over the call
graph):

* C202 — classes in the pool-payload registry must be dataclasses whose
  fields are picklable by construction.
* C203 — a class that owns a lock must mutate its private dict/set
  stores only under ``with self._lock``.
* C204 — a ``*cache*``-named store on a class with no lock at all.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.registry import FileContext, Rule, register

#: Calls whose results are mutable containers.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)

#: Method calls that mutate a dict/set/list store in place (C203/C204
#: here, X301 for module-level state).
MUTATOR_METHODS = frozenset(
    {
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "remove",
        "append",
        "extend",
        "insert",
    }
)


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_FACTORIES
    return False


def _annotation_names(node: ast.expr) -> list[tuple[ast.expr, str]]:
    """(node, name) for every type name referenced by an annotation.

    String annotations (forward references) are parsed recursively;
    subscripts, unions, and tuples are walked structurally.
    """
    out: list[tuple[ast.expr, str]] = []
    if isinstance(node, ast.Constant):
        if node.value is None or node.value is Ellipsis:
            return out
        if isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return [(node, node.value)]
            return _annotation_names(inner)
        return out
    if isinstance(node, ast.Name):
        return [(node, node.id)]
    if isinstance(node, ast.Attribute):
        return [(node, node.attr)]
    if isinstance(node, ast.Subscript):
        out.extend(_annotation_names(node.value))
        out.extend(_annotation_names(node.slice))
        return out
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        out.extend(_annotation_names(node.left))
        out.extend(_annotation_names(node.right))
        return out
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            out.extend(_annotation_names(elt))
        return out
    return out


def _is_dataclass_decorated(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


@register
class PayloadRegistryRule(Rule):
    """C202: pool-payload classes are dataclasses with picklable fields."""

    rule_id = "C202"
    summary = (
        "pool-payload registry class is not a dataclass, or declares a "
        "field type that is not picklable by construction"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        wanted = set(ctx.policy.payload_classes_in(ctx.module))
        if not wanted:
            return []
        allowed = set(ctx.policy.picklable_type_names) | set(
            ctx.policy.payload_base_names()
        )
        findings: list[Finding] = []
        seen: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in wanted:
                continue
            seen.add(node.name)
            if not _is_dataclass_decorated(node):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"payload class {node.name} must be a @dataclass "
                        "(pool workers rebuild it from pickled fields)",
                    )
                )
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                if stmt.target.id.startswith("_"):
                    continue
                bad = sorted(
                    {
                        name
                        for _, name in _annotation_names(stmt.annotation)
                        if name not in allowed
                    }
                )
                if bad:
                    findings.append(
                        self.finding(
                            ctx,
                            stmt,
                            f"payload field {node.name}.{stmt.target.id} uses "
                            f"non-registered type(s) {', '.join(bad)}; register the "
                            "type or narrow the annotation",
                        )
                    )
        for missing in sorted(wanted - seen):
            findings.append(
                Finding(
                    path=ctx.path,
                    line=1,
                    col=0,
                    rule_id=self.rule_id,
                    message=(
                        f"registered payload class {missing} not found in "
                        f"{ctx.module or ctx.path}"
                    ),
                )
            )
        return findings


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


@dataclass
class _ClassStores:
    """Lock attrs and private container stores found in ``__init__``."""

    locks: set[str]
    stores: set[str]


def _scan_init(cls: ast.ClassDef) -> _ClassStores:
    locks: set[str] = set()
    stores: set[str] = set()
    for item in cls.body:
        if not (isinstance(item, ast.FunctionDef) and item.name == "__init__"):
            continue
        for node in ast.walk(item):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr in ("Lock", "RLock")
                ):
                    locks.add(attr)
                elif attr.startswith("_") and _is_mutable_value(value):
                    stores.add(attr)
    return _ClassStores(locks=locks, stores=stores)


def _store_mutations(
    body: list[ast.stmt], stores: set[str], locks: set[str], under_lock: bool
) -> list[tuple[ast.stmt, str]]:
    """(statement, store attr) for every store mutation outside a lock."""
    out: list[tuple[ast.stmt, str]] = []
    for stmt in body:
        if isinstance(stmt, ast.With):
            holds = any(
                _self_attr(item.context_expr) in locks for item in stmt.items
            )
            out.extend(
                _store_mutations(stmt.body, stores, locks, under_lock or holds)
            )
            continue
        for child_body in _sub_bodies(stmt):
            out.extend(_store_mutations(child_body, stores, locks, under_lock))
        if under_lock:
            continue
        attr = _mutated_store(stmt, stores)
        if attr is not None:
            out.append((stmt, attr))
    return out


def _sub_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies: list[list[ast.stmt]] = []
    for fieldname in ("body", "orelse", "finalbody"):
        value = getattr(stmt, fieldname, None)
        if isinstance(value, list) and not isinstance(stmt, ast.With):
            bodies.append(value)
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    return bodies


def _mutated_store(stmt: ast.stmt, stores: set[str]) -> str | None:
    """The store attr this single statement mutates, if any."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr in stores:
                return attr
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            attr = _self_attr(func.value)
            if attr in stores:
                return attr
    return None


@register
class UnlockedStoreRule(Rule):
    """C203: lock-owning classes mutate their stores under the lock."""

    rule_id = "C203"
    summary = (
        "class owns a lock but mutates a private dict/set store outside "
        "`with self._lock:` — racing workers can corrupt the store"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            info = _scan_init(cls)
            if not info.locks or not info.stores:
                continue
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    continue  # construction happens-before sharing
                for stmt, attr in _store_mutations(
                    item.body, info.stores, info.locks, under_lock=False
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            stmt,
                            f"{cls.name}.{item.name} mutates self.{attr} outside "
                            f"`with self.{sorted(info.locks)[0]}:`",
                        )
                    )
        return findings


@register
class LockFreeCacheRule(Rule):
    """C204: a cache store on a class that has no lock at all."""

    rule_id = "C204"
    summary = (
        "class mutates a *cache*-named store but owns no lock — shared "
        "caches need a lock (or a justification that they are never shared)"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            info = _scan_init(cls)
            cache_stores = {attr for attr in info.stores if "cache" in attr.lower()}
            if info.locks or not cache_stores:
                continue
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    continue
                for stmt, attr in _store_mutations(
                    item.body, cache_stores, set(), under_lock=False
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            stmt,
                            f"{cls.name}.{item.name} mutates cache self.{attr} but "
                            f"{cls.name} owns no lock",
                        )
                    )
        return findings
