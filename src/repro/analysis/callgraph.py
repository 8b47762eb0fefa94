"""Function-level call graph over a set of parsed modules.

The interprocedural rule families (X1xx taint, X2xx lock order, X3xx
shard purity) need to follow facts *across* function and module
boundaries — a wall-clock read three calls away from a digest helper, a
lock acquired inside a callee while another is held. This module builds
the program-wide structure they share:

* :class:`ModuleUnit` — the one record of a module: path, name, source,
  AST, and (computed once, on first use) its suppression comments and
  import bindings. Every rule resolves imported names through it.
* :class:`CallGraph` — every function/method in the program, each call
  site resolved (best effort, statically) to a dotted callee name, plus
  forward/transitive reachability and shortest call paths for chain
  reporting.
* :class:`ProgramContext` — the bundle handed to
  :class:`~repro.analysis.registry.ProgramRule` instances: the units,
  the active policy, and the lazily-built call graph.

Resolution is deliberately conservative: a call is an edge only when the
target is nameable from the AST alone (local function, ``self.method``
within the class, ``from mod import fn``, ``mod.fn`` through an import
alias, or a class constructor). Unresolvable calls (first-class
functions, duck-typed attributes) produce no edges — the passes
over-report nothing they cannot see a path for.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis.policy import LintPolicy
from repro.analysis.suppress import Suppression, parse_suppressions

#: Qualname suffix used for a module's top-level statements (module body
#: code runs on import — inside pool workers too, so it is a graph node).
MODULE_BODY = "<module>"


@dataclass(frozen=True)
class ModuleUnit:
    """One module of the program under analysis.

    The runner builds one record per module and hands the same object to
    the per-file rules (as a
    :class:`~repro.analysis.registry.FileContext`) and to the program
    rules, so the suppressions and import bindings below are computed
    once per module.
    """

    path: str
    module: str
    source: str
    tree: ast.Module

    @cached_property
    def suppressions(self) -> list[Suppression]:
        """The module's ``# pilfill: allow[...]`` comments."""
        return parse_suppressions(self.source)

    @cached_property
    def _bindings(self) -> tuple[dict[str, str], dict[str, str]]:
        aliases: dict[str, str] = {}
        from_bindings: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head = alias.name.split(".")[0]
                    aliases[alias.asname or head] = alias.name if alias.asname else head
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    from_bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return aliases, from_bindings

    @property
    def module_aliases(self) -> dict[str, str]:
        """Local alias -> imported module (``import numpy as np``;
        ``import a.b`` binds ``a``)."""
        return self._bindings[0]

    @property
    def from_bindings(self) -> dict[str, str]:
        """Local alias -> imported symbol (``from m import f as g``;
        relative imports bind nothing)."""
        return self._bindings[1]

    def imported_name(self, node: ast.expr) -> str | None:
        """Dotted name a ``Name``/``Attribute`` chain refers to through
        the module's imports (``np.random.rand`` -> ``numpy.random.rand``
        under ``import numpy as np``); None when its head is not bound
        by an import."""
        parts = _dotted_parts(node)
        if parts is None:
            return None
        base = self.from_bindings.get(parts[0]) or self.module_aliases.get(parts[0])
        if base is None:
            return None
        return ".".join([base, *parts[1:]])


@dataclass(frozen=True)
class CallSite:
    """One resolved call expression inside a function body.

    ``callee`` is a dotted name — a function/method in the program
    (``pkg.mod.fn``, ``pkg.mod.Cls.meth``), a class (constructor call),
    or a function in a module outside the program (still useful: policy
    sink lists name functions by dotted path, wherever they live).
    """

    caller: str
    callee: str
    line: int
    col: int


@dataclass(frozen=True, eq=False)
class FunctionInfo:
    """One function, method, or module body in the program."""

    qualname: str
    module: str
    path: str
    name: str
    lineno: int
    node: ast.AST
    class_name: str = ""

    def body_nodes(self) -> list[ast.stmt]:
        """The statements this function's scan covers (its whole body —
        nested defs are attributed to the enclosing function)."""
        body = getattr(self.node, "body", [])
        return list(body) if isinstance(body, list) else []


def owned_statements(info: FunctionInfo) -> list[ast.stmt]:
    """The statements attributed to ``info`` and nobody else.

    For a module-body node that means top-level statements minus
    def/class bodies (those belong to their own graph nodes); for a
    function it is the def itself — nested defs ride along with their
    enclosing function.
    """
    if info.name == MODULE_BODY:
        return [
            stmt
            for stmt in info.node.body  # type: ignore[attr-defined]
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
    return [info.node]  # type: ignore[list-item]


@dataclass
class _ModuleSymbols:
    """The module's own top-level names (imports live on the unit)."""

    #: top-level def/class local names (resolve to ``module.<name>``).
    local_names: set[str] = field(default_factory=set)
    #: class local name -> method names defined on it.
    class_methods: dict[str, set[str]] = field(default_factory=dict)


def _collect_symbols(tree: ast.Module) -> _ModuleSymbols:
    syms = _ModuleSymbols()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            syms.local_names.add(stmt.name)
        elif isinstance(stmt, ast.ClassDef):
            syms.local_names.add(stmt.name)
            syms.class_methods[stmt.name] = {
                item.name
                for item in stmt.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    return syms


def _dotted_parts(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None when the base is dynamic."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class CallGraph:
    """Functions and resolved call sites of one program."""

    def __init__(self, units: dict[str, ModuleUnit]):
        self.functions: dict[str, FunctionInfo] = {}
        self.calls: dict[str, tuple[CallSite, ...]] = {}
        self._units = units
        self._symbols: dict[str, _ModuleSymbols] = {}
        self._classes: dict[str, str] = {}  # dotted class name -> module
        for module in sorted(units):
            self._add_module(module, units[module])
        for module in sorted(units):
            self._resolve_module(module, units[module])

    # -- construction -------------------------------------------------

    def _add_module(self, module: str, unit: ModuleUnit) -> None:
        self._symbols[module] = _collect_symbols(unit.tree)
        self.functions[module] = FunctionInfo(
            qualname=module,
            module=module,
            path=unit.path,
            name=MODULE_BODY,
            lineno=1,
            node=unit.tree,
        )
        for stmt in unit.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module}.{stmt.name}"
                self.functions[qual] = FunctionInfo(
                    qualname=qual,
                    module=module,
                    path=unit.path,
                    name=stmt.name,
                    lineno=stmt.lineno,
                    node=stmt,
                )
            elif isinstance(stmt, ast.ClassDef):
                self._classes[f"{module}.{stmt.name}"] = module
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{module}.{stmt.name}.{item.name}"
                        self.functions[qual] = FunctionInfo(
                            qualname=qual,
                            module=module,
                            path=unit.path,
                            name=item.name,
                            lineno=item.lineno,
                            node=item,
                            class_name=stmt.name,
                        )

    def _resolve_module(self, module: str, unit: ModuleUnit) -> None:
        syms = self._symbols[module]
        module_fn = self.functions[module]
        owned: list[tuple[FunctionInfo, list[ast.stmt]]] = []
        owned.append((module_fn, owned_statements(module_fn)))
        for stmt in unit.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owned.append((self.functions[f"{module}.{stmt.name}"], [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{module}.{stmt.name}.{item.name}"
                        owned.append((self.functions[qual], [item]))
        for info, roots in owned:
            sites: list[CallSite] = []
            for root in roots:
                for node in ast.walk(root):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = self.resolve_call(module, info.class_name, node.func)
                    if callee is not None:
                        sites.append(
                            CallSite(
                                caller=info.qualname,
                                callee=callee,
                                line=node.lineno,
                                col=node.col_offset,
                            )
                        )
            self.calls[info.qualname] = tuple(sites)

    def resolve_call(
        self, module: str, class_name: str, func: ast.expr
    ) -> str | None:
        """Dotted callee name for a call expression, or None."""
        parts = _dotted_parts(func)
        if parts is None:
            return None
        syms = self._symbols[module]
        unit = self._units[module]
        head, rest = parts[0], parts[1:]
        if head == "self" and class_name and len(rest) == 1:
            if rest[0] in syms.class_methods.get(class_name, set()):
                return f"{module}.{class_name}.{rest[0]}"
            return None
        if head in unit.from_bindings:
            return unit.imported_name(func)
        if head in unit.module_aliases:
            # Calling a module object is not a thing.
            return unit.imported_name(func) if rest else None
        if head in syms.local_names:
            return ".".join([module, *parts])
        return None

    # -- queries ------------------------------------------------------

    def sites_of(self, qualname: str) -> tuple[CallSite, ...]:
        """Every resolved call site inside ``qualname``."""
        return self.calls.get(qualname, ())

    def class_of(self, dotted: str) -> str | None:
        """The defining module when ``dotted`` names a program class."""
        return self._classes.get(dotted)

    def callees_of(self, qualname: str) -> tuple[str, ...]:
        """Known program functions ``qualname`` calls directly, sorted.

        A call to a class resolves to its ``__init__`` when one exists
        (constructor bodies run at the call site).
        """
        out: set[str] = set()
        for site in self.calls.get(qualname, ()):
            target = self.as_function(site.callee)
            if target is not None:
                out.add(target)
        return tuple(sorted(out))

    def as_function(self, dotted: str) -> str | None:
        """Resolve a dotted callee to a graph function (classes map to
        their ``__init__`` when defined), or None."""
        if dotted in self.functions:
            return dotted
        if dotted in self._classes:
            init = f"{dotted}.__init__"
            if init in self.functions:
                return init
        return None

    def reachable_from(self, roots: tuple[str, ...]) -> frozenset[str]:
        """Functions transitively callable from ``roots`` (inclusive),
        restricted to functions known to the graph."""
        seen: set[str] = set()
        stack = sorted(root for root in roots if root in self.functions)
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            for callee in self.callees_of(qual):
                if callee not in seen:
                    stack.append(callee)
        return frozenset(seen)

    def call_path(self, src: str, dst: str) -> list[CallSite] | None:
        """Shortest chain of call sites from ``src`` to ``dst``.

        Returns ``[]`` when ``src == dst`` and ``None`` when no chain
        exists. BFS over sorted edges, so the witness path is stable.
        """
        if src == dst:
            return []
        if src not in self.functions:
            return None
        prev: dict[str, CallSite] = {}
        queue = [src]
        seen = {src}
        while queue:
            current = queue.pop(0)
            for site in self.calls.get(current, ()):
                target = self.as_function(site.callee)
                if target is None or target in seen:
                    continue
                prev[target] = site
                if target == dst:
                    chain: list[CallSite] = []
                    node = dst
                    while node != src:
                        site = prev[node]
                        chain.append(site)
                        node = site.caller
                    return list(reversed(chain))
                seen.add(target)
                queue.append(target)
        return None


class ProgramContext:
    """Everything an interprocedural rule may consult about the program.

    Attributes:
        units: module name -> :class:`ModuleUnit`. The key names the
            module in the call graph (a nameless snippet is linted as
            ``snippet``).
        policy: the active :class:`~repro.analysis.policy.LintPolicy`.
    """

    def __init__(self, units: dict[str, ModuleUnit], policy: LintPolicy):
        self.units = dict(units)
        self.policy = policy
        self._graph: CallGraph | None = None

    @property
    def callgraph(self) -> CallGraph:
        """The (lazily built) call graph over :attr:`units`."""
        if self._graph is None:
            self._graph = CallGraph(self.units)
        return self._graph

    def unit_for(self, qualname: str) -> ModuleUnit | None:
        """The unit defining a function qualname from the call graph."""
        info = self.callgraph.functions.get(qualname)
        if info is None:
            return None
        return self.units.get(info.module)
