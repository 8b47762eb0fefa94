"""Import graph over the source tree, for cache soundness.

Imports are collected from the AST — including function-local imports,
which the solve path uses deliberately — so a module's closure matches
what importing it actually loads. :meth:`ModuleGraph.closure_digest`
hashes a module's whole import closure so per-file cache entries of the
interprocedural passes invalidate when *any* imported module changes,
and :meth:`ModuleGraph.dependents_of` inverts the edges for
``pilfill lint --changed``.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path`` by walking up ``__init__.py``
    packages; ``""`` when the file is not inside a package."""
    path = path.resolve()
    if not (path.parent / "__init__.py").exists():
        return ""
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        current = current.parent
    return ".".join(reversed(parts))


def _imports_of(tree: ast.Module, module: str, is_package: bool) -> set[str]:
    """Dotted modules ``module`` imports (absolute and relative)."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # Anchor package: the module itself when it is a package
                # __init__, its parent otherwise; each extra level climbs
                # one more package.
                hops = module.split(".") if module else []
                keep = len(hops) - node.level + (1 if is_package else 0)
                prefix = ".".join(hops[: max(keep, 0)])
                base = f"{prefix}.{node.module}" if node.module and prefix else (
                    node.module or prefix
                )
            if base:
                out.add(base)
                # `from pkg import name` may import the submodule pkg.name.
                for alias in node.names:
                    out.add(f"{base}.{alias.name}")
    return out


class ModuleGraph:
    """Import graph of every module under one source root."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self._edges: dict[str, set[str]] = {}
        self._paths: dict[str, Path] = {}
        self._sources: dict[str, str] = {}
        self._closures: dict[str, frozenset[str]] = {}
        self._closure_digests: dict[str, str] = {}
        for file in sorted(self.root.rglob("*.py")):
            module = module_name_for(file)
            if not module:
                continue
            self._paths[module] = file
            source = file.read_text(encoding="utf-8")
            self._sources[module] = source
            try:
                tree = ast.parse(source)
            except SyntaxError:
                continue
            self._edges[module] = _imports_of(
                tree, module, is_package=file.name == "__init__.py"
            )

    def modules(self) -> tuple[str, ...]:
        """Every module in the graph, sorted."""
        return tuple(sorted(self._paths))

    def path_of(self, module: str) -> Path | None:
        """Source path of ``module``, or None when unknown."""
        return self._paths.get(module)

    def source_of(self, module: str) -> str | None:
        """Source text of ``module`` as read at graph build time."""
        return self._sources.get(module)

    def closure_of(self, module: str) -> frozenset[str]:
        """``module`` plus everything it transitively imports (within
        the root). Memoized — the runner asks per linted file."""
        cached = self._closures.get(module)
        if cached is not None:
            return cached
        seen: set[str] = set()
        stack = [module] if module in self._paths else []
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for target in sorted(self._edges.get(current, set())):
                resolved = self._resolve(target)
                if resolved is not None and resolved not in seen:
                    stack.append(resolved)
        cached = self._closures[module] = frozenset(seen)
        return cached

    def closure_digest(self, module: str) -> str:
        """sha256 over the sorted (module, source) pairs of
        :meth:`closure_of` — the cache-key ingredient that makes
        cross-module lint facts invalidate when any dependency edits."""
        cached = self._closure_digests.get(module)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        for name in sorted(self.closure_of(module)):
            digest.update(name.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(self._sources.get(name, "").encode("utf-8"))
            digest.update(b"\x01")
        out = digest.hexdigest()
        self._closure_digests[module] = out
        return out

    def program_source_digest(self) -> str:
        """sha256 over every module's source, sorted by name — the
        whole-program ingredient for program-scoped rule caching."""
        digest = hashlib.sha256()
        for name in sorted(self._sources):
            digest.update(name.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(self._sources[name].encode("utf-8"))
            digest.update(b"\x01")
        return digest.hexdigest()

    def dependents_of(self, modules: frozenset[str]) -> frozenset[str]:
        """``modules`` plus every module whose import closure touches
        one of them — the re-lint set for ``--changed``."""
        out: set[str] = set()
        for module in sorted(self._paths):
            if module in modules or (self.closure_of(module) & modules):
                out.add(module)
        return frozenset(out)

    def _resolve(self, dotted: str) -> str | None:
        """Map an imported dotted name to a module in this graph (the
        name itself, or its parent when the tail is a symbol)."""
        if dotted in self._paths:
            return dotted
        parent = dotted.rpartition(".")[0]
        if parent in self._paths:
            return parent
        return None
