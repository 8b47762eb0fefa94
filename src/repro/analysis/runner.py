"""Lint driver: collect files, run rules, apply suppressions, cache.

:func:`lint_paths` is what the CLI subcommand and the pytest self-check
gate call; :func:`lint_source` / :func:`lint_modules` are the
fixture-test entry points (analyze snippets under a forced module name,
no filesystem).

Two rule tiers run per invocation:

* **per-file rules** (:func:`~repro.analysis.registry.all_rules`) plus
  the findings of ``scope="file"`` program rules (X101, X202) — cached
  per file under a key that folds in the file's **import-closure
  digest**, so a taint chain through a dependency invalidates the moment
  the dependency edits;
* **program-scoped rules** (``scope="program"``: X201, X301) — facts
  that live outside any one closure; cached once under a whole-program
  source digest.

On a fully warm cache neither tier builds the function-level call graph
— the closure digests come from the (always-built, cheap) import graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.cache import LintCache, context_digest, entry_digest, program_digest
from repro.analysis.callgraph import ModuleUnit, ProgramContext, build_program
from repro.analysis.changed import changed_paths
from repro.analysis.findings import Finding
from repro.analysis.modgraph import ModuleGraph, module_name_for
from repro.analysis.policy import DEFAULT_POLICY, LintPolicy
from repro.analysis.registry import (
    FileContext,
    all_program_rules,
    all_rules,
    known_rule_ids,
)
from repro.analysis.suppress import (
    apply_suppressions,
    filter_suppressed,
    parse_suppressions,
)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    cache_hits: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def collect_files(paths: list[str]) -> list[Path]:
    """The .py files named by ``paths`` (directories recurse), sorted."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _file_rule_findings(ctx: FileContext) -> list[Finding]:
    findings: list[Finding] = []
    for rule in all_rules():
        findings.extend(rule.check(ctx))
    return findings


def _program_findings_by_path(
    program: ProgramContext, scope: str
) -> dict[str, list[Finding]]:
    """Findings of every program rule of ``scope``, grouped by path and
    filtered against each anchor file's own suppression comments."""
    raw: list[Finding] = []
    for rule in all_program_rules():
        if rule.scope == scope:
            raw.extend(rule.check_program(program))
    sups_by_path: dict[str, list] = {}
    for unit in program.units.values():
        sups_by_path[unit.path] = parse_suppressions(unit.source)
    grouped: dict[str, list[Finding]] = {}
    for finding in sorted(raw):
        sups = sups_by_path.get(finding.path, [])
        if filter_suppressed([finding], sups):
            grouped.setdefault(finding.path, []).append(finding)
    return grouped


def lint_source(
    source: str,
    path: str = "<string>",
    module: str = "",
    policy: LintPolicy | None = None,
) -> list[Finding]:
    """Lint a source snippet (fixture tests force the module name).

    Program rules run over the snippet as a one-module program, so
    intra-module taint/lock/purity findings appear alongside the
    per-file families.
    """
    policy = policy if policy is not None else DEFAULT_POLICY
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule_id="E000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = FileContext(
        path=path,
        module=module,
        source=source,
        tree=tree,
        policy=policy,
    )
    findings = _file_rule_findings(ctx)
    program = ProgramContext(
        {module or "snippet": ModuleUnit(module or "snippet", path, source, tree)},
        policy,
    )
    for rule in all_program_rules():
        findings.extend(rule.check_program(program))
    return apply_suppressions(
        path, findings, parse_suppressions(source), known_rule_ids()
    )


def lint_modules(
    sources: dict[str, str], policy: LintPolicy | None = None
) -> list[Finding]:
    """Lint several in-memory modules as one program (cross-module
    fixture entry point). Paths are synthesized as ``mod/ule.py``."""
    policy = policy if policy is not None else DEFAULT_POLICY
    findings: list[Finding] = []
    units: dict[str, ModuleUnit] = {}
    for module in sorted(sources):
        source = sources[module]
        path = module.replace(".", "/") + ".py"
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule_id="E000",
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        units[module] = ModuleUnit(module, path, source, tree)
        ctx = FileContext(
            path=path, module=module, source=source, tree=tree, policy=policy
        )
        findings.extend(
            apply_suppressions(
                path,
                _file_rule_findings(ctx),
                parse_suppressions(source),
                known_rule_ids(),
            )
        )
    program = ProgramContext(units, policy)
    for scope in ("file", "program"):
        for per_path in _program_findings_by_path(program, scope).values():
            findings.extend(per_path)
    return sorted(findings)


def _graph_root(files: list[Path]) -> Path | None:
    """Topmost package directory containing the first package file —
    the root the import graph is built over."""
    for file in files:
        if module_name_for(file):
            current = file.parent
            while (current.parent / "__init__.py").exists():
                current = current.parent
            return current.parent
    return None


def _build_whole_program(
    graph: ModuleGraph, policy: LintPolicy, path_overrides: dict[Path, str]
) -> ProgramContext:
    """Program context over every module under the graph root. Modules
    that are also being linted report under their as-given path string
    so findings line up with the per-file pass and the cache."""
    sources: dict[str, tuple[str, str]] = {}
    for module in graph.modules():
        mod_path = graph.path_of(module)
        source = graph.source_of(module)
        if mod_path is None or source is None:
            continue
        path_str = path_overrides.get(mod_path.resolve(), str(mod_path))
        sources[module] = (path_str, source)
    return build_program(sources, policy)


def _select_changed(
    files: list[Path], graph: ModuleGraph | None
) -> list[Path] | None:
    """Subset of ``files`` needing a re-lint per git state: changed
    files plus every module whose import closure touches a changed
    module. None when git state is unavailable (caller lints all)."""
    changed = changed_paths(Path.cwd())
    if changed is None:
        return None
    changed_modules: set[str] = set()
    if graph is not None:
        for module in graph.modules():
            mod_path = graph.path_of(module)
            if mod_path is not None and mod_path.resolve() in changed:
                changed_modules.add(module)
    dirty = (
        graph.dependents_of(frozenset(changed_modules))
        if graph is not None and changed_modules
        else frozenset()
    )
    selected: list[Path] = []
    for file in files:
        if file.resolve() in changed:
            selected.append(file)
            continue
        module = module_name_for(file)
        if module and module in dirty:
            selected.append(file)
    return selected


@dataclass
class _FileTask:
    """One file queued for the per-file pass."""

    file: Path
    module: str
    source: str
    digest: str


def lint_paths(
    paths: list[str],
    policy: LintPolicy | None = None,
    cache_path: Path | None = None,
    changed_only: bool = False,
) -> LintReport:
    """Lint every file under ``paths`` with the full rule catalog.

    ``cache_path`` enables the result cache (content-digest keyed; safe
    to commit to CI cache storage). ``changed_only``
    restricts the run to files changed per git plus their import-closure
    dependents (full lint when git state is unavailable).
    """
    policy = policy if policy is not None else DEFAULT_POLICY
    files = collect_files(paths)

    root = _graph_root(files)
    graph = ModuleGraph(root) if root is not None else None

    if changed_only:
        selected = _select_changed(files, graph)
        if selected is not None:
            files = selected

    report = LintReport(files_checked=len(files))
    rule_ids = tuple(rule.rule_id for rule in all_rules()) + tuple(
        rule.rule_id for rule in all_program_rules() if rule.scope == "file"
    )
    cache = LintCache(cache_path)

    path_overrides: dict[Path, str] = {}
    tasks: list[_FileTask] = []
    findings_by_file: dict[Path, list[Finding]] = {}
    for file in files:
        module = module_name_for(file)
        if module:
            path_overrides[file.resolve()] = str(file)
        closure = (
            graph.closure_digest(module) if graph is not None and module else ""
        )
        ctx_digest = context_digest(rule_ids, policy.fingerprint(), closure)
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as exc:
            findings_by_file[file] = [
                Finding(
                    path=str(file),
                    line=1,
                    col=0,
                    rule_id="E000",
                    message=f"cannot read file: {exc}",
                )
            ]
            continue
        digest = entry_digest(source, ctx_digest)
        cached = cache.get(str(file), digest)
        if cached is not None:
            report.cache_hits += 1
            findings_by_file[file] = cached
            continue
        tasks.append(
            _FileTask(file=file, module=module, source=source, digest=digest)
        )

    program: ProgramContext | None = None
    file_scope_by_path: dict[str, list[Finding]] = {}
    if tasks and graph is not None:
        program = _build_whole_program(graph, policy, path_overrides)
        file_scope_by_path = _program_findings_by_path(program, "file")

    def run_task(task: _FileTask) -> list[Finding]:
        try:
            tree = ast.parse(task.source)
        except SyntaxError as exc:
            return [
                Finding(
                    path=str(task.file),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule_id="E000",
                    message=f"syntax error: {exc.msg}",
                )
            ]
        ctx = FileContext(
            path=str(task.file),
            module=task.module,
            source=task.source,
            tree=tree,
            policy=policy,
        )
        findings = _file_rule_findings(ctx)
        findings.extend(file_scope_by_path.get(str(task.file), []))
        return apply_suppressions(
            str(task.file), findings, parse_suppressions(task.source), known_rule_ids()
        )

    for task in tasks:
        findings = run_task(task)
        cache.put(str(task.file), task.digest, findings)
        findings_by_file[task.file] = findings

    for file in files:
        report.findings.extend(findings_by_file.get(file, []))

    # Program-scoped rules (lock-order cycles, worker purity): facts
    # outside any one file's closure, cached under a whole-program digest.
    if graph is not None:
        prog_rule_ids = tuple(
            rule.rule_id for rule in all_program_rules() if rule.scope == "program"
        )
        if prog_rule_ids:
            prog_digest = program_digest(
                prog_rule_ids, policy.fingerprint(), graph.program_source_digest()
            )
            prog_findings = cache.get_program(prog_digest)
            if prog_findings is None:
                if program is None:
                    program = _build_whole_program(graph, policy, path_overrides)
                prog_findings = []
                for per_path in _program_findings_by_path(program, "program").values():
                    prog_findings.extend(per_path)
                prog_findings.sort()
                cache.put_program(prog_digest, prog_findings)
            else:
                report.cache_hits += 1
            linted = {str(file) for file in files}
            report.findings.extend(
                f for f in prog_findings if f.path in linted
            )

    cache.save()
    report.findings.sort()
    return report
