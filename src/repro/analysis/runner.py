"""Lint driver: collect files, run rules, apply suppressions.

:func:`lint_paths` is what the CLI subcommand and the pytest self-check
gate call; :func:`lint_source` / :func:`lint_modules` are the
fixture-test entry points (analyze snippets under a forced module name,
no filesystem).

Two rule tiers run per invocation, both over one call graph of the
whole package the linted files belong to:

* **per-file rules** (:func:`~repro.analysis.registry.all_rules`) plus
  the findings of ``scope="file"`` program rules (X101, X202), all
  through the file's suppressions (:func:`apply_suppressions`, which
  also reports blanket and unknown allows);
* **program-scoped rules** (``scope="program"``: X201, X301), whose
  findings are only filtered against their anchor file's allows
  (:func:`filter_suppressed`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.callgraph import ModuleUnit, ProgramContext, build_program
from repro.analysis.findings import Finding
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


def _package_root(files: list[Path]) -> Path | None:
    """Directory above the topmost package containing the first package
    file — the root the whole program is built over."""
    for file in files:
        if module_name_for(file):
            current = file.parent
            while (current.parent / "__init__.py").exists():
                current = current.parent
            return current.parent
    return None


def _build_whole_program(
    root: Path, policy: LintPolicy, path_overrides: dict[Path, str]
) -> ProgramContext:
    """Program context over every module under ``root``. Modules that
    are also being linted report under their as-given path string so
    findings line up with the per-file pass."""
    sources: dict[str, tuple[str, str]] = {}
    for file in sorted(root.resolve().rglob("*.py")):
        module = module_name_for(file)
        if module:
            path_str = path_overrides.get(file.resolve(), str(file))
            sources[module] = (path_str, file.read_text(encoding="utf-8"))
    return build_program(sources, policy)


def _lint_file(
    file: Path, policy: LintPolicy, file_scope_by_path: dict[str, list[Finding]]
) -> list[Finding]:
    """Per-file rules plus the file's ``scope="file"`` program findings,
    through the file's suppressions."""
    path = str(file)
    try:
        source = file.read_text(encoding="utf-8")
    except OSError as exc:
        return [
            Finding(
                path=path, line=1, col=0, rule_id="E000", message=f"cannot read file: {exc}"
            )
        ]
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
        path=path, module=module_name_for(file), source=source, tree=tree, policy=policy
    )
    findings = _file_rule_findings(ctx)
    findings.extend(file_scope_by_path.get(path, []))
    return apply_suppressions(
        path, findings, parse_suppressions(source), known_rule_ids()
    )


def lint_paths(paths: list[str], policy: LintPolicy | None = None) -> LintReport:
    """Lint every file under ``paths`` with the full rule catalog.

    Program rules see every module of the package the first linted
    package file belongs to; only findings anchored in a linted file
    are reported.
    """
    policy = policy if policy is not None else DEFAULT_POLICY
    files = collect_files(paths)
    report = LintReport(files_checked=len(files))

    root = _package_root(files)
    program: ProgramContext | None = None
    file_scope_by_path: dict[str, list[Finding]] = {}
    if root is not None:
        path_overrides = {file.resolve(): str(file) for file in files}
        program = _build_whole_program(root, policy, path_overrides)
        file_scope_by_path = _program_findings_by_path(program, "file")

    for file in files:
        report.findings.extend(_lint_file(file, policy, file_scope_by_path))

    # Program-scoped rules (lock-order cycles, worker purity): facts
    # outside any one file, reported where they anchor in a linted file.
    if program is not None:
        linted = {str(file) for file in files}
        for path, findings in _program_findings_by_path(program, "program").items():
            if path in linted:
                report.findings.extend(findings)

    report.findings.sort()
    return report
