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

from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding
from repro.analysis.policy import DEFAULT_POLICY, LintPolicy
from repro.analysis.registry import (
    FileContext,
    all_program_rules,
    all_rules,
    known_rule_ids,
)
from repro.analysis.suppress import apply_suppressions, filter_suppressed


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


def _load(
    path: str, module: str, source: str | Path, policy: LintPolicy
) -> FileContext | Finding:
    """The module's record — ``source`` is its text or the file to read
    it from — or the E000 finding when it cannot be read or parsed."""
    try:
        text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
        return FileContext(path, module, text, ast.parse(text), policy)
    except OSError as exc:
        return Finding(
            path=path, line=1, col=0, rule_id="E000", message=f"cannot read file: {exc}"
        )
    except SyntaxError as exc:
        return Finding(
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            rule_id="E000",
            message=f"syntax error: {exc.msg}",
        )


def _program_findings_by_path(
    program: ProgramContext, scope: str
) -> dict[str, list[Finding]]:
    """Findings of every program rule of ``scope``, grouped by path and
    filtered against each anchor file's own suppression comments."""
    raw: list[Finding] = []
    for rule in all_program_rules():
        if rule.scope == scope:
            raw.extend(rule.check_program(program))
    units_by_path = {unit.path: unit for unit in program.units.values()}
    grouped: dict[str, list[Finding]] = {}
    for finding in sorted(raw):
        unit = units_by_path.get(finding.path)
        if unit is None or filter_suppressed([finding], unit.suppressions):
            grouped.setdefault(finding.path, []).append(finding)
    return grouped


def _lint(records: list[FileContext | Finding], program: ProgramContext) -> list[Finding]:
    """The lint core: per-file rules plus the ``scope="file"`` program
    findings of each record, through its suppressions; the
    ``scope="program"`` findings anchored in a record; and the E000
    finding of each module that failed to load."""
    file_scope = _program_findings_by_path(program, "file")
    program_scope = _program_findings_by_path(program, "program")
    findings: list[Finding] = []
    for record in records:
        if isinstance(record, Finding):
            findings.append(record)
            continue
        per_file = [finding for rule in all_rules() for finding in rule.check(record)]
        per_file.extend(file_scope.get(record.path, []))
        findings.extend(
            apply_suppressions(
                record.path, per_file, record.suppressions, known_rule_ids()
            )
        )
        findings.extend(program_scope.get(record.path, []))
    return sorted(findings)


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
    record = _load(path, module, source, policy)
    if isinstance(record, Finding):
        return [record]
    return _lint([record], ProgramContext({module or "snippet": record}, policy))


def lint_modules(
    sources: dict[str, str], policy: LintPolicy | None = None
) -> list[Finding]:
    """Lint several in-memory modules as one program (cross-module
    fixture entry point). Paths are synthesized as ``mod/ule.py``."""
    policy = policy if policy is not None else DEFAULT_POLICY
    records = [
        _load(module.replace(".", "/") + ".py", module, sources[module], policy)
        for module in sorted(sources)
    ]
    units = {r.module: r for r in records if isinstance(r, FileContext)}
    return _lint(records, ProgramContext(units, policy))


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
    root: Path, policy: LintPolicy, loaded: dict[Path, FileContext | Finding]
) -> ProgramContext:
    """Program context over every module under ``root`` that parses.
    ``loaded`` maps resolved paths of the linted files to their records,
    which the program reuses, so each module is read and parsed once and
    program findings carry the linted files' as-given paths."""
    units: dict[str, FileContext] = {}
    for file in sorted(root.resolve().rglob("*.py")):
        module = module_name_for(file)
        if not module:
            continue
        record = loaded.get(file.resolve()) or _load(str(file), module, file, policy)
        if isinstance(record, FileContext):
            units[module] = record
    return ProgramContext(units, policy)


def lint_paths(paths: list[str], policy: LintPolicy | None = None) -> LintReport:
    """Lint every file under ``paths`` with the full rule catalog.

    Program rules see every module of the package the first linted
    package file belongs to; only findings anchored in a linted file
    are reported.
    """
    policy = policy if policy is not None else DEFAULT_POLICY
    files = collect_files(paths)
    records = [_load(str(file), module_name_for(file), file, policy) for file in files]
    root = _package_root(files)
    program = ProgramContext({}, policy)
    if root is not None:
        loaded = {file.resolve(): record for file, record in zip(files, records)}
        program = _build_whole_program(root, policy, loaded)
    return LintReport(findings=_lint(records, program), files_checked=len(files))
