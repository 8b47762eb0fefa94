"""The linter obeys its own contract: byte-identical, order-stable output.

A lint gate that itself leaks set order or thread scheduling into its
report would fail the very property it enforces. These tests run the
full pipeline repeatedly and in shuffled input order, and require
byte-identical reports every time.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import LintPolicy, lint_paths, render_json, render_sarif, render_text
from repro.analysis.suppress import parse_suppressions

_POLICY = LintPolicy(taint_sink_functions=("detpkg.sink.digest_key",))

_FILES = {
    "__init__.py": "",
    "src.py": (
        "import os\n\n\n"
        "def read_host(host: str) -> str:\n"
        '    return os.environ.get("PILFILL_HOST", host)\n'
    ),
    "sink.py": (
        "import hashlib\n\n"
        "from detpkg.src import read_host\n\n\n"
        "def digest_key(payload: str) -> str:\n"
        '    return hashlib.sha256(payload.encode("utf-8")).hexdigest()\n\n\n'
        "def cache_key(host: str) -> str:\n"
        '    return digest_key("payload:" + read_host(host))\n'
    ),
    "clocky.py": (
        "import time\n\n\n"
        "def stamp() -> float:\n"
        "    return time.time()\n"
    ),
    "floaty.py": "def near(x: float) -> bool:\n    return x == 0.5\n",
}


@pytest.fixture()
def pkg(tmp_path: Path) -> Path:
    root = tmp_path / "detpkg"
    root.mkdir()
    for name, body in _FILES.items():
        (root / name).write_text(body, encoding="utf-8")
    return root


def _render_all(report) -> tuple[str, str, str]:
    return (
        render_text(report.findings, report.files_checked),
        render_json(report.findings, report.files_checked),
        render_sarif(report.findings, report.files_checked),
    )


def test_repeated_runs_are_byte_identical(pkg: Path) -> None:
    baseline = lint_paths([str(pkg)], policy=_POLICY)
    assert baseline.findings, "corpus should produce findings"
    rendered = _render_all(baseline)
    for _ in range(3):
        again = lint_paths([str(pkg)], policy=_POLICY)
        assert _render_all(again) == rendered


def test_input_order_does_not_matter(pkg: Path) -> None:
    files = sorted(str(p) for p in pkg.glob("*.py"))
    forward = lint_paths(files, policy=_POLICY)
    backward = lint_paths(list(reversed(files)), policy=_POLICY)
    assert _render_all(forward) == _render_all(backward)


def test_findings_are_sorted_by_location(pkg: Path) -> None:
    report = lint_paths([str(pkg)], policy=_POLICY)
    keys = [(f.path, f.line, f.col, f.rule_id) for f in report.findings]
    assert keys == sorted(keys)


def test_each_module_is_parsed_and_tokenized_once(
    pkg: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # One record per module: a lint run hands each module's source to
    # ast.parse and to the suppression tokenizer exactly once, however
    # many rules and passes read it.
    parsed: Counter[str] = Counter()
    tokenized: Counter[str] = Counter()
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):  # type: ignore[no-untyped-def]
        parsed[source] += 1
        return real_parse(source, *args, **kwargs)

    def counting_suppressions(source: str):  # type: ignore[no-untyped-def]
        tokenized[source] += 1
        return parse_suppressions(source)

    monkeypatch.setattr(ast, "parse", counting_parse)
    for name, module in sorted(sys.modules.items()):
        if name.startswith("repro.analysis") and hasattr(module, "parse_suppressions"):
            monkeypatch.setattr(module, "parse_suppressions", counting_suppressions)
    report = lint_paths([str(pkg)], policy=_POLICY)
    assert report.files_checked == len(_FILES)
    assert {name: parsed[body] for name, body in _FILES.items()} == dict.fromkeys(_FILES, 1)
    assert {name: tokenized[body] for name, body in _FILES.items()} == dict.fromkeys(
        _FILES, 1
    )
