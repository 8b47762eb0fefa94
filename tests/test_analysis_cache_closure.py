"""Regression: the lint cache must key on the import-closure digest.

Pre-PR, a cache entry was keyed on single-file content + policy only, so
a finding explained by an *imported* module (worker reachability, and
now every X-family fact) survived edits to that module. These tests
build a tiny two-module package, lint it, edit the dependency, and
assert the dependent is re-linted — plus the flip side: a warm cache
must not pay for call-graph construction at all.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import LintPolicy, lint_paths
from repro.analysis.cache import LINT_VERSION
from repro.analysis.callgraph import CallGraph
from repro.analysis.modgraph import ModuleGraph

_POLICY = LintPolicy(taint_sink_functions=("fxpkg.sink.digest_key",))

_SRC_CLEAN = """def read_host(host: str) -> str:
    return host or "local"
"""

_SRC_TAINTED = """import os


def read_host(host: str) -> str:
    return os.environ.get("PILFILL_HOST", host)
"""

_SINK = """import hashlib

from fxpkg.src import read_host


def digest_key(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_key(host: str) -> str:
    return digest_key("payload:" + read_host(host))
"""


@pytest.fixture()
def pkg(tmp_path: Path) -> Path:
    root = tmp_path / "fxpkg"
    root.mkdir()
    (root / "__init__.py").write_text("", encoding="utf-8")
    (root / "src.py").write_text(_SRC_CLEAN, encoding="utf-8")
    (root / "sink.py").write_text(_SINK, encoding="utf-8")
    return root


def test_editing_a_dependency_relints_the_dependent(pkg: Path, tmp_path: Path) -> None:
    cache = tmp_path / "cache.json"
    clean = lint_paths([str(pkg)], policy=_POLICY, cache_path=cache)
    assert clean.findings == []
    warm = lint_paths([str(pkg)], policy=_POLICY, cache_path=cache)
    assert warm.cache_hits >= 3  # all files + the program section

    # Edit ONLY the dependency; sink.py's own bytes are unchanged.
    (pkg / "src.py").write_text(_SRC_TAINTED, encoding="utf-8")
    dirty = lint_paths([str(pkg)], policy=_POLICY, cache_path=cache)
    assert [f.rule_id for f in dirty.findings] == ["X101"]
    (finding,) = dirty.findings
    assert finding.path == str(pkg / "sink.py")

    # And back: restoring the dependency clears the finding again.
    (pkg / "src.py").write_text(_SRC_CLEAN, encoding="utf-8")
    assert lint_paths([str(pkg)], policy=_POLICY, cache_path=cache).findings == []


def test_closure_digest_changes_only_for_dependents(pkg: Path) -> None:
    graph = ModuleGraph(pkg.parent)
    before_sink = graph.closure_digest("fxpkg.sink")
    before_src = graph.closure_digest("fxpkg.src")
    (pkg / "src.py").write_text(_SRC_TAINTED, encoding="utf-8")
    graph2 = ModuleGraph(pkg.parent)
    assert graph2.closure_digest("fxpkg.sink") != before_sink
    assert graph2.closure_digest("fxpkg.src") != before_src
    # An unrelated module's closure is untouched.
    (pkg / "lone.py").write_text("VALUE = 1\n", encoding="utf-8")
    graph3 = ModuleGraph(pkg.parent)
    assert graph3.closure_digest("fxpkg.sink") == graph2.closure_digest("fxpkg.sink")


def test_dependents_of_inverts_the_closure(pkg: Path) -> None:
    graph = ModuleGraph(pkg.parent)
    dependents = graph.dependents_of(frozenset({"fxpkg.src"}))
    assert "fxpkg.sink" in dependents
    assert "fxpkg.src" in dependents


def test_warm_cache_never_builds_the_call_graph(
    pkg: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    cache = tmp_path / "cache.json"
    lint_paths([str(pkg)], policy=_POLICY, cache_path=cache)

    def boom(self: CallGraph, units: dict) -> None:
        raise AssertionError("call graph built on a fully warm cache")

    monkeypatch.setattr(CallGraph, "__init__", boom)
    warm = lint_paths([str(pkg)], policy=_POLICY, cache_path=cache)
    assert warm.findings == []
    assert warm.cache_hits >= 3


def test_cache_version_mismatch_discards_entries(pkg: Path, tmp_path: Path) -> None:
    cache = tmp_path / "cache.json"
    lint_paths([str(pkg)], policy=_POLICY, cache_path=cache)
    text = cache.read_text(encoding="utf-8")
    stale = text.replace(f'"version": {LINT_VERSION}', f'"version": {LINT_VERSION - 1}')
    assert stale != text
    cache.write_text(stale, encoding="utf-8")
    assert lint_paths([str(pkg)], policy=_POLICY, cache_path=cache).cache_hits == 0
