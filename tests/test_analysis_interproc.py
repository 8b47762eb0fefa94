"""Interprocedural analysis: call graph, X-rule traces, SARIF output.

The fixture corpus (``test_analysis_fixtures.py``) pins that each X rule
fires exactly; this file pins the *machinery* — call-graph resolution,
the source→sink chain carried on findings (acceptance criterion: present
in both text and SARIF), and the SARIF document shape GitHub code
scanning expects.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis import LintPolicy, lint_paths, lint_source, render_sarif
from repro.analysis.callgraph import CallGraph, ModuleUnit


def _unit(module: str, source: str) -> ModuleUnit:
    return ModuleUnit(
        module=module,
        path=module.replace(".", "/") + ".py",
        source=source,
        tree=ast.parse(source),
    )


def _graph(sources: dict[str, str]) -> CallGraph:
    return CallGraph({m: _unit(m, s) for m, s in sources.items()})


class TestCallGraph:
    def test_local_and_from_import_calls_resolve(self) -> None:
        graph = _graph(
            {
                "pkg.a": "def helper() -> int:\n    return 1\n",
                "pkg.b": (
                    "from pkg.a import helper\n\n\n"
                    "def caller() -> int:\n    return helper()\n"
                ),
            }
        )
        assert graph.callees_of("pkg.b.caller") == ("pkg.a.helper",)

    def test_module_alias_attribute_call_resolves(self) -> None:
        graph = _graph(
            {
                "pkg.a": "def helper() -> int:\n    return 1\n",
                "pkg.b": (
                    "import pkg.a as pa\n\n\n"
                    "def caller() -> int:\n    return pa.helper()\n"
                ),
            }
        )
        assert graph.callees_of("pkg.b.caller") == ("pkg.a.helper",)

    def test_self_method_and_constructor_resolve(self) -> None:
        graph = _graph(
            {
                "pkg.a": (
                    "class Box:\n"
                    "    def __init__(self) -> None:\n"
                    "        self.n = 0\n\n"
                    "    def bump(self) -> None:\n"
                    "        self.n += 1\n\n"
                    "    def run(self) -> None:\n"
                    "        self.bump()\n\n\n"
                    "def make() -> Box:\n"
                    "    return Box()\n"
                )
            }
        )
        assert graph.callees_of("pkg.a.Box.run") == ("pkg.a.Box.bump",)
        # A constructor call lands on __init__.
        assert graph.callees_of("pkg.a.make") == ("pkg.a.Box.__init__",)

    def test_module_body_is_a_graph_node(self) -> None:
        graph = _graph(
            {
                "pkg.a": (
                    "def setup() -> int:\n    return 1\n\n\n"
                    "VALUE = setup()\n"
                )
            }
        )
        assert graph.callees_of("pkg.a") == ("pkg.a.setup",)

    def test_reachability_and_call_path(self) -> None:
        graph = _graph(
            {
                "pkg.a": (
                    "def c() -> int:\n    return 1\n\n\n"
                    "def b() -> int:\n    return c()\n\n\n"
                    "def a() -> int:\n    return b()\n\n\n"
                    "def unrelated() -> int:\n    return 0\n"
                )
            }
        )
        reachable = graph.reachable_from(("pkg.a.a",))
        assert "pkg.a.c" in reachable
        assert "pkg.a.unrelated" not in reachable
        path = graph.call_path("pkg.a.a", "pkg.a.c")
        assert path is not None
        assert [(s.caller, s.callee) for s in path] == [
            ("pkg.a.a", "pkg.a.b"),
            ("pkg.a.b", "pkg.a.c"),
        ]
        assert graph.call_path("pkg.a.unrelated", "pkg.a.c") is None

    def test_program_skips_broken_modules(self, tmp_path: Path) -> None:
        # A module that does not parse gets its E000 finding and stays out
        # of the program; the program rules still run over the others.
        pkg = tmp_path / "brokenpkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "bad.py").write_text("def broken(:\n", encoding="utf-8")
        (pkg / "ok.py").write_text(
            "import hashlib\nimport os\n\n\n"
            "def digest_key(payload: str) -> str:\n"
            '    return hashlib.sha256(payload.encode("utf-8")).hexdigest()\n\n\n'
            "def cache_key() -> str:\n"
            '    return digest_key(os.environ.get("PILFILL_HOST", "local"))\n',
            encoding="utf-8",
        )
        policy = LintPolicy(taint_sink_functions=("brokenpkg.ok.digest_key",))
        report = lint_paths([str(pkg)], policy=policy)
        assert report.files_checked == 3
        by_rule = {(Path(f.path).name, f.rule_id) for f in report.findings}
        assert ("bad.py", "E000") in by_rule
        assert ("ok.py", "X101") in by_rule
        assert {name for name, _ in by_rule} == {"bad.py", "ok.py"}


_TAINT_POLICY = LintPolicy(
    taint_sink_functions=("repro.experiments.fx.digest_key",)
)

_TAINT_SOURCE = """
import hashlib
import os


def read_host() -> str:
    return os.environ.get("PILFILL_HOST", "local")


def build_payload() -> str:
    return "payload:" + read_host()


def digest_key(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_key() -> str:
    return digest_key(build_payload())
"""


class TestTaintChain:
    def _finding(self):
        findings = lint_source(
            _TAINT_SOURCE,
            path="fx.py",
            module="repro.experiments.fx",
            policy=_TAINT_POLICY,
        )
        assert [f.rule_id for f in findings] == ["X101"]
        return findings[0]

    def test_text_report_carries_the_full_chain(self) -> None:
        finding = self._finding()
        notes = [step.note for step in finding.trace]
        assert notes[0].startswith("source: environment read")
        assert notes[-1] == "sink: call of repro.experiments.fx.digest_key"
        # Intermediate hops walk the actual call chain.
        assert any("build_payload -> repro.experiments.fx.read_host" in n for n in notes)
        text = finding.format()
        for step in finding.trace:
            assert step.format() in text

    def test_sarif_report_carries_the_chain_as_a_code_flow(self) -> None:
        finding = self._finding()
        document = json.loads(render_sarif([finding], files_checked=1))
        assert document["version"] == "2.1.0"
        (run,) = document["runs"]
        (result,) = run["results"]
        assert result["ruleId"] == "X101"
        (flow,) = result["codeFlows"]
        (thread,) = flow["threadFlows"]
        notes = [
            loc["location"]["message"]["text"] for loc in thread["locations"]
        ]
        assert notes == [step.note for step in finding.trace]
        # Every registered rule ships metadata, findings or not. The ids
        # are pinned: the catalog is built from the registry, so comparing
        # it with the registry would prove nothing.
        rules = run["tool"]["driver"]["rules"]
        assert sorted(rule["id"] for rule in rules) == [
            "C202", "C203", "C204",
            "D101", "D102", "D103", "D104",
            "X101", "X201", "X202", "X301",
        ]
        for rule in rules:
            assert rule["shortDescription"]["text"], rule["id"]

    def test_sarif_of_clean_run_has_rules_but_no_results(self) -> None:
        document = json.loads(render_sarif([], files_checked=3))
        (run,) = document["runs"]
        assert run["results"] == []
        assert run["properties"]["filesChecked"] == 3
        assert run["tool"]["driver"]["rules"]


class TestLockRules:
    def test_consistent_order_through_calls_is_clean(self) -> None:
        source = """
from threading import Lock


class Pair:
    def __init__(self) -> None:
        self._a = Lock()
        self._b = Lock()
        self.value = 0

    def _locked_bump(self) -> None:
        with self._b:
            self.value += 1

    def forward(self) -> None:
        with self._a:
            self._locked_bump()
"""
        findings = lint_source(source, path="fx.py", module="repro.experiments.fx")
        assert findings == []

    def test_cycle_through_a_callee_is_detected(self) -> None:
        source = """
from threading import Lock


class Pair:
    def __init__(self) -> None:
        self._a = Lock()
        self._b = Lock()
        self.value = 0

    def _locked_bump(self) -> None:
        with self._b:
            self.value += 1

    def forward(self) -> None:
        with self._a:
            self._locked_bump()

    def backward(self) -> None:
        with self._b:
            with self._a:
                self.value -= 1
"""
        findings = lint_source(source, path="fx.py", module="repro.experiments.fx")
        assert [f.rule_id for f in findings] == ["X201"]
        assert "lock-order cycle" in findings[0].message

    def test_nonreentrant_self_nesting_is_a_cycle(self) -> None:
        source = """
from threading import Lock

GUARD = Lock()


def outer() -> None:
    with GUARD:
        inner()


def inner() -> None:
    with GUARD:
        pass
"""
        findings = lint_source(source, path="fx.py", module="repro.experiments.fx")
        assert [f.rule_id for f in findings] == ["X201"]

    def test_rlock_self_nesting_is_legal(self) -> None:
        source = """
from threading import RLock

GUARD = RLock()


def outer() -> None:
    with GUARD:
        inner()


def inner() -> None:
    with GUARD:
        pass
"""
        findings = lint_source(source, path="fx.py", module="repro.experiments.fx")
        assert findings == []

    def test_dispatch_through_a_helper_is_detected(self) -> None:
        source = """
from concurrent.futures import ThreadPoolExecutor
from threading import Lock


class Dispatcher:
    def __init__(self) -> None:
        self._lock = Lock()
        self._pool = ThreadPoolExecutor(max_workers=2)

    def _ship(self, item: int) -> None:
        self._pool.submit(print, item)

    def run(self, items: list[int]) -> None:
        with self._lock:
            for item in items:
                self._ship(item)
"""
        findings = lint_source(source, path="fx.py", module="repro.experiments.fx")
        assert [f.rule_id for f in findings] == ["X202"]
        notes = [step.note for step in findings[0].trace]
        assert notes[0].startswith("lock acquired:")


class TestPurityRule:
    def test_unreachable_writes_are_not_flagged(self) -> None:
        source = """
_RESULTS: list[int] = []


def record(value: int) -> None:
    _RESULTS.append(value)


def worker_main(value: int) -> int:
    return value * 2
"""
        policy = LintPolicy(
            worker_entry_functions=("repro.experiments.fx.worker_main",)
        )
        findings = lint_source(
            source, path="fx.py", module="repro.experiments.fx", policy=policy
        )
        assert findings == []

    def test_allowlisted_state_is_sanctioned(self) -> None:
        source = """
_CACHE: dict[str, int] = {}


def resolve(key: str) -> int:
    if key not in _CACHE:
        _CACHE[key] = len(key)
    return _CACHE[key]


def worker_main(key: str) -> int:
    return resolve(key)
"""
        policy = LintPolicy(
            worker_entry_functions=("repro.experiments.fx.worker_main",),
            worker_state_allowlist=("repro.experiments.fx._CACHE",),
        )
        findings = lint_source(
            source, path="fx.py", module="repro.experiments.fx", policy=policy
        )
        assert findings == []

    def test_global_rebind_is_flagged_with_entry_trace(self) -> None:
        source = """
_EPOCH = 0


def advance() -> None:
    global _EPOCH
    _EPOCH += 1


def worker_main(value: int) -> int:
    advance()
    return value
"""
        policy = LintPolicy(
            worker_entry_functions=("repro.experiments.fx.worker_main",)
        )
        findings = lint_source(
            source, path="fx.py", module="repro.experiments.fx", policy=policy
        )
        assert [f.rule_id for f in findings] == ["X301"]
        notes = [step.note for step in findings[0].trace]
        assert notes[0] == "worker entry: repro.experiments.fx.worker_main"
        assert notes[-1].startswith("write:")

    def test_local_shadow_is_not_module_state(self) -> None:
        source = """
_RESULTS: list[int] = []


def worker_main(value: int) -> int:
    _RESULTS = [value]
    _RESULTS.append(value)
    return _RESULTS[0]
"""
        policy = LintPolicy(
            worker_entry_functions=("repro.experiments.fx.worker_main",)
        )
        findings = lint_source(
            source, path="fx.py", module="repro.experiments.fx", policy=policy
        )
        assert findings == []


class TestSuppression:
    def test_x_findings_are_suppressible_at_the_anchor_line(self) -> None:
        source = """
import hashlib
import os


def digest_key(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_key() -> str:
    host = os.environ.get("H", "x")
    return digest_key(host)  # pilfill: allow[X101] -- fixture: documented env pin
"""
        findings = lint_source(
            source,
            path="fx.py",
            module="repro.experiments.fx",
            policy=_TAINT_POLICY,
        )
        assert findings == []
