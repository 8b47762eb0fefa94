"""Fixture corpus for the lint rule catalog.

Every rule id has a failing and a passing example under
``tests/analysis_fixtures/``; each failing fixture must produce findings
of exactly its rule, and each passing fixture must lint clean under the
same (module, policy) context. Suppression semantics, the
JSON reporter round-trip, and the result cache are covered here too.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_POLICY,
    LintPolicy,
    findings_from_json,
    lint_modules,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.findings import Finding

FIXTURES = Path(__file__).parent / "analysis_fixtures"

#: A module outside every rule scope except the universal ones.
NEUTRAL = "repro.experiments.fx"
#: A module inside the float-eq scope.
STRICT = "repro.pilfill.fx"
#: A package module the import-form fixtures are linted as: a relative
#: import there names a sibling module, not the stdlib.
SNIPPET = "repro.pilfill.snippet"

#: Policy that registers the C202 fixture's class as a pool payload.
C202_POLICY = LintPolicy(payload_registry=(f"{NEUTRAL}.Payload",))
#: Policy that registers the cost-table fixtures' two classes.
C202_ARRAYS_POLICY = LintPolicy(payload_registry=(f"{NEUTRAL}.Costs", f"{NEUTRAL}.Column"))
#: Policy naming the X101 fixtures' digest helper as the taint sink.
X101_POLICY = LintPolicy(taint_sink_functions=(f"{NEUTRAL}.digest_key",))
#: Policy naming the X301 fixtures' entry point as a pool-worker root.
X301_POLICY = LintPolicy(worker_entry_functions=(f"{NEUTRAL}.worker_main",))

#: rule id -> (module, policy) the fixture pair runs under.
CONTEXTS: dict[str, tuple[str, LintPolicy | None]] = {
    "D101": (NEUTRAL, None),
    "D102": (NEUTRAL, None),
    "D103": (NEUTRAL, None),
    "D104": (STRICT, None),
    "C202": (NEUTRAL, C202_POLICY),
    "C203": (NEUTRAL, None),
    "C204": (NEUTRAL, None),
    "A001": (NEUTRAL, None),
    "A002": (NEUTRAL, None),
    "X101": (NEUTRAL, X101_POLICY),
    "X201": (NEUTRAL, None),
    "X202": (NEUTRAL, None),
    "X301": (NEUTRAL, X301_POLICY),
}

#: Pass-side overrides: D102's passing case IS the allowlist membership.
PASS_CONTEXTS: dict[str, tuple[str, LintPolicy | None]] = {
    "D102": ("repro.pilfill.engine", None),
}

#: Extra fixture pairs beyond the one-per-rule core set: fixture stem ->
#: (rule id exercised, fail context, pass context). The ``D102_obs`` pair
#: pins the telemetry contract: tracing code (repro.obs.trace) may not
#: read the wall clock; only repro.obs.clock is allowlisted.
EXTRA_PAIRS: dict[
    str, tuple[str, tuple[str, LintPolicy | None], tuple[str, LintPolicy | None]]
] = {
    "D102_obs": (
        "D102",
        # repro.obs.report: inside the telemetry package, not allowlisted,
        # and (unlike repro.obs.trace) hosts no registered payload class.
        ("repro.obs.report", None),
        ("repro.obs.clock", None),
    ),
    "C202_arrays": (
        "C202",
        # A payload of numpy arrays passes under the default picklable
        # type names; declaring its columns as an unregistered type fails.
        (NEUTRAL, C202_ARRAYS_POLICY),
        (NEUTRAL, C202_ARRAYS_POLICY),
    ),
    "D102_cachekey": (
        "D102",
        # repro.pilfill.incremental: the cache modules carry the D102
        # gate with no allowlist entry — a cache key derived from the
        # wall clock (vs a pure content hash) makes hits irreproducible.
        # (Not linted as .store: that module must host the registered
        # CachedEntry payload, which the fixtures don't define.)
        ("repro.pilfill.incremental", None),
        ("repro.pilfill.incremental", None),
    ),
    # Import forms: D101/D102 resolve names through the module's import
    # bindings. A relative import binds no stdlib name (the pass sides),
    # and a dotted or aliased numpy.random import still reaches the
    # legacy global stream (the fail sides).
    "D101_relative": ("D101", (SNIPPET, None), (SNIPPET, None)),
    "D102_relative": ("D102", (SNIPPET, None), (SNIPPET, None)),
    "D101_dotted": ("D101", (SNIPPET, None), (SNIPPET, None)),
    "D101_fromalias": ("D101", (SNIPPET, None), (SNIPPET, None)),
}


def _lint_fixture(name: str, module: str, policy: LintPolicy | None) -> list[Finding]:
    path = FIXTURES / name
    return lint_source(
        path.read_text(encoding="utf-8"),
        path=str(path),
        module=module,
        policy=policy or DEFAULT_POLICY,
    )


@pytest.mark.parametrize("rule_id", sorted(CONTEXTS))
def test_fail_fixture_fires_exactly_its_rule(rule_id: str) -> None:
    module, policy = CONTEXTS[rule_id]
    findings = _lint_fixture(f"{rule_id}_fail.py", module, policy)
    assert findings, f"{rule_id}_fail.py produced no findings"
    assert {f.rule_id for f in findings} == {rule_id}, render_text(findings, 1)


@pytest.mark.parametrize("rule_id", sorted(CONTEXTS))
def test_pass_fixture_is_clean(rule_id: str) -> None:
    module, policy = PASS_CONTEXTS.get(rule_id, CONTEXTS[rule_id])
    findings = _lint_fixture(f"{rule_id}_pass.py", module, policy)
    assert findings == [], render_text(findings, 1)


@pytest.mark.parametrize("stem", sorted(EXTRA_PAIRS))
def test_extra_fail_fixture_fires_exactly_its_rule(stem: str) -> None:
    rule_id, (module, policy), _ = EXTRA_PAIRS[stem]
    findings = _lint_fixture(f"{stem}_fail.py", module, policy)
    assert findings, f"{stem}_fail.py produced no findings"
    assert {f.rule_id for f in findings} == {rule_id}, render_text(findings, 1)


@pytest.mark.parametrize("stem", sorted(EXTRA_PAIRS))
def test_extra_pass_fixture_is_clean(stem: str) -> None:
    _, _, (module, policy) = EXTRA_PAIRS[stem]
    findings = _lint_fixture(f"{stem}_pass.py", module, policy)
    assert findings == [], render_text(findings, 1)


def test_every_fixture_has_a_pair() -> None:
    names = {p.name for p in FIXTURES.glob("*.py")}
    stems = set(CONTEXTS) | set(EXTRA_PAIRS)
    for stem in stems:
        assert f"{stem}_fail.py" in names
        assert f"{stem}_pass.py" in names
    assert names == {f"{s}_{kind}.py" for s in stems for kind in ("fail", "pass")}


#: A value read by ``read()`` flows two calls into the X101 sink
#: ``digest_key``; ``{imports}``/``{expr}`` pick the source.
_SOURCE_TO_SINK = """{imports}import hashlib


def read() -> str:
    return {expr}


def digest_key(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cache_key() -> str:
    return digest_key(read())
"""

#: A module-level container a function writes through ``global``,
#: reached from a worker entry.
_WORKER_WRITE = """_CACHE: dict[str, int] = {}


def remember(key: str, value: int) -> None:
    global _CACHE
    _CACHE[key] = value


def worker_main(key: str, value: int) -> None:
    remember(key, value)
"""


def _to_sink(imports: str, expr: str) -> str:
    return _SOURCE_TO_SINK.format(imports=imports, expr=expr)


#: case -> (snippet, policy, the one rule that reports it). Clock,
#: global-RNG and set-order sources are the D-rules' alone; X101 reports
#: only the sources no per-file rule flags; X301 is the one worker-purity
#: rule.
ONE_RULE_CASES: dict[str, tuple[str, LintPolicy, str]] = {
    "clock": (_to_sink("import time\n", "str(time.time())"), X101_POLICY, "D102"),
    "global_rng": (_to_sink("import random\n", "str(random.random())"), X101_POLICY, "D101"),
    "set_order": (_to_sink("", '",".join(name for name in {"a", "b"})'), X101_POLICY, "D103"),
    "environ": (
        _to_sink("import os\n", 'os.environ.get("PILFILL_HOST", "local")'),
        X101_POLICY,
        "X101",
    ),
    "getenv": (
        _to_sink("import os\n", 'os.getenv("PILFILL_HOST", "local")'), X101_POLICY, "X101"
    ),
    "id": (_to_sink("", "str(id(object()))"), X101_POLICY, "X101"),
    "worker_module_state": (_WORKER_WRITE, X301_POLICY, "X301"),
}


@pytest.mark.parametrize("case", sorted(ONE_RULE_CASES))
def test_each_violation_is_reported_by_one_rule(case: str) -> None:
    snippet, policy, rule_id = ONE_RULE_CASES[case]
    findings = lint_source(snippet, path="fx.py", module=NEUTRAL, policy=policy)
    assert [f.rule_id for f in findings] == [rule_id], render_text(findings, 1)


#: Policy for the cross-module pair under ``analysis_fixtures/xmod/``:
#: the sink lives in one fixture module, the source in another.
XMOD_POLICY = LintPolicy(
    taint_sink_functions=("repro.experiments.fx_sink.digest_key",)
)


def _xmod_sources(kind: str) -> dict[str, str]:
    return {
        "repro.experiments.fx_src": (FIXTURES / "xmod" / f"src_{kind}.py").read_text(
            encoding="utf-8"
        ),
        "repro.experiments.fx_sink": (FIXTURES / "xmod" / f"sink_{kind}.py").read_text(
            encoding="utf-8"
        ),
    }


def test_cross_module_taint_fail_reports_full_chain() -> None:
    findings = lint_modules(_xmod_sources("fail"), policy=XMOD_POLICY)
    assert {f.rule_id for f in findings} == {"X101"}, render_text(findings, 2)
    (finding,) = findings
    # The chain spans both modules: source in fx_src, sink in fx_sink.
    notes = [step.note for step in finding.trace]
    assert notes[0].startswith("source:")
    assert notes[-1].startswith("sink:")
    paths = {step.path for step in finding.trace}
    assert "repro/experiments/fx_src.py" in paths
    assert "repro/experiments/fx_sink.py" in paths


def test_cross_module_taint_pass_is_clean() -> None:
    findings = lint_modules(_xmod_sources("pass"), policy=XMOD_POLICY)
    assert findings == [], render_text(findings, 2)


def test_suppression_requires_matching_rule_id() -> None:
    # An allow for a *different* rule does not swallow the finding.
    source = "import random\n\n\ndef d() -> float:\n    return random.random()  # pilfill: allow[D102] -- wrong rule\n"
    findings = lint_source(source, module=NEUTRAL)
    assert "D101" in {f.rule_id for f in findings}


def test_json_report_round_trips() -> None:
    module, policy = CONTEXTS["D101"]
    findings = _lint_fixture("D101_fail.py", module, policy)
    text = render_json(findings, files_checked=1)
    assert findings_from_json(text) == sorted(findings)


def test_syntax_error_reports_e000() -> None:
    findings = lint_source("def broken(:\n", path="bad.py")
    assert [f.rule_id for f in findings] == ["E000"]


def test_render_text_summary_line() -> None:
    module, policy = CONTEXTS["D101"]
    findings = _lint_fixture("D101_fail.py", module, policy)
    text = render_text(findings, files_checked=1)
    assert text.splitlines()[-1] == "1 finding in 1 file(s)"
