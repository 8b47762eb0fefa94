"""D-family rules: the bit-identity contract, checked statically.

Every rule here protects the PR-1/2 determinism contract — identical
results for any worker count, backend, or tile completion order:

* D101 — no global/unseeded RNG: per-tile seeded ``random.Random`` /
  ``np.random.default_rng(seed)`` streams only.
* D102 — no wall-clock reads outside the deadline/timing allowlist.
* D103 — no iteration over set expressions (order is hash-dependent)
  unless wrapped in ``sorted(...)``.
* D104 — no float ``==`` / ``!=`` in the numeric packages.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.registry import FileContext, Rule, register

#: Legacy module-level numpy RNG functions (``np.random.<fn>``).
_NP_GLOBAL_RNG_FNS = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "poisson",
        "exponential",
        "beta",
        "gamma",
        "get_state",
        "set_state",
    }
)

#: ``random`` module attributes that are legitimate to reference (seeded
#: RNG classes, not the hidden module-global stream).
_RANDOM_MODULE_OK = frozenset({"Random", "SystemRandom"})

#: Wall-clock reads: attribute name per module family.
_TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
    }
)
_TIME_READS = frozenset(f"time.{fn}" for fn in _TIME_FNS)
_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


def _rng_message(node: ast.Call, dotted: str) -> str | None:
    """D101's message for a call of ``dotted`` (resolved through the
    module's imports), or None when the call is a seeded RNG use."""
    module, _, fn = dotted.rpartition(".")
    bare = node.func.id if isinstance(node.func, ast.Name) else None
    seedless = not (node.args or node.keywords)
    if module == "random":
        if fn == "Random":
            return "random.Random() without an explicit seed" if seedless else None
        if fn in _RANDOM_MODULE_OK:
            return None
        if bare:
            return f"call of global RNG function {bare!r}"
        return f"call of module-global RNG 'random.{fn}'"
    if module == "numpy.random":
        if fn in _NP_GLOBAL_RNG_FNS:
            if bare:
                return f"call of global RNG function {bare!r}"
            return f"call of legacy global numpy RNG 'np.random.{fn}'"
        if fn == "default_rng" and seedless:
            prefix = "" if bare else "np.random."
            return f"{prefix}default_rng() without an explicit seed"
    return None


@register
class GlobalRngRule(Rule):
    """D101: RNG use must go through an explicitly seeded generator."""

    rule_id = "D101"
    summary = (
        "global or unseeded RNG (random.<fn>, np.random.<fn>, seedless "
        "Random()/default_rng()) — derive a seeded per-tile generator instead"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.imported_name(node.func)
            message = _rng_message(node, dotted) if dotted else None
            if message:
                findings.append(self.finding(ctx, node, message))
        return findings


@register
class WallClockRule(Rule):
    """D102: wall-clock reads only in the deadline/timing allowlist."""

    rule_id = "D102"
    summary = (
        "wall-clock read (time.time/perf_counter/monotonic, datetime.now) "
        "outside the timing allowlist — results must not depend on when they run"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.policy.wall_clock_allowed(ctx.module):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if ctx.imported_name(node) in _TIME_READS:
                    findings.append(
                        self.finding(ctx, node, f"wall-clock read {node.id!r}")
                    )
            elif isinstance(node, ast.Attribute):
                dotted = ctx.imported_name(node) or ""
                if dotted in _TIME_READS:
                    message = f"wall-clock read 'time.{node.attr}'"
                elif dotted.startswith("datetime.") and node.attr in _DATETIME_FNS:
                    message = f"wall-clock read 'datetime...{node.attr}'"
                else:
                    continue
                findings.append(self.finding(ctx, node, message))
        return findings


def _is_keys_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
        and not node.keywords
    )


def _is_set_expr(node: ast.expr) -> bool:
    """Expressions that definitely evaluate to a hash-ordered set (or a
    set-algebra combination of dict key views)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _is_set_expr(node.func.value) or _is_keys_call(node.func.value)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        for side in (node.left, node.right):
            if _is_set_expr(side) or _is_keys_call(side):
                return True
    return False


@register
class UnorderedIterationRule(Rule):
    """D103: never iterate a set expression directly — sort it first."""

    rule_id = "D103"
    summary = (
        "iteration over a set expression (set(...), key-view algebra) — "
        "hash order leaks into results; wrap in sorted(...)"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it):
                    findings.append(
                        self.finding(
                            ctx,
                            it,
                            "iteration over a set expression; wrap in sorted(...) "
                            "so numeric accumulation / output order is stable",
                        )
                    )
        return findings


def _is_floatish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    return False


@register
class FloatEqualityRule(Rule):
    """D104: no float ``==`` / ``!=`` in the numeric packages."""

    rule_id = "D104"
    summary = (
        "float == / != in a numeric package — use a tolerance (math.isclose) "
        "or justify an exact-representation test"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        if not ctx.policy.in_float_eq_scope(ctx.module):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            if any(_is_floatish(cmp) for cmp in [node.left, *node.comparators]):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "exact float comparison; use a tolerance or justify "
                        "an exact-representation test",
                    )
                )
        return findings
