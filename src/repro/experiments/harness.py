"""Experiment harness: one ``T/W/r`` configuration, all methods.

Mirrors the paper's Section 6 protocol: the density-control step fixes a
per-tile fill budget once per configuration, then every method places the
same budget (identical density-control quality) and is scored by the
common evaluator. CPU time per method covers its per-tile optimization
phase, which is what distinguishes the methods.

The setup/scan-line/cost-table preprocessing is method-independent, so
the harness builds one :class:`~repro.pilfill.prepare.PreparedInstance`
per configuration and hands it to every method's engine — the dissection,
legality map, density map, slack columns, cost tables, and budget are
each computed exactly once per configuration instead of once per method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.layout.layout import RoutedLayout
from repro.pilfill.columns import SlackColumnDef
from repro.pilfill.engine import EngineConfig, PILFillEngine
from repro.pilfill.evaluate import evaluate_impact
from repro.pilfill.incremental import SolutionCache
from repro.pilfill.prepare import PreparedInstance, prepare
from repro.synth.testcases import default_fill_rules, density_rules_for
from repro.tech.rules import FillRules

#: Method order of the paper's tables.
TABLE_METHODS = ("normal", "ilp1", "ilp2", "greedy")


@dataclass
class MethodOutcome:
    """Result of one method on one configuration.

    ``degraded_tiles`` / ``failed_tiles`` / ``retried_tiles`` summarize
    the robust solve layer's per-tile reports: tiles solved by a cheaper
    fallback method, tiles left empty after every attempt failed, and
    tiles that needed a dispatcher retry. All zero on a clean run — any
    nonzero count means the τ/CPU cell mixes methods and should be
    annotated (the table renderer marks it with ``*``).
    """

    method: str
    tau_ps: float
    weighted_tau_ps: float
    cpu_s: float
    features: int
    model_objective_ps: float
    degraded_tiles: int = 0
    failed_tiles: int = 0
    retried_tiles: int = 0
    #: Full ``pilfill-run-report/v1`` dict when the run had telemetry on
    #: (spans, metrics, per-tile solve reports); ``None`` otherwise.
    report: dict | None = None

    @property
    def clean(self) -> bool:
        return self.degraded_tiles == 0 and self.failed_tiles == 0


@dataclass
class ConfigResult:
    """All methods on one ``T/W/r`` configuration."""

    testcase: str
    window_um: int
    r: int
    budget_total: int
    outcomes: dict[str, MethodOutcome] = field(default_factory=dict)
    #: Shared preprocessing phase timings (setup/scanline/density/costs/
    #: budget), paid once for the whole configuration.
    prepare_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.testcase}/{self.window_um}/{self.r}"

    def tau(self, method: str, weighted: bool) -> float:
        out = self.outcomes[method]
        return out.weighted_tau_ps if weighted else out.tau_ps

    def reduction_vs_normal(self, method: str, weighted: bool) -> float:
        """Fractional τ reduction of ``method`` relative to Normal."""
        base = self.tau("normal", weighted)
        if base <= 0:
            return 0.0
        return 1.0 - self.tau(method, weighted) / base


def run_config(
    layout: RoutedLayout,
    testcase: str,
    window_um: int,
    r: int,
    layer: str = "metal3",
    methods: tuple[str, ...] = TABLE_METHODS,
    weighted: bool = True,
    fill_rules: FillRules | None = None,
    column_def: SlackColumnDef = SlackColumnDef.FULL_LAYOUT,
    backend: str = "scipy",
    seed: int = 0,
    workers: int = 1,
    prepared: PreparedInstance | None = None,
    tile_deadline_s: float | None = None,
    run_deadline_s: float | None = None,
    fallback: bool = True,
    fault_spec=None,
    telemetry: bool = False,
    cache_dir: str | None = None,
    solution_cache: SolutionCache | None = None,
    shards: int = 1,
) -> ConfigResult:
    """Run every method on one configuration with a shared budget.

    Args:
        workers: per-tile solver parallelism, forwarded to every method's
            engine (see :class:`EngineConfig`).
        prepared: preprocessing to reuse; built once here when omitted.
        tile_deadline_s: per-tile solve deadline (see :class:`EngineConfig`).
        run_deadline_s: whole-solve-phase deadline, applied per method run.
        fallback: robust solving with method degradation (default) vs
            strict first-failure-propagates mode.
        fault_spec: deterministic fault injection for tests.
        telemetry: record tracing spans + metrics per method run and
            attach each run's JSON report to its :class:`MethodOutcome`.
        cache_dir: directory for a disk-backed tile-solution cache (see
            :mod:`repro.pilfill.incremental`); a warm re-run of an
            unchanged configuration then merges cached tiles instead of
            re-solving. ``None`` (default) → no caching.
        solution_cache: a prebuilt cache to use instead of constructing
            one from ``cache_dir`` (the two are mutually exclusive);
            lets callers share one in-memory cache across configs.
        shards: row-band shards for the solve phase (see
            :mod:`repro.pilfill.shard`); results are bit-identical for
            any value, sharding only bounds peak memory.
    """
    if solution_cache is None and cache_dir is not None:
        solution_cache = SolutionCache(cache_dir=cache_dir)
    if fill_rules is None:
        fill_rules = default_fill_rules(layout.stack)
    density_rules = density_rules_for(window_um, r, layout.stack)
    if prepared is None:
        prepared = prepare(layout, layer, fill_rules, density_rules, column_def)

    result = ConfigResult(testcase=testcase, window_um=window_um, r=r, budget_total=0)
    budget = None
    for method in methods:
        cfg = EngineConfig(
            fill_rules=fill_rules,
            density_rules=density_rules,
            method=method,
            weighted=weighted,
            column_def=column_def,
            backend=backend,
            seed=seed,
            workers=workers,
            tile_deadline_s=tile_deadline_s,
            run_deadline_s=run_deadline_s,
            fallback=fallback,
            fault_spec=fault_spec,
            telemetry=telemetry,
            solution_cache=solution_cache,
            shards=shards,
        )
        engine = PILFillEngine(layout, layer, cfg, prepared=prepared)
        run = engine.run(budget=budget)
        if budget is None:
            budget = run.requested_budget
            result.budget_total = sum(budget.values())
        impact = evaluate_impact(layout, layer, run.features, fill_rules)
        result.outcomes[method] = MethodOutcome(
            method=method,
            tau_ps=impact.total_ps,
            weighted_tau_ps=impact.weighted_total_ps,
            cpu_s=run.solve_seconds,
            features=run.total_features,
            model_objective_ps=run.model_objective_ps,
            degraded_tiles=len(run.degraded_tiles),
            failed_tiles=len(run.failed_tiles),
            retried_tiles=len(run.retried_tiles),
            report=run.to_report(cfg) if telemetry else None,
        )
    result.prepare_seconds = dict(prepared.phase_seconds)
    return result
