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

:func:`run_config` is the one runner: the tables
(:mod:`repro.experiments.tables`) and the ablation studies
(:mod:`repro.experiments.ablation`) are lists of its calls, and every
engine knob reaches it under its :class:`EngineConfig` field name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ReproError
from repro.layout.layout import RoutedLayout
from repro.pilfill.engine import EngineConfig, PILFillEngine
from repro.pilfill.evaluate import evaluate_impact
from repro.pilfill.prepare import PreparedInstance, prepare
from repro.synth.testcases import default_fill_rules, density_rules_for

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
    #: Features the density step asked for that no slack column could
    #: hold (``FillResult.shortfall``).
    shortfall: int = 0
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

    #: The row label: a testcase name in the tables, the varied value in
    #: an ablation study.
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
    *,
    layer: str = "metal3",
    methods: tuple[str, ...] = TABLE_METHODS,
    prepared: PreparedInstance | None = None,
    **engine: Any,
) -> ConfigResult:
    """Run every method on one configuration with a shared budget.

    Args:
        testcase: the row's label (see :attr:`ConfigResult.testcase`).
        methods: methods to run, in order; the first one's run fixes the
            budget every later method places.
        prepared: preprocessing to reuse; built once here when omitted.
        engine: :class:`EngineConfig` fields, passed through unchanged
            (``EngineConfig`` validates them). The harness supplies only
            ``density_rules`` from ``window_um``/``r`` and two defaults:
            ``backend="scipy"`` and ``fill_rules`` from
            :func:`default_fill_rules`. ``method`` comes from ``methods``.
            With ``telemetry=True`` each outcome carries its run report.
    """
    if "method" in engine:
        raise ReproError("run_config takes methods=(...), not an engine method")
    engine = {"backend": "scipy", "fill_rules": default_fill_rules(layout.stack), **engine}
    base = EngineConfig(density_rules=density_rules_for(window_um, r, layout.stack), **engine)
    if prepared is None:
        prepared = prepare(
            layout, layer, base.fill_rules, base.density_rules, base.column_def
        )

    result = ConfigResult(testcase=testcase, window_um=window_um, r=r, budget_total=0)
    budget = None
    for method in methods:
        cfg = replace(base, method=method)
        run = PILFillEngine(layout, layer, cfg, prepared=prepared).run(budget=budget)
        if budget is None:
            budget = run.requested_budget
            result.budget_total = sum(budget.values())
        impact = evaluate_impact(layout, layer, run.features, cfg.fill_rules)
        result.outcomes[method] = MethodOutcome(
            method=method,
            tau_ps=impact.total_ps,
            weighted_tau_ps=impact.weighted_total_ps,
            cpu_s=run.solve_seconds,
            features=run.total_features,
            model_objective_ps=run.model_objective_ps,
            shortfall=run.shortfall,
            degraded_tiles=len(run.degraded_tiles),
            failed_tiles=len(run.failed_tiles),
            retried_tiles=len(run.retried_tiles),
            report=run.to_report(cfg) if cfg.telemetry else None,
        )
    result.prepare_seconds = dict(prepared.phase_seconds)
    return result
