"""Programmatic ablation studies for the design choices DESIGN.md calls
out. Each study returns plain dataclass rows plus a ``format_*`` helper so
the CLI, the benchmarks, and notebooks share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cap import exact_column_cap, grounded_column_table, linear_column_cap
from repro.errors import ReproError
from repro.layout.layout import RoutedLayout
from repro.pilfill import (
    EngineConfig,
    FillResult,
    PILFillEngine,
    SlackColumnDef,
    evaluate_impact,
)
from repro.synth import (
    default_fill_rules,
    density_rules_for,
    generate_layout,
    t1_spec,
)
from repro.tech.rules import FillRules


def _normal_vs_ilp2(
    layout: RoutedLayout,
    layer: str,
    rules: FillRules,
    window_um: int,
    r: int,
    **knobs: Any,
) -> tuple[int, int, float, float]:
    """Normal, then ILP-II on Normal's budget (``knobs`` are extra
    :class:`EngineConfig` fields), each scored by :func:`evaluate_impact`:
    ``(Normal's budget total, Normal's features, Normal's weighted τ,
    ILP-II's weighted τ)``."""

    def run(method: str, budget: dict[tuple[int, int], int] | None) -> tuple[FillResult, float]:
        config = EngineConfig(
            fill_rules=rules,
            density_rules=density_rules_for(window_um, r, layout.stack),
            method=method,
            backend="scipy",
            **knobs,
        )
        result = PILFillEngine(layout, layer, config).run(budget=budget)
        impact = evaluate_impact(layout, layer, result.features, rules)
        return result, impact.weighted_total_ps

    normal, normal_tau = run("normal", None)
    _, ilp2_tau = run("ilp2", normal.requested_budget)
    return sum(normal.requested_budget.values()), normal.total_features, normal_tau, ilp2_tau


# -- A: slack-column definitions ------------------------------------------------


@dataclass(frozen=True)
class ColumnDefRow:
    definition: str
    features: int
    shortfall: int
    weighted_tau_ps: float


def ablation_column_definitions(
    layout: RoutedLayout,
    layer: str = "metal3",
    window_um: int = 32,
    r: int = 2,
    method: str = "greedy",
) -> list[ColumnDefRow]:
    """Capacity and delay impact under definitions I/II/III (paper §5.1)."""
    rules = default_fill_rules(layout.stack)
    rows = []
    for definition in SlackColumnDef:
        config = EngineConfig(
            fill_rules=rules,
            density_rules=density_rules_for(window_um, r, layout.stack),
            method=method,
            column_def=definition,
            backend="scipy",
        )
        result = PILFillEngine(layout, layer, config).run()
        impact = evaluate_impact(layout, layer, result.features, rules)
        rows.append(
            ColumnDefRow(
                definition=definition.value,
                features=result.total_features,
                shortfall=result.shortfall,
                weighted_tau_ps=impact.weighted_total_ps,
            )
        )
    return rows


def format_column_definitions(rows: list[ColumnDefRow]) -> str:
    lines = [
        "Slack-column definitions (paper §5.1):",
        f"{'def':>5}{'features':>10}{'shortfall':>11}{'wtau (ps)':>12}",
    ]
    for row in rows:
        lines.append(
            f"{row.definition:>5}{row.features:>10d}{row.shortfall:>11d}"
            f"{row.weighted_tau_ps:>12.4f}"
        )
    return "\n".join(lines)


# -- B: capacitance models (linear vs exact vs grounded) -----------------------


@dataclass(frozen=True)
class CapModelRow:
    gap_um: float
    m: int
    linear_ff: float
    exact_ff: float
    grounded_ff: float

    @property
    def exact_over_linear(self) -> float:
        return self.exact_ff / self.linear_ff if self.linear_ff > 0 else float("inf")

    @property
    def grounded_over_exact(self) -> float:
        return self.grounded_ff / self.exact_ff if self.exact_ff > 0 else float("inf")


def ablation_cap_models(
    rules: FillRules | None = None,
    eps_r: float = 3.9,
    thickness_um: float = 0.5,
    gaps_um: tuple[float, ...] = (1.5, 2.0, 4.0, 8.0, 16.0),
    dbu_per_micron: int = 1000,
) -> list[CapModelRow]:
    """Linear (Eq. 6) vs exact (Eq. 5) vs grounded column capacitance at
    full column fill, per gap size."""
    if rules is None:
        rules = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
    w = rules.fill_size / dbu_per_micron
    g = rules.fill_gap / dbu_per_micron
    rows = []
    for gap in gaps_um:
        # Grounded stacks need symmetric clearance; pick the largest count
        # valid for both models.
        m = 0
        while (
            (m + 1) * w < gap
            and (m + 1) * w + m * g < gap - 1e-12
        ):
            m += 1
        if m == 0:
            continue
        grounded = grounded_column_table(eps_r, thickness_um, gap, m, w, g)[m]
        rows.append(
            CapModelRow(
                gap_um=gap,
                m=m,
                linear_ff=linear_column_cap(eps_r, thickness_um, gap, m, w),
                exact_ff=exact_column_cap(eps_r, thickness_um, gap, m, w),
                grounded_ff=grounded,
            )
        )
    return rows


def format_cap_models(rows: list[CapModelRow]) -> str:
    lines = [
        "Capacitance models at full column fill:",
        f"{'gap (um)':>9}{'m':>4}{'linear fF':>11}{'exact fF':>10}"
        f"{'grounded fF':>12}{'exact/lin':>10}{'gnd/exact':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row.gap_um:>9.1f}{row.m:>4d}{row.linear_ff:>11.5f}"
            f"{row.exact_ff:>10.5f}{row.grounded_ff:>12.5f}"
            f"{row.exact_over_linear:>10.2f}{row.grounded_over_exact:>10.2f}"
        )
    return "\n".join(lines)


# -- C: capacity margin sweep ----------------------------------------------------


@dataclass(frozen=True)
class MarginRow:
    margin: float
    budget_total: int
    normal_wtau_ps: float
    ilp2_wtau_ps: float

    @property
    def reduction(self) -> float:
        if self.normal_wtau_ps <= 0:
            return 0.0
        return 1.0 - self.ilp2_wtau_ps / self.normal_wtau_ps


def ablation_capacity_margin(
    layout: RoutedLayout,
    margins: tuple[float, ...] = (1.0, 0.85, 0.7, 0.5),
    layer: str = "metal3",
    window_um: int = 32,
    r: int = 4,
) -> list[MarginRow]:
    """How the budget-headroom knob trades fill amount for method
    distinguishability (see DESIGN.md substitutions)."""
    rules = default_fill_rules(layout.stack)
    rows = []
    for margin in margins:
        budget_total, _, normal_tau, ilp2_tau = _normal_vs_ilp2(
            layout, layer, rules, window_um, r, capacity_margin=margin
        )
        rows.append(MarginRow(margin, budget_total, normal_tau, ilp2_tau))
    return rows


def format_capacity_margin(rows: list[MarginRow]) -> str:
    lines = [
        "Capacity-margin sweep (Normal vs ILP-II, weighted):",
        f"{'margin':>7}{'budget':>8}{'normal':>10}{'ilp2':>10}{'reduction':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row.margin:>7.2f}{row.budget_total:>8d}{row.normal_wtau_ps:>10.4f}"
            f"{row.ilp2_wtau_ps:>10.4f}{row.reduction:>10.0%}"
        )
    return "\n".join(lines)


# -- D: fill feature size (Grobman et al., ref [8]) ----------------------------


@dataclass(frozen=True)
class FillSizeRow:
    fill_size_um: float
    features: int
    fill_area_um2: float
    normal_wtau_ps: float
    ilp2_wtau_ps: float


def ablation_fill_size(
    layout: RoutedLayout,
    sizes_um: tuple[float, ...] = (0.4, 0.5, 0.8, 1.0),
    layer: str = "metal3",
    window_um: int = 32,
    r: int = 2,
) -> list[FillSizeRow]:
    """Ref [8]'s observation: at the same *fill density*, smaller features
    limit the capacitance increase. Sweep the feature size with gap and
    buffer scaled proportionally (constant pattern density) and compare
    delay impact at matched fill area."""
    dbu = layout.stack.dbu_per_micron
    rows = []
    for size in sizes_um:
        rules = FillRules(
            fill_size=round(size * dbu),
            fill_gap=round(size * dbu / 2),
            buffer_distance=round(size * dbu / 2),
        )
        _, features, normal_tau, ilp2_tau = _normal_vs_ilp2(
            layout, layer, rules, window_um, r
        )
        rows.append(
            FillSizeRow(size, features, features * size * size, normal_tau, ilp2_tau)
        )
    return rows


def format_fill_size(rows: list[FillSizeRow]) -> str:
    lines = [
        "Fill feature size (ref [8]; same pattern density per size):",
        f"{'size (um)':>10}{'features':>10}{'area um^2':>11}"
        f"{'normal':>10}{'ilp2':>10}{'n/area':>10}",
    ]
    for row in rows:
        per_area = row.normal_wtau_ps / row.fill_area_um2 if row.fill_area_um2 else 0.0
        lines.append(
            f"{row.fill_size_um:>10.2f}{row.features:>10d}{row.fill_area_um2:>11.0f}"
            f"{row.normal_wtau_ps:>10.4f}{row.ilp2_wtau_ps:>10.4f}{per_area:>10.6f}"
        )
    return "\n".join(lines)


# -- E: seed sensitivity -----------------------------------------------------------


@dataclass(frozen=True)
class SeedRow:
    seed: int
    normal_wtau_ps: float
    ilp2_wtau_ps: float

    @property
    def reduction(self) -> float:
        if self.normal_wtau_ps <= 0:
            return 0.0
        return 1.0 - self.ilp2_wtau_ps / self.normal_wtau_ps


def ablation_seed_sensitivity(
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
    window_um: int = 32,
    r: int = 2,
) -> list[SeedRow]:
    """The headline reduction across independently generated T1-class
    layouts — is the result an artifact of one seed?"""
    rows = []
    for seed in seeds:
        layout = generate_layout(t1_spec(seed=seed))
        rules = default_fill_rules(layout.stack)
        _, _, normal_tau, ilp2_tau = _normal_vs_ilp2(layout, "metal3", rules, window_um, r)
        rows.append(SeedRow(seed, normal_tau, ilp2_tau))
    return rows


def format_seed_sensitivity(rows: list[SeedRow]) -> str:
    reductions = [row.reduction for row in rows]
    mean = sum(reductions) / len(reductions)
    spread = max(reductions) - min(reductions)
    lines = [
        "Seed sensitivity (T1-class layouts, W=32 r=2, ILP-II vs Normal):",
        f"{'seed':>5}{'normal':>10}{'ilp2':>10}{'reduction':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row.seed:>5d}{row.normal_wtau_ps:>10.4f}{row.ilp2_wtau_ps:>10.4f}"
            f"{row.reduction:>10.0%}"
        )
    lines.append(f"mean reduction {mean:.0%}, spread {spread:.0%}")
    return "\n".join(lines)


#: Registry used by the CLI.
STUDIES = {
    "columns": "slack-column definitions I/II/III",
    "capmodel": "linear vs exact vs grounded capacitance",
    "margin": "capacity-margin sweep",
    "fillsize": "fill feature size at constant pattern density (ref [8])",
    "seeds": "seed sensitivity of the headline reduction",
}


def run_study(name: str, layout: RoutedLayout | None = None) -> str:
    """Run one named study and return its formatted report."""
    if name == "columns":
        if layout is None:
            layout = generate_layout(t1_spec())
        return format_column_definitions(ablation_column_definitions(layout))
    if name == "capmodel":
        return format_cap_models(ablation_cap_models())
    if name == "margin":
        if layout is None:
            layout = generate_layout(t1_spec())
        return format_capacity_margin(ablation_capacity_margin(layout))
    if name == "fillsize":
        if layout is None:
            layout = generate_layout(t1_spec())
        return format_fill_size(ablation_fill_size(layout))
    if name == "seeds":
        return format_seed_sensitivity(ablation_seed_sensitivity())
    raise ReproError(f"unknown ablation study {name!r}; expected one of {sorted(STUDIES)}")
