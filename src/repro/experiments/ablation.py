"""Ablation studies for the design choices DESIGN.md calls out.

Every engine study is a list of
:func:`~repro.experiments.harness.run_config` rows — each a label, a
layout and the :class:`~repro.pilfill.engine.EngineConfig` fields the row
varies — so it follows the tables' own protocol: the first method's run
fixes the row's budget, every method places it, and the common evaluator
scores each. A study returns one
:class:`~repro.experiments.harness.ConfigResult` per row (its
``testcase`` is the row label) and :func:`format_rows` renders any of
them. The ``capmodel`` study compares closed-form capacitance models and
makes no engine run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cap import exact_column_cap, grounded_column_table, linear_column_cap
from repro.errors import ReproError
from repro.experiments.harness import ConfigResult, run_config
from repro.layout.layout import RoutedLayout
from repro.pilfill import SlackColumnDef
from repro.pilfill.prepare import prepare
from repro.synth import (
    default_fill_rules,
    density_rules_for,
    generate_layout,
    t1_spec,
)
from repro.tech.rules import FillRules

#: The methods the margin, fill-size and seed studies compare.
NORMAL_VS_ILP2 = ("normal", "ilp2")


def format_rows(title: str, label: str, rows: list[ConfigResult]) -> str:
    """One study table: per row its budget, the first method's features
    and shortfall, each method's weighted τ, and ILP-II's τ reduction
    against Normal when both ran."""
    methods = list(rows[0].outcomes) if rows else []
    compare = {"normal", "ilp2"} <= set(methods)
    header = (
        f"{label:>7}{'budget':>8}{'features':>10}{'shortfall':>11}"
        + "".join(f"{method:>10}" for method in methods)
        + (f"{'reduction':>10}" if compare else "")
    )
    lines = [f"{title} — weighted tau in ps:", header]
    for row in rows:
        first = row.outcomes[methods[0]]
        line = (
            f"{row.testcase:>7}{row.budget_total:>8d}{first.features:>10d}"
            f"{first.shortfall:>11d}"
            + "".join(f"{row.tau(method, True):>10.4f}" for method in methods)
        )
        if compare:
            line += f"{row.reduction_vs_normal('ilp2', True):>10.0%}"
        lines.append(line)
    return "\n".join(lines)


# -- A: slack-column definitions ------------------------------------------------


def ablation_column_definitions(
    layout: RoutedLayout,
    definitions: tuple[SlackColumnDef, ...] = tuple(SlackColumnDef),
    layer: str = "metal3",
    window_um: int = 32,
    r: int = 2,
    method: str = "greedy",
) -> list[ConfigResult]:
    """Capacity and delay impact under definitions I/II/III (paper §5.1),
    each placing the budget its own density step fixes."""
    return [
        run_config(layout, d.value, window_um, r, layer=layer, methods=(method,), column_def=d)
        for d in definitions
    ]


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


def ablation_capacity_margin(
    layout: RoutedLayout,
    margins: tuple[float, ...] = (1.0, 0.85, 0.7, 0.5),
    layer: str = "metal3",
    window_um: int = 32,
    r: int = 4,
) -> list[ConfigResult]:
    """How the budget-headroom knob trades fill amount for method
    distinguishability (see DESIGN.md substitutions). The margin moves
    only the budget, so every row reuses one preparation."""
    prepared = prepare(
        layout, layer, default_fill_rules(layout.stack),
        density_rules_for(window_um, r, layout.stack), SlackColumnDef.FULL_LAYOUT,
    )
    return [
        run_config(
            layout, f"{m:.2f}", window_um, r, layer=layer, methods=NORMAL_VS_ILP2,
            prepared=prepared, capacity_margin=m,
        )
        for m in margins
    ]


# -- D: fill feature size (Grobman et al., ref [8]) ----------------------------


def ablation_fill_size(
    layout: RoutedLayout,
    sizes_um: tuple[float, ...] = (0.4, 0.5, 0.8, 1.0),
    layer: str = "metal3",
    window_um: int = 32,
    r: int = 2,
) -> list[ConfigResult]:
    """Ref [8]'s observation: at the same *fill density*, smaller features
    limit the capacitance increase. Sweep the feature size with gap and
    buffer scaled proportionally (constant pattern density) and compare
    delay impact at matched fill area."""
    dbu = layout.stack.dbu_per_micron
    return [
        run_config(
            layout, f"{size:.2f}", window_um, r, layer=layer, methods=NORMAL_VS_ILP2,
            fill_rules=FillRules(
                fill_size=round(size * dbu),
                fill_gap=round(size * dbu / 2),
                buffer_distance=round(size * dbu / 2),
            ),
        )
        for size in sizes_um
    ]


# -- E: seed sensitivity -----------------------------------------------------------


def ablation_seed_sensitivity(
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
    window_um: int = 32,
    r: int = 2,
) -> list[ConfigResult]:
    """The headline reduction across independently generated T1-class
    layouts — is the result an artifact of one seed?"""
    return [
        run_config(
            generate_layout(t1_spec(seed=seed)), str(seed), window_um, r,
            methods=NORMAL_VS_ILP2,
        )
        for seed in seeds
    ]


#: Registry used by the CLI.
STUDIES = {
    "columns": "slack-column definitions I/II/III",
    "capmodel": "linear vs exact vs grounded capacitance",
    "margin": "capacity-margin sweep",
    "fillsize": "fill feature size at constant pattern density (ref [8])",
    "seeds": "seed sensitivity of the headline reduction",
}


def run_study(name: str, layout: RoutedLayout | None = None) -> str:
    """Run one named study and return its formatted report; the layout
    studies default to the T1 preset."""
    if name not in STUDIES:
        raise ReproError(
            f"unknown ablation study {name!r}; expected one of {sorted(STUDIES)}"
        )
    if name == "capmodel":
        return format_cap_models(ablation_cap_models())
    if name == "seeds":
        return format_rows(
            "Seed sensitivity (T1-class layouts, W=32 r=2, ILP-II vs Normal)",
            "seed", ablation_seed_sensitivity(),
        )
    if layout is None:
        layout = generate_layout(t1_spec())
    if name == "columns":
        return format_rows(
            "Slack-column definitions (paper §5.1), greedy",
            "def", ablation_column_definitions(layout),
        )
    if name == "margin":
        return format_rows(
            "Capacity-margin sweep (Normal vs ILP-II)",
            "margin", ablation_capacity_margin(layout),
        )
    return format_rows(
        "Fill feature size (ref [8]; same pattern density per size, um)",
        "size", ablation_fill_size(layout),
    )
