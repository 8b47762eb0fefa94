"""One-shot reproduction report.

Renders everything the repository measures — both tables, the ablation
studies, density statistics — into a single markdown document, so a full
reproduction run is one command::

    python -m repro report -o REPORT.md
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.dissection import DensityMap, FixedDissection, smoothness
from repro.experiments.ablation import run_study
from repro.experiments.tables import TableResult, TableSpec, default_layouts, run_table
from repro.layout.layout import RoutedLayout
from repro.synth import density_rules_for


@dataclass
class ReportSpec:
    """What to include in the report."""

    table_spec: TableSpec | None = None
    include_ablations: bool = True
    include_density: bool = True


def _table_markdown(table: TableResult) -> str:
    kind = "weighted" if table.weighted else "non-weighted"
    lines = [
        f"| T/W/r | Normal | ILP-I | ILP-II | Greedy | ILP-II reduction |",
        f"|---|---|---|---|---|---|",
    ]
    w = table.weighted
    for row in table.rows:
        lines.append(
            f"| {row.label} "
            f"| {row.tau('normal', w):.4f} "
            f"| {row.tau('ilp1', w):.4f} "
            f"| **{row.tau('ilp2', w):.4f}** "
            f"| {row.tau('greedy', w):.4f} "
            f"| {row.reduction_vs_normal('ilp2', w):.0%} |"
        )
    return "\n".join(lines)


def _density_markdown(layouts: dict[str, RoutedLayout]) -> str:
    lines = [
        "| testcase | layer | min | mean | max | variation | type-I | gradient |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, layout in layouts.items():
        dissection = FixedDissection(layout.die, density_rules_for(32, 2, layout.stack))
        density = DensityMap.from_layout(dissection, layout, "metal3")
        stats = density.stats()
        smooth = smoothness(density)
        lines.append(
            f"| {name} | metal3 | {stats.min_density:.4f} | {stats.mean_density:.4f} "
            f"| {stats.max_density:.4f} | {smooth.variation:.4f} "
            f"| {smooth.smoothness_type1:.4f} | {smooth.gradient:.4f} |"
        )
    return "\n".join(lines)


def generate_report(spec: ReportSpec | None = None) -> str:
    """Build the full markdown report (can take a few minutes)."""
    spec = spec or ReportSpec()
    layouts = default_layouts()
    started = time.strftime("%Y-%m-%d %H:%M:%S")
    parts = [
        "# PIL-Fill reproduction report",
        "",
        f"Generated {started}. Paper: Chen/Gupta/Kahng, DAC 2003. "
        "τ in picoseconds (synthetic testcases; see EXPERIMENTS.md for the "
        "comparability discussion).",
    ]

    if spec.include_density:
        parts += ["", "## Testcase density (pre-fill, W=32 µm, r=2)", "",
                  _density_markdown(layouts)]

    for weighted, title in ((False, "Table 1 — non-weighted τ"),
                            (True, "Table 2 — sink-weighted τ")):
        table = run_table(weighted=weighted, spec=spec.table_spec, layouts=layouts)
        parts += ["", f"## {title}", "", _table_markdown(table)]

    if spec.include_ablations:
        t1 = layouts["T1"]
        parts += [
            "", "## Ablation A — slack-column definitions", "",
            "```", run_study("columns", t1), "```",
            "", "## Ablation B — capacitance models", "",
            "```", run_study("capmodel"), "```",
            "", "## Ablation C — capacity margin", "",
            "```", run_study("margin", t1), "```",
        ]
    parts.append("")
    return "\n".join(parts)
