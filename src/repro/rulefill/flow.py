"""End-to-end rule-based fill flow (the ref [11] baseline).

Select a rule (:func:`repro.rulefill.rules.select_rule`), then apply it
position-blind: per tile, place the prescribed feature count row-major
into the rule's legal sites. Comparable to the PIL-Fill engine output via
the same evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dissection.density import DensityMap
from repro.dissection.fixed import FixedDissection
from repro.fillsynth.budget import lp_minvar_budget
from repro.fillsynth.placer import place_normal
from repro.fillsynth.slack_sites import SiteLegality
from repro.layout.layout import FillFeature, RoutedLayout
from repro.rulefill.rules import RuleScore, select_rule
from repro.tech.rules import DensityRules


@dataclass
class RuleFillResult:
    """Outcome of a rule-based fill run."""

    selected: RuleScore
    features: list[FillFeature] = field(default_factory=list)
    budget: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def total_features(self) -> int:
        return len(self.features)


def representative_line_spacing_um(layout: RoutedLayout, layer: str) -> float:
    """Median gap between cross-axis-adjacent parallel lines — the
    canonical structure spacing the rule is scored on."""
    from repro.pilfill.scanline import layer_sweep_lines, sweep_gap_blocks

    lines, horizontal = layer_sweep_lines(layout, layer)
    blocks = sweep_gap_blocks(lines, layout.die, horizontal)
    gaps = sorted(
        b.gap for b in blocks if b.below is not None and b.above is not None and b.gap > 0
    )
    if not gaps:
        return 4.0  # no parallel pairs: any default works, nothing couples
    return gaps[len(gaps) // 2] / layout.stack.dbu_per_micron


def run_rule_fill(
    layout: RoutedLayout,
    layer: str,
    density_rules: DensityRules,
    density_goal: float = 0.25,
    target_density: float | None = None,
    seed: int = 0,
    placement: str = "row_major",
) -> RuleFillResult:
    """Run the full rule-based baseline on one layer.

    Args:
        density_goal: minimum pattern density the selected rule must be
            able to realize (the ref [11] coupling of rule choice with
            density goals).
        target_density: density floor for the budget LP (defaults to the
            pre-fill mean window density, as in the PIL engine).
        placement: ``"row_major"`` (deterministic, the classic array fill)
            or ``"random"``.
    """
    proc = layout.stack.layer(layer)
    spacing = representative_line_spacing_um(layout, layer)
    selected = select_rule(
        eps_r=proc.eps_r,
        thickness_um=proc.thickness_um,
        line_spacing_um=spacing,
        dbu_per_micron=layout.stack.dbu_per_micron,
        density_goal=density_goal,
    )
    rules = selected.rule.as_fill_rules()

    dissection = FixedDissection(layout.die, density_rules)
    legality = SiteLegality(layout, layer, rules)
    density = DensityMap.from_layout(dissection, layout, layer)
    capacity = legality.legal_count_by_tile(dissection)
    budget = lp_minvar_budget(
        density, capacity, rules,
        target_density="mean" if target_density is None else target_density,
    )

    scratch = list(layout.fills)  # place_normal appends to layout.fills
    features = place_normal(
        layout, layer, dissection, legality, budget, seed=seed, order=placement
    )
    layout.fills[:] = scratch  # leave the input layout unmodified
    return RuleFillResult(selected=selected, features=features, budget=budget)
