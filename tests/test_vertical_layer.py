"""The full flow on a vertical routing layer (metal4) — exercises the
transposed scan-line, site gridding and evaluation paths end-to-end."""

import pytest

from repro.dissection import FixedDissection
from repro.fillsynth import SiteLegality
from repro.geometry import Point, Rect
from repro.layout import Net, Pin, RoutedLayout, WireSegment, validate_fill
from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    SlackColumnDef,
    evaluate_impact,
    extract_columns,
)
from repro.tech import DensityRules
from tests.column_objects import table_columns


def build_two_vertical_lines(stack, gap_dbu: int = 4000, die_side: int = 40000):
    """Two long parallel *vertical* lines on metal4."""
    layout = RoutedLayout("two-vert", Rect(0, 0, die_side, die_side), stack)
    width = 400
    x0 = die_side // 2 - gap_dbu // 2 - width // 2
    x1 = die_side // 2 + gap_dbu // 2 + width // 2
    for i, x in enumerate((x0, x1)):
        net = Net(f"v{i}")
        net.add_pin(Pin("drv", Point(x, 2000), "metal4", is_driver=True, driver_res_ohm=100.0))
        net.add_pin(Pin("s0", Point(x, die_side - 2000), "metal4", load_cap_ff=5.0))
        net.add_segment(
            WireSegment(f"v{i}", 0, "metal4", Point(x, 2000), Point(x, die_side - 2000), width)
        )
        layout.add_net(net)
    return layout


@pytest.fixture
def vertical_layout(stack):
    return build_two_vertical_lines(stack)


class TestVerticalColumns:
    def test_columns_between_vertical_lines(self, vertical_layout, fill_rules):
        dissection = FixedDissection(vertical_layout.die, DensityRules(20000, 2))
        legality = SiteLegality(vertical_layout, "metal4", fill_rules)
        columns = table_columns(extract_columns(
            vertical_layout, "metal4", dissection, legality, fill_rules,
            SlackColumnDef.FULL_LAYOUT,
        ))
        mid = [c for cols in columns.values() for c in cols if c.has_impact]
        assert mid, "expected columns between the vertical lines"
        for col in mid:
            assert col.gap_um == pytest.approx(4.0)
            # Sites in one "column" stack horizontally (same y band).
            ys = {rect.ylo for rect in col.sites}
            xs = {rect.xlo for rect in col.sites}
            assert len(xs) >= 1
            assert len(ys) == 1 or len(xs) > 1  # cross axis is x

    def test_resistance_grows_along_y(self, vertical_layout, fill_rules):
        dissection = FixedDissection(vertical_layout.die, DensityRules(20000, 2))
        legality = SiteLegality(vertical_layout, "metal4", fill_rules)
        columns = table_columns(extract_columns(
            vertical_layout, "metal4", dissection, legality, fill_rules,
            SlackColumnDef.FULL_LAYOUT,
        ))
        mid = sorted(
            (c for cols in columns.values() for c in cols if c.has_impact),
            key=lambda c: c.col,
        )
        weights = [c.resistance_weight(False) for c in mid]
        assert weights == sorted(weights)  # drivers at the bottom


class TestVerticalFlow:
    def test_engine_runs_and_fill_is_clean(self, vertical_layout, fill_rules):
        cfg = EngineConfig(
            fill_rules=fill_rules,
            density_rules=DensityRules(window_size=20000, r=2, max_density=0.6),
            method="greedy",
            backend="scipy",
        )
        result = PILFillEngine(vertical_layout, "metal4", cfg).run()
        assert result.total_features > 0
        for f in result.features:
            vertical_layout.add_fill(f)
        assert validate_fill(vertical_layout, fill_rules).ok

    def test_methods_differentiate_on_vertical_layer(self, vertical_layout, fill_rules):
        budget = None
        taus = {}
        for method in ("normal", "greedy_marginal"):
            cfg = EngineConfig(
                fill_rules=fill_rules,
                density_rules=DensityRules(window_size=20000, r=2, max_density=0.6),
                method=method,
                backend="scipy",
                seed=3,
            )
            result = PILFillEngine(vertical_layout, "metal4", cfg).run(budget=budget)
            if budget is None:
                budget = result.requested_budget
            impact = evaluate_impact(vertical_layout, "metal4", result.features, fill_rules)
            taus[method] = impact.weighted_total_ps
        assert taus["greedy_marginal"] <= taus["normal"]

    def test_generated_layout_branch_layer(self, small_generated_layout, fill_rules):
        """The generator routes branches on metal4; the flow must work
        there too (sparser geometry, mostly boundary gaps)."""
        cfg = EngineConfig(
            fill_rules=fill_rules,
            density_rules=DensityRules(window_size=16000, r=2, max_density=0.6),
            method="greedy",
            backend="scipy",
        )
        result = PILFillEngine(small_generated_layout, "metal4", cfg).run()
        impact = evaluate_impact(
            small_generated_layout, "metal4", result.features, fill_rules
        )
        assert impact.total_ps >= 0.0
