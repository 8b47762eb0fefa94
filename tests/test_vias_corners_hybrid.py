"""Via resistance, process corners, and the hybrid budget back-end."""

import pytest

from repro.dissection import DensityMap, FixedDissection
from repro.errors import TechError
from repro.fillsynth import SiteLegality, hybrid_budget, lp_minvar_budget
from repro.geometry import Point
from repro.layout import Net, Pin, RCTree, WireSegment
from repro.pilfill import EngineConfig, PILFillEngine
from repro.tech import (
    FAST,
    SLOW,
    STANDARD_CORNERS,
    TYPICAL,
    Corner,
    DensityRules,
    ProcessStack,
    corner_stacks,
    default_stack,
    derate_stack,
)
from tests.conftest import build_two_line_layout


def branched_net():
    net = Net("n1")
    net.add_pin(Pin("drv", Point(1000, 5000), "metal3", is_driver=True, driver_res_ohm=100))
    net.add_pin(Pin("s1", Point(90000, 5000), "metal3", load_cap_ff=5))
    net.add_pin(Pin("s2", Point(50000, 20000), "metal4", load_cap_ff=5))
    net.add_segment(WireSegment("n1", 0, "metal3", Point(1000, 5000), Point(90000, 5000), 280))
    net.add_segment(WireSegment("n1", 1, "metal4", Point(50000, 5000), Point(50000, 20000), 280))
    return net


def stack_with_via(res: float) -> ProcessStack:
    base = default_stack()
    return ProcessStack(
        layers=base.layers, dbu_per_micron=base.dbu_per_micron,
        name=base.name, via_res_ohm=res,
    )


class TestViaResistance:
    def test_default_ideal_vias(self):
        tree = RCTree.build(branched_net(), default_stack())
        assert all(line.via_res == 0.0 for line in tree.lines)

    def test_layer_change_charges_one_via(self):
        tree = RCTree.build(branched_net(), stack_with_via(5.0))
        by_layer = {}
        for line in tree.lines:
            by_layer.setdefault(line.segment.layer, []).append(line)
        # both metal3 trunk pieces: no via (driver is on metal3)
        assert all(l.via_res == 0.0 for l in by_layer["metal3"])
        # the metal4 branch: exactly one via
        assert [l.via_res for l in by_layer["metal4"]] == [5.0]

    def test_via_in_upstream_resistance(self):
        ideal = RCTree.build(branched_net(), default_stack())
        real = RCTree.build(branched_net(), stack_with_via(5.0))
        branch_ideal = next(l for l in ideal.lines if l.segment.layer == "metal4")
        branch_real = next(l for l in real.lines if l.segment.layer == "metal4")
        assert branch_real.upstream_res == pytest.approx(branch_ideal.upstream_res + 5.0)
        # metal3 lines unchanged
        trunk_i = next(l for l in ideal.lines if l.segment.layer == "metal3")
        trunk_r = next(l for l in real.lines if l.segment.layer == "metal3")
        assert trunk_r.upstream_res == pytest.approx(trunk_i.upstream_res)

    def test_via_in_elmore(self):
        ideal = RCTree.build(branched_net(), default_stack()).elmore_delays()
        real = RCTree.build(branched_net(), stack_with_via(5.0)).elmore_delays()
        assert real["s2"] > ideal["s2"]  # behind the via
        assert real["s1"] == pytest.approx(ideal["s1"])  # not behind it

    def test_negative_via_rejected(self):
        with pytest.raises(TechError):
            stack_with_via(-1.0)


class TestCorners:
    def test_standard_corners(self):
        assert [c.name for c in STANDARD_CORNERS] == ["fast", "typical", "slow"]
        assert TYPICAL.r_factor == 1.0 == TYPICAL.c_factor

    def test_derate_scales_rc(self):
        stack = default_stack()
        slow = derate_stack(stack, SLOW)
        for name in stack.layer_names:
            a, b = stack.layer(name), slow.layer(name)
            assert b.sheet_res_ohm == pytest.approx(a.sheet_res_ohm * SLOW.r_factor)
            assert b.eps_r == pytest.approx(a.eps_r * SLOW.c_factor)
            assert b.ground_cap_ff_per_um == pytest.approx(
                a.ground_cap_ff_per_um * SLOW.c_factor
            )
        assert slow.name.endswith("@slow")

    def test_typical_is_identity(self):
        stack = default_stack()
        typ = derate_stack(stack, TYPICAL)
        for name in stack.layer_names:
            assert typ.layer(name).sheet_res_ohm == stack.layer(name).sheet_res_ohm

    def test_corner_ordering_of_delays(self):
        """slow > typical > fast Elmore delays on the same geometry."""
        delays = {}
        for corner in STANDARD_CORNERS:
            stack = derate_stack(default_stack(), corner)
            layout = build_two_line_layout(stack)
            delays[corner.name] = layout.tree("n0").elmore_delays()["s0"]
        assert delays["slow"] > delays["typical"] > delays["fast"]

    def test_fill_impact_scales_with_corner(self, fill_rules):
        """Fill delay impact also grows toward the slow corner."""
        from repro.geometry import Rect
        from repro.layout import FillFeature
        from repro.pilfill import evaluate_impact

        impacts = {}
        for corner in (FAST, SLOW):
            stack = derate_stack(default_stack(), corner)
            layout = build_two_line_layout(stack)
            segs = layout.segments_on_layer("metal3")
            gap_lo = min(s.rect.yhi for s in segs)
            feature = FillFeature("metal3", Rect(20000, gap_lo + 1000, 20500, gap_lo + 1500))
            impacts[corner.name] = evaluate_impact(
                layout, "metal3", [feature], fill_rules
            ).total_ps
        assert impacts["slow"] > impacts["fast"]

    def test_corner_stacks_mapping(self):
        stacks = corner_stacks(default_stack())
        assert set(stacks) == {"fast", "typical", "slow"}

    def test_invalid_corner_rejected(self):
        with pytest.raises(TechError):
            Corner("bad", 0.0, 1.0)


class TestHybridBudget:
    @pytest.fixture
    def setup(self, stack, fill_rules):
        layout = build_two_line_layout(stack)
        dissection = FixedDissection(layout.die, DensityRules(16000, 2, max_density=0.6))
        legality = SiteLegality(layout, "metal3", fill_rules)
        density = DensityMap.from_layout(dissection, layout, "metal3")
        capacity = legality.legal_count_by_tile(dissection)
        return density, capacity

    def test_hybrid_at_least_lp(self, setup, fill_rules):
        density, capacity = setup
        target = density.stats().mean_density
        lp = lp_minvar_budget(density, capacity, fill_rules, target_density=target)
        hybrid = hybrid_budget(density, capacity, fill_rules, target_density=target)
        for key in lp:
            assert hybrid.get(key, 0) >= lp[key]

    def test_hybrid_respects_capacity(self, setup, fill_rules):
        density, capacity = setup
        hybrid = hybrid_budget(density, capacity, fill_rules)
        for key, count in hybrid.items():
            assert count <= capacity.get(key, 0)

    def test_hybrid_min_density_not_worse(self, setup, fill_rules):
        import numpy as np

        density, capacity = setup
        target = density.stats().mean_density

        def achieved(budget):
            extra = np.zeros_like(density.tile_area)
            for (ix, iy), count in budget.items():
                extra[ix, iy] = count * fill_rules.fill_area
            return density.added(extra).stats().min_density

        lp = lp_minvar_budget(density, capacity, fill_rules, target_density=target)
        hybrid = hybrid_budget(density, capacity, fill_rules, target_density=target)
        assert achieved(hybrid) >= achieved(lp) - 1e-12

    def test_engine_hybrid_mode(self, small_generated_layout, fill_rules):
        cfg = EngineConfig(
            fill_rules=fill_rules,
            density_rules=DensityRules(window_size=16000, r=2, max_density=0.6),
            method="greedy",
            budget_mode="hybrid",
            backend="scipy",
        )
        result = PILFillEngine(small_generated_layout, "metal3", cfg).run()
        assert result.total_features > 0
