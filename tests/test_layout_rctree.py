"""RC tree construction, orientation, weights, Elmore delays."""

import pytest

from repro.errors import LayoutError
from repro.geometry import Point
from repro.layout import Net, Pin, RCTree, WireSegment
from repro.layout.rctree import OHM_FF_TO_PS


def simple_net(driver_res=100.0, sink_cap=5.0, reverse_segment=False):
    """One straight 10 µm metal3 line, driver at x=0."""
    net = Net("n")
    net.add_pin(Pin("d", Point(0, 0), "metal3", is_driver=True, driver_res_ohm=driver_res))
    net.add_pin(Pin("s", Point(10000, 0), "metal3", load_cap_ff=sink_cap))
    a, b = Point(0, 0), Point(10000, 0)
    if reverse_segment:
        a, b = b, a
    net.add_segment(WireSegment("n", 0, "metal3", a, b, 400))
    return net


class TestBuild:
    def test_single_line(self, stack):
        tree = RCTree.build(simple_net(), stack)
        assert len(tree.lines) == 1
        line = tree.lines[0]
        assert line.segment.start == Point(0, 0)  # oriented from driver
        assert line.downstream_sinks == 1
        assert line.upstream_res == pytest.approx(100.0)

    def test_orientation_fixed_regardless_of_input(self, stack):
        fwd = RCTree.build(simple_net(), stack)
        rev = RCTree.build(simple_net(reverse_segment=True), stack)
        assert fwd.lines[0].segment.start == rev.lines[0].segment.start == Point(0, 0)

    def test_unit_resistance_from_stack(self, stack):
        tree = RCTree.build(simple_net(), stack)
        layer = stack.layer("metal3")
        expected_per_dbu = layer.unit_resistance(400) / stack.dbu_per_micron
        assert tree.lines[0].unit_res == pytest.approx(expected_per_dbu)

    def test_tjunction_split(self, branched_layout):
        tree = branched_layout.tree("n1")
        # trunk split into two pieces at the junction + the branch
        assert len(tree.lines) == 3
        weights = sorted(line.downstream_sinks for line in tree.lines)
        assert weights == [1, 1, 2]

    def test_junction_upstream_resistance_accumulates(self, branched_layout):
        tree = branched_layout.tree("n1")
        by_start = {line.segment.start: line for line in tree.lines}
        trunk1 = by_start[Point(1000, 5000)]
        trunk2 = by_start[Point(50000, 5000)]
        expected = trunk1.upstream_res + trunk1.unit_res * trunk1.segment.length
        assert trunk2.upstream_res == pytest.approx(expected)

    def test_disconnected_raises(self, stack):
        net = Net("n")
        net.add_pin(Pin("d", Point(0, 0), "metal3", is_driver=True))
        net.add_pin(Pin("s", Point(900, 900), "metal3", load_cap_ff=1))
        net.add_segment(WireSegment("n", 0, "metal3", Point(0, 0), Point(100, 0), 10))
        net.add_segment(WireSegment("n", 1, "metal3", Point(900, 0), Point(900, 900), 10))
        with pytest.raises(LayoutError, match="disconnected"):
            RCTree.build(net, stack)

    def test_cycle_raises(self, stack):
        net = Net("n")
        net.add_pin(Pin("d", Point(0, 0), "metal3", is_driver=True))
        net.add_pin(Pin("s", Point(100, 100), "metal3", load_cap_ff=1))
        net.add_segment(WireSegment("n", 0, "metal3", Point(0, 0), Point(100, 0), 10))
        net.add_segment(WireSegment("n", 1, "metal3", Point(100, 0), Point(100, 100), 10))
        net.add_segment(WireSegment("n", 2, "metal3", Point(100, 100), Point(0, 100), 10))
        net.add_segment(WireSegment("n", 3, "metal3", Point(0, 100), Point(0, 0), 10))
        with pytest.raises(LayoutError, match="cycle"):
            RCTree.build(net, stack)

    def test_pin_off_routing_raises(self, stack):
        net = simple_net()
        net.add_pin(Pin("stray", Point(5000, 5000), "metal3", load_cap_ff=1))
        with pytest.raises(LayoutError, match="not on the routing"):
            RCTree.build(net, stack)

    def test_no_segments_raises(self, stack):
        net = Net("n")
        net.add_pin(Pin("d", Point(0, 0), "metal3", is_driver=True))
        net.add_pin(Pin("s", Point(1, 0), "metal3", load_cap_ff=1))
        with pytest.raises(LayoutError, match="no routing"):
            RCTree.build(net, stack)


class TestResistanceAt:
    def test_monotone_along_flow(self, stack):
        tree = RCTree.build(simple_net(), stack)
        line = tree.lines[0]
        r_values = [line.resistance_at(x) for x in (0, 2500, 5000, 10000)]
        assert r_values == sorted(r_values)
        assert r_values[0] == pytest.approx(100.0)

    def test_clamps_outside_extent(self, stack):
        tree = RCTree.build(simple_net(), stack)
        line = tree.lines[0]
        assert line.resistance_at(-100) == line.resistance_at(0)
        assert line.resistance_at(99999) == line.resistance_at(10000)


class TestElmore:
    def test_hand_computed_single_line(self, stack):
        """τ = R_drv·(C_wire + C_sink) + R_wire·(C_wire/2 + C_sink)."""
        tree = RCTree.build(simple_net(driver_res=100.0, sink_cap=5.0), stack)
        layer = stack.layer("metal3")
        c_wire = layer.ground_cap_ff_per_um * 10.0       # 10 um of wire
        r_wire = layer.unit_resistance(400) * 10.0
        expected = 100.0 * (c_wire + 5.0) + r_wire * (c_wire / 2.0 + 5.0)
        delays = tree.elmore_delays()
        assert delays["s"] == pytest.approx(expected * OHM_FF_TO_PS)

    def test_longer_wire_slower(self, stack):
        short = RCTree.build(simple_net(), stack).elmore_delays()["s"]
        net = Net("n")
        net.add_pin(Pin("d", Point(0, 0), "metal3", is_driver=True, driver_res_ohm=100.0))
        net.add_pin(Pin("s", Point(40000, 0), "metal3", load_cap_ff=5.0))
        net.add_segment(WireSegment("n", 0, "metal3", Point(0, 0), Point(40000, 0), 400))
        longer = RCTree.build(net, stack).elmore_delays()["s"]
        assert longer > short

    def test_branched_two_sinks(self, branched_layout):
        delays = branched_layout.tree("n1").elmore_delays()
        assert set(delays) == {"s1", "s2"}
        assert all(v > 0 for v in delays.values())

    def test_delay_increment_additivity(self, stack):
        """Eq. 9: increment = ΔC × upstream R at the attachment point."""
        tree = RCTree.build(simple_net(), stack)
        line = tree.lines[0]
        inc = tree.delay_increment(0, 5000, added_cap_ff=2.0)
        assert inc == pytest.approx(line.resistance_at(5000) * 2.0 * OHM_FF_TO_PS)

    def test_weighted_increment_scales_by_sinks(self, branched_layout):
        tree = branched_layout.tree("n1")
        trunk_idx = next(
            i for i, line in enumerate(tree.lines) if line.downstream_sinks == 2
        )
        plain = tree.delay_increment(trunk_idx, 20000, 1.0)
        weighted = tree.weighted_delay_increment(trunk_idx, 20000, 1.0)
        assert weighted == pytest.approx(2 * plain)

    def test_increment_matches_elmore_difference(self, stack):
        """Attaching a load mid-line must shift the Elmore sink delay by
        exactly the Eq. 9 increment."""
        base_net = simple_net()
        base = RCTree.build(base_net, stack).elmore_delays()["s"]

        loaded = Net("n")
        loaded.add_pin(Pin("d", Point(0, 0), "metal3", is_driver=True, driver_res_ohm=100.0))
        loaded.add_pin(Pin("s", Point(10000, 0), "metal3", load_cap_ff=5.0))
        loaded.add_pin(Pin("load", Point(4000, 0), "metal3", load_cap_ff=3.0))
        loaded.add_segment(WireSegment("n", 0, "metal3", Point(0, 0), Point(10000, 0), 400))
        tree = RCTree.build(loaded, stack)
        with_load = tree.elmore_delays()["s"]

        base_tree = RCTree.build(base_net, stack)
        predicted = base_tree.delay_increment(0, 4000, 3.0)
        assert with_load - base == pytest.approx(predicted, rel=1e-9)
