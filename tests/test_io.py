"""LEF-lite / DEF-lite round trips and error handling."""

from dataclasses import replace

import pytest

from repro.errors import ParseError
from repro.geometry import Rect
from repro.io import layout_digest, parse_def, parse_lef, write_def, write_lef
from repro.layout import FillFeature
from tests.conftest import build_two_line_layout


class TestLefRoundtrip:
    def test_roundtrip_preserves_stack(self, stack):
        text = write_lef(stack)
        parsed = parse_lef(text)
        assert parsed.dbu_per_micron == stack.dbu_per_micron
        assert parsed.layer_names == stack.layer_names
        for name in stack.layer_names:
            a, b = stack.layer(name), parsed.layer(name)
            assert a.direction == b.direction
            assert a.thickness_um == pytest.approx(b.thickness_um)
            assert a.eps_r == pytest.approx(b.eps_r)
            assert a.sheet_res_ohm == pytest.approx(b.sheet_res_ohm)
            assert a.min_width_dbu == b.min_width_dbu
            assert a.ground_cap_ff_per_um == pytest.approx(b.ground_cap_ff_per_um)

    def test_missing_units_rejected(self):
        with pytest.raises(ParseError, match="UNITS"):
            parse_lef("LAYER m1\n  TYPE ROUTING ;\nEND m1\nEND LIBRARY\n")

    def test_missing_fields_rejected(self):
        text = (
            "UNITS DATABASE MICRONS 1000 ;\n"
            "LAYER m1\n  TYPE ROUTING ;\n  DIRECTION HORIZONTAL ;\nEND m1\n"
            "END LIBRARY\n"
        )
        with pytest.raises(ParseError, match="missing fields"):
            parse_lef(text)

    def test_bad_direction_rejected(self):
        text = (
            "UNITS DATABASE MICRONS 1000 ;\n"
            "LAYER m1\n  DIRECTION DIAGONAL ;\nEND m1\nEND LIBRARY\n"
        )
        with pytest.raises(ParseError, match="DIRECTION"):
            parse_lef(text)

    def test_unterminated_layer_rejected(self):
        text = "UNITS DATABASE MICRONS 1000 ;\nLAYER m1\n  TYPE ROUTING ;\n"
        with pytest.raises(ParseError, match="unterminated"):
            parse_lef(text)

    def test_error_carries_line_number(self):
        text = "UNITS DATABASE MICRONS 1000 ;\nLAYER m1\n  BOGUS 1 ;\nEND m1\nEND LIBRARY\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_lef(text)


class TestDefRoundtrip:
    def test_roundtrip_preserves_layout(self, stack):
        layout = build_two_line_layout(stack)
        layout.add_fill(FillFeature("metal3", Rect(1000, 1000, 1500, 1500)))
        text = write_def(layout)
        parsed = parse_def(text, stack)
        assert parsed.name == layout.name
        assert parsed.die == layout.die
        assert set(parsed.nets) == set(layout.nets)
        for name in layout.nets:
            a, b = layout.nets[name], parsed.nets[name]
            assert len(a.segments) == len(b.segments)
            assert {p.name for p in a.pins} == {p.name for p in b.pins}
            assert a.driver.driver_res_ohm == pytest.approx(b.driver.driver_res_ohm)
        assert len(parsed.fills) == 1
        assert parsed.fills[0].rect == Rect(1000, 1000, 1500, 1500)

    def test_roundtrip_timing_equivalent(self, stack):
        """Parsed layouts must produce identical Elmore delays."""
        layout = build_two_line_layout(stack)
        parsed = parse_def(write_def(layout), stack)
        for name in layout.nets:
            orig = layout.tree(name).elmore_delays()
            back = parsed.tree(name).elmore_delays()
            assert orig.keys() == back.keys()
            for sink in orig:
                assert orig[sink] == pytest.approx(back[sink])

    def test_units_mismatch_rejected(self, stack):
        layout = build_two_line_layout(stack)
        text = write_def(layout).replace("MICRONS 1000", "MICRONS 2000")
        with pytest.raises(ParseError, match="units"):
            parse_def(text, stack)

    def test_missing_diearea_rejected(self, stack):
        with pytest.raises(ParseError, match="DIEAREA"):
            parse_def("VERSION 1.0 ;\nEND DESIGN\n", stack)

    def test_malformed_pin_rejected(self, stack):
        text = (
            "UNITS DISTANCE MICRONS 1000 ;\n"
            "DIEAREA ( 0 0 ) ( 1000 1000 ) ;\n"
            "NETS 1 ;\n"
            "- n1\n"
            "  + PIN p ( 10 10 ) LAYER metal3 WEIRD\n"
            ";\nEND NETS\nEND DESIGN\n"
        )
        with pytest.raises(ParseError):
            parse_def(text, stack)

    def test_generated_layout_roundtrip(self, small_generated_layout, stack):
        text = write_def(small_generated_layout)
        parsed = parse_def(text, stack)
        assert parsed.stats() == small_generated_layout.stats()


class TestLayoutDigest:
    @pytest.mark.parametrize("field", ["driver_res_ohm", "load_cap_ff"])
    def test_pin_value_in_seventh_digit_changes_digest(self, stack, field):
        """``write_def`` prints both layouts alike (6 significant digits);
        the digest still tells them apart."""
        base, edited = build_two_line_layout(stack), build_two_line_layout(stack)
        pins = edited.nets["n0"].pins
        index = next(i for i, p in enumerate(pins) if p.is_driver == (field == "driver_res_ohm"))
        old = getattr(pins[index], field)
        pins[index] = replace(pins[index], **{field: old * (1 + 3e-7)})
        assert write_def(base) == write_def(edited)
        assert layout_digest(base) != layout_digest(edited)
        assert layout_digest(base) == layout_digest(build_two_line_layout(stack))
