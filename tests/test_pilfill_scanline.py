"""Scan-line gap-block sweep and slack-column extraction (paper Fig. 7)."""

import pytest

from repro.dissection import FixedDissection
from repro.fillsynth import SiteLegality
from repro.geometry import Interval, Rect
from repro.pilfill import SlackColumnDef, extract_columns, sweep_gap_blocks
from repro.pilfill.scanline import SweepLine, layer_sweep_lines
from repro.tech import DensityRules
from tests.conftest import build_two_line_layout
from tests.legality_oracle import ExactLegality
from tests.site_grid_oracle import col_at, row_at


def region():
    return Rect(0, 0, 10000, 10000)


def line(xlo, ylo, xhi, yhi):
    return SweepLine(rect=Rect(xlo, ylo, xhi, yhi), timing=None)


class TestSweep:
    def test_empty_region_single_block(self):
        blocks = sweep_gap_blocks([], region(), horizontal=True)
        assert len(blocks) == 1
        b = blocks[0]
        assert b.along == Interval(0, 10000)
        assert (b.cross_lo, b.cross_hi) == (0, 10000)
        assert b.below is None and b.above is None

    def test_one_full_width_line_two_blocks(self):
        ln = line(0, 4000, 10000, 4400)
        blocks = sweep_gap_blocks([ln], region(), horizontal=True)
        assert len(blocks) == 2
        below = next(b for b in blocks if b.above is ln)
        above = next(b for b in blocks if b.below is ln)
        assert (below.cross_lo, below.cross_hi) == (0, 4000)
        assert (above.cross_lo, above.cross_hi) == (4400, 10000)

    def test_two_stacked_lines_middle_gap_has_both_neighbors(self):
        lo = line(0, 2000, 10000, 2400)
        hi = line(0, 6000, 10000, 6400)
        blocks = sweep_gap_blocks([lo, hi], region(), horizontal=True)
        middle = next(b for b in blocks if b.below is lo and b.above is hi)
        assert (middle.cross_lo, middle.cross_hi) == (2400, 6000)
        assert middle.gap == 3600

    def test_partial_line_splits_fragments(self):
        ln = line(3000, 5000, 7000, 5400)
        blocks = sweep_gap_blocks([ln], region(), horizontal=True)
        # Bottom gap under the line span + full-height side gaps + gap above.
        under = [b for b in blocks if b.above is ln]
        assert len(under) == 1
        assert under[0].along == Interval(3000, 7000)
        sides = [
            b for b in blocks
            if b.below is None and b.above is None and b.cross_hi == 10000
        ]
        assert {b.along for b in sides} == {Interval(0, 3000), Interval(7000, 10000)}

    def test_staggered_lines_neighbor_resolution(self):
        left = line(0, 3000, 5000, 3400)
        right = line(5000, 6000, 10000, 6400)
        blocks = sweep_gap_blocks([left, right], region(), horizontal=True)
        # Above 'left', the left half of the region runs to the boundary.
        above_left = [b for b in blocks if b.below is left]
        assert all(b.above is None for b in above_left)
        # Under 'right', blocks start from bottom boundary.
        under_right = [b for b in blocks if b.above is right]
        assert all(b.below is None for b in under_right)

    def test_vertical_direction_transposed(self):
        ln = line(4000, 0, 4400, 10000)  # vertical line
        blocks = sweep_gap_blocks([ln], region(), horizontal=False)
        assert len(blocks) == 2
        below = next(b for b in blocks if b.above is ln)
        assert (below.cross_lo, below.cross_hi) == (0, 4000)  # x gap
        assert below.along == Interval(0, 10000)  # y extent

    def test_blocks_tile_free_space_exactly(self):
        """Blocks plus line rects partition the region area."""
        lines = [
            line(0, 2000, 6000, 2400),
            line(4000, 5000, 10000, 5400),
            line(1000, 8000, 9000, 8400),
        ]
        blocks = sweep_gap_blocks(lines, region(), horizontal=True)
        block_area = sum(b.along.length * b.gap for b in blocks)
        line_area = sum(ln.rect.area for ln in lines)
        assert block_area + line_area == region().area

    def test_blocks_disjoint(self):
        lines = [
            line(0, 2000, 6000, 2400),
            line(4000, 5000, 10000, 5400),
        ]
        blocks = sweep_gap_blocks(lines, region(), horizontal=True)
        rects = [
            Rect(b.along.lo, b.cross_lo, b.along.hi, b.cross_hi) for b in blocks
        ]
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert not a.overlaps(b)

    def test_overlapping_same_net_lines_tolerated(self):
        # Junction-style overlap: two rects overlapping in both axes.
        a = line(0, 4000, 6000, 4400)
        b = line(5800, 4200, 9000, 4600)
        blocks = sweep_gap_blocks([a, b], region(), horizontal=True)
        for blk in blocks:
            assert blk.gap > 0


class TestExtractColumns:
    @pytest.fixture
    def setup(self, stack, fill_rules):
        layout = build_two_line_layout(stack, gap_dbu=4000)
        dissection = FixedDissection(layout.die, DensityRules(20000, 2))
        legality = SiteLegality(layout, "metal3", fill_rules)
        return layout, dissection, legality

    def test_layer_sweep_lines_direction_filter(self, setup):
        layout, _d, _l = setup
        lines, horizontal = layer_sweep_lines(layout, "metal3")
        assert horizontal
        assert len(lines) == 2  # both trunks

    def test_full_layout_columns_have_true_neighbors(self, setup, fill_rules):
        layout, dissection, legality = setup
        columns = extract_columns(
            layout, "metal3", dissection, legality, fill_rules,
            SlackColumnDef.FULL_LAYOUT,
        )
        all_cols = [c for cols in columns.values() for c in cols]
        assert all_cols
        mid = [c for c in all_cols if c.has_impact]
        assert mid, "expected columns between the two lines"
        for col in mid:
            assert col.gap_um == pytest.approx(4.0)
            assert {col.below.net, col.above.net} == {"n0", "n1"}

    def test_columns_within_gap_capacity(self, setup, fill_rules):
        layout, dissection, legality = setup
        columns = extract_columns(
            layout, "metal3", dissection, legality, fill_rules,
            SlackColumnDef.FULL_LAYOUT,
        )
        pitch = fill_rules.pitch
        for cols in columns.values():
            for col in cols:
                if col.has_impact:
                    usable = col.gap_um * 1000 - 2 * fill_rules.buffer_distance
                    assert col.capacity <= usable // pitch + 1

    def test_def1_only_between_lines(self, setup, fill_rules):
        layout, dissection, legality = setup
        columns = extract_columns(
            layout, "metal3", dissection, legality, fill_rules,
            SlackColumnDef.WITHIN_TILE,
        )
        for cols in columns.values():
            for col in cols:
                assert col.below is not None and col.above is not None

    def test_def1_capacity_at_most_def3(self, setup, fill_rules):
        layout, dissection, legality = setup
        def1 = extract_columns(layout, "metal3", dissection, legality, fill_rules,
                               SlackColumnDef.WITHIN_TILE)
        def3 = extract_columns(layout, "metal3", dissection, legality, fill_rules,
                               SlackColumnDef.FULL_LAYOUT)
        cap1 = sum(c.capacity for cols in def1.values() for c in cols)
        cap3 = sum(c.capacity for cols in def3.values() for c in cols)
        assert cap1 <= cap3

    def test_def2_has_boundary_columns_without_impact(self, setup, fill_rules):
        layout, dissection, legality = setup
        def2 = extract_columns(layout, "metal3", dissection, legality, fill_rules,
                               SlackColumnDef.TILE_BOUNDED)
        cols = [c for cs in def2.values() for c in cs]
        assert any(not c.has_impact for c in cols)

    def test_sites_unique_across_tiles(self, setup, fill_rules):
        layout, dissection, legality = setup
        columns = extract_columns(layout, "metal3", dissection, legality, fill_rules,
                                  SlackColumnDef.FULL_LAYOUT)
        seen = set()
        for cols in columns.values():
            for col in cols:
                for rect in col.sites:
                    assert rect not in seen, "site assigned to two columns"
                    seen.add(rect)

    def test_sites_are_legal_and_in_owner_tile(self, setup, fill_rules):
        layout, dissection, legality = setup
        columns = extract_columns(layout, "metal3", dissection, legality, fill_rules,
                                  SlackColumnDef.FULL_LAYOUT)
        exact = ExactLegality.from_layout(layout, "metal3", fill_rules)
        for key, cols in columns.items():
            tile = dissection.tile(*key)
            for col in cols:
                for rect in col.sites:
                    grid = legality.grid
                    assert legality.is_free(col_at(grid, rect.xlo), row_at(grid, rect.ylo))
                    assert exact.is_legal(rect)
                    assert tile.rect.contains_point(rect.center)

    def test_resistance_weight_monotone_along_line(self, setup, fill_rules):
        """Columns farther downstream see larger upstream resistance."""
        layout, dissection, legality = setup
        columns = extract_columns(layout, "metal3", dissection, legality, fill_rules,
                                  SlackColumnDef.FULL_LAYOUT)
        mid = sorted(
            (c for cols in columns.values() for c in cols if c.has_impact),
            key=lambda c: c.col,
        )
        weights = [c.resistance_weight(weighted=False) for c in mid]
        assert weights == sorted(weights)
