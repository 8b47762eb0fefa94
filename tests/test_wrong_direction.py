"""Wrong-direction routing on the analyzed layer: excluded from the
parallel-line sweep, still blocking fill sites."""

import pytest

from repro.dissection import FixedDissection
from repro.fillsynth import SiteLegality
from repro.layout import validate_fill, validate_layout
from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    SlackColumnDef,
    extract_columns,
)
from repro.pilfill.scanline import layer_sweep_lines
from repro.synth import GeneratorSpec, generate_layout
from repro.tech import DensityRules
from tests.legality_oracle import ExactLegality
from tests.site_grid_oracle import col_at, row_at


@pytest.fixture(scope="module")
def jogged_layout(stack):
    spec = GeneratorSpec(
        name="jogs", die_um=48.0, n_nets=24, seed=17,
        trunk_len_um=(8.0, 24.0), branch_len_um=(2.0, 8.0),
        sinks_per_net=(1, 2), jog_fraction=0.8,
    )
    return generate_layout(spec, stack)


class TestJoggedGeneration:
    def test_layout_has_wrong_direction_segments(self, jogged_layout):
        vertical_on_h_layer = [
            seg for seg in jogged_layout.segments_on_layer("metal3")
            if not seg.is_horizontal
        ]
        assert vertical_on_h_layer, "jog_fraction should produce vertical jogs"

    def test_layout_still_validates(self, jogged_layout):
        assert validate_layout(jogged_layout).ok

    def test_sweep_excludes_jogs(self, jogged_layout):
        lines, horizontal = layer_sweep_lines(jogged_layout, "metal3")
        assert horizontal
        for line in lines:
            assert line.timing.segment.is_horizontal

    def test_jogs_block_fill_sites(self, jogged_layout, fill_rules):
        """Sites overlapping a jog (plus buffer) must be rejected even
        though the sweep never saw the jog."""
        legality = SiteLegality(jogged_layout, "metal3", fill_rules)
        jog = next(
            seg for seg in jogged_layout.segments_on_layer("metal3")
            if not seg.is_horizontal
        )
        r = jog.rect
        covering = r.expanded(-min(r.width, r.height) // 4)
        from repro.geometry import Rect

        site = Rect(
            covering.center.x, covering.center.y,
            covering.center.x + fill_rules.fill_size,
            covering.center.y + fill_rules.fill_size,
        )
        grid = legality.grid
        assert not legality.is_free(col_at(grid, site.xlo), row_at(grid, site.ylo))
        assert not ExactLegality.from_layout(jogged_layout, "metal3", fill_rules).is_legal(site)

    def test_columns_never_contain_sites_on_jogs(self, jogged_layout, fill_rules):
        dissection = FixedDissection(jogged_layout.die, DensityRules(16000, 2))
        legality = SiteLegality(jogged_layout, "metal3", fill_rules)
        columns = extract_columns(
            jogged_layout, "metal3", dissection, legality, fill_rules,
            SlackColumnDef.FULL_LAYOUT,
        )
        jog_rects = [
            seg.rect.expanded(fill_rules.buffer_distance)
            for seg in jogged_layout.segments_on_layer("metal3")
            if not seg.is_horizontal
        ]
        for cols in columns.values():
            for col in cols:
                for site in col.sites:
                    for jog in jog_rects:
                        assert not site.overlaps(jog)

    def test_full_flow_on_jogged_layout_drc_clean(self, jogged_layout, fill_rules):
        cfg = EngineConfig(
            fill_rules=fill_rules,
            density_rules=DensityRules(window_size=16000, r=2, max_density=0.6),
            method="greedy",
            backend="scipy",
        )
        result = PILFillEngine(jogged_layout, "metal3", cfg).run()
        assert result.total_features > 0
        for f in result.features:
            jogged_layout.add_fill(f)
        try:
            assert validate_fill(jogged_layout, fill_rules).ok
        finally:
            jogged_layout.fills.clear()
