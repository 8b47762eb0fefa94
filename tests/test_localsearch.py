"""Local-search refinement: monotone improvement, density preservation."""

import pytest

from repro.dissection import FixedDissection
from repro.fillsynth import SiteLegality
from repro.layout import validate_fill
from repro.pilfill import (
    EngineConfig,
    ImpactModel,
    PILFillEngine,
    SlackColumnDef,
    extract_columns,
    refine_placement,
)
from repro.tech import DensityRules


@pytest.fixture(scope="module")
def setup(small_generated_layout):
    from repro.tech import FillRules

    fill_rules = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
    density_rules = DensityRules(window_size=16000, r=4, max_density=0.6)
    dissection = FixedDissection(small_generated_layout.die, density_rules)
    legality = SiteLegality(small_generated_layout, "metal3", fill_rules)
    columns = extract_columns(
        small_generated_layout, "metal3", dissection, legality, fill_rules,
        SlackColumnDef.FULL_LAYOUT,
    )
    model = ImpactModel(small_generated_layout, "metal3", fill_rules)
    return small_generated_layout, fill_rules, density_rules, dissection, columns, model


def run_method(layout, fill_rules, density_rules, method, budget=None, seed=0):
    cfg = EngineConfig(
        fill_rules=fill_rules, density_rules=density_rules,
        method=method, backend="scipy", seed=seed,
    )
    return PILFillEngine(layout, "metal3", cfg).run(budget=budget)


class TestRefinePlacement:
    def test_improves_normal_placement(self, setup):
        layout, fill_rules, density_rules, dissection, columns, model = setup
        normal = run_method(layout, fill_rules, density_rules, "normal")
        refined = refine_placement(
            model, dissection, columns, normal.features, max_moves=200
        )
        assert refined.final_wtau_ps <= refined.initial_wtau_ps + 1e-12
        assert refined.moves > 0
        assert refined.improvement_ps > 0

    def test_preserves_feature_count(self, setup):
        layout, fill_rules, density_rules, dissection, columns, model = setup
        normal = run_method(layout, fill_rules, density_rules, "normal")
        refined = refine_placement(
            model, dissection, columns, normal.features, max_moves=200
        )
        assert len(refined.features) == len(normal.features)

    def test_preserves_per_tile_density(self, setup):
        layout, fill_rules, density_rules, dissection, columns, model = setup
        normal = run_method(layout, fill_rules, density_rules, "normal")
        refined = refine_placement(
            model, dissection, columns, normal.features, max_moves=200
        )

        def per_tile(features):
            counts = {}
            for f in features:
                key = dissection.tile_at_point(*f.rect.center.as_tuple()).key
                counts[key] = counts.get(key, 0) + 1
            return counts

        assert per_tile(refined.features) == per_tile(normal.features)

    def test_refined_fill_drc_clean(self, setup):
        layout, fill_rules, density_rules, dissection, columns, model = setup
        normal = run_method(layout, fill_rules, density_rules, "normal")
        refined = refine_placement(
            model, dissection, columns, normal.features, max_moves=200
        )
        for f in refined.features:
            layout.add_fill(f)
        try:
            assert validate_fill(layout, fill_rules).ok
        finally:
            layout.fills.clear()

    def test_no_sites_duplicated(self, setup):
        layout, fill_rules, density_rules, dissection, columns, model = setup
        normal = run_method(layout, fill_rules, density_rules, "normal")
        refined = refine_placement(
            model, dissection, columns, normal.features, max_moves=200
        )
        rects = [f.rect for f in refined.features]
        assert len(rects) == len(set(rects))

    def test_ilp2_gains_little_or_nothing(self, setup):
        """ILP-II is already near-optimal; refinement gains should be a
        small fraction of what Normal gains."""
        layout, fill_rules, density_rules, dissection, columns, model = setup
        normal = run_method(layout, fill_rules, density_rules, "normal")
        ilp2 = run_method(
            layout, fill_rules, density_rules, "ilp2", budget=normal.requested_budget
        )
        r_normal = refine_placement(model, dissection, columns, normal.features,
                                    max_moves=200)
        r_ilp2 = refine_placement(model, dissection, columns, ilp2.features,
                                  max_moves=200)
        assert r_ilp2.improvement_ps <= r_normal.improvement_ps + 1e-12

    def test_max_moves_zero_is_identity(self, setup):
        layout, fill_rules, density_rules, dissection, columns, model = setup
        normal = run_method(layout, fill_rules, density_rules, "normal")
        refined = refine_placement(model, dissection, columns, normal.features,
                                   max_moves=0)
        assert refined.moves == 0
        assert [f.rect for f in refined.features] == [f.rect for f in normal.features]
        assert refined.final_wtau_ps == pytest.approx(refined.initial_wtau_ps)
