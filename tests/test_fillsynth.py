"""Slack sites, budget computation (LP + Monte-Carlo), Normal placement."""

import pytest

from repro.dissection import DensityMap, FixedDissection
from repro.errors import FillError
from repro.fillsynth import (
    SiteLegality,
    lp_minvar_budget,
    montecarlo_budget,
    place_normal,
)
from repro.geometry import Rect, SiteGrid
from repro.layout import validate_fill
from repro.tech import DensityRules
from tests import site_grid_oracle as oracle
from tests.conftest import build_two_line_layout
from tests.legality_oracle import ExactLegality


@pytest.fixture
def two_line_setup(stack, fill_rules):
    layout = build_two_line_layout(stack)
    rules = DensityRules(window_size=16000, r=2, max_density=0.6)
    dissection = FixedDissection(layout.die, rules)
    legality = SiteLegality(layout, "metal3", fill_rules)
    density = DensityMap.from_layout(dissection, layout, "metal3")
    return layout, dissection, legality, density


class TestSiteLegality:
    """Each case reads the grid site at the spot from the raster, and keeps
    the original off-grid rect against the exact test."""

    @staticmethod
    def site_at(legality, rect):
        grid = legality.grid
        return oracle.col_at(grid, rect.xlo), oracle.row_at(grid, rect.ylo)

    def test_site_on_line_illegal(self, two_line_setup, fill_rules):
        layout, _d, legality, _ = two_line_setup
        line_rect = layout.segments_on_layer("metal3")[0].rect
        on_line = Rect(line_rect.xlo + 1000, line_rect.ylo,
                       line_rect.xlo + 1500, line_rect.ylo + 500)
        col, row = self.site_at(legality, on_line)
        assert oracle.site_rect(legality.grid, col, row).overlaps(line_rect)
        assert not legality.is_free(col, row)
        assert not ExactLegality.from_layout(layout, "metal3", fill_rules).is_legal(on_line)

    def test_site_within_buffer_illegal(self, two_line_setup, fill_rules):
        layout, _d, legality, _ = two_line_setup
        line_rect = layout.segments_on_layer("metal3")[0].rect
        # 100 DBU above the line top, buffer is 250
        near = Rect(line_rect.xlo + 1000, line_rect.yhi + 100,
                    line_rect.xlo + 1500, line_rect.yhi + 600)
        assert not ExactLegality.from_layout(layout, "metal3", fill_rules).is_legal(near)
        # No die-anchored row starts inside the buffer here, so anchor a
        # grid at ``near``: its site (0, 0) is that rect.
        grid = SiteGrid(near.xlo, near.ylo, fill_rules.fill_size, fill_rules.fill_gap)
        anchored = SiteLegality.from_rects(
            layout.die, "metal3", fill_rules, layout.feature_rects("metal3"), grid=grid
        )
        assert oracle.site_rect(grid, 0, 0) == near
        assert not anchored.is_free(0, 0)
        assert anchored.is_free(0, 1)

    def test_far_site_legal(self, two_line_setup, fill_rules):
        layout, _d, legality, _ = two_line_setup
        far = Rect(2000, 2000, 2500, 2500)
        assert legality.is_free(*self.site_at(legality, far))
        assert ExactLegality.from_layout(layout, "metal3", fill_rules).is_legal(far)

    def test_site_outside_die_illegal(self, two_line_setup, fill_rules):
        layout, _d, legality, _ = two_line_setup
        edge = layout.die.xhi
        grid = legality.grid
        # The first column whose square does not fit left of the die edge.
        col = (edge - grid.site_size - grid.origin_x) // grid.pitch + 1
        assert oracle.site_rect(grid, col, 1).xhi > edge
        assert not legality.is_free(col, 1)
        assert legality.is_free(col - 1, 1)
        outside = Rect(edge - 100, 1000, edge + 400, 1500)
        assert not ExactLegality.from_layout(layout, "metal3", fill_rules).is_legal(outside)

    def test_legal_sites_in_region_drc_clean(self, two_line_setup, fill_rules):
        layout, dissection, legality, _ = two_line_setup
        from repro.layout import FillFeature

        for rect in legality.legal_sites_in_region(Rect(0, 0, 20000, 20000)):
            layout.add_fill(FillFeature("metal3", rect))
        assert layout.fills, "expected some legal sites"
        assert validate_fill(layout, fill_rules).ok

    def test_legal_count_by_tile_covers_all_tiles(self, two_line_setup):
        _l, dissection, legality, _ = two_line_setup
        counts = legality.legal_count_by_tile(dissection)
        assert set(counts) == {t.key for t in dissection.tiles()}
        assert sum(counts.values()) > 0


class TestLpBudget:
    def test_budget_respects_capacity(self, two_line_setup, fill_rules):
        _l, dissection, legality, density = two_line_setup
        capacity = legality.legal_count_by_tile(dissection)
        budget = lp_minvar_budget(density, capacity, fill_rules)
        for key, count in budget.items():
            assert 0 <= count <= capacity.get(key, 0)

    def test_budget_improves_min_density(self, two_line_setup, fill_rules):
        _l, dissection, legality, density = two_line_setup
        capacity = legality.legal_count_by_tile(dissection)
        budget = lp_minvar_budget(density, capacity, fill_rules)
        import numpy as np

        extra = np.zeros((dissection.nx, dissection.ny))
        for (ix, iy), count in budget.items():
            extra[ix, iy] = count * fill_rules.fill_area
        before = density.stats()
        after = density.added(extra).stats()
        assert after.min_density > before.min_density

    def test_budget_respects_max_density(self, two_line_setup, fill_rules):
        _l, dissection, legality, density = two_line_setup
        capacity = legality.legal_count_by_tile(dissection)
        budget = lp_minvar_budget(density, capacity, fill_rules, max_density=0.3)
        import numpy as np

        extra = np.zeros((dissection.nx, dissection.ny))
        for (ix, iy), count in budget.items():
            extra[ix, iy] = count * fill_rules.fill_area
        after = density.added(extra).stats()
        assert after.max_density <= 0.3 + 1e-6

    def test_target_density_caps_fill(self, two_line_setup, fill_rules):
        _l, dissection, legality, density = two_line_setup
        capacity = legality.legal_count_by_tile(dissection)
        unlimited = lp_minvar_budget(density, capacity, fill_rules)
        capped = lp_minvar_budget(
            density, capacity, fill_rules, target_density=density.stats().mean_density
        )
        assert sum(capped.values()) <= sum(unlimited.values())

    def test_two_phase_minimality(self, two_line_setup, fill_rules):
        """Phase 2 must not waste fill: zero-capacity tiles get zero and a
        dense layout near target gets little fill."""
        _l, dissection, legality, density = two_line_setup
        capacity = legality.legal_count_by_tile(dissection)
        target = density.stats().min_density  # already achieved everywhere
        budget = lp_minvar_budget(density, capacity, fill_rules, target_density=target)
        assert sum(budget.values()) == 0


class TestMonteCarloBudget:
    def test_respects_capacity(self, two_line_setup, fill_rules):
        _l, dissection, legality, density = two_line_setup
        capacity = legality.legal_count_by_tile(dissection)
        budget = montecarlo_budget(density, capacity, fill_rules, seed=3)
        for key, count in budget.items():
            assert 0 <= count <= capacity.get(key, 0)

    def test_deterministic_per_seed(self, two_line_setup, fill_rules):
        _l, dissection, legality, density = two_line_setup
        capacity = legality.legal_count_by_tile(dissection)
        a = montecarlo_budget(density, capacity, fill_rules, seed=5)
        b = montecarlo_budget(density, capacity, fill_rules, seed=5)
        assert a == b

    def test_improves_min_density(self, two_line_setup, fill_rules):
        _l, dissection, legality, density = two_line_setup
        capacity = legality.legal_count_by_tile(dissection)
        budget = montecarlo_budget(density, capacity, fill_rules, seed=1)
        import numpy as np

        extra = np.zeros((dissection.nx, dissection.ny))
        for (ix, iy), count in budget.items():
            extra[ix, iy] = count * fill_rules.fill_area
        assert density.added(extra).stats().min_density >= density.stats().min_density
        assert sum(budget.values()) > 0

    def test_max_steps_limits_insertions(self, two_line_setup, fill_rules):
        _l, dissection, legality, density = two_line_setup
        capacity = legality.legal_count_by_tile(dissection)
        budget = montecarlo_budget(density, capacity, fill_rules, seed=1, max_steps=5)
        assert sum(budget.values()) <= 5


class TestPlaceNormal:
    def test_places_exact_budget_and_drc_clean(self, two_line_setup, fill_rules):
        layout, dissection, legality, _ = two_line_setup
        budget = {t.key: 0 for t in dissection.tiles()}
        budget[(0, 0)] = 5
        budget[(1, 1)] = 3
        placed = place_normal(layout, "metal3", dissection, legality, budget, seed=0)
        assert len(placed) == 8
        assert validate_fill(layout, fill_rules).ok

    def test_seed_determinism(self, two_line_setup, fill_rules):
        layout, dissection, legality, _ = two_line_setup
        budget = {(0, 0): 4}
        a = place_normal(layout, "metal3", dissection, legality, budget, seed=9)
        layout.fills.clear()
        b = place_normal(layout, "metal3", dissection, legality, budget, seed=9)
        assert [f.rect for f in a] == [f.rect for f in b]

    def test_row_major_deterministic_order(self, two_line_setup):
        layout, dissection, legality, _ = two_line_setup
        budget = {(0, 0): 3}
        placed = place_normal(
            layout, "metal3", dissection, legality, budget, order="row_major"
        )
        rects = [f.rect for f in placed]
        assert rects == sorted(rects, key=lambda r: (r.ylo, r.xlo))

    def test_budget_exceeding_sites_raises(self, two_line_setup):
        layout, dissection, legality, _ = two_line_setup
        with pytest.raises(FillError, match="exceeds"):
            place_normal(layout, "metal3", dissection, legality, {(0, 0): 10 ** 6})

    def test_unknown_order_rejected(self, two_line_setup):
        layout, dissection, legality, _ = two_line_setup
        with pytest.raises(FillError):
            place_normal(layout, "metal3", dissection, legality, {}, order="spiral")
