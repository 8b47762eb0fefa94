"""The impact evaluator and the end-to-end engine."""

import pytest

from repro.cap import exact_column_cap
from repro.dissection import DensityMap, FixedDissection
from repro.errors import FillError
from repro.geometry import Rect
from repro.layout import FillFeature, validate_fill
from repro.layout.rctree import OHM_FF_TO_PS
from repro.pilfill import (
    METHODS,
    EngineConfig,
    PILFillEngine,
    SlackColumnDef,
    evaluate_impact,
)
from repro.tech import DensityRules
from tests.invariants import assert_fill_invariants


class TestEvaluator:
    def test_no_features_zero_impact(self, two_line_layout, fill_rules):
        report = evaluate_impact(two_line_layout, "metal3", [], fill_rules)
        assert report.total_ps == 0.0
        assert report.weighted_total_ps == 0.0

    def test_single_feature_hand_computed(self, two_line_layout, fill_rules, stack):
        """One feature centered between the two lines: ΔC from Eq. 5 with
        m = 1, charged to both lines at their column-position resistance."""
        # The two trunks sit at gap 4 um; place a feature centered in the gap.
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        gap_hi = max(s.rect.ylo for s in segs)
        assert gap_hi - gap_lo == 4000
        x0 = 20000
        y0 = (gap_lo + gap_hi) // 2 - fill_rules.fill_size // 2
        feature = FillFeature(
            "metal3", Rect(x0, y0, x0 + fill_rules.fill_size, y0 + fill_rules.fill_size)
        )
        report = evaluate_impact(two_line_layout, "metal3", [feature], fill_rules)

        layer = stack.layer("metal3")
        delta_c = exact_column_cap(layer.eps_r, layer.thickness_um, 4.0, 1, 0.5)
        center_x = x0 + fill_rules.fill_size // 2
        expected = 0.0
        for name in ("n0", "n1"):
            line = two_line_layout.tree(name).lines[0]
            expected += line.resistance_at(center_x) * delta_c * OHM_FF_TO_PS
        assert report.total_ps == pytest.approx(expected)
        assert report.weighted_total_ps == pytest.approx(expected)  # 1 sink each
        assert report.features_scored == 1
        assert report.features_free == 0

    def test_stacked_features_nonlinear(self, two_line_layout, fill_rules, stack):
        """Two features in the same column must cost more than 2× one
        feature (convexity of Eq. 5) — the evaluator must recombine them."""
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        x0 = 20000
        pitch = fill_rules.pitch
        feats = [
            FillFeature("metal3", Rect(x0, gap_lo + 500 + i * pitch,
                                       x0 + 500, gap_lo + 1000 + i * pitch))
            for i in range(2)
        ]
        one = evaluate_impact(two_line_layout, "metal3", feats[:1], fill_rules)
        two = evaluate_impact(two_line_layout, "metal3", feats, fill_rules)
        assert two.total_ps > 2 * one.total_ps

    def test_feature_outside_gap_free(self, two_line_layout, fill_rules):
        """A feature far below both lines (boundary block) has no modeled
        coupling impact."""
        feature = FillFeature("metal3", Rect(20000, 1000, 20500, 1500))
        report = evaluate_impact(two_line_layout, "metal3", [feature], fill_rules)
        assert report.total_ps == 0.0
        assert report.features_free == 1

    def test_feature_on_active_rejected(self, two_line_layout, fill_rules):
        seg_rect = two_line_layout.segments_on_layer("metal3")[0].rect
        bad = FillFeature("metal3", Rect(seg_rect.xlo + 100, seg_rect.ylo,
                                         seg_rect.xlo + 600, seg_rect.ylo + 500))
        with pytest.raises(FillError, match="active"):
            evaluate_impact(two_line_layout, "metal3", [bad], fill_rules)

    def test_per_net_breakdown_sums_to_total(self, two_line_layout, fill_rules):
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        feats = [
            FillFeature("metal3", Rect(x, gap_lo + 1000, x + 500, gap_lo + 1500))
            for x in (10000, 20000, 30000)
        ]
        report = evaluate_impact(two_line_layout, "metal3", feats, fill_rules)
        assert sum(report.per_net_ps.values()) == pytest.approx(report.total_ps)
        assert sum(report.per_net_weighted_ps.values()) == pytest.approx(
            report.weighted_total_ps
        )

    def test_other_layer_features_ignored(self, two_line_layout, fill_rules):
        feature = FillFeature("metal5", Rect(20000, 1000, 20500, 1500))
        report = evaluate_impact(two_line_layout, "metal3", [feature], fill_rules)
        assert report.features_scored == 0

    def test_downstream_positions_cost_more(self, two_line_layout, fill_rules):
        """Same column geometry, farther from the driver → larger impact
        (entry resistance grows)."""
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        near = FillFeature("metal3", Rect(5000, gap_lo + 1000, 5500, gap_lo + 1500))
        far = FillFeature("metal3", Rect(35000, gap_lo + 1000, 35500, gap_lo + 1500))
        near_r = evaluate_impact(two_line_layout, "metal3", [near], fill_rules)
        far_r = evaluate_impact(two_line_layout, "metal3", [far], fill_rules)
        assert far_r.total_ps > near_r.total_ps


class TestEngine:
    def make_config(self, fill_rules, method="greedy", **kwargs):
        return EngineConfig(
            fill_rules=fill_rules,
            density_rules=DensityRules(window_size=16000, r=2, max_density=0.6),
            method=method,
            **kwargs,
        )

    def test_unknown_method_rejected(self, fill_rules):
        with pytest.raises(FillError):
            self.make_config(fill_rules, method="anneal")

    def test_bad_margin_rejected(self, fill_rules):
        with pytest.raises(FillError):
            self.make_config(fill_rules, capacity_margin=0.0)

    def test_bad_target_rejected(self, fill_rules):
        with pytest.raises(FillError):
            self.make_config(fill_rules, target_density="median")

    def test_unknown_layer_rejected(self, small_generated_layout, fill_rules):
        with pytest.raises(FillError):
            PILFillEngine(small_generated_layout, "poly", self.make_config(fill_rules))

    def test_run_places_requested_budget(self, small_generated_layout, fill_rules):
        engine = PILFillEngine(
            small_generated_layout, "metal3", self.make_config(fill_rules)
        )
        result = engine.run()
        assert result.total_features == sum(result.effective_budget.values())
        assert result.shortfall >= 0
        assert result.clean
        assert_fill_invariants(result, engine.prepared)

    def test_fill_is_drc_clean(self, small_generated_layout, fill_rules):
        engine = PILFillEngine(
            small_generated_layout, "metal3", self.make_config(fill_rules)
        )
        result = engine.run()
        assert result.features
        for feature in result.features:
            small_generated_layout.add_fill(feature)
        try:
            assert validate_fill(small_generated_layout, fill_rules).ok
        finally:
            small_generated_layout.fills.clear()

    def test_engine_does_not_mutate_layout(self, small_generated_layout, fill_rules):
        before = small_generated_layout.stats()
        PILFillEngine(
            small_generated_layout, "metal3", self.make_config(fill_rules)
        ).run()
        assert small_generated_layout.stats() == before

    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_place_identical_counts(
        self, small_generated_layout, fill_rules, method
    ):
        """Identical per-tile budgets → identical density-control quality."""
        base = PILFillEngine(
            small_generated_layout, "metal3", self.make_config(fill_rules)
        ).run()
        engine = PILFillEngine(
            small_generated_layout, "metal3", self.make_config(fill_rules, method=method)
        )
        result = engine.run(budget=base.requested_budget)
        assert result.effective_budget == base.effective_budget
        assert_fill_invariants(result, engine.prepared)

    def test_method_ordering_on_small_case(self, small_generated_layout, fill_rules):
        """ILP-II must beat Normal; the DP oracle must match ILP-II's
        model objective."""
        budget = None
        impacts = {}
        objectives = {}
        for method in ("normal", "ilp2", "dp"):
            engine = PILFillEngine(
                small_generated_layout, "metal3",
                self.make_config(fill_rules, method=method, backend="scipy"),
            )
            result = engine.run(budget=budget)
            if budget is None:
                budget = result.requested_budget
            objectives[method] = result.model_objective_ps
            impacts[method] = evaluate_impact(
                small_generated_layout, "metal3", result.features, fill_rules
            ).weighted_total_ps
        assert impacts["ilp2"] <= impacts["normal"]
        # DP is exactly optimal; ILP-II matches within the MILP solver's
        # relative gap tolerance (HiGHS defaults to ~1e-4). Different
        # tie-breaks also mean evaluated impact is only approximately equal.
        assert objectives["dp"] <= objectives["ilp2"] + 1e-12
        assert objectives["dp"] == pytest.approx(objectives["ilp2"], rel=1e-3)
        assert impacts["dp"] == pytest.approx(impacts["ilp2"], rel=0.05)

    def test_normal_seed_changes_placement(self, small_generated_layout, fill_rules):
        a = PILFillEngine(
            small_generated_layout, "metal3",
            self.make_config(fill_rules, method="normal", seed=1),
        ).run()
        b = PILFillEngine(
            small_generated_layout, "metal3",
            self.make_config(fill_rules, method="normal", seed=2),
        ).run(budget=a.requested_budget)
        ra = {f.rect for f in a.features}
        rb = {f.rect for f in b.features}
        assert ra != rb

    def test_montecarlo_budget_mode(self, small_generated_layout, fill_rules):
        engine = PILFillEngine(
            small_generated_layout, "metal3",
            self.make_config(fill_rules, budget_mode="montecarlo"),
        )
        result = engine.run()
        assert result.total_features > 0

    def test_density_improves_post_fill(self, small_generated_layout, fill_rules):
        cfg = self.make_config(fill_rules)
        engine = PILFillEngine(small_generated_layout, "metal3", cfg)
        result = engine.run()
        dissection = FixedDissection(small_generated_layout.die, cfg.density_rules)
        before = DensityMap.from_layout(
            dissection, small_generated_layout, "metal3"
        ).stats()
        for f in result.features:
            small_generated_layout.add_fill(f)
        try:
            after = DensityMap.from_layout(
                dissection, small_generated_layout, "metal3", include_fill=True
            ).stats()
        finally:
            small_generated_layout.fills.clear()
        assert after.min_density > before.min_density
        assert after.variation < before.variation

    def test_phase_seconds_recorded(self, small_generated_layout, fill_rules):
        result = PILFillEngine(
            small_generated_layout, "metal3", self.make_config(fill_rules)
        ).run()
        assert set(result.phase_seconds) == {
            "setup", "scanline", "density", "costs", "budget", "solve"
        }
        assert all(v >= 0 for v in result.phase_seconds.values())
        # Per-tile breakdown: one entry per solved tile, summing to no more
        # than the solve phase's wall clock (serial path).
        assert set(result.tile_seconds) == set(result.tile_solutions)
        assert all(v >= 0 for v in result.tile_seconds.values())

    def test_column_def_ablation_runs(self, small_generated_layout, fill_rules):
        for definition in SlackColumnDef:
            engine = PILFillEngine(
                small_generated_layout, "metal3",
                self.make_config(fill_rules, column_def=definition),
            )
            result = engine.run()
            assert result.total_features >= 0
