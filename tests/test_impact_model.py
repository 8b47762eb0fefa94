"""The one delay-impact scorer: ``evaluate_impact`` is a one-shot
``ImpactModel.score``, bit for bit."""

import random

import pytest

from repro.errors import FillError
from repro.experiments.harness import TABLE_METHODS
from repro.geometry import Rect
from repro.layout import FillFeature
from repro.pilfill import EngineConfig, ImpactModel, PILFillEngine, evaluate_impact, prepare
from repro.synth import default_fill_rules, density_rules_for, make_t1, make_t2
from tests.scanline_oracle import oracle_sweep_gap_blocks


def table_placements(layout, window_um, r, methods=TABLE_METHODS):
    """``{method: features}`` on metal3, sharing one prepare and budget
    the way the table harness does."""
    rules = default_fill_rules(layout.stack)
    density = density_rules_for(window_um, r, layout.stack)
    prepared = prepare(layout, "metal3", rules, density)
    placements, budget = {}, None
    for method in methods:
        cfg = EngineConfig(
            fill_rules=rules, density_rules=density, method=method, backend="scipy"
        )
        run = PILFillEngine(layout, "metal3", cfg, prepared=prepared).run(budget=budget)
        budget = run.requested_budget if budget is None else budget
        placements[method] = run.features
    return placements


def report_fields(report):
    return (
        report.total_ps,
        report.weighted_total_ps,
        list(report.per_net_ps.items()),
        list(report.per_net_weighted_ps.items()),
        report.columns,
        report.features_scored,
        report.features_free,
    )


class TestAgainstBatchEvaluator:
    def test_identical_on_engine_placement(self, small_generated_layout):
        """Every table method at 32/2 and 20/8: score == evaluate_impact
        exactly, per-net dicts in the same order."""
        rules = default_fill_rules(small_generated_layout.stack)
        for window_um, r in ((32, 2), (20, 8)):
            placements = table_placements(small_generated_layout, window_um, r)
            for method, features in placements.items():
                assert features, (window_um, r, method)
                batch = evaluate_impact(small_generated_layout, "metal3", features, rules)
                model = ImpactModel(small_generated_layout, "metal3", rules)
                assert report_fields(model.score(features)) == report_fields(batch), (
                    window_um, r, method,
                )

    @pytest.mark.parametrize(
        ("make", "method", "expected"),
        [
            (make_t1, "greedy", "0.037435400583224476"),
            (make_t2, "normal", "0.5214545399143629"),
        ],
    )
    def test_weighted_tau_bits_pinned(self, make, method, expected):
        """The τ the golden tables and the benchmark digest are computed
        from: a change to the accumulation order moves the last bits."""
        layout = make()
        features = table_placements(layout, 32, 2, methods=("normal", "greedy"))[method]
        impact = evaluate_impact(layout, "metal3", features, default_fill_rules(layout.stack))
        assert repr(impact.weighted_total_ps) == expected

    def test_empty_placement(self, two_line_layout, fill_rules):
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        report = model.score([])
        assert report.total_ps == 0.0

    def test_model_reusable(self, two_line_layout, fill_rules):
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        f1 = FillFeature("metal3", Rect(10000, gap_lo + 1000, 10500, gap_lo + 1500))
        f2 = FillFeature("metal3", Rect(30000, gap_lo + 1000, 30500, gap_lo + 1500))
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        a = model.score([f1])
        b = model.score([f2])
        both = model.score([f1, f2])
        assert both.total_ps == pytest.approx(a.total_ps + b.total_ps)


class TestCoalescedBlocks:
    @pytest.mark.parametrize("make", [make_t1, make_t2], ids=["T1", "T2"])
    @pytest.mark.parametrize(("window_um", "r"), [(32, 2), (20, 8)], ids=["32-2", "20-8"])
    def test_tau_bits_equal_on_oracle_blocks(self, monkeypatch, make, window_um, r):
        """The sweep emits one block where the fragment-scan oracle emitted
        a run of abutting ones, so the block ids differ. The scores on
        every table method's placement and on a seeded random third of the
        legal sites must still be equal, float bits and dict order alike."""
        layout = make()
        rules = default_fill_rules(layout.stack)
        placements = table_placements(layout, window_um, r)
        prepared = prepare(layout, "metal3", rules, density_rules_for(window_um, r, layout.stack))
        sites = [
            FillFeature("metal3", site)
            for cols in prepared.columns_by_tile.values()
            for col in cols
            for site in col.sites
        ]
        placements["random"] = random.Random(window_um * r).sample(sites, len(sites) // 3)
        model = ImpactModel(layout, "metal3", rules)
        monkeypatch.setattr("repro.pilfill.evaluate.sweep_gap_blocks", oracle_sweep_gap_blocks)
        oracle_model = ImpactModel(layout, "metal3", rules)
        assert model.block_count < oracle_model.block_count
        for method, features in placements.items():
            ours, theirs = model.score(features), oracle_model.score(features)
            assert repr(ours.weighted_total_ps) == repr(theirs.weighted_total_ps), method
            assert report_fields(ours) == report_fields(theirs), method


class TestMarginalCost:
    def test_first_feature_cost(self, two_line_layout, fill_rules):
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        feature = FillFeature("metal3", Rect(20000, gap_lo + 1000, 20500, gap_lo + 1500))
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        marginal = model.marginal_cost_ps(feature)
        assert marginal == pytest.approx(model.score([feature]).weighted_total_ps)

    def test_marginal_respects_nonlinearity(self, two_line_layout, fill_rules):
        """Second feature in the same column costs more than the first."""
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        pitch = fill_rules.pitch
        f1 = FillFeature("metal3", Rect(20000, gap_lo + 500, 20500, gap_lo + 1000))
        f2 = FillFeature(
            "metal3", Rect(20000, gap_lo + 500 + pitch, 20500, gap_lo + 1000 + pitch)
        )
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        first = model.marginal_cost_ps(f1)
        second = model.marginal_cost_ps(f2, existing=[f1])
        assert second > first

    def test_marginals_sum_to_total(self, two_line_layout, fill_rules):
        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        pitch = fill_rules.pitch
        feats = [
            FillFeature("metal3", Rect(20000, gap_lo + 500 + i * pitch,
                                       20500, gap_lo + 1000 + i * pitch))
            for i in range(3)
        ]
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        total = 0.0
        for i, f in enumerate(feats):
            total += model.marginal_cost_ps(f, existing=feats[:i])
        assert total == pytest.approx(model.score(feats).weighted_total_ps)

    def test_free_feature_zero_marginal(self, two_line_layout, fill_rules):
        feature = FillFeature("metal3", Rect(20000, 1000, 20500, 1500))
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        assert model.marginal_cost_ps(feature) == 0.0

    def test_feature_on_active_rejected(self, two_line_layout, fill_rules):
        rect = two_line_layout.segments_on_layer("metal3")[0].rect
        bad = FillFeature("metal3", Rect(rect.xlo + 100, rect.ylo, rect.xlo + 600, rect.ylo + 500))
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        with pytest.raises(FillError):
            model.locate(bad)

    def test_block_count_positive(self, two_line_layout, fill_rules):
        model = ImpactModel(two_line_layout, "metal3", fill_rules)
        assert model.block_count >= 3
