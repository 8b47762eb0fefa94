"""The ref [4] smoothness metrics."""

import numpy as np
import pytest

from repro.dissection import DensityMap, FixedDissection, smoothness
from repro.geometry import Rect
from repro.tech import DensityRules


def uniform_density(dissection, value):
    areas = np.full((dissection.nx, dissection.ny), value * dissection.tile_size ** 2)
    return DensityMap(dissection, areas)


class TestSmoothness:
    def make(self, r=2):
        d = FixedDissection(Rect(0, 0, 64000, 64000), DensityRules(16000, r))
        return d

    def test_uniform_layout_all_zero(self):
        d = self.make()
        report = smoothness(uniform_density(d, 0.3))
        assert report.variation == pytest.approx(0.0)
        assert report.smoothness_type1 == pytest.approx(0.0)
        assert report.smoothness_type2 == pytest.approx(0.0)
        assert report.gradient == pytest.approx(0.0)

    def test_single_hot_tile(self):
        d = self.make()
        areas = np.zeros((d.nx, d.ny))
        areas[0, 0] = d.tile_size ** 2  # one full tile
        report = smoothness(DensityMap(d, areas))
        assert report.variation == pytest.approx(0.25)
        # overlapping windows (0,0) vs (1,1): 0.25 vs 0 difference
        assert report.smoothness_type1 == pytest.approx(0.25)
        assert report.smoothness_type2 > 0
        assert report.gradient == pytest.approx(0.25)

    def test_variation_bounds_both_metrics(self):
        """Variation (global max-min) dominates any pairwise difference —
        overlapping (type-I) or same-phase adjacent (gradient). Note the
        gradient pairs do NOT overlap (they sit r apart), so type-I does
        not bound the gradient."""
        d = self.make()
        rng = np.random.default_rng(0)
        areas = rng.uniform(0, d.tile_size ** 2, size=(d.nx, d.ny))
        report = smoothness(DensityMap(d, areas))
        assert report.variation >= report.smoothness_type1 - 1e-12
        assert report.variation >= report.gradient - 1e-12

    def test_fill_improves_smoothness(self, stack, fill_rules):
        """PIL-Fill output must not worsen (and typically improves) the
        smoothness metrics."""
        from repro.pilfill import EngineConfig, PILFillEngine
        from repro.synth import GeneratorSpec, generate_layout

        layout = generate_layout(
            GeneratorSpec(name="s", die_um=48.0, n_nets=24, seed=7,
                          trunk_len_um=(8.0, 24.0), branch_len_um=(2.0, 8.0)),
            stack,
        )
        rules = DensityRules(window_size=16000, r=2, max_density=0.6)
        dissection = FixedDissection(layout.die, rules)
        before = smoothness(DensityMap.from_layout(dissection, layout, "metal3"))
        cfg = EngineConfig(fill_rules=fill_rules, density_rules=rules,
                           method="greedy", backend="scipy")
        result = PILFillEngine(layout, "metal3", cfg).run()
        for f in result.features:
            layout.add_fill(f)
        try:
            after = smoothness(
                DensityMap.from_layout(dissection, layout, "metal3", include_fill=True)
            )
        finally:
            layout.fills.clear()
        assert after.variation <= before.variation + 1e-9

    def test_str(self):
        d = self.make()
        text = str(smoothness(uniform_density(d, 0.1)))
        assert "variation" in text and "gradient" in text
