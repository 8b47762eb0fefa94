"""Incremental ECO re-fill gate (slow; CI runs it separately).

The acceptance check of the content-addressed tile-solution cache. A full
fill primes the cache, a deterministic edit lands in a ~1%-area window,
and the edited layout is re-filled twice: warm (against the primed cache,
after invalidating the edit's dirty tiles) and cold (no cache). The warm
re-fill must be bit-identical to the cold one and must reuse cached work.
Two scenarios:

* ``t2-ilp2-memory`` — T2 at W=20 µm / r=8 (a 39×39 grid), ILP-II, an
  in-memory cache. Both re-fills reuse the priming run's tile budgets, so
  float-level drift of a re-derived min-variance LP in far-away windows
  cannot mask the locality of the edit. Its warm solve phase must beat
  the cold one by more than 5×: digest lookup against re-solving is a
  single-core comparison, so the gate needs no host-capability skip.
* ``t1-dp-disk`` — T1 at 32/2, DP, a disk-backed cache, edit seeds from
  2. Both re-fills re-derive their budgets from the LP. Its 8×8 grid
  holds too little solve work for a speed gate.

Both fix the density target to the base layout's mean window density (not
``"mean"``), so the configuration does not depend on the edit. Solve
seconds are the engine's ``solve`` phase span time.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import pytest

from repro.geometry import Rect
from repro.pilfill import EngineConfig, FillResult, PILFillEngine, SolutionCache, prepare
from repro.synth import default_fill_rules, density_rules_for, edit_window, make_t1, make_t2


@dataclass(frozen=True)
class EcoScenario:
    make_layout: Callable
    window: int
    r: int
    method: str
    disk_cache: bool
    first_seed: int
    reuse_budget: bool
    tiles: int
    #: The warm solve phase must beat the cold one by more than this.
    min_solve_speedup: float | None


SCENARIOS = {
    # r=8 on the 96 µm T2 die with 20 µm windows: 39×39 tiles.
    "t2-ilp2-memory": EcoScenario(make_t2, 20, 8, "ilp2", False, 1, True, 39 * 39, 5.0),
    # r=2 on the 128 µm T1 die with 32 µm windows: 8×8 tiles, too little
    # solve work for a speed gate.
    "t1-dp-disk": EcoScenario(make_t1, 32, 2, "dp", True, 2, False, 8 * 8, None),
}


def eco_edit(layout, prepared, prime: FillResult, first_seed: int):
    """A deterministic edit that dirties solved tiles.

    The window has 1/10 of the die side (~1% of its area) and is centered
    on the median *solved* tile, since a corner window could land on
    zero-budget tiles only. The edit is random within the window, so seeds
    from ``first_seed`` on are scanned until its dirty rect crosses a
    solved tile: the warm run then re-solves work, not just reuses it.
    """
    side = max(1, layout.die.width // 10)
    solved = sorted(prime.tile_solutions)
    anchor = {t.key: t.rect for t in prepared.dissection.tiles()}[solved[len(solved) // 2]]
    cx = (anchor.xlo + anchor.xhi) // 2
    cy = (anchor.ylo + anchor.yhi) // 2
    window = Rect(cx - side // 2, cy - side // 2, cx + side // 2, cy + side // 2)
    tile_index = prepared.tile_index()
    for seed in range(first_seed, first_seed + 32):
        edited, summary = edit_window(layout, window, seed=seed)
        if any(k in prime.tile_solutions for k in tile_index.query(summary.rect)):
            break
    return window, edited, summary


@pytest.mark.slow
class TestEcoRefillGate:
    @pytest.fixture(scope="class", params=list(SCENARIOS), ids=list(SCENARIOS))
    def eco(self, request, tmp_path_factory):
        scenario = SCENARIOS[request.param]
        layout = scenario.make_layout()
        fill_rules = default_fill_rules(layout.stack)
        density_rules = density_rules_for(scenario.window, scenario.r, layout.stack)
        base_prep = prepare(layout, "metal3", fill_rules, density_rules)
        target = float(base_prep.density.window_density().mean())

        def fill(design, prepared, cache, budget=None) -> FillResult:
            cfg = EngineConfig(
                fill_rules=fill_rules, density_rules=density_rules,
                method=scenario.method, backend="scipy", seed=0,
                target_density=target, solution_cache=cache,
            )
            return PILFillEngine(design, "metal3", cfg, prepared=prepared).run(
                budget=None if budget is None else dict(budget)
            )

        cache_dir = tmp_path_factory.mktemp("eco-cache") if scenario.disk_cache else None
        cache = SolutionCache(cache_dir=cache_dir)
        prime = fill(layout, base_prep, cache)
        window, edited, summary = eco_edit(layout, base_prep, prime, scenario.first_seed)
        budget = prime.requested_budget if scenario.reuse_budget else None
        # Each re-fill prepares the edited layout afresh.
        cold_prep = prepare(edited, "metal3", fill_rules, density_rules)
        cold = fill(edited, cold_prep, None, budget)
        # Evict the entries the edit staled; the digest already guarantees
        # they could never be wrongly hit.
        dirty = cache.invalidate_window(cold_prep.tile_index(), summary.rect)
        warm_prep = prepare(edited, "metal3", fill_rules, density_rules)
        warm = fill(edited, warm_prep, cache, budget)
        return {
            "scenario": scenario,
            "tiles": len(cold_prep.columns_by_tile),
            "window_area_fraction": window.area / layout.die.area,
            "action": summary.action,
            "dirty": dirty,
            "invalidated": cache.invalidated,
            "cold": cold,
            "warm": warm,
        }

    def test_grid_size(self, eco):
        assert eco["tiles"] == eco["scenario"].tiles

    def test_edit_is_small(self, eco):
        # The scenario's premise: the edit covers ~1% of the die.
        assert eco["window_area_fraction"] <= 0.02
        assert eco["action"] in ("insert", "remove")

    def test_edit_dirtied_cached_work(self, eco):
        # The seed scan must land an edit that crosses solved tiles;
        # otherwise the run shows reuse but never exercises invalidation.
        assert len(eco["dirty"]) > 0
        assert eco["invalidated"] > 0

    def test_warm_equals_uncached_reference(self, eco):
        warm, cold = eco["warm"], eco["cold"]
        assert warm.features == cold.features
        assert warm.tile_solutions == cold.tile_solutions
        assert warm.solve_reports == cold.solve_reports

    def test_cache_mostly_hit(self, eco):
        stats = eco["warm"].cache_stats
        assert stats["hits"] > 0
        # Re-solves (misses) stay proportionate to the edit, not the die.
        assert stats["misses"] < stats["hits"]
        assert stats["stores"] == stats["misses"]

    def test_warm_solve_speedup_gate(self, eco):
        bound = eco["scenario"].min_solve_speedup
        if bound is None:
            pytest.skip("no speed gate at this grid size")
        speedup = eco["cold"].solve_seconds / eco["warm"].solve_seconds
        assert speedup > bound, speedup
