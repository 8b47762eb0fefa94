"""Sharded-solve gate (slow; CI runs it separately).

The acceptance check of grid sharding: on one shared prepared instance,
the solve run in row-band shards (each shard builds its band's cost
tables and releases them when it merges) must place bit for bit what the
unsharded solve places, with every cost table resident at once. Equal
:func:`~repro.pilfill.shard.result_digest` covers the feature list in
order, both budget maps, per-tile counts and site indices, and the float
objective. The sharded arm must also hold a strictly lower tracemalloc
peak. It runs first, so the unsharded arm's memoized cost build cannot
leak into its peak.

Both arms take the same uniform per-tile budget: the min-variance LP is
its own gate (``test_bench_budget.py``), and the budget is part of the
digest. The die is T3 at a quarter of its side (192 µm, 1/16 of the
area, the same net density): both gates are properties of the
band-at-a-time residency, which only widens with the grid.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import pytest

from repro.pilfill import EngineConfig, PILFillEngine, prepare
from repro.pilfill.shard import plan_shards, result_digest
from repro.synth import default_fill_rules, density_rules_for, generate_layout, t3_spec
from repro.tech.process import default_stack

#: Quarter-side T3: a 77×77 grid (~6 000 tiles).
DIE_UM = 192.0
N_NETS = 440
BUDGET_PER_TILE = 4


@pytest.mark.slow
class TestT3ShardGate:
    @pytest.fixture(scope="class", params=[4, 2], ids=lambda n: f"{n}-shards")
    def arms(self, request):
        shards = request.param
        stack = default_stack()
        layout = generate_layout(replace(t3_spec(n_nets=N_NETS), die_um=DIE_UM), stack)
        fill_rules = default_fill_rules(stack)
        density_rules = density_rules_for(20, 8, stack)
        prepared = prepare(layout, "metal3", fill_rules, density_rules)
        budget = {tile.key: BUDGET_PER_TILE for tile in prepared.dissection.tiles()}
        plan = plan_shards(prepared, n_shards=shards)

        def run_arm(n_shards: int):
            cfg = EngineConfig(
                fill_rules=fill_rules, density_rules=density_rules,
                method="greedy", backend="scipy", seed=0, shards=n_shards,
            )
            engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
            tracemalloc.start()
            try:
                result = engine.run(budget=dict(budget))
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sharded, sharded_peak = run_arm(shards)
        unsharded, unsharded_peak = run_arm(1)
        arms = {
            "shards": shards,
            "grid": (prepared.dissection.nx, prepared.dissection.ny),
            "plan_rows": [s.rows for s in plan.shards],
            "sharded": sharded,
            "unsharded": unsharded,
            "sharded_peak": sharded_peak,
            "unsharded_peak": unsharded_peak,
        }
        prepared.close()
        return arms

    def test_grid_and_plan_shape(self, arms):
        # W=20 µm / r=8 on a 192 µm die: 2.5 µm tiles, 77 per side.
        assert arms["grid"] == (77, 77)
        rows = arms["plan_rows"]
        assert len(rows) == arms["shards"]
        assert sum(rows) == 77
        assert max(rows) - min(rows) <= 1

    def test_digest_equality_gate(self, arms):
        assert arms["unsharded"].total_features > 0
        assert result_digest(arms["sharded"]) == result_digest(arms["unsharded"])

    def test_shard_peak_gate(self, arms):
        assert arms["sharded_peak"] < arms["unsharded_peak"], (
            arms["sharded_peak"], arms["unsharded_peak"],
        )
