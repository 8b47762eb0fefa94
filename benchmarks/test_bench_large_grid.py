"""Large-grid persistent-pool gate (slow; CI runs it separately).

The acceptance check of the persistent-pool / chunked-dispatch work, with
each tile's cost tables inline in its payload. On a fine dissection (T1,
W=32 µm, r=8: a 32×32 tile grid) three greedy runs share one prepared
instance:

* serial — the workers=1 baseline;
* cold pool — the first process run, pool spin-up included (what a
  one-shot CLI run pays);
* warm pool — a second process run on the same persistent pool (what
  every further ``engine.run()`` pays).

All three must place the same features, and the cold and warm runs must
share one pool. The warm solve phase must beat the serial one, but only
on a host that can show a parallel speedup: with fewer than 2 CPUs that
test skips itself. The structural checks run everywhere. Solve seconds
are the engine's ``solve`` phase span time.
"""

from __future__ import annotations

import os

import pytest

from repro.pilfill import EngineConfig, PILFillEngine, pool_stats, prepare, shutdown_pools
from repro.synth import default_fill_rules, density_rules_for, make_t1


@pytest.mark.slow
class TestLargeGridGate:
    @pytest.fixture(scope="class")
    def runs(self):
        layout = make_t1()
        fill_rules = default_fill_rules(layout.stack)
        density_rules = density_rules_for(32, 8, layout.stack)
        prepared = prepare(layout, "metal3", fill_rules, density_rules)
        # At least 2 workers: with one the engine takes its serial path
        # and the "process" runs would never touch the pool or the chunker.
        workers = max(2, min(4, os.cpu_count() or 1))

        def run(w: int):
            cfg = EngineConfig(
                fill_rules=fill_rules, density_rules=density_rules,
                method="greedy", backend="scipy", seed=0, workers=w,
            )
            return PILFillEngine(layout, "metal3", cfg, prepared=prepared).run()

        # The first run builds the shared cost and LUT caches on
        # ``prepared``, so no timed run pays for the one-time table build.
        run(1)
        shutdown_pools()  # the cold run must start without a pool
        created_before = pool_stats()["created"]
        runs = {
            "tiles": len(prepared.columns_by_tile),
            "workers": workers,
            # What the host can actually run in parallel.
            "effective_workers": min(workers, os.cpu_count() or 1),
            "serial": run(1),
            "cold": run(workers),
            "warm": run(workers),
        }
        stats = pool_stats()
        runs["pools_live"] = stats["live"]
        runs["pools_created"] = stats["created"] - created_before
        prepared.close()
        shutdown_pools()
        return runs

    def test_grid_is_large(self, runs):
        assert runs["tiles"] == 32 * 32

    def test_pool_runs_equal_serial(self, runs):
        assert runs["cold"].features == runs["serial"].features
        assert runs["warm"].features == runs["serial"].features

    def test_effective_workers_recorded_honestly(self, runs):
        assert runs["workers"] >= 2
        assert runs["effective_workers"] == min(runs["workers"], os.cpu_count() or 1)

    def test_warm_run_reuses_one_pool(self, runs):
        # Cold and warm process runs share one persistent pool: exactly
        # one creation, still live when the warm run returns.
        assert runs["pools_created"] == 1
        assert runs["pools_live"] == 1

    def test_process_speedup_gate(self, runs):
        cpu_count = os.cpu_count() or 1
        if cpu_count < 2:
            pytest.skip(f"cpu_count={cpu_count} < 2: no parallel speedup is possible")
        serial_s = runs["serial"].solve_seconds
        warm_s = runs["warm"].solve_seconds
        assert warm_s < serial_s, {
            "serial_s": serial_s, "warm_s": warm_s,
            "effective_workers": runs["effective_workers"],
        }
