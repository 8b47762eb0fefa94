"""Large-grid persistent-pool benchmark gate (slow; CI runs it separately).

The acceptance check of the persistent-pool / chunked-dispatch work,
with each tile's cost tables inline in its payload: on a fine
dissection (r=8, ~1 000 tiles) a warm process-pool run must beat
serial — but only on a host that *can* show a parallel speedup. On single-CPU hosts the gate is skipped with the reason
recorded, never silently passed; the structural fields (bit-identity,
effective-worker honesty, gate bookkeeping) are asserted everywhere.
"""

from __future__ import annotations

import os

import pytest
import run_bench

from repro.synth import default_fill_rules, make_t1


@pytest.mark.slow
class TestLargeGridGate:
    @pytest.fixture(scope="class")
    def report(self):
        layout = make_t1()
        fill_rules = default_fill_rules(layout.stack)
        workers = max(1, min(4, os.cpu_count() or 1))
        return run_bench.bench_large_grid(layout, fill_rules, workers)

    def test_grid_is_large(self, report):
        # r=8 on the 128 µm / 32 µm-window T1 die: a 32×32 tile grid.
        assert report["r"] == 8
        assert report["tiles"] >= 500

    def test_bit_identity_held(self, report):
        for method, entry in report["methods"].items():
            assert entry["bit_identical"], method

    def test_effective_workers_recorded_honestly(self, report):
        cpu_count = os.cpu_count() or 1
        assert report["cpu_count"] == cpu_count
        assert report["effective_workers"] == min(report["workers"], cpu_count)

    def test_warm_run_reuses_one_pool(self, report):
        # Cold + warm process runs share one persistent pool: exactly one
        # creation, torn down again before the report returns.
        for entry in report["methods"].values():
            assert entry["pool_stats"]["created"] == 1
            assert entry["pool_stats"]["live"] == 1

    def test_process_speedup_gate(self, report):
        gate = report["gate"]
        if (os.cpu_count() or 1) < 2:
            assert gate["skipped"]
            assert gate["process_speedup_gt_1"] is None
            assert "cpu_count" in gate["skip_reason"]
            pytest.skip(gate["skip_reason"])
        assert not gate["skipped"]
        assert gate["process_speedup_gt_1"], {
            m: e["process_speedup"] for m, e in report["methods"].items()
        }
