"""Large-grid Min-Var budget LP gate (slow; CI runs it separately).

The budget LP is built as a sparse CSC matrix straight from the tile
grid, so its memory grows with the nonzeros (about 2·r² per window), not
with rows × columns as a dense matrix does. On synthetic r=8 grids the
52x52 LP's peak-RSS step must stay under 120 MB (the dense build took
about 280 MB there), and the 77x77 LP — about 9 800 rows, where one dense
matrix copy alone is 465 MB — must complete.
"""

from __future__ import annotations

import pytest
import run_bench


@pytest.mark.slow
class TestBudgetLPGate:
    @pytest.fixture(scope="class")
    def report(self):
        return run_bench.bench_budget_lp()

    def test_grids_and_lp_sizes(self, report):
        points = {p["grid"][0]: p for p in report["points"]}
        assert sorted(points) == [29, 52, 77]
        for n, point in points.items():
            windows = (n - 7) ** 2
            assert point["lp_vars"] == n * n + 1
            assert point["lp_rows"] == 2 * windows
            assert point["lp_nnz"] == windows * (2 * 64 + 1)
            assert point["features"] > 0

    def test_52_rss_step_gate(self, report):
        step = next(p["rss_step_mb"] for p in report["points"] if p["grid"][0] == 52)
        assert report["gate"]["rss_step_52_lt_120mb"], step

    def test_77_completes(self, report):
        assert report["gate"]["completes_77"]
