"""Large-grid Min-Var budget LP gate (slow; CI runs it separately).

The budget LP is built as a sparse CSC matrix straight from the tile
grid, so its memory grows with the nonzeros (about 2·r² per window), not
with rows × columns as a dense matrix does. On synthetic r=8 grids the
52x52 LP's peak-RSS step must stay under 120 MB (the dense build took
about 280 MB there), and the 77x77 LP — about 9 800 rows, where one dense
matrix copy alone is 465 MB — must complete.

Each grid runs in a fresh spawned process: a peak-RSS high-water mark
only ever rises, so a shared process would charge each grid only for
what it added over the last.
"""

from __future__ import annotations

import multiprocessing
import resource
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.dissection.density import DensityMap
from repro.dissection.fixed import FixedDissection
from repro.fillsynth.budget import lp_minvar_budget, minvar_lp_size
from repro.geometry import Rect
from repro.synth import default_fill_rules, density_rules_for
from repro.tech.process import default_stack

#: Tile grids (per side), all at r=8: the chip workload's 29x29, then
#: about 4x and 10x its window count.
GRIDS = (29, 52, 77)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (``VmHWM`` on Linux)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def budget_lp_point(n: int, r: int = 8, seed: int = 0) -> dict:
    """One Min-Var budget LP on a synthetic ``n``x``n`` tile grid."""
    stack = default_stack()
    fill_rules = default_fill_rules(stack)
    density_rules = density_rules_for(20, r, stack)
    tile = density_rules.tile_size
    dissection = FixedDissection(Rect(0, 0, n * tile, n * tile), density_rules)
    rng = np.random.default_rng(seed)
    # Pre-fill densities of 5-40% per tile, and 0-8 fill sites of slack.
    tile_area = np.floor(rng.uniform(0.05, 0.4, size=(n, n)) * tile * tile)
    capacity = {t.key: int(rng.integers(0, 9)) for t in dissection.tiles()}
    density = DensityMap(dissection, tile_area)

    rss_before = peak_rss_mb()
    budget = lp_minvar_budget(density, capacity, fill_rules, target_density="mean")
    return {
        **minvar_lp_size(dissection),
        "rss_step_mb": peak_rss_mb() - rss_before,
        "features": sum(budget.values()),
    }


@pytest.mark.slow
class TestBudgetLPGate:
    @pytest.fixture(scope="class")
    def points(self):
        points = {}
        for n in GRIDS:
            with ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("spawn")
            ) as pool:
                points[n] = pool.submit(budget_lp_point, n).result()
        return points

    def test_grids_and_lp_sizes(self, points):
        assert sorted(points) == [29, 52, 77]
        for n, point in points.items():
            windows = (n - 7) ** 2
            assert point["lp_vars"] == n * n + 1
            assert point["lp_rows"] == 2 * windows
            assert point["lp_nnz"] == windows * (2 * 64 + 1)
            assert point["features"] > 0

    def test_52_rss_step_gate(self, points):
        assert points[52]["rss_step_mb"] < 120.0, points[52]["rss_step_mb"]

    def test_77_completes(self, points):
        # The pool raises if the child dies, so a result means it completed.
        assert points[77]["features"] > 0
