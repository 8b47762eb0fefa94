"""Chip-scale streaming benchmark gate (slow; CI runs it separately).

The acceptance check of the streaming DEF-lite reader: on the T3 die
(768 µm, W=20 µm, r=8 — a ~308x308 tile grid with ~90 000 density
windows) the streaming parse's tracemalloc peak must stay under half the
materialized parse's, and its tile areas must equal the materialized
ones. Run at a tenth of the full net count: the grid is fixed by the
spec and the resident-input asymmetry only widens with more nets — the
full 7 000-net row is produced by ``run_bench.py`` / ``t3_smoke.py``.
"""

from __future__ import annotations

import pytest
import run_bench

#: A tenth of chip scale: seconds instead of tens of seconds under
#: tracemalloc, same 308x308 grid, same gates.
N_NETS = 700


@pytest.mark.slow
class TestT3StreamingGate:
    @pytest.fixture(scope="class")
    def report(self):
        return run_bench.bench_t3_streaming(n_nets=N_NETS)

    def test_grid_is_chip_scale(self, report):
        # W=20 µm / r=8 on the 768 µm T3 die: 2.5 µm tiles, 308 per side.
        assert report["grid"] == [308, 308]
        assert report["windows"] >= 90_000

    def test_bit_identity_held(self, report):
        # The bench raises before returning if the streamed tile areas
        # diverge from the materialized ones; the flag records that it held.
        assert report["bit_identical"]

    def test_all_nets_parsed(self, report):
        # Rejection sampling may place slightly fewer nets than asked;
        # both readers must see every net that was actually written.
        assert 0 < report["nets_parsed"] <= N_NETS
        assert report["n_nets"] == N_NETS

    def test_streaming_peak_gate(self, report):
        gate = report["gate"]
        assert not gate["skipped"]
        assert gate["stream_peak_lt_half"], report["streaming_peak_ratio"]
