"""Chip-scale streaming gate (slow; CI runs it separately).

The acceptance check of the streaming DEF-lite reader on the T3 die
(768 µm, W=20 µm, r=8: a 308×308 tile grid with ~90 000 density windows).
The band-sorted T3 DEF is written to a temp file, then read two ways:

* **materialized** — ``read_text`` + :func:`parse_def` (the whole text and
  the whole ``RoutedLayout`` resident at once), then
  ``DensityMap.from_layout``;
* **streaming** — :func:`parse_def_streaming` with ``keep_nets=False``,
  union-folding each net's clipped rects into the per-tile area grid as
  the net is parsed and dropped.

The streamed tile areas must equal the materialized ones, and the
streaming parse's tracemalloc peak must stay under half the materialized
parse's. The dissection is identical for both paths and is built from
the spec's die outside both measured regions, so the peaks compare the
resident input. Run at a tenth of the net count (the grid is fixed by the
spec) and at the full 7 000 nets.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.dissection.density import DensityMap, clip_to_tiles
from repro.dissection.fixed import FixedDissection
from repro.geometry import total_area
from repro.io.deflite import parse_def, parse_def_streaming
from repro.synth import density_rules_for, iter_t3_def_lines, spec_die, t3_spec
from repro.tech.process import default_stack

LAYER = "metal3"


def traced_peak(fn):
    """``fn()``'s result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.slow
class TestT3StreamingGate:
    @pytest.fixture(scope="class", params=[700, 7000], ids=lambda n: f"{n}-nets")
    def t3(self, request, tmp_path_factory):
        n_nets = request.param
        stack = default_stack()
        dissection = FixedDissection(
            spec_die(t3_spec(n_nets=n_nets), stack), density_rules_for(20, 8, stack)
        )
        path = tmp_path_factory.mktemp("t3") / "t3.def"
        with path.open("w") as fh:
            for line in iter_t3_def_lines(stack, n_nets=n_nets):
                fh.write(line + "\n")

        layout, mat_peak = traced_peak(lambda: parse_def(path.read_text(), stack))
        materialized = DensityMap.from_layout(dissection, layout, LAYER)

        # Each net's clips are union-folded into the area grid and dropped,
        # so the resident state is O(die grid), not O(input). The per-net
        # fold is exact: a cross-net same-layer overlap would be a short,
        # and every partial sum is an exact float64 integer.
        streamed = np.zeros((dissection.nx, dissection.ny), dtype=np.float64)

        def on_net(net, start_line: int) -> None:
            net_clips: dict[tuple[int, int], list] = {}
            for seg in net.segments:
                if seg.layer == LAYER:
                    clip_to_tiles(dissection, seg.rect, net_clips)
            for key, clips in net_clips.items():
                streamed[key] += total_area(clips)

        def stream():
            with path.open() as fh:
                return parse_def_streaming(fh, stack, on_net=on_net, keep_nets=False)

        _, stream_peak = traced_peak(stream)
        return {
            "n_nets": n_nets,
            "nets_parsed": len(layout.nets),
            "windows": materialized.window_density().shape,
            "materialized": materialized.tile_area,
            "streamed": streamed,
            "peak_ratio": stream_peak / mat_peak,
        }

    def test_grid_is_chip_scale(self, t3):
        # W=20 µm / r=8 on the 768 µm T3 die: 2.5 µm tiles, 308 per side.
        assert t3["materialized"].shape == (308, 308)
        assert t3["windows"] == (301, 301)

    def test_all_nets_parsed(self, t3):
        # Rejection sampling may place slightly fewer nets than asked.
        assert 0 < t3["nets_parsed"] <= t3["n_nets"]

    def test_streamed_equals_materialized(self, t3):
        assert np.array_equal(t3["streamed"], t3["materialized"])

    def test_streaming_peak_gate(self, t3):
        assert t3["peak_ratio"] < 0.5, t3["peak_ratio"]
