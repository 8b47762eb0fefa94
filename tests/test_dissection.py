"""Fixed r-dissection and density maps."""

import numpy as np
import pytest

from repro.dissection import DensityMap, FixedDissection
from repro.errors import DissectionError
from repro.geometry import Rect
from repro.tech import DensityRules
from tests.conftest import build_two_line_layout


def make_dissection(die_side=32000, window=16000, r=2):
    return FixedDissection(Rect(0, 0, die_side, die_side), DensityRules(window, r))


class TestFixedDissection:
    def test_grid_shape(self):
        d = make_dissection()  # tile = 8000 over 32000 die
        assert (d.nx, d.ny) == (4, 4)
        assert d.tile_count == 16
        assert d.tile_size == 8000

    def test_tiles_cover_die_exactly(self):
        d = make_dissection()
        total = sum(t.rect.area for t in d.tiles())
        assert total == d.die.area

    def test_tile_keys_follow_tiles_without_building_them(self):
        d = FixedDissection(Rect(0, 0, 20000, 28000), DensityRules(16000, 2))
        keys = d.tile_keys()
        assert d._built is None  # keys alone build no Tile
        assert keys == [t.key for t in d.tiles()]
        assert keys == [(ix, iy) for ix in range(d.nx) for iy in range(d.ny)]

    def test_ragged_edge_tiles(self):
        d = FixedDissection(Rect(0, 0, 20000, 20000), DensityRules(16000, 2))
        # tile 8000 -> ceil(20000/8000) = 3 per side, last tile 4000 wide
        assert (d.nx, d.ny) == (3, 3)
        assert d.tile(2, 0).rect.width == 4000
        total = sum(t.rect.area for t in d.tiles())
        assert total == d.die.area

    def test_tile_at_point(self):
        d = make_dissection()
        assert d.tile_at_point(0, 0).key == (0, 0)
        assert d.tile_at_point(8000, 7999).key == (1, 0)
        assert d.tile_at_point(31999, 31999).key == (3, 3)

    def test_tile_at_point_outside_raises(self):
        d = make_dissection()
        with pytest.raises(DissectionError):
            d.tile_at_point(32000, 0)

    def test_tile_out_of_range_raises(self):
        with pytest.raises(DissectionError):
            make_dissection().tile(10, 0)

    def test_tiles_overlapping(self):
        d = make_dissection()
        hits = d.tiles_overlapping(Rect(7000, 7000, 9000, 9000))
        assert {t.key for t in hits} == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert d.tiles_overlapping(Rect(40000, 40000, 50000, 50000)) == []

    def test_window_count_and_composition(self):
        d = make_dissection()  # 4x4 tiles, r=2 -> 3x3 windows
        assert d.window_count == 9
        windows = list(d.windows())
        assert len(windows) == 9
        for win in windows:
            assert len(win.tile_keys) == 4
            assert win.rect.width == 16000

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_window_rects_bound_their_tiles(self, r):
        # Die sides that are not tile multiples: the last row and column
        # of tiles, and every window that holds them, are cut short.
        d = FixedDissection(Rect(-500, 300, 26300, 21700), DensityRules(3000 * r, r))
        assert (d.nx, d.ny) == (9, 8)
        geometry = DensityMap(d, np.zeros((d.nx, d.ny))).window_geometry_area()
        windows = list(d.windows())
        assert len(windows) == d.window_count == geometry.size
        for win in windows:
            expected = Rect.bounding([d.tile(*key).rect for key in win.tile_keys])
            assert win.rect == expected
            assert geometry[win.ix, win.iy] == float(expected.area)

    def test_windows_containing_tile_inverse(self):
        d = make_dissection()
        for win in d.windows():
            for key in win.tile_keys:
                assert win.key in d.windows_containing_tile(*key)

    def test_windows_containing_corner_tile(self):
        d = make_dissection()
        assert d.windows_containing_tile(0, 0) == [(0, 0)]
        # center tiles belong to r^2 windows
        assert len(d.windows_containing_tile(1, 1)) == 4

    def test_tile_larger_than_die_rejected(self):
        with pytest.raises(DissectionError):
            FixedDissection(Rect(0, 0, 1000, 1000), DensityRules(16000, 2))


class TestDensityMap:
    def test_from_rects_clipping(self):
        d = make_dissection()
        # Rect spanning two tiles horizontally.
        dm = DensityMap.from_rects(d, [Rect(6000, 1000, 10000, 2000)])
        assert dm.tile_area[0, 0] == 2000 * 1000
        assert dm.tile_area[1, 0] == 2000 * 1000
        assert dm.tile_area.sum() == 4000 * 1000

    def test_overlapping_rects_not_double_counted(self):
        d = make_dissection()
        dm = DensityMap.from_rects(
            d, [Rect(0, 0, 4000, 1000), Rect(2000, 0, 6000, 1000)]
        )
        assert dm.tile_area[0, 0] == 6000 * 1000

    def test_window_area_matches_tiles(self):
        d = make_dissection()
        rng = np.random.default_rng(0)
        areas = rng.uniform(0, 1e6, size=(d.nx, d.ny))
        dm = DensityMap(d, areas)
        win = dm.window_area()
        for w in d.windows():
            expected = sum(areas[k] for k in w.tile_keys)
            assert win[w.ix, w.iy] == pytest.approx(expected)

    def test_window_density_bounds(self, stack):
        layout = build_two_line_layout(stack)
        d = FixedDissection(layout.die, DensityRules(16000, 2))
        dm = DensityMap.from_layout(d, layout, "metal3")
        dens = dm.window_density()
        assert np.all(dens >= 0.0) and np.all(dens <= 1.0)

    def test_stats_variation(self):
        d = make_dissection()
        areas = np.zeros((d.nx, d.ny))
        areas[0, 0] = 8000 * 8000  # one full tile
        dm = DensityMap(d, areas)
        stats = dm.stats()
        assert stats.max_density == pytest.approx(0.25)  # 1 tile of 4 in window
        assert stats.min_density == 0.0
        assert stats.variation == pytest.approx(0.25)

    def test_added(self):
        d = make_dissection()
        base = DensityMap(d, np.ones((d.nx, d.ny)))
        extra = np.full((d.nx, d.ny), 2.0)
        combined = base.added(extra)
        assert np.all(combined.tile_area == 3.0)

    def test_tile_density(self):
        d = make_dissection()
        areas = np.zeros((d.nx, d.ny))
        areas[1, 2] = 8000 * 4000
        dm = DensityMap(d, areas)
        assert dm.tile_density(1, 2) == pytest.approx(0.5)
        assert dm.tile_density(0, 0) == 0.0

    def test_shape_mismatch_rejected(self):
        d = make_dissection()
        with pytest.raises(ValueError):
            DensityMap(d, np.zeros((2, 2)))

    def test_include_fill_flag(self, stack):
        from repro.layout import FillFeature

        layout = build_two_line_layout(stack)
        layout.add_fill(FillFeature("metal3", Rect(1000, 30000, 2000, 31000)))
        d = FixedDissection(layout.die, DensityRules(16000, 2))
        without = DensityMap.from_layout(d, layout, "metal3").tile_area.sum()
        with_fill = DensityMap.from_layout(
            d, layout, "metal3", include_fill=True
        ).tile_area.sum()
        assert with_fill == without + 1000 * 1000
