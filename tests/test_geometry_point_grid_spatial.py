"""Point, SiteGrid and GridBinIndex behaviour."""

import pytest

from repro.errors import GeometryError
from repro.geometry import GridBinIndex, Point, Rect, SiteGrid
from tests.site_grid_oracle import col_at, cols_fully_inside, row_at, site_rect


class TestPoint:
    def test_ordering_lexicographic(self):
        assert Point(1, 5) < Point(2, 0)
        assert Point(1, 2) < Point(1, 3)

    def test_translated(self):
        assert Point(1, 2).translated(3, -4) == Point(4, -2)

    def test_manhattan(self):
        assert Point(0, 0).manhattan_distance(Point(3, -4)) == 7

    def test_non_integer_rejected(self):
        with pytest.raises(GeometryError):
            Point(1.5, 0)

    def test_as_tuple(self):
        assert Point(7, 9).as_tuple() == (7, 9)


class TestSiteGrid:
    def test_pitch(self):
        grid = SiteGrid(0, 0, site_size=500, site_gap=250)
        assert grid.pitch == 750

    def test_site_rect(self):
        grid = SiteGrid(100, 200, 500, 250)
        assert site_rect(grid, 0, 0) == Rect(100, 200, 600, 700)
        assert site_rect(grid, 2, 1) == Rect(1600, 950, 2100, 1450)

    def test_col_row_at(self):
        grid = SiteGrid(0, 0, 500, 250)
        assert col_at(grid, 0) == 0
        assert col_at(grid, 749) == 0
        assert col_at(grid, 750) == 1
        assert col_at(grid, -1) == -1
        assert row_at(grid, 1500) == 2

    def test_cols_fully_inside(self):
        grid = SiteGrid(0, 0, 500, 250)
        # [0, 2000): sites at 0-500, 750-1250, 1500-2000 all fit
        assert list(cols_fully_inside(grid, 0, 2000)) == [0, 1, 2]
        # [100, 2000): site 0 no longer fits
        assert list(cols_fully_inside(grid, 100, 2000)) == [1, 2]
        # Too narrow for any site
        assert list(cols_fully_inside(grid, 0, 499)) == []

    def test_centered_in_includes_centre_on_lo(self):
        grid = SiteGrid(0, 0, 500, 250)  # centres at 250 + 750k
        assert grid.centered_in(250, 1000, grid.origin_x) == range(0, 1)

    def test_centered_in_excludes_centre_on_hi(self):
        grid = SiteGrid(0, 0, 500, 250)
        assert len(grid.centered_in(0, 250, grid.origin_x)) == 0
        assert grid.centered_in(251, 1001, grid.origin_x) == range(1, 2)

    def test_centered_in_floors_left_of_origin(self):
        grid = SiteGrid(-2000, 0, 500, 250)  # centres at -1750 + 750k
        # centres -2500, -1750, -1000, -250; truncating -1650 // 750 would drop -250
        assert grid.centered_in(-3000, -100, grid.origin_x) == range(-1, 3)
        odd = SiteGrid(100, 100, 5, 2)  # centres at 102 + 7k (5 // 2 rounds down)
        assert odd.centered_in(90, 100, odd.origin_y) == range(-1, 0)

    def test_centered_in_empty_when_hi_not_above_lo(self):
        grid = SiteGrid(0, 0, 500, 250)
        assert len(grid.centered_in(250, 250, grid.origin_x)) == 0
        assert len(grid.centered_in(2000, 0, grid.origin_x)) == 0

    def test_invalid_params(self):
        with pytest.raises(GeometryError):
            SiteGrid(0, 0, 0, 10)
        with pytest.raises(GeometryError):
            SiteGrid(0, 0, 10, -1)


class TestGridBinIndex:
    def test_insert_and_query(self):
        index = GridBinIndex(100)
        index.insert(Rect(0, 0, 50, 50), "a")
        index.insert(Rect(200, 200, 250, 250), "b")
        assert index.query(Rect(10, 10, 20, 20)) == ["a"]
        assert index.query(Rect(0, 0, 300, 300)) == ["a", "b"]
        assert index.query(Rect(500, 500, 600, 600)) == []

    def test_spanning_item_reported_once(self):
        index = GridBinIndex(10)
        index.insert(Rect(0, 0, 100, 100), "big")
        assert index.query(Rect(0, 0, 100, 100)) == ["big"]

    def test_touching_edges_not_reported(self):
        index = GridBinIndex(50)
        index.insert(Rect(0, 0, 10, 10), "a")
        assert index.query(Rect(10, 0, 20, 10)) == []

    def test_query_pairs(self):
        index = GridBinIndex(50)
        rect = Rect(0, 0, 10, 10)
        index.insert(rect, 42)
        assert index.query_pairs(Rect(5, 5, 6, 6)) == [(rect, 42)]

    def test_negative_coordinates(self):
        index = GridBinIndex(50)
        index.insert(Rect(-100, -100, -10, -10), "neg")
        assert index.query(Rect(-50, -50, -20, -20)) == ["neg"]

    def test_len_counts_items_not_bins(self):
        index = GridBinIndex(10)
        index.insert(Rect(0, 0, 100, 100), "a")  # spans many bins
        assert len(index) == 1

    def test_insert_many(self):
        index = GridBinIndex(100)
        index.insert_many([(Rect(0, 0, 5, 5), 1), (Rect(20, 20, 30, 30), 2)])
        assert len(index) == 2

    def test_invalid_bin_size(self):
        with pytest.raises(GeometryError):
            GridBinIndex(0)

    def test_boundary_spanning_rect_queried_once(self):
        # Straddles the bin boundary at x=50: registered in two bins, but
        # a query overlapping both bins must report it exactly once.
        index = GridBinIndex(50)
        index.insert(Rect(40, 40, 60, 60), "straddler")
        assert index.query(Rect(0, 0, 100, 100)) == ["straddler"]
        assert index.query_pairs(Rect(0, 0, 100, 100)) == [
            (Rect(40, 40, 60, 60), "straddler")
        ]

    def test_boundary_spanning_query_region_no_duplicates(self):
        # The query region spans bins; items seen from several bins must
        # still come back deduplicated, in insertion order.
        index = GridBinIndex(10)
        index.insert(Rect(0, 0, 35, 35), "a")
        index.insert(Rect(5, 5, 25, 25), "b")
        assert index.query(Rect(1, 1, 34, 34)) == ["a", "b"]
        assert [item for _, item in index.query_pairs(Rect(1, 1, 34, 34))] == ["a", "b"]

    def test_zero_area_query_is_empty(self):
        index = GridBinIndex(50)
        index.insert(Rect(0, 0, 100, 100), "a")
        # Overlap is open-interior: a degenerate region overlaps nothing.
        assert index.query(Rect(10, 10, 10, 10)) == []
        assert index.query_pairs(Rect(10, 0, 10, 100)) == []

    def test_out_of_bounds_query_is_empty(self):
        index = GridBinIndex(50)
        index.insert(Rect(0, 0, 100, 100), "a")
        assert index.query(Rect(1000, 1000, 1100, 1100)) == []
        assert index.query(Rect(-1100, -1100, -1000, -1000)) == []
        assert index.query_pairs(Rect(1000, 1000, 1100, 1100)) == []
