"""Rect construction, predicates, constructive ops, and union area."""

import pytest

from repro.errors import GeometryError
from repro.geometry import Point, Rect, total_area


class TestConstruction:
    def test_basic_measures(self):
        r = Rect(0, 0, 10, 20)
        assert r.width == 10
        assert r.height == 20
        assert r.area == 200
        assert r.center == Point(5, 10)

    def test_degenerate_allowed(self):
        assert Rect(3, 3, 3, 3).is_empty()
        assert Rect(0, 0, 5, 0).is_empty()

    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            Rect(5, 0, 0, 5)
        with pytest.raises(GeometryError):
            Rect(0, 5, 5, 0)

    def test_non_integer_rejected(self):
        with pytest.raises(GeometryError):
            Rect(0.5, 0, 1, 1)

    def test_error_messages_pinned(self):
        """The first non-int field is named before any extent check, and
        inverted extents print both corners."""
        with pytest.raises(GeometryError, match=r"^Rect\.ylo must be an integer, got '1'$"):
            Rect(9, "1", 0, 2.5)
        with pytest.raises(GeometryError, match=r"^Rect\.yhi must be an integer, got 2\.5$"):
            Rect(0, 0, 1, 2.5)
        with pytest.raises(
            GeometryError, match=r"^Rect extents inverted: \(0,5\)-\(5,0\)$"
        ):
            Rect(0, 5, 5, 0)


class TestPredicates:
    def test_contains_point_half_open(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(9, 9))
        assert not r.contains_point(Point(10, 0))
        assert not r.contains_point(Point(0, 10))

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(2, 2, 8, 8))
        assert outer.contains_rect(outer)
        assert not outer.contains_rect(Rect(2, 2, 11, 8))

    def test_overlaps_open_interior(self):
        a = Rect(0, 0, 10, 10)
        assert a.overlaps(Rect(5, 5, 15, 15))
        assert not a.overlaps(Rect(10, 0, 20, 10))  # shared edge

    def test_touches_closed(self):
        a = Rect(0, 0, 10, 10)
        assert a.touches(Rect(10, 0, 20, 10))
        assert not a.touches(Rect(11, 0, 20, 10))


class TestConstructive:
    def test_intersection(self):
        a = Rect(0, 0, 10, 10)
        assert a.intersection(Rect(5, 5, 15, 15)) == Rect(5, 5, 10, 10)
        assert a.intersection(Rect(10, 10, 20, 20)) is None

    def test_overlap_area(self):
        a = Rect(0, 0, 10, 10)
        assert a.overlap_area(Rect(5, 5, 15, 15)) == 25
        assert a.overlap_area(Rect(20, 20, 30, 30)) == 0

    def test_union_bbox(self):
        assert Rect(0, 0, 1, 1).union_bbox(Rect(5, 5, 6, 6)) == Rect(0, 0, 6, 6)

    def test_expanded_grow_and_shrink(self):
        r = Rect(10, 10, 20, 20)
        assert r.expanded(5) == Rect(5, 5, 25, 25)
        assert r.expanded(-2) == Rect(12, 12, 18, 18)

    def test_expanded_overshrink_collapses(self):
        r = Rect(0, 0, 10, 10)
        collapsed = r.expanded(-10)
        assert collapsed.is_empty()
        assert 0 <= collapsed.xlo <= 10

    def test_translated(self):
        assert Rect(0, 0, 2, 2).translated(3, -1) == Rect(3, -1, 5, 1)

    def test_subtract_hole_in_middle_gives_four(self):
        pieces = Rect(0, 0, 10, 10).subtract(Rect(3, 3, 7, 7))
        assert len(pieces) == 4
        assert sum(p.area for p in pieces) == 100 - 16
        for p in pieces:
            assert not p.overlaps(Rect(3, 3, 7, 7))

    def test_subtract_disjoint_returns_self(self):
        r = Rect(0, 0, 5, 5)
        assert r.subtract(Rect(10, 10, 20, 20)) == [r]

    def test_subtract_full_cover_returns_empty(self):
        assert Rect(2, 2, 4, 4).subtract(Rect(0, 0, 10, 10)) == []

    def test_subtract_pieces_are_disjoint(self):
        pieces = Rect(0, 0, 10, 10).subtract(Rect(0, 4, 6, 6))
        for i, a in enumerate(pieces):
            for b in pieces[i + 1:]:
                assert not a.overlaps(b)

    def test_bounding(self):
        rects = [Rect(0, 0, 2, 2), Rect(5, -1, 6, 3)]
        assert Rect.bounding(rects) == Rect(0, -1, 6, 3)

    def test_bounding_empty_raises(self):
        with pytest.raises(GeometryError):
            Rect.bounding([])

    def test_corners(self):
        corners = list(Rect(0, 0, 2, 3).corners())
        assert corners == [Point(0, 0), Point(2, 0), Point(2, 3), Point(0, 3)]


class TestTotalArea:
    def test_empty(self):
        assert total_area([]) == 0

    def test_single(self):
        assert total_area([Rect(0, 0, 4, 5)]) == 20

    def test_disjoint_sum(self):
        assert total_area([Rect(0, 0, 2, 2), Rect(10, 10, 12, 12)]) == 8

    def test_overlap_not_double_counted(self):
        assert total_area([Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)]) == 175

    def test_identical_rects(self):
        assert total_area([Rect(0, 0, 3, 3)] * 5) == 9

    def test_contained_rect(self):
        assert total_area([Rect(0, 0, 10, 10), Rect(2, 2, 4, 4)]) == 100

    def test_degenerate_ignored(self):
        assert total_area([Rect(0, 0, 0, 5), Rect(0, 0, 5, 5)]) == 25
