"""Property-based tests of the geometric primitives (hypothesis)."""

from itertools import pairwise

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Interval, IntervalSet, Rect, total_area

coords = st.integers(min_value=-1000, max_value=1000)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2 + draw(st.integers(1, 50)), y2 + draw(st.integers(1, 50)))


@st.composite
def intervals(draw):
    lo = draw(coords)
    return Interval(lo, lo + draw(st.integers(0, 200)))


interval_sets = st.lists(intervals(), max_size=8).map(IntervalSet)


def member_set(s: IntervalSet) -> set[int]:
    """Brute-force membership over the bounded coordinate domain."""
    out = set()
    for iv in s:
        out.update(range(iv.lo, iv.hi))
    return out


class TestIntervalSetAlgebra:
    @given(interval_sets, interval_sets)
    def test_union_matches_pointwise(self, a, b):
        assert member_set(a.union(b)) == member_set(a) | member_set(b)

    @given(interval_sets, interval_sets)
    def test_intersection_matches_pointwise(self, a, b):
        assert member_set(a.intersection(b)) == member_set(a) & member_set(b)

    @given(interval_sets, interval_sets)
    def test_subtract_matches_pointwise(self, a, b):
        assert member_set(a.subtract(b)) == member_set(a) - member_set(b)

    @given(interval_sets)
    def test_canonical_disjoint_sorted(self, s):
        ivs = list(s)
        for prev, nxt in pairwise(ivs):
            assert prev.hi < nxt.lo  # disjoint AND non-touching

    @given(interval_sets)
    def test_total_length_equals_membership(self, s):
        assert s.total_length == len(member_set(s))

    @given(interval_sets, coords)
    def test_contains_matches_membership(self, s, x):
        assert s.contains(x) == (x in member_set(s))

    @given(interval_sets, interval_sets)
    def test_subtract_then_union_restores_superset(self, a, b):
        # (a - b) ∪ (a ∩ b) == a
        left = a.subtract(b).union(a.intersection(b))
        assert member_set(left) == member_set(a)


class TestRectProperties:
    @given(rects(), rects())
    def test_intersection_commutative(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(rects(), rects())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_rect(inter)
            assert b.contains_rect(inter)

    @given(rects(), rects())
    def test_subtract_conserves_area(self, a, b):
        pieces = a.subtract(b)
        assert sum(p.area for p in pieces) == a.area - a.overlap_area(b)

    @given(rects(), rects())
    def test_subtract_pieces_disjoint_from_cut(self, a, b):
        for piece in a.subtract(b):
            assert not piece.overlaps(b)

    @given(st.lists(rects(), max_size=6))
    def test_total_area_bounds(self, items):
        union = total_area(items)
        assert union <= sum(r.area for r in items)
        if items:
            assert union >= max(r.area for r in items)

    @given(st.lists(rects(), min_size=1, max_size=5))
    def test_total_area_idempotent_under_duplication(self, items):
        assert total_area(items) == total_area(items + items)

    @given(rects(), st.integers(0, 100))
    def test_expand_shrink_roundtrip(self, r, margin):
        assert r.expanded(margin).expanded(-margin) == r
