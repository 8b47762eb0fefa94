"""Property tests: the bisecting, coalescing sweep against the fragment-scan oracle.

:class:`~repro.pilfill.scanline.IncrementalSweep` keeps its open fragments
sorted, disjoint and coalesced, and bisects to the run a line covers. The
oracle in :mod:`tests.scanline_oracle` scans every fragment for every line
and never merges them. Where the oracle emits k abutting blocks with equal
cross band and the same two lines, the sweep emits their union, in the same
place in emission order. So on random scenes, per ``feed`` and for
``finish``, the oracle's blocks with such runs merged must be the sweep's
blocks, and gridding either list must give the same columns.

The scenes put line ends and edges on a coarse lattice, so lines often
abut, share a cross band, overlap as same-net junctions, or lie inside an
earlier, taller line (the branch that keeps the old gap open). Both routing
directions are drawn, and the sorted events are cut into random monotone
batches fed one after another.
"""

from __future__ import annotations

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.dissection.fixed import FixedDissection
from repro.fillsynth.slack_sites import SiteLegality
from repro.geometry import Interval, Point, Rect
from repro.layout.rctree import LineTiming
from repro.layout.segment import WireSegment
from repro.pilfill.columns import ColumnTable
from repro.pilfill.scanline import ColumnGridder, GapBlock, IncrementalSweep, SweepLine, _Axes
from repro.tech.rules import DensityRules, FillRules
from tests.scanline_oracle import OracleSweep, merge_abutting

LAYER = "m"
DBU = 1000
SIDE = 120
STEP = 6


@st.composite
def lines_in(draw, axes: _Axes, region: Rect) -> list[SweepLine]:
    """Up to 14 lines on a ``STEP`` lattice inside ``region``. Some are
    nested in an earlier line's rect (starting at or above its cross edge,
    ending below its top), some are timed, some share one timing object."""
    along_max, cross_max = SIDE // STEP, SIDE // STEP
    lines: list[SweepLine] = []
    for _ in range(draw(st.integers(0, 14))):
        if lines and draw(st.integers(0, 3)) == 0:
            outer = lines[draw(st.integers(0, len(lines) - 1))].rect
            along, cross = axes.along_iv(outer), axes.cross_iv(outer)
            a0 = draw(st.integers(along.lo, along.hi - 1))
            a1 = draw(st.integers(a0 + 1, along.hi))
            c0 = draw(st.integers(cross.lo, cross.hi - 1))
            c1 = draw(st.integers(c0 + 1, cross.hi))
        else:
            a0 = STEP * draw(st.integers(0, along_max - 1))
            a1 = STEP * draw(st.integers(a0 // STEP + 1, along_max))
            c0 = STEP * draw(st.integers(0, cross_max - 1))
            height = draw(st.sampled_from((1, 2, STEP, 2 * STEP, 3 * STEP)))
            c1 = min(cross_max * STEP, c0 + height)
        rect = axes.rect(Interval(a0, a1), Interval(c0, c1))
        timing = draw(st.sampled_from(("none", "own", "shared")))
        if timing == "none" or not lines:
            lines.append(SweepLine(rect, None))
        elif timing == "shared":
            lines.append(SweepLine(rect, lines[-1].timing))
        else:
            lines.append(SweepLine(rect, line_timing(axes, rect, len(lines))))
    return lines


def line_timing(axes: _Axes, rect: Rect, index: int) -> LineTiming:
    along, cross = axes.along_iv(rect), axes.cross_iv(rect)
    edge = (cross.lo + cross.hi) // 2
    start, end = (
        (Point(along.lo, edge), Point(along.hi, edge))
        if axes.horizontal
        else (Point(edge, along.lo), Point(edge, along.hi))
    )
    segment = WireSegment(f"n{index % 3}", index, LAYER, start, end, 2)
    return LineTiming(
        segment, upstream_res=12.5 * index, unit_res=0.75, downstream_sinks=1 + index % 3
    )


@st.composite
def sweeps(draw):
    """(horizontal, region, lines in stable key order, batch cut points)."""
    horizontal = draw(st.booleans())
    axes = _Axes(horizontal)
    region = Rect(0, 0, SIDE, SIDE)
    lines = draw(lines_in(axes, region))
    ordered = sorted(lines, key=IncrementalSweep(region, horizontal)._key)
    cuts = sorted(draw(st.lists(st.integers(0, len(ordered)), max_size=4)))
    return horizontal, region, ordered, cuts


def batches(lines: list[SweepLine], cuts: list[int]) -> list[list[SweepLine]]:
    bounds = [0, *cuts, len(lines)]
    return [lines[a:b] for a, b in zip(bounds, bounds[1:], strict=False)]


def same_blocks(a: list[GapBlock], b: list[GapBlock]) -> bool:
    return len(a) == len(b) and all(
        x.along == y.along
        and (x.cross_lo, x.cross_hi) == (y.cross_lo, y.cross_hi)
        and x.below is y.below
        and x.above is y.above
        for x, y in zip(a, b, strict=True)
    )


def assert_fragment_invariants(sweep: IncrementalSweep) -> None:
    """Sorted, disjoint, non-empty, coalesced, and ``_his`` in step."""
    frags = sweep._fragments
    assert sweep._his == [f.along.hi for f in frags]
    for f in frags:
        assert f.along.lo < f.along.hi
    for left, right in zip(frags, frags[1:], strict=False):
        assert left.along.hi <= right.along.lo
        if left.along.hi == right.along.lo:
            assert not (left.start_cross == right.start_cross and left.below is right.below)


@seed(22)
@settings(max_examples=300, deadline=None)
@given(sweeps())
def test_blocks_are_the_merged_oracle_blocks(case):
    horizontal, region, lines, cuts = case
    sweep, oracle = IncrementalSweep(region, horizontal), OracleSweep(region, horizontal)
    all_new: list[GapBlock] = []
    all_oracle: list[GapBlock] = []
    for batch in batches(lines, cuts):
        new_blocks, oracle_blocks = sweep.feed(batch), oracle.feed(batch)
        assert same_blocks(merge_abutting(oracle_blocks), new_blocks)
        assert_fragment_invariants(sweep)
        all_new += new_blocks
        all_oracle += oracle_blocks
    new_blocks, oracle_blocks = sweep.finish(), oracle.finish()
    assert same_blocks(merge_abutting(oracle_blocks), new_blocks)
    all_new += new_blocks
    all_oracle += oracle_blocks
    assert same_blocks(merge_abutting(all_oracle), all_new)


@seed(22)
@settings(max_examples=150, deadline=None)
@given(
    sweeps(),
    st.integers(1, 5),
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(1, 3),
)
def test_gridded_columns_equal(case, fill_size, fill_gap, buffer_distance, r):
    horizontal, region, lines, cuts = case
    rules = FillRules(fill_size=fill_size, fill_gap=fill_gap, buffer_distance=buffer_distance)
    dissection = FixedDissection(region, DensityRules(window_size=40 * r, r=r))
    legality = SiteLegality.from_rects(region, LAYER, rules, [ln.rect for ln in lines])

    def gridded(sweep: IncrementalSweep) -> ColumnTable:
        gridder = ColumnGridder(LAYER, dissection, legality, rules, horizontal, DBU)
        for batch in batches(lines, cuts):
            gridder.grid(sweep.feed(batch))
        gridder.grid(sweep.finish())
        return gridder.table()

    assert gridded(IncrementalSweep(region, horizontal)) == gridded(
        OracleSweep(region, horizontal)
    )
