"""Property tests: site enumeration over the legality raster against the
rect oracles.

:class:`~repro.pilfill.scanline.ColumnGridder` and
:meth:`~repro.fillsynth.slack_sites.SiteLegality.legal_sites_in_region`
take their candidate sites from :meth:`SiteGrid.centered_in` and read each
one's legality from the raster. The oracle in :mod:`tests.site_grid_oracle`
builds a rect for every site in a padded box, keeps those whose centre lies
in the tile or region and asks the exact rect test of
:mod:`tests.legality_oracle`. On small random scenes both must give the
same columns (``col``, ``sites``, ``gap_um`` and both neighbours, in order)
and the same legal sites, and every site in and around the die must be
free in the raster exactly when the exact test calls it legal, also while
blockages are added one at a time. The scenes cover grid origins that are
negative or off the die, odd fill sizes, zero fill gaps and buffer
distances, zero-width and zero-height blockages and blockages straddling
the die edge, both routing directions, blocks with none, one or both
neighbour lines, ``only_tile`` gridding, and tiles clipped at the die edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dissection.fixed import FixedDissection
from repro.fillsynth.slack_sites import SiteLegality
from repro.geometry import Interval, Point, Rect, SiteGrid
from repro.layout.rctree import LineTiming
from repro.layout.segment import WireSegment
from repro.pilfill.columns import ColumnTable, SlackColumnDef
from repro.pilfill.scanline import (
    ColumnGridder,
    GapBlock,
    IncrementalSweep,
    SweepLine,
    _Axes,
    extract_columns_from_lines,
    sweep_gap_blocks,
)
from repro.tech.rules import DensityRules, FillRules
from tests import column_grid_oracle
from tests import site_grid_oracle as oracle
from tests.column_objects import SlackColumn, table_columns
from tests.legality_oracle import ExactLegality

LAYER = "m"
DBU = 1000

Columns = dict[tuple[int, int], list[SlackColumn]]


@dataclass
class Scene:
    horizontal: bool
    dissection: FixedDissection
    legality: SiteLegality
    exact: ExactLegality
    rules: FillRules

    @property
    def die(self) -> Rect:
        return self.dissection.die

    @property
    def axes(self) -> _Axes:
        return _Axes(self.horizontal)


@st.composite
def rects_near(draw, die: Rect, margin: int, max_side: int) -> Rect:
    """A rect overlapping ``die`` grown by ``margin``."""
    xlo = draw(st.integers(die.xlo - margin, die.xhi + margin))
    ylo = draw(st.integers(die.ylo - margin, die.yhi + margin))
    width, height = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    return Rect(xlo, ylo, xlo + width, ylo + height)


@st.composite
def scenes(draw) -> Scene:
    """A die (possibly at negative coordinates, ending mid-tile), fill rules
    with odd sizes and zero gaps allowed, scattered blockages, and a site
    grid that is either the die's own or anchored anywhere near it."""
    r = draw(st.integers(1, 3))
    tile = draw(st.integers(6, 40))
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dx = draw(st.integers(0, tile - 1)) if nx > 1 else 0
    dy = draw(st.integers(0, tile - 1)) if ny > 1 else 0
    xlo, ylo = draw(st.integers(-200, 200)), draw(st.integers(-200, 200))
    die = Rect(xlo, ylo, xlo + nx * tile - dx, ylo + ny * tile - dy)
    rules = FillRules(
        fill_size=draw(st.integers(1, 9)),
        fill_gap=draw(st.integers(0, 4)),
        buffer_distance=draw(st.integers(0, 4)),
    )
    blockages = draw(st.lists(rects_near(die, 5, 12), max_size=8))
    grid = None
    if draw(st.booleans()):
        grid = SiteGrid(
            draw(st.integers(die.xlo - 60, die.xhi + 60)),
            draw(st.integers(die.ylo - 60, die.yhi + 60)),
            rules.fill_size,
            rules.fill_gap,
        )
    legality = SiteLegality.from_rects(die, LAYER, rules, blockages, grid=grid)
    exact = ExactLegality(die, rules, blockages)
    dissection = FixedDissection(die, DensityRules(window_size=tile * r, r=r))
    return Scene(draw(st.booleans()), dissection, legality, exact, rules)


@st.composite
def timings(draw, horizontal: bool, along: Interval, edge: int) -> LineTiming:
    """Electrical data of a line at cross coordinate ``edge`` spanning at
    least ``along``, driven from either end."""
    a0 = along.lo - draw(st.integers(0, 20))
    a1 = along.hi + draw(st.integers(0, 20))
    if draw(st.booleans()):
        a0, a1 = a1, a0
    start, end = (Point(a0, edge), Point(a1, edge)) if horizontal else (
        Point(edge, a0), Point(edge, a1)
    )
    segment = WireSegment(
        f"n{draw(st.integers(0, 3))}", draw(st.integers(0, 9)), LAYER, start, end, 2
    )
    return LineTiming(
        segment,
        upstream_res=draw(st.integers(0, 500)) / 4,
        unit_res=draw(st.integers(0, 40)) / 8,
        downstream_sinks=draw(st.integers(1, 4)),
    )


@st.composite
def neighbours(draw, scene: Scene, along: Interval, cross: Interval) -> SweepLine | None:
    """No line, a line without timing (clipped foreign geometry), or a timed
    line on the ``cross`` band."""
    kind = draw(st.sampled_from(("none", "blind", "timed")))
    if kind == "none":
        return None
    rect = scene.axes.rect(along, cross)
    if kind == "blind":
        return SweepLine(rect, None)
    edge = (cross.lo + cross.hi) // 2
    return SweepLine(rect, draw(timings(scene.horizontal, along, edge)))


@st.composite
def gap_blocks(draw, scene: Scene) -> GapBlock:
    """A gap block anywhere near the die, with none, one or both neighbours."""
    along_die = scene.axes.along_iv(scene.die)
    cross_die = scene.axes.cross_iv(scene.die)
    lo = draw(st.integers(along_die.lo - 15, along_die.hi + 5))
    along = Interval(lo, lo + draw(st.integers(1, 80)))
    cross_lo = draw(st.integers(cross_die.lo - 10, cross_die.hi))
    cross_hi = cross_lo + draw(st.integers(1, 40))
    below = draw(neighbours(scene, along, Interval(cross_lo - 2, cross_lo)))
    above = draw(neighbours(scene, along, Interval(cross_hi, cross_hi + 2)))
    return GapBlock(along, cross_lo, cross_hi, below, above)


@st.composite
def sweep_lines(draw, scene: Scene) -> SweepLine:
    """A timed routing line inside the die, in the preferred direction."""
    along_die = scene.axes.along_iv(scene.die)
    cross_die = scene.axes.cross_iv(scene.die)
    a0 = draw(st.integers(along_die.lo, along_die.hi - 1))
    along = Interval(a0, draw(st.integers(a0 + 1, along_die.hi)))
    c0 = draw(st.integers(cross_die.lo, cross_die.hi - 1))
    cross = Interval(c0, draw(st.integers(c0 + 1, min(c0 + 4, cross_die.hi))))
    edge = (cross.lo + cross.hi) // 2
    return SweepLine(
        scene.axes.rect(along, cross), draw(timings(scene.horizontal, along, edge))
    )


def grid_oracle(scene: Scene, blocks: list[GapBlock], only_tile: tuple[int, int] | None) -> Columns:
    return oracle.grid_blocks(
        blocks, only_tile, LAYER, scene.dissection, scene.legality.grid, scene.exact,
        scene.rules, scene.horizontal, DBU,
    )


def extract_oracle(scene: Scene, lines: list[SweepLine], definition: SlackColumnDef) -> Columns:
    """``extract_columns_from_lines`` with the oracle doing the gridding."""
    if definition is SlackColumnDef.FULL_LAYOUT:
        return grid_oracle(scene, sweep_gap_blocks(lines, scene.die, scene.horizontal), None)
    out: Columns = {}
    for tile in scene.dissection.tiles():
        clipped = [
            SweepLine(inter, line.timing)
            for line in lines
            if (inter := line.rect.intersection(tile.rect)) is not None
        ]
        blocks = sweep_gap_blocks(clipped, tile.rect, scene.horizontal)
        if definition is SlackColumnDef.WITHIN_TILE:
            blocks = [b for b in blocks if b.below is not None and b.above is not None]
        out[tile.key] = grid_oracle(scene, blocks, tile.key)[tile.key]
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gridder_matches_oracle(data):
    scene = data.draw(scenes())
    blocks = data.draw(st.lists(gap_blocks(scene), min_size=1, max_size=6))
    keys = [t.key for t in scene.dissection.tiles()]
    only_tile = data.draw(st.one_of(st.none(), st.sampled_from(keys)))
    gridder = ColumnGridder(
        LAYER, scene.dissection, scene.legality, scene.rules, scene.horizontal, DBU
    )
    gridder.grid(blocks, None if only_tile is None else [only_tile] * len(blocks))
    assert table_columns(gridder.table()) == grid_oracle(scene, blocks, only_tile)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extract_columns_matches_oracle(data):
    scene = data.draw(scenes())
    lines = data.draw(st.lists(sweep_lines(scene), max_size=8))
    definition = data.draw(st.sampled_from(list(SlackColumnDef)))
    got = extract_columns_from_lines(
        lines, scene.horizontal, scene.die, DBU, LAYER, scene.dissection,
        scene.legality, scene.rules, definition,
    )
    assert table_columns(got) == extract_oracle(scene, lines, definition)


def assert_table_equals(table: ColumnTable, want: Columns) -> None:
    """``table`` holds exactly ``want``'s columns, tile by tile and in
    order: ``col``, ``along``, free rows, gap and both neighbours, whose
    identity must match and whose resistance must have the same bits."""
    assert list(table) == list(want)
    for key, columns in want.items():
        view = table[key]
        assert len(view) == len(columns), key
        for i, column in enumerate(columns, view.lo):
            assert int(table.col[i]) == column.col
            assert int(table.along[i]) == column.sites.along
            rows = table.rows[table.row_bounds[i] : table.row_bounds[i + 1]].tolist()
            assert rows == list(column.sites.rows)
            gap = float(table.gap_um[i])
            if column.gap_um is None:
                assert math.isnan(gap)
            else:
                assert gap.hex() == float(column.gap_um).hex()
            for at, resistance, neighbor in (
                (int(table.below[i]), float(table.below_res[i]), column.below),
                (int(table.above[i]), float(table.above_res[i]), column.above),
            ):
                if neighbor is None:
                    assert at == -1
                    continue
                assert table.lines[at] == (neighbor.net, neighbor.line_index, neighbor.sinks)
                assert resistance.hex() == float(neighbor.resistance_ohm).hex()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_matches_block_loop(data):
    """One array pass over all blocks gives the block-by-block loop's
    columns, with ``owners`` standing in for its ``only_tile``."""
    scene = data.draw(scenes())
    blocks = data.draw(st.lists(gap_blocks(scene), min_size=1, max_size=6))
    keys = [t.key for t in scene.dissection.tiles()]
    owners = data.draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(keys), min_size=len(blocks), max_size=len(blocks)),
        )
    )
    gridder = ColumnGridder(
        LAYER, scene.dissection, scene.legality, scene.rules, scene.horizontal, DBU
    )
    gridder.grid(blocks, owners)
    want = column_grid_oracle.OracleGridder(
        LAYER, scene.dissection, scene.legality, scene.rules, scene.horizontal, DBU
    )
    for i, block in enumerate(blocks):
        want.grid([block], None if owners is None else owners[i])
    assert_table_equals(gridder.table(), want.out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extracted_table_matches_block_loop(data):
    """Every definition: Definition III grids the die's sweep in one pass,
    Definitions I and II every tile's own sweep in one pass."""
    scene = data.draw(scenes())
    lines = data.draw(st.lists(sweep_lines(scene), max_size=8))
    definition = data.draw(st.sampled_from(list(SlackColumnDef)))
    args = (
        lines, scene.horizontal, scene.die, DBU, LAYER, scene.dissection,
        scene.legality, scene.rules, definition,
    )
    assert_table_equals(
        extract_columns_from_lines(*args), column_grid_oracle.extract_columns_from_lines(*args)
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_streamed_table_matches_block_loop(data):
    """Banded streaming: one grid call per sweep feed, as
    ``prepare_streaming(banded=True)`` makes them, still gives the block
    loop's columns over the same feeds."""
    scene = data.draw(scenes())
    sweep = IncrementalSweep(scene.die, scene.horizontal)
    lines = sorted(data.draw(st.lists(sweep_lines(scene), max_size=8)), key=sweep._key)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=3)))
    gridder = ColumnGridder(
        LAYER, scene.dissection, scene.legality, scene.rules, scene.horizontal, DBU
    )
    want = column_grid_oracle.OracleGridder(
        LAYER, scene.dissection, scene.legality, scene.rules, scene.horizontal, DBU
    )
    for lo, hi in zip([0, *cuts], [*cuts, len(lines)], strict=True):
        blocks = sweep.feed(lines[lo:hi])
        gridder.grid(blocks)
        want.grid(blocks)
    blocks = sweep.finish()
    gridder.grid(blocks)
    want.grid(blocks)
    assert_table_equals(gridder.table(), want.out)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_legal_sites_match_oracle(data):
    scene = data.draw(scenes())
    regions = [t.rect for t in scene.dissection.tiles()]
    regions += data.draw(st.lists(rects_near(scene.die, 30, 60), max_size=4))
    for region in regions:
        got = scene.legality.legal_sites_in_region(region)
        assert got == oracle.legal_sites_in_region(scene.legality.grid, scene.exact, region)


def sites_around(scene: Scene, pad: int = 3) -> list[tuple[int, int]]:
    """Every site index whose pitch cell lies in the die grown by ``pad``
    pitches: all in-die sites and a ring of out-of-die ones."""
    grid, die = scene.legality.grid, scene.die
    margin = pad * grid.pitch
    c0, c1 = oracle.col_at(grid, die.xlo - margin), oracle.col_at(grid, die.xhi + margin)
    r0, r1 = oracle.row_at(grid, die.ylo - margin), oracle.row_at(grid, die.yhi + margin)
    return [(c, r) for c in range(c0, c1 + 1) for r in range(r0, r1 + 1)]


def grown_overlaps(scene: Scene, col: int, row: int, rect: Rect) -> bool:
    """True when site ``(col, row)``'s buffer-grown square overlaps
    ``rect``'s open interior."""
    grown = oracle.site_rect(scene.legality.grid, col, row).expanded(
        scene.rules.buffer_distance
    )
    return grown.overlaps(rect)


@settings(max_examples=300, deadline=None)
@given(scenes())
def test_raster_matches_exact_test(scene):
    """A site is free in the raster iff the exact test calls its rect legal."""
    grid = scene.legality.grid
    for col, row in sites_around(scene):
        want = scene.exact.is_legal(oracle.site_rect(grid, col, row))
        assert scene.legality.is_free(col, row) == want, (col, row)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_add_blockage_flips_only_overlapped_sites(data):
    """Interleave blockage inserts with reads: each insert clears exactly
    the free sites whose grown square overlaps the new rect, and the
    raster keeps matching the exact test."""
    scene = data.draw(scenes())
    sites = sites_around(scene)
    grid = scene.legality.grid
    for rect in data.draw(st.lists(rects_near(scene.die, 8, 15), min_size=1, max_size=5)):
        before = {site: scene.legality.is_free(*site) for site in sites}
        scene.legality.add_blockage(rect)
        scene.exact.add_blockage(rect)
        for site in sites:
            after = scene.legality.is_free(*site)
            assert after == (before[site] and not grown_overlaps(scene, *site, rect)), site
            assert after == scene.exact.is_legal(oracle.site_rect(grid, *site)), site


@given(
    st.integers(-100, 100), st.integers(1, 9), st.integers(0, 4),
    st.integers(-150, 150), st.integers(-150, 150),
)
def test_centered_in_is_the_centre_rule(origin, size, gap, lo, hi):
    grid = SiteGrid(origin, 0, size, gap)
    brute = [k for k in range(-400, 400) if lo <= origin + k * grid.pitch + size // 2 < hi]
    assert list(grid.centered_in(lo, hi, origin)) == brute
