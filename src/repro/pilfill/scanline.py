"""Scan-line extraction of gap blocks and slack columns (paper Fig. 7).

The sweep walks active lines in increasing cross-coordinate order
(bottom-to-top for horizontal routing) maintaining the set of currently
open *gap fragments* — maximal along-axis intervals whose next line below
is known. Each arriving line closes the fragments it covers (emitting
:class:`GapBlock` records with both neighbors resolved) and opens a new
fragment above itself. Fragments surviving to the boundary close against
it (``above = None``).

The open fragments are kept sorted by ``along.lo``, pairwise disjoint and
non-empty, and *coalesced*: no two abutting fragments share both
``start_cross`` and the very same ``below`` line (``is``), since such a
pair is one open gap. A line bisects to the run of k fragments it
overlaps and splices that run's replacement in place, so it costs
O(log F + k) Python steps for F open fragments (plus one list splice, a
memory move), and each block it closes is a maximal piece of one gap
rather than a sliver per earlier line.

Definitions I/II/III (paper §5.1) differ only in the sweep region and
line clipping; :func:`extract_columns` then grids every block into legal
fill-site columns per tile through one :class:`ColumnGridder`. A tile owns
the sites whose centre it holds, and the gridder enumerates them as
:meth:`~repro.geometry.SiteGrid.centered_in` index ranges and records a
column's free site rows, not a rect per site.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress

from repro.dissection.fixed import FixedDissection
from repro.errors import FillError
from repro.fillsynth.slack_sites import SiteLegality
from repro.geometry import Interval, Rect
from repro.layout.layout import RoutedLayout
from repro.layout.rctree import LineTiming
from repro.pilfill.columns import ColumnNeighbor, ColumnSites, SlackColumn, SlackColumnDef
from repro.tech.rules import FillRules


@dataclass(frozen=True)
class SweepLine:
    """One active line participating in the sweep, possibly clipped.

    ``timing`` is None for definition-II lines whose electrical data is
    deliberately invisible (clipped foreign geometry) — they still block
    space but contribute no delay model.
    """

    rect: Rect
    timing: LineTiming | None


class _NeighborBasis:
    """The fields of a line's :class:`ColumnNeighbor`, read once per gap block.

    :meth:`at` repeats :meth:`LineTiming.resistance_at`'s operations in the
    same order (clamp to the segment, distance from its start, times the
    unit resistance, plus the upstream resistance), so the resistance has
    the same bits.
    """

    __slots__ = ("net", "index", "sinks", "upstream_res", "unit_res", "low", "high", "origin")

    def __init__(self, line: LineTiming):
        seg = line.segment
        self.net, self.index, self.sinks = seg.net, seg.index, line.downstream_sinks
        self.upstream_res, self.unit_res = line.upstream_res, line.unit_res
        self.low, self.high = seg.low_coord, seg.high_coord
        self.origin = seg.start.x if seg.is_horizontal else seg.start.y

    def at(self, along_coord: int) -> ColumnNeighbor:
        """Electrical view of the line at an along-axis coordinate."""
        coord = min(max(along_coord, self.low), self.high)
        resistance = self.upstream_res + self.unit_res * abs(coord - self.origin)
        return ColumnNeighbor(self.net, self.index, self.sinks, resistance)


def _basis(line: SweepLine | None) -> _NeighborBasis | None:
    return None if line is None or line.timing is None else _NeighborBasis(line.timing)


@dataclass(frozen=True)
class GapBlock:
    """A maximal empty region between two lines (or a line and a boundary).

    Coordinates are *canonical*: ``along`` is the routing axis, ``cross``
    is perpendicular. ``cross_lo``/``cross_hi`` are the facing line edges,
    so ``cross_hi - cross_lo`` is the capacitance model's distance ``d``.
    """

    along: Interval
    cross_lo: int
    cross_hi: int
    below: SweepLine | None
    above: SweepLine | None

    @property
    def gap(self) -> int:
        return self.cross_hi - self.cross_lo


@dataclass(slots=True)
class _Fragment:
    """An open gap: ``along`` is free from ``start_cross`` up, above ``below``."""

    along: Interval
    start_cross: int
    below: SweepLine | None


def _append_coalesced(
    run: list[_Fragment], along: Interval, start_cross: int, below: SweepLine | None
) -> None:
    """Append a fragment to ``run``, or extend the last one when the new
    piece abuts it with the same ``start_cross`` and the same ``below``."""
    if run:
        tail = run[-1]
        if tail.along.hi == along.lo and tail.start_cross == start_cross and tail.below is below:
            tail.along = Interval(tail.along.lo, along.hi)
            return
    run.append(_Fragment(along, start_cross, below))


class _Axes:
    """Maps real coordinates to canonical (along, cross) and back."""

    def __init__(self, horizontal: bool):
        self.horizontal = horizontal

    def along_iv(self, rect: Rect) -> Interval:
        return Interval(rect.xlo, rect.xhi) if self.horizontal else Interval(rect.ylo, rect.yhi)

    def cross_iv(self, rect: Rect) -> Interval:
        return Interval(rect.ylo, rect.yhi) if self.horizontal else Interval(rect.xlo, rect.xhi)

    def rect(self, along: Interval, cross: Interval) -> Rect:
        if self.horizontal:
            return Rect(along.lo, cross.lo, along.hi, cross.hi)
        return Rect(cross.lo, along.lo, cross.hi, along.hi)


class IncrementalSweep:
    """The Fig. 7 sweep as a feed/finish state machine.

    :func:`sweep_gap_blocks` is one ``feed`` of every line followed by
    ``finish`` — the streaming preprocessor instead feeds lines in
    watermark batches as a chip-scale DEF arrives. Because both paths
    run this one state machine over the same globally ordered event
    sequence, streamed output is bit-identical to materialized output
    *by construction*, not by testing alone.

    Batches must be monotone: every event key ``(cross_lo, along_lo)``
    fed must be >= every key of earlier batches (violations raise
    :class:`FillError` rather than silently reordering the sweep).
    Within a batch, ties keep arrival order — matching the stable sort
    of the one-shot path.

    Fragment invariants (see the module docstring): ``_fragments`` is
    sorted by ``along.lo``, disjoint, non-empty and coalesced, and
    ``_his`` holds each fragment's ``along.hi`` in the same order. A line
    spanning ``[a, b)`` takes ``bisect_right(_his, a)`` as the first
    fragment it overlaps and walks right while ``along.lo < b``. Its
    replacement run is the left remainder, the covered pieces (reopened
    above the line, or left open when the line lies under an earlier,
    taller one) and the right remainder, coalesced as they are appended,
    so the line costs O(log F + k). The run never needs merging with the fragments just outside it: its
    end pieces either keep an end fragment's own ``(start_cross, below)``,
    which already differed from its outer neighbour's, or have the new
    line as ``below``, which no open fragment has yet (every caller feeds
    each :class:`SweepLine` once). ``tests/scanline_oracle.py`` keeps the
    uncoalesced fragment scan this replaced; merging its abutting
    equal-attribute blocks gives exactly these blocks, in the same order.
    """

    def __init__(self, region: Rect, horizontal: bool):
        self.axes = _Axes(horizontal)
        self.region_along = self.axes.along_iv(region)
        self.region_cross = self.axes.cross_iv(region)
        self._fragments: list[_Fragment] = [
            _Fragment(self.region_along, self.region_cross.lo, None)
        ]
        # ``along.hi`` of each fragment, in list order: the bisect key.
        self._his: list[int] = [self.region_along.hi]
        self._max_key: tuple[int, int] | None = None
        self._finished = False

    def _key(self, line: SweepLine) -> tuple[int, int]:
        return (self.axes.cross_iv(line.rect).lo, self.axes.along_iv(line.rect).lo)

    def feed(self, lines: list[SweepLine]) -> list[GapBlock]:
        """Process one batch of lines; returns the blocks they closed."""
        if self._finished:
            raise FillError("IncrementalSweep.feed after finish")
        events = sorted(lines, key=self._key)
        if events and self._max_key is not None and self._key(events[0]) < self._max_key:
            raise FillError(
                f"non-monotone sweep feed: key {self._key(events[0])} after "
                f"{self._max_key}"
            )
        if events:
            self._max_key = self._key(events[-1])
        blocks: list[GapBlock] = []
        fragments, his = self._fragments, self._his
        for line in events:
            span = self.axes.along_iv(line.rect)
            band = self.axes.cross_iv(line.rect)
            if span.is_empty():
                continue
            # The run fragments[i:j] is every fragment the line overlaps.
            i = j = bisect_right(his, span.lo)
            while j < len(fragments) and fragments[j].along.lo < span.hi:
                j += 1
            if i == j:
                continue
            first, last = fragments[i], fragments[j - 1]
            run: list[_Fragment] = []
            # Left remainder keeps the old gap open.
            if first.along.lo < span.lo:
                run.append(
                    _Fragment(Interval(first.along.lo, span.lo), first.start_cross, first.below)
                )
            for frag in fragments[i:j]:
                overlap = Interval(max(frag.along.lo, span.lo), min(frag.along.hi, span.hi))
                # The covered part closes (emit block) and reopens above the line.
                if frag.start_cross < band.lo:
                    blocks.append(
                        GapBlock(
                            along=overlap,
                            cross_lo=frag.start_cross,
                            cross_hi=band.lo,
                            below=frag.below,
                            above=line,
                        )
                    )
                if band.hi >= frag.start_cross:
                    _append_coalesced(run, overlap, band.hi, line)
                else:
                    # The arriving line is entirely below the open gap (overlap
                    # with an earlier, taller line): the old gap stays open.
                    _append_coalesced(run, overlap, frag.start_cross, frag.below)
            # Right remainder likewise.
            if span.hi < last.along.hi:
                _append_coalesced(
                    run, Interval(span.hi, last.along.hi), last.start_cross, last.below
                )
            fragments[i:j] = run
            his[i:j] = [frag.along.hi for frag in run]
        return blocks

    def finish(self) -> list[GapBlock]:
        """Close surviving fragments against the region boundary."""
        if self._finished:
            raise FillError("IncrementalSweep.finish called twice")
        self._finished = True
        blocks: list[GapBlock] = []
        for frag in self._fragments:
            if frag.start_cross < self.region_cross.hi:
                blocks.append(
                    GapBlock(
                        along=frag.along,
                        cross_lo=frag.start_cross,
                        cross_hi=self.region_cross.hi,
                        below=frag.below,
                        above=None,
                    )
                )
        return blocks


def sweep_gap_blocks(
    lines: list[SweepLine],
    region: Rect,
    horizontal: bool,
) -> list[GapBlock]:
    """Run the Fig. 7 sweep over ``region`` and return all gap blocks.

    ``lines`` must lie inside ``region`` (clip before calling). Lines may
    overlap each other (same-net junction overlaps are tolerated); gaps of
    non-positive extent are skipped.
    """
    sweep = IncrementalSweep(region, horizontal)
    blocks = sweep.feed(lines)
    blocks.extend(sweep.finish())
    return blocks


def layer_sweep_lines(layout: RoutedLayout, layer: str) -> tuple[list[SweepLine], bool]:
    """Active lines of ``layer`` in their preferred routing direction, plus
    whether that direction is horizontal. Wrong-direction lines are
    excluded from the sweep (paper §5.2) — they still block fill sites in
    the legality raster."""
    horizontal = layout.stack.layer(layer).direction == "h"
    lines = [
        SweepLine(rect=line.segment.rect, timing=line)
        for _tree, line in layout.active_lines(layer)
        if line.segment.is_horizontal == horizontal
    ]
    return lines, horizontal


class ColumnGridder:
    """Grids gap blocks into per-tile slack columns, batch by batch.

    A tile owns the sites whose centre it holds (paper §5.1). For each
    (block, tile) pair the columns are the sites centred in the tile's
    clip of the block's along extent, and the rows are the sites that fit
    the block's buffered cross band and are centred in the tile. Both are
    :meth:`SiteGrid.centered_in` index ranges. Each candidate is read from
    the legality raster, which is pinned to the exact test in
    ``tests/legality_oracle.py``. A column keeps its free rows in a
    :class:`~repro.pilfill.columns.ColumnSites` (``itertools.compress``
    over the raster bytes), which builds a site's rect only when it is
    read. Each neighbour line's electrical fields are read once per
    block, and a column's two neighbours once per block and column, so
    the tiles stacked across a tall block share them.

    The streaming preprocessor grids each :class:`IncrementalSweep`
    feed's blocks the moment they close (their legality reads only look
    below the stream watermark, so late-arriving geometry can never
    invalidate them). Feeding all blocks at once reproduces
    :func:`extract_columns_from_lines` exactly — same code, same order.
    """

    def __init__(
        self,
        layer: str,
        dissection: FixedDissection,
        legality: SiteLegality,
        rules: FillRules,
        horizontal: bool,
        dbu: int,
    ):
        self.layer = layer
        self.dissection = dissection
        self.legality = legality
        self.rules = rules
        self.axes = _Axes(horizontal)
        self.dbu = dbu
        self.out: dict[tuple[int, int], list[SlackColumn]] = {
            t.key: [] for t in dissection.tiles()
        }

    def grid(self, blocks: list[GapBlock], only_tile: tuple[int, int] | None = None) -> None:
        """Append the columns of ``blocks`` in emission order (to
        ``only_tile``'s list alone when it is given)."""
        for block in blocks:
            self._grid_block(block, only_tile)

    def _grid_block(self, block: GapBlock, only_tile: tuple[int, int] | None) -> None:
        """Grid one gap block into per-tile slack columns."""
        rules, legality = self.rules, self.legality
        horizontal = self.axes.horizontal
        # Shrink the gap band by the buffer distance on line-adjacent sides.
        cross_lo = block.cross_lo + (rules.buffer_distance if block.below is not None else 0)
        cross_hi = block.cross_hi - (rules.buffer_distance if block.above is not None else 0)
        if cross_hi - cross_lo < rules.fill_size:
            return
        usable = self.axes.rect(block.along, Interval(cross_lo, cross_hi))
        along_lo, along_hi = block.along.lo, block.along.hi

        grid, free = legality.grid, legality.free
        size, pitch, half = grid.site_size, grid.pitch, grid.site_size // 2
        # The raster is indexed [col][row]; ``a*`` is the along axis, ``x*``
        # the cross axis.
        if horizontal:
            along_origin, cross_origin = grid.origin_x, grid.origin_y
            a0, a_end = legality.col0, legality.col0 + len(free)
            x0, x_end = legality.row0, legality.row0 + legality.nrows
        else:
            along_origin, cross_origin = grid.origin_y, grid.origin_x
            a0, a_end = legality.row0, legality.row0 + legality.nrows
            x0, x_end = legality.col0, legality.col0 + len(free)
        # Centres of the squares that fit [cross_lo, cross_hi).
        fit_lo, fit_hi = cross_lo + half, cross_hi - size + half + 1
        bounded = block.below is not None and block.above is not None
        gap_um = block.gap / self.dbu if bounded else None
        below, above = _basis(block.below), _basis(block.above)
        # A column's neighbours depend on the block and the column alone,
        # so tiles stacked across a tall block share them.
        neighbors: dict[int, tuple[ColumnNeighbor | None, ColumnNeighbor | None]] = {}

        for tile in self.dissection.tiles_overlapping(usable):
            if only_tile is not None and tile.key != only_tile:
                continue
            t = tile.rect
            if horizontal:
                t_along_lo, t_along_hi, t_cross_lo, t_cross_hi = t.xlo, t.xhi, t.ylo, t.yhi
            else:
                t_along_lo, t_along_hi, t_cross_lo, t_cross_hi = t.ylo, t.yhi, t.xlo, t.xhi
            clip_lo, clip_hi = max(along_lo, t_along_lo), min(along_hi, t_along_hi)
            if clip_hi <= clip_lo or min(cross_hi, t_cross_hi) <= max(cross_lo, t_cross_lo):
                continue
            # Candidate rows and columns, clipped to the in-die raster
            # (a site outside it is never legal).
            rows = grid.centered_in(
                max(fit_lo, t_cross_lo), min(fit_hi, t_cross_hi), cross_origin
            )
            row_lo, row_hi = max(rows.start, x0), min(rows.stop, x_end)
            if row_lo >= row_hi:
                continue
            cols = grid.centered_in(clip_lo, clip_hi, along_origin)
            candidates = range(row_lo, row_hi)
            columns = self.out[tile.key]
            for col in range(max(cols.start, a0), min(cols.stop, a_end)):
                if horizontal:
                    rows = tuple(compress(candidates, free[col - a0][row_lo - x0 : row_hi - x0]))
                else:
                    k = col - a0
                    rows = tuple(row for row in candidates if free[row - x0][k])
                if not rows:
                    continue
                site_along = along_origin + col * pitch
                pair = neighbors.get(col)
                if pair is None:
                    center_along = site_along + half
                    pair = neighbors[col] = (
                        below.at(center_along) if below is not None else None,
                        above.at(center_along) if above is not None else None,
                    )
                columns.append(
                    SlackColumn(
                        layer=self.layer,
                        tile=tile.key,
                        col=col,
                        sites=ColumnSites(
                            rows, site_along, cross_origin, pitch, size, horizontal
                        ),
                        gap_um=gap_um,
                        below=pair[0],
                        above=pair[1],
                    )
                )


def extract_columns_from_lines(
    lines: list[SweepLine],
    horizontal: bool,
    die: Rect,
    dbu: int,
    layer: str,
    dissection: FixedDissection,
    legality: SiteLegality,
    rules: FillRules,
    definition: SlackColumnDef = SlackColumnDef.FULL_LAYOUT,
) -> dict[tuple[int, int], list[SlackColumn]]:
    """Slack columns per tile from pre-collected sweep lines.

    The layout-free core of :func:`extract_columns` — the streaming
    preprocessor calls it (or drives :class:`ColumnGridder` directly)
    without ever materializing a :class:`RoutedLayout`.
    """
    gridder = ColumnGridder(layer, dissection, legality, rules, horizontal, dbu)
    if definition is SlackColumnDef.FULL_LAYOUT:
        gridder.grid(sweep_gap_blocks(lines, die, horizontal))
        return gridder.out

    # Definitions I and II sweep each tile independently with clipped lines.
    for tile in dissection.tiles():
        clipped: list[SweepLine] = []
        for line in lines:
            inter = line.rect.intersection(tile.rect)
            if inter is not None:
                clipped.append(SweepLine(rect=inter, timing=line.timing))
        blocks = sweep_gap_blocks(clipped, tile.rect, horizontal)
        if definition is SlackColumnDef.WITHIN_TILE:
            blocks = [b for b in blocks if b.below is not None and b.above is not None]
        gridder.grid(blocks, only_tile=tile.key)
    return gridder.out


def extract_columns(
    layout: RoutedLayout,
    layer: str,
    dissection: FixedDissection,
    legality: SiteLegality,
    rules: FillRules,
    definition: SlackColumnDef = SlackColumnDef.FULL_LAYOUT,
) -> dict[tuple[int, int], list[SlackColumn]]:
    """Slack columns per tile under the chosen definition (paper §5.1).

    Returns a mapping tile key → columns (possibly empty). Every site in
    every returned column is free in the legality raster, so any placement
    into these sites is design-rule clean.
    """
    lines, horizontal = layer_sweep_lines(layout, layer)
    return extract_columns_from_lines(
        lines, horizontal, layout.die, layout.stack.dbu_per_micron,
        layer, dissection, legality, rules, definition,
    )
