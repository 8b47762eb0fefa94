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
fill-site columns per tile through one :class:`ColumnGridder`, in one
array pass per layer. A tile owns the sites whose centre it holds; the
gridder enumerates them as :meth:`~repro.geometry.SiteGrid.centered_in`
index ranges and writes the columns into a
:class:`~repro.pilfill.columns.ColumnTable`, whose columns keep their
free site rows, not a rect per site.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dissection.fixed import FixedDissection
from repro.errors import FillError
from repro.fillsynth.slack_sites import SiteLegality
from repro.geometry import Interval, Rect
from repro.layout.layout import RoutedLayout
from repro.layout.rctree import LineTiming
from repro.pilfill.columns import ColumnTable, SlackColumnDef
from repro.tech.rules import FillRules

TileKey = tuple[int, int]


@dataclass(frozen=True)
class SweepLine:
    """One active line participating in the sweep, possibly clipped.

    ``timing`` is None for definition-II lines whose electrical data is
    deliberately invisible (clipped foreign geometry) — they still block
    space but contribute no delay model.
    """

    rect: Rect
    timing: LineTiming | None


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


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For counts ``n_i``, the owner ``i`` and the offset ``0 .. n_i - 1``
    of each of the ``Σ n_i`` items, in order."""
    owner = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - starts[owner]


#: The per-column arrays of one :meth:`ColumnGridder.grid` call, and their
#: dtypes; ``n_rows`` counts each column's entries of ``rows``.
_CHUNK_FIELDS = {
    "tile": np.int64,
    "col": np.int64,
    "along": np.int64,
    "gap_um": np.float64,
    "below": np.int64,
    "above": np.int64,
    "below_res": np.float64,
    "above_res": np.float64,
    "n_rows": np.int64,
    "rows": np.int64,
}


class ColumnGridder:
    """Grids gap blocks into one layer's :class:`~repro.pilfill.columns.
    ColumnTable`, batch by batch.

    A tile owns the sites whose centre it holds (paper §5.1). For each
    (block, tile) pair the columns are the sites centred in the tile's
    clip of the block's along extent, and the candidate rows are the sites
    that fit the block's buffered cross band and are centred in the tile;
    both are :meth:`SiteGrid.centered_in` index ranges. One :meth:`grid`
    call does this for all its blocks in one numpy pass: ``np.repeat``
    index arithmetic expands the blocks into (block, tile) pairs, the
    pairs into (pair, column) triples and the triples into candidate
    sites, whose legality is gathered from the raster at once (the raster
    is pinned to the exact test in ``tests/legality_oracle.py``). A
    column's neighbour resistance is ``upstream + unit · |clamp(centre) −
    origin|``, the operations of :meth:`LineTiming.resistance_at` in the
    same order, so it has the same bits. :meth:`table` sorts the columns
    by tile, stably, which gives every tile the column order of the
    block-by-block loop kept in ``tests/column_grid_oracle.py``.

    The streaming preprocessor grids each :class:`IncrementalSweep`
    feed's blocks the moment they close (their legality reads only look
    below the stream watermark, so late-arriving geometry can never
    invalidate them). Feeding all blocks at once reproduces
    :func:`extract_columns_from_lines` exactly.
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
        self.horizontal = horizontal
        self.dbu = dbu
        self._lines: dict[tuple[str, int, int], int] = {}
        self._chunks: list[dict[str, np.ndarray]] = []

    def _line(
        self, line: SweepLine | None
    ) -> tuple[tuple[int, int, int, int], tuple[float, float]]:
        """A neighbour line's index into the line table with its segment's
        low, high and start coordinates along the routing axis, and its
        upstream and unit resistance; index -1 and zeros for no neighbour
        (a boundary, or a line without timing)."""
        if line is None or line.timing is None:
            return (-1, 0, 0, 0), (0.0, 0.0)
        timing = line.timing
        seg = timing.segment
        ident = (seg.net, seg.index, timing.downstream_sinks)
        at = self._lines.setdefault(ident, len(self._lines))
        origin = seg.start.x if seg.is_horizontal else seg.start.y
        return (at, seg.low_coord, seg.high_coord, origin), (timing.upstream_res, timing.unit_res)

    def grid(self, blocks: list[GapBlock], owners: Sequence[TileKey] | None = None) -> None:
        """Grid ``blocks`` into columns. ``owners[i]``, when given, is the
        one tile block ``i`` may grid into (definitions I and II sweep each
        tile on its own)."""
        if not blocks:
            return
        d, legality, grid = self.dissection, self.legality, self.legality.grid
        buf, size, pitch = self.rules.buffer_distance, grid.site_size, grid.pitch
        half = size // 2
        ints: list[tuple[int, ...]] = []
        floats: list[tuple[float, ...]] = []
        for i, block in enumerate(blocks):
            b_ints, b_floats = self._line(block.below)
            a_ints, a_floats = self._line(block.above)
            owner = -1 if owners is None else owners[i][0] * d.ny + owners[i][1]
            ints.append((
                block.along.lo, block.along.hi, block.cross_lo, block.cross_hi,
                block.below is not None, block.above is not None, owner, *b_ints, *a_ints,
            ))
            floats.append((*b_floats, *a_floats))
        (a_lo, a_hi, x_lo, x_hi, has_below, has_above, owner_of,
         b_at, b_low, b_high, b_origin, a_at, a_low, a_high, a_origin) = np.array(
            ints, dtype=np.int64
        ).T
        b_up, b_unit, a_up, a_unit = np.array(floats, dtype=np.float64).T

        # Shrink the gap band by the buffer distance on line-adjacent sides.
        x_lo_b = x_lo + buf * has_below
        x_hi_b = x_hi - buf * has_above
        fits = x_hi_b - x_lo_b >= self.rules.fill_size

        # (block, tile) pairs: the tiles the usable rect overlaps, ix-major
        # as FixedDissection.tiles_overlapping lists them.
        if self.horizontal:
            ux_lo, ux_hi, uy_lo, uy_hi = a_lo, a_hi, x_lo_b, x_hi_b
        else:
            ux_lo, ux_hi, uy_lo, uy_hi = x_lo_b, x_hi_b, a_lo, a_hi
        die, side = d.die, d.tile_size
        cx_lo, cx_hi = np.maximum(ux_lo, die.xlo), np.minimum(ux_hi, die.xhi)
        cy_lo, cy_hi = np.maximum(uy_lo, die.ylo), np.minimum(uy_hi, die.yhi)
        ix0 = (cx_lo - die.xlo) // side
        ix1 = np.minimum((cx_hi - 1 - die.xlo) // side, d.nx - 1)
        iy0 = (cy_lo - die.ylo) // side
        iy1 = np.minimum((cy_hi - 1 - die.ylo) // side, d.ny - 1)
        n_y = iy1 - iy0 + 1
        overlaps = fits & (cx_hi > cx_lo) & (cy_hi > cy_lo)
        pb, j = _expand(np.where(overlaps, (ix1 - ix0 + 1) * n_y, 0))
        ix = ix0[pb] + j // n_y[pb]
        iy = iy0[pb] + j % n_y[pb]
        tile = ix * d.ny + iy
        t_x_lo, t_y_lo = die.xlo + ix * side, die.ylo + iy * side
        t_x_hi, t_y_hi = np.minimum(t_x_lo + side, die.xhi), np.minimum(t_y_lo + side, die.yhi)

        # The raster is indexed [col][row]; ``a*`` is the along axis and
        # ``c*`` the cross axis.
        free = legality.free
        if self.horizontal:
            t_a_lo, t_a_hi, t_c_lo, t_c_hi = t_x_lo, t_x_hi, t_y_lo, t_y_hi
            along_origin, cross_origin = grid.origin_x, grid.origin_y
            a0, c0, raster = legality.col0, legality.row0, free
        else:
            t_a_lo, t_a_hi, t_c_lo, t_c_hi = t_y_lo, t_y_hi, t_x_lo, t_x_hi
            along_origin, cross_origin = grid.origin_y, grid.origin_x
            a0, c0, raster = legality.row0, legality.col0, free.T
        a_end, c_end = a0 + raster.shape[0], c0 + raster.shape[1]
        clip_lo = np.maximum(a_lo[pb], t_a_lo)
        clip_hi = np.minimum(a_hi[pb], t_a_hi)
        ok = (clip_hi > clip_lo) & (
            np.minimum(x_hi_b[pb], t_c_hi) > np.maximum(x_lo_b[pb], t_c_lo)
        )
        ok &= (owner_of[pb] < 0) | (owner_of[pb] == tile)
        # Candidate rows: centres of the squares that fit the band, in the
        # tile; candidate columns: centres in the tile's clip. Both are
        # centered_in ranges, clipped to the in-die raster.
        fit_lo = np.maximum(x_lo_b[pb] + half, t_c_lo)
        fit_hi = np.minimum(x_hi_b[pb] - size + half + 1, t_c_hi)
        row_lo = np.maximum(-((cross_origin + half - fit_lo) // pitch), c0)
        row_hi = np.minimum(-((cross_origin + half - fit_hi) // pitch), c_end)
        col_lo = np.maximum(-((along_origin + half - clip_lo) // pitch), a0)
        col_hi = np.minimum(-((along_origin + half - clip_hi) // pitch), a_end)
        ok &= row_lo < row_hi
        tp, k = _expand(np.where(ok, np.maximum(col_hi - col_lo, 0), 0))
        if tp.size == 0:
            return

        # (pair, column) triples, then their candidate sites.
        col = col_lo[tp] + k
        n_cand = row_hi[tp] - row_lo[tp]
        tc, r = _expand(n_cand)
        cand = row_lo[tp][tc] + r
        is_free = raster[col[tc] - a0, cand - c0] != 0
        n_free = np.add.reduceat(is_free, np.cumsum(n_cand) - n_cand, dtype=np.int64)
        kept = n_free > 0
        pair = tp[kept]
        blk = pb[pair]
        col = col[kept]
        along = along_origin + col * pitch
        centre = along + half

        def resistance(up: np.ndarray, unit: np.ndarray, low: np.ndarray, high: np.ndarray,
                       origin: np.ndarray) -> np.ndarray:
            coord = np.minimum(np.maximum(centre, low[blk]), high[blk])
            return up[blk] + unit[blk] * np.abs(coord - origin[blk])

        bounded = (has_below & has_above)[blk] != 0
        self._chunks.append({
            "tile": tile[pair],
            "col": col,
            "along": along,
            "gap_um": np.where(bounded, (x_hi - x_lo)[blk] / self.dbu, np.nan),
            "below": b_at[blk],
            "above": a_at[blk],
            "below_res": resistance(b_up, b_unit, b_low, b_high, b_origin),
            "above_res": resistance(a_up, a_unit, a_low, a_high, a_origin),
            "n_rows": n_free[kept],
            "rows": cand[is_free],
        })

    def table(self) -> ColumnTable:
        """Every column gridded so far, grouped by tile."""
        if self._chunks:
            cat = {
                name: np.concatenate([chunk[name] for chunk in self._chunks])
                for name in _CHUNK_FIELDS
            }
        else:
            cat = {name: np.zeros(0, dtype=dtype) for name, dtype in _CHUNK_FIELDS.items()}
        d = self.dissection
        order = np.argsort(cat["tile"], kind="stable")
        n_rows = cat["n_rows"]
        owner, offset = _expand(n_rows[order])
        rows = cat["rows"][(np.cumsum(n_rows) - n_rows)[order][owner] + offset]
        per_tile = np.bincount(cat["tile"], minlength=d.tile_count)
        grid = self.legality.grid
        return ColumnTable(
            layer=self.layer,
            horizontal=self.horizontal,
            cross_origin=grid.origin_y if self.horizontal else grid.origin_x,
            pitch=grid.pitch,
            size=grid.site_size,
            tile_keys=d.tile_keys(),
            bounds=np.concatenate(([0], np.cumsum(per_tile))),
            col=cat["col"][order],
            along=cat["along"][order],
            rows=rows,
            row_bounds=np.concatenate(([0], np.cumsum(n_rows[order]))),
            gap_um=cat["gap_um"][order],
            below=cat["below"][order],
            above=cat["above"][order],
            below_res=cat["below_res"][order],
            above_res=cat["above_res"][order],
            lines=list(self._lines),
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
) -> ColumnTable:
    """Slack columns per tile from pre-collected sweep lines.

    The layout-free core of :func:`extract_columns` — the streaming
    preprocessor calls it (or drives :class:`ColumnGridder` directly)
    without ever materializing a :class:`RoutedLayout`.
    """
    gridder = ColumnGridder(layer, dissection, legality, rules, horizontal, dbu)
    if definition is SlackColumnDef.FULL_LAYOUT:
        gridder.grid(sweep_gap_blocks(lines, die, horizontal))
        return gridder.table()

    # Definitions I and II sweep each tile independently with clipped
    # lines; one grid pass then takes every tile's blocks.
    blocks: list[GapBlock] = []
    owners: list[TileKey] = []
    for tile in dissection.tiles():
        clipped: list[SweepLine] = []
        for line in lines:
            inter = line.rect.intersection(tile.rect)
            if inter is not None:
                clipped.append(SweepLine(rect=inter, timing=line.timing))
        tile_blocks = sweep_gap_blocks(clipped, tile.rect, horizontal)
        if definition is SlackColumnDef.WITHIN_TILE:
            tile_blocks = [b for b in tile_blocks if b.below is not None and b.above is not None]
        blocks += tile_blocks
        owners += [tile.key] * len(tile_blocks)
    gridder.grid(blocks, owners)
    return gridder.table()


def extract_columns(
    layout: RoutedLayout,
    layer: str,
    dissection: FixedDissection,
    legality: SiteLegality,
    rules: FillRules,
    definition: SlackColumnDef = SlackColumnDef.FULL_LAYOUT,
) -> ColumnTable:
    """Slack columns per tile under the chosen definition (paper §5.1).

    Returns the layer's :class:`~repro.pilfill.columns.ColumnTable`,
    which maps every tile key to its columns (possibly none). Every site
    in every column is free in the legality raster, so any placement into
    these sites is design-rule clean.
    """
    lines, horizontal = layer_sweep_lines(layout, layer)
    return extract_columns_from_lines(
        lines, horizontal, layout.die, layout.stack.dbu_per_micron,
        layer, dissection, legality, rules, definition,
    )
