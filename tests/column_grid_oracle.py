"""Block-by-block slack-column gridding: the test oracle for the column table.

This is :class:`~repro.pilfill.scanline.ColumnGridder` as it was before it
gridded a whole layer in one array pass. It walks one gap block at a time,
one tile of the block at a time and one site-grid column of the tile at a
time, reads the column's candidate rows from the legality raster, and
builds a :class:`~tests.column_objects.SlackColumn` (with its
:class:`~tests.column_objects.ColumnSites` and up to two
:class:`~tests.column_objects.ColumnNeighbor`) per column. The loops are
kept unchanged, so ``tests/test_site_grid.py`` can show that the
:class:`~repro.pilfill.columns.ColumnTable` holds the same columns, rows,
gaps and neighbours, with the same resistance bits, in the same per-tile
order.
"""

from __future__ import annotations

from itertools import compress

from repro.dissection.fixed import FixedDissection
from repro.fillsynth.slack_sites import SiteLegality
from repro.geometry import Interval, Rect
from repro.layout.rctree import LineTiming
from repro.pilfill.columns import SlackColumnDef
from repro.pilfill.scanline import GapBlock, SweepLine, _Axes, sweep_gap_blocks
from repro.tech.rules import FillRules
from tests.column_objects import ColumnNeighbor, ColumnSites, SlackColumn

Columns = dict[tuple[int, int], list[SlackColumn]]


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


class OracleGridder:
    """Grids gap blocks into per-tile lists of slack columns, one block at
    a time (see the module docstring)."""

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
        self.out: Columns = {t.key: [] for t in dissection.tiles()}

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
) -> Columns:
    """Slack columns per tile from sweep lines, gridded by the oracle:
    one sweep of the die under Definition III, one per tile (with clipped
    lines, gridded into that tile alone) under Definitions I and II."""
    gridder = OracleGridder(layer, dissection, legality, rules, horizontal, dbu)
    if definition is SlackColumnDef.FULL_LAYOUT:
        gridder.grid(sweep_gap_blocks(lines, die, horizontal))
        return gridder.out
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
