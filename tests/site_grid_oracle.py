"""Rect-per-candidate site enumeration: the test oracle for site gridding.

This is the gridder and the legal-site scan as they were before both moved
onto :meth:`repro.geometry.SiteGrid.centered_in` and the legality raster.
Each one builds a :class:`~repro.geometry.Rect` for every candidate site in
a padded box, keeps the sites whose centre lies in the tile (or region),
and asks the exact rect test of :mod:`tests.legality_oracle` whether each
is legal. Neighbour resistances come from
:meth:`~repro.layout.rctree.LineTiming.resistance_at`. The ``SiteGrid``
helpers it needs are free functions here. The loops are kept unchanged, so
``tests/test_site_grid.py`` can show that the index-range enumeration over
the raster returns the same columns and sites in the same order.
"""

from __future__ import annotations

from repro.dissection.fixed import FixedDissection
from repro.geometry import Interval, Rect, SiteGrid
from repro.pilfill.columns import ColumnNeighbor, SlackColumn
from repro.pilfill.scanline import GapBlock, SweepLine, _Axes
from repro.tech.rules import FillRules
from tests.legality_oracle import ExactLegality

# -- SiteGrid helpers ---------------------------------------------------------


def site_rect(grid: SiteGrid, col: int, row: int) -> Rect:
    """Geometry of site ``(col, row)``."""
    x = grid.origin_x + col * grid.pitch
    y = grid.origin_y + row * grid.pitch
    return Rect(x, y, x + grid.site_size, y + grid.site_size)


def col_at(grid: SiteGrid, x: int) -> int:
    """Column index of the site whose pitch cell contains ``x``
    (floor division — works for coordinates left of the origin too)."""
    return (x - grid.origin_x) // grid.pitch


def row_at(grid: SiteGrid, y: int) -> int:
    """Row index of the site whose pitch cell contains ``y``."""
    return (y - grid.origin_y) // grid.pitch


def cols_fully_inside(grid: SiteGrid, xlo: int, xhi: int) -> range:
    """Range of columns whose site squares fit entirely in ``[xlo, xhi)``."""
    if xhi - xlo < grid.site_size:
        return range(0)
    first = col_at(grid, xlo + grid.pitch - 1)  # ceil to next cell start
    if grid.origin_x + first * grid.pitch < xlo:
        first += 1
    # last col c such that origin + c*pitch + site_size <= xhi
    last = (xhi - grid.site_size - grid.origin_x) // grid.pitch
    return range(first, last + 1) if last >= first else range(0)


def rows_fully_inside(grid: SiteGrid, ylo: int, yhi: int) -> range:
    """Range of rows whose site squares fit entirely in ``[ylo, yhi)``."""
    if yhi - ylo < grid.site_size:
        return range(0)
    first = row_at(grid, ylo + grid.pitch - 1)
    if grid.origin_y + first * grid.pitch < ylo:
        first += 1
    last = (yhi - grid.site_size - grid.origin_y) // grid.pitch
    return range(first, last + 1) if last >= first else range(0)


# -- legal sites ----------------------------------------------------------------


def legal_sites_in_region(grid: SiteGrid, exact: ExactLegality, region: Rect) -> list[Rect]:
    """Legal site squares whose center lies in ``region``, sorted by
    (column, row)."""
    # Candidate sites: any whose square could have its center in region.
    pad = grid.site_size
    search = Rect(
        region.xlo - pad, region.ylo - pad, region.xhi + pad, region.yhi + pad
    )
    out: list[Rect] = []
    c0 = col_at(grid, search.xlo)
    c1 = col_at(grid, search.xhi) + 1
    r0 = row_at(grid, search.ylo)
    r1 = row_at(grid, search.yhi) + 1
    for col in range(c0, c1 + 1):
        for row in range(r0, r1 + 1):
            rect = site_rect(grid, col, row)
            if region.contains_point(rect.center) and exact.is_legal(rect):
                out.append(rect)
    return out


# -- slack-column gridding --------------------------------------------------------


def grid_blocks(
    blocks: list[GapBlock],
    only_tile: tuple[int, int] | None,
    layer: str,
    dissection: FixedDissection,
    grid: SiteGrid,
    exact: ExactLegality,
    rules: FillRules,
    horizontal: bool,
    dbu: int,
) -> dict[tuple[int, int], list[SlackColumn]]:
    """Columns of ``blocks`` per tile, gridded one block at a time."""
    axes = _Axes(horizontal)
    out: dict[tuple[int, int], list[SlackColumn]] = {t.key: [] for t in dissection.tiles()}
    for block in blocks:
        _grid_block(block, only_tile, layer, dissection, grid, exact, rules, axes, dbu, out)
    return out


def neighbor_at(line: SweepLine | None, along_coord: int) -> ColumnNeighbor | None:
    """Electrical view of a neighbour line at an along-axis coordinate."""
    if line is None or line.timing is None:
        return None
    timing = line.timing
    return ColumnNeighbor(
        net=timing.segment.net,
        line_index=timing.segment.index,
        sinks=timing.downstream_sinks,
        resistance_ohm=timing.resistance_at(along_coord),
    )


def _grid_block(
    block: GapBlock,
    only_tile: tuple[int, int] | None,
    layer: str,
    dissection: FixedDissection,
    grid: SiteGrid,
    exact: ExactLegality,
    rules: FillRules,
    axes: _Axes,
    dbu: int,
    out: dict[tuple[int, int], list[SlackColumn]],
) -> None:
    """Grid one gap block into per-tile slack columns, appending to ``out``."""
    # Shrink the gap band by the buffer distance on line-adjacent sides.
    cross_lo = block.cross_lo + (rules.buffer_distance if block.below is not None else 0)
    cross_hi = block.cross_hi - (rules.buffer_distance if block.above is not None else 0)
    if cross_hi - cross_lo < rules.fill_size:
        return
    usable = axes.rect(block.along, Interval(cross_lo, cross_hi))

    gap_um = block.gap / dbu if (block.below is not None and block.above is not None) else None

    for tile in dissection.tiles_overlapping(usable):
        if only_tile is not None and tile.key != only_tile:
            continue
        clip = usable.intersection(tile.rect)
        if clip is None:
            continue
        along_clip = axes.along_iv(clip)
        # Candidate along-axis columns: site center inside the block's
        # along extent and owned by this tile. Centers (not full squares)
        # decide membership so sites straddling block boundaries are not
        # lost; the exact legality test still guarantees DRC cleanliness.
        if axes.horizontal:
            col_range = range(
                col_at(grid, block.along.lo), col_at(grid, block.along.hi) + 2
            )
        else:
            col_range = range(
                row_at(grid, block.along.lo), row_at(grid, block.along.hi) + 2
            )
        for col in col_range:
            if axes.horizontal:
                site_along_lo = grid.origin_x + col * grid.pitch
            else:
                site_along_lo = grid.origin_y + col * grid.pitch
            center_along = site_along_lo + grid.site_size // 2
            if not along_clip.contains(center_along):
                continue
            sites = _column_sites(
                grid, col, axes, cross_lo, cross_hi, tile.rect, exact
            )
            if not sites:
                continue
            below = neighbor_at(block.below, center_along)
            above = neighbor_at(block.above, center_along)
            out[tile.key].append(
                SlackColumn(
                    layer=layer,
                    tile=tile.key,
                    col=col,
                    sites=tuple(sites),
                    gap_um=gap_um,
                    below=below,
                    above=above,
                )
            )


def _column_sites(
    grid: SiteGrid,
    col: int,
    axes: _Axes,
    cross_lo: int,
    cross_hi: int,
    tile_rect: Rect,
    exact: ExactLegality,
) -> list[Rect]:
    """Legal site rects of one column inside a tile, ordered by cross
    coordinate."""
    if axes.horizontal:
        rows = rows_fully_inside(grid, cross_lo, cross_hi)
        candidates = [site_rect(grid, col, row) for row in rows]
    else:
        cols = cols_fully_inside(grid, cross_lo, cross_hi)
        candidates = [site_rect(grid, c, col) for c in cols]
    return [
        rect
        for rect in candidates
        if tile_rect.contains_point(rect.center) and exact.is_legal(rect)
    ]
