"""Slack-site computation: where may fill features legally go.

The layout is gridded into candidate fill sites (side ``fill_size``, pitch
``fill_size + fill_gap``) anchored one buffer distance inside the die's
lower-left corner. A site belongs to the tile or region that holds its
centre; :meth:`~repro.geometry.SiteGrid.centered_in` gives those sites as
column and row index ranges, so a rect is built only for a site that is
owned and free. A site is *legal* when the site square, expanded by the
buffer distance, overlaps no drawn geometry on the layer and stays inside
the die. This exact test covers line ends and wrong-direction routing,
which the parallel-line capacitance model itself does not see.

Legality is a question about a fixed lattice, so it is answered by a
lattice lookup: :class:`SiteLegality` keeps one byte per in-die site in a
2-D array and clears, with one slice assignment per blockage, the index
box of sites that blockage rules out. ``tests/legality_oracle.py`` keeps
the exact rect test the raster is pinned to.
"""

from __future__ import annotations

import numpy as np

from repro.dissection.fixed import FixedDissection
from repro.geometry import Rect, SiteGrid
from repro.layout.layout import RoutedLayout
from repro.tech.rules import FillRules


class SiteLegality:
    """Per-layer legality raster over the fill-site lattice.

    ``free[c - col0, r - row0]`` is 1 when site ``(c, r)`` is legal and 0
    when it is blocked; sites not fully inside the die lie outside the
    raster (``col0 <= c < col0 + len(free)``, ``row0 <= r < row0 +
    nrows``) and are never legal. ``free`` is one 2-D ``uint8`` array, so
    the gridder gathers a whole layer's candidate sites from it in one
    indexing operation.

    Construct from a layout (historical API) or from bare geometry via
    :meth:`from_rects` — the streaming preprocessor feeds blockage rects
    one net at a time with :meth:`add_blockage` and never materializes a
    :class:`RoutedLayout`. Incremental painting is sound for reads below
    the stream's watermark: a site already read as free can only be
    blocked by a rect overlapping its grown square, and streamed geometry
    always arrives above it.
    """

    def __init__(self, layout: RoutedLayout, layer: str, rules: FillRules):
        self._init_from(layout.die, layer, rules, layout.feature_rects(layer), None)

    def _init_from(
        self,
        die: Rect,
        layer: str,
        rules: FillRules,
        rects: list[Rect],
        grid: SiteGrid | None,
    ) -> None:
        self.die = die
        self.layer = layer
        self.rules = rules
        if grid is None:
            grid = SiteGrid(
                origin_x=die.xlo + rules.buffer_distance,
                origin_y=die.ylo + rules.buffer_distance,
                site_size=rules.fill_size,
                site_gap=rules.fill_gap,
            )
        self.grid = grid
        size, pitch = grid.site_size, grid.pitch
        # Sites whose square lies in the die: ceil((lo - origin) / pitch)
        # through floor((hi - size - origin) / pitch).
        self.col0 = -((grid.origin_x - die.xlo) // pitch)
        self.row0 = -((grid.origin_y - die.ylo) // pitch)
        ncols = max(0, (die.xhi - size - grid.origin_x) // pitch + 1 - self.col0)
        self.nrows = max(0, (die.yhi - size - grid.origin_y) // pitch + 1 - self.row0)
        self.free = np.ones((ncols, self.nrows), dtype=np.uint8)
        for rect in rects:
            self.add_blockage(rect)

    @classmethod
    def from_rects(
        cls,
        die: Rect,
        layer: str,
        rules: FillRules,
        rects: list[Rect],
        *,
        grid: SiteGrid | None = None,
    ) -> "SiteLegality":
        """Build from bare blockage geometry (no layout object needed).

        ``grid`` defaults to the die-anchored grid; any other anchoring
        with the same site size works too.
        """
        oracle = cls.__new__(cls)
        oracle._init_from(die, layer, rules, rects, grid)
        return oracle

    def add_blockage(self, rect: Rect) -> None:
        """Clear every site whose buffer-grown square overlaps ``rect``'s
        open interior.

        Column ``c`` qualifies when ``ox + c*pitch - buf < xhi`` and
        ``xlo < ox + c*pitch + size + buf``; rows likewise.
        """
        grid = self.grid
        pitch, buf = grid.pitch, self.rules.buffer_distance
        reach = grid.site_size + buf
        c_lo = max((rect.xlo - grid.origin_x - reach) // pitch + 1 - self.col0, 0)
        c_hi = min(-((grid.origin_x - buf - rect.xhi) // pitch) - self.col0, len(self.free))
        r_lo = max((rect.ylo - grid.origin_y - reach) // pitch + 1 - self.row0, 0)
        r_hi = min(-((grid.origin_y - buf - rect.yhi) // pitch) - self.row0, self.nrows)
        if c_lo < c_hi and r_lo < r_hi:
            self.free[c_lo:c_hi, r_lo:r_hi] = 0

    def is_free(self, col: int, row: int) -> bool:
        """True when site ``(col, row)`` is legal."""
        c, r = col - self.col0, row - self.row0
        return 0 <= c < len(self.free) and 0 <= r < self.nrows and bool(self.free[c, r])

    def _free_in_region(self, region: Rect) -> list[tuple[int, int]]:
        """``(col, row)`` of the legal sites centred in ``region``, sorted."""
        grid = self.grid
        col0, row0, nrows = self.col0, self.row0, self.nrows
        cols = grid.centered_in(region.xlo, region.xhi, grid.origin_x)
        rows = grid.centered_in(region.ylo, region.yhi, grid.origin_y)
        c_lo, c_hi = max(cols.start, col0), min(cols.stop, col0 + len(self.free))
        r_lo, r_hi = max(rows.start, row0), min(rows.stop, row0 + nrows)
        if c_lo >= c_hi or r_lo >= r_hi:  # keep the slice bounds non-negative
            return []
        box = self.free[c_lo - col0 : c_hi - col0, r_lo - row0 : r_hi - row0]
        cols_at, rows_at = np.nonzero(box)
        return list(zip((cols_at + c_lo).tolist(), (rows_at + r_lo).tolist(), strict=True))

    def legal_sites_in_region(self, region: Rect) -> list[Rect]:
        """Legal site squares whose centre lies in ``region``, sorted by
        (column, row)."""
        grid = self.grid
        size, pitch = grid.site_size, grid.pitch
        out: list[Rect] = []
        for col, row in self._free_in_region(region):
            x = grid.origin_x + col * pitch
            y = grid.origin_y + row * pitch
            out.append(Rect(x, y, x + size, y + size))
        return out

    def legal_count_by_tile(self, dissection: FixedDissection) -> dict[tuple[int, int], int]:
        """Number of legal sites per tile (sites assigned by center)."""
        return {t.key: len(self._free_in_region(t.rect)) for t in dissection.tiles()}
