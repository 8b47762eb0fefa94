"""Slack-site computation: where may fill features legally go.

The layout is gridded into candidate fill sites (side ``fill_size``, pitch
``fill_size + fill_gap``) anchored one buffer distance inside the die's
lower-left corner. A site belongs to the tile or region that holds its
centre; :meth:`~repro.geometry.SiteGrid.centered_in` gives those sites as
column and row index ranges, so a rect is built only for a site that is
owned. A site is *legal* when the site square, expanded by the buffer
distance, overlaps no drawn geometry on the layer and stays inside the
die. This exact test covers line ends and wrong-direction routing, which
the parallel-line capacitance model itself does not see.
"""

from __future__ import annotations

from repro.dissection.fixed import FixedDissection
from repro.geometry import GridBinIndex, Rect, SiteGrid
from repro.layout.layout import RoutedLayout
from repro.tech.rules import FillRules


class SiteLegality:
    """Per-layer legality oracle for fill sites.

    Construct from a layout (historical API) or from bare geometry via
    :meth:`from_rects` — the streaming preprocessor feeds blockage rects
    one net at a time with :meth:`add_blockage` and never materializes a
    :class:`RoutedLayout`. Incremental insertion is sound for queries
    below the stream's watermark: a site already judged legal can only
    be invalidated by a rect overlapping its grown square, and streamed
    geometry always arrives above it.
    """

    def __init__(self, layout: RoutedLayout, layer: str, rules: FillRules):
        self._init_from(layout.die, layer, rules, layout.feature_rects(layer))

    def _init_from(
        self, die: Rect, layer: str, rules: FillRules, rects: list[Rect]
    ) -> None:
        self.die = die
        self.layer = layer
        self.rules = rules
        self.grid = SiteGrid(
            origin_x=die.xlo + rules.buffer_distance,
            origin_y=die.ylo + rules.buffer_distance,
            site_size=rules.fill_size,
            site_gap=rules.fill_gap,
        )
        bin_size = max(1, max(die.width, die.height) // 32)
        self._blockages: GridBinIndex[int] = GridBinIndex(bin_size)
        self._rects: list[Rect] = []
        for rect in rects:
            self.add_blockage(rect)

    @classmethod
    def from_rects(
        cls, die: Rect, layer: str, rules: FillRules, rects: list[Rect]
    ) -> "SiteLegality":
        """Build from bare blockage geometry (no layout object needed)."""
        oracle = cls.__new__(cls)
        oracle._init_from(die, layer, rules, rects)
        return oracle

    def add_blockage(self, rect: Rect) -> None:
        """Register one more blockage rect (streaming construction)."""
        self._blockages.insert(rect, len(self._rects))
        self._rects.append(rect)

    def is_legal(self, site_rect: Rect) -> bool:
        """True when a fill feature at ``site_rect`` is design-rule legal."""
        if not self.die.contains_rect(site_rect):
            return False
        grown = site_rect.expanded(self.rules.buffer_distance)
        for idx in self._blockages.query(grown):
            if self._rects[idx].overlaps(grown):
                return False
        return True

    def legal_sites_in_region(self, region: Rect) -> list[Rect]:
        """Legal site squares whose centre lies in ``region``, sorted by
        (column, row)."""
        grid = self.grid
        size, pitch = grid.site_size, grid.pitch
        rows = grid.centered_in(region.ylo, region.yhi, grid.origin_y)
        out: list[Rect] = []
        for col in grid.centered_in(region.xlo, region.xhi, grid.origin_x):
            x = grid.origin_x + col * pitch
            for row in rows:
                y = grid.origin_y + row * pitch
                rect = Rect(x, y, x + size, y + size)
                if self.is_legal(rect):
                    out.append(rect)
        return out

    def legal_count_by_tile(self, dissection: FixedDissection) -> dict[tuple[int, int], int]:
        """Number of legal sites per tile (sites assigned by center)."""
        counts: dict[tuple[int, int], int] = {t.key: 0 for t in dissection.tiles()}
        for tile in dissection.tiles():
            counts[tile.key] = len(self.legal_sites_in_region(tile.rect))
        return counts
