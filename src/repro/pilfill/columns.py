"""Slack-column data model (paper Section 5.1).

A *slack column* is a vertical (for horizontal routing) stack of legal
fill sites at one site-grid column position, lying in the *gap* between a
pair of neighboring active lines (or between a line and a boundary). The
three definitions of Section 5.1 differ in which gaps are seen:

* ``SlackColumnDef.WITHIN_TILE`` (SlackColumn-I): only gaps between two
  active lines inside the tile;
* ``SlackColumnDef.TILE_BOUNDED`` (SlackColumn-II): gaps against tile
  boundaries too, but neighbors outside the tile are invisible (their
  capacitance impact is *not* captured);
* ``SlackColumnDef.FULL_LAYOUT`` (SlackColumn-III): the sweep runs over the
  whole layout, so every column knows its true neighboring lines even when
  those lines live in adjacent tiles.

Capacitance bookkeeping: a column with both neighbors present carries the
gap distance ``d`` and contributes ΔC(m) coupling to *both* lines; columns
missing a neighbor (boundary gaps) have no modeled delay impact — which is
precisely the inaccuracy of definitions I/II that the paper discusses.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import overload

from repro.geometry import Rect
from repro.layout.rctree import OHM_FF_TO_PS


class SlackColumnDef(enum.Enum):
    """Which slack-column definition the scan uses (paper §5.1)."""

    WITHIN_TILE = "I"
    TILE_BOUNDED = "II"
    FULL_LAYOUT = "III"


@dataclass(frozen=True)
class ColumnNeighbor:
    """One active line adjacent to a slack column, with the electrical
    quantities the MDFC objective needs at the column's position.

    Attributes:
        net: owning net name.
        line_index: index of the line within its RC tree.
        sinks: downstream sink count (the weight ``W_l``).
        resistance_ohm: total upstream resistance at the column position
            (the paper's ``R_l + Σ r_l``), Ω.
    """

    net: str
    line_index: int
    sinks: int
    resistance_ohm: float

    @property
    def identity(self) -> tuple[str, int]:
        return (self.net, self.line_index)


@dataclass(frozen=True)
class ElectricalColumn:
    """Electrical view of one slack column, without layout geometry.

    The part of a :class:`SlackColumn` (its subclass) the per-tile
    solvers read: gap, neighbors, r̂. A pool payload's
    :class:`~repro.pilfill.costs.TileCosts` carries these instead of the
    :class:`SlackColumn` objects, whose site rectangles stay in the
    parent, which places the solved counts itself.
    """

    gap_um: float | None
    below: ColumnNeighbor | None
    above: ColumnNeighbor | None

    @property
    def has_impact(self) -> bool:
        """True when filling this column changes modeled coupling (both
        neighbor lines present)."""
        return self.below is not None and self.above is not None and self.gap_um is not None

    def resistance_weight(self, weighted: bool) -> float:
        """The r̂_k multiplier of the MDFC objective (paper Fig. 8 line 11):
        Σ over present neighbors of (W_l or 1) × upstream resistance at the
        column position, Ω."""
        total = 0.0
        for neighbor in (self.below, self.above):
            if neighbor is not None:
                w = neighbor.sinks if weighted else 1
                total += w * neighbor.resistance_ohm
        return total


class ColumnSites(Sequence[Rect]):
    """One slack column's legal sites, stored as site-grid rows.

    The gridder records the free rows of a column (``rows``, increasing)
    and the column's along-axis site coordinate; each :class:`Rect` is
    built only when it is read, so a column that no placement touches
    never builds one. Indexing and iteration give the same rects, in the
    same order (increasing cross coordinate), as a tuple of the site
    rects would; a :class:`ColumnSites` compares equal to any sequence of
    the same rects.
    """

    __slots__ = ("rows", "along", "cross_origin", "pitch", "size", "horizontal")

    def __init__(
        self,
        rows: tuple[int, ...],
        along: int,
        cross_origin: int,
        pitch: int,
        size: int,
        horizontal: bool,
    ):
        self.rows = rows
        self.along = along
        self.cross_origin = cross_origin
        self.pitch = pitch
        self.size = size
        self.horizontal = horizontal

    def _rect(self, row: int) -> Rect:
        cross = self.cross_origin + row * self.pitch
        along, size = self.along, self.size
        if self.horizontal:
            return Rect(along, cross, along + size, cross + size)
        return Rect(cross, along, cross + size, along + size)

    def __len__(self) -> int:
        return len(self.rows)

    @overload
    def __getitem__(self, index: int) -> Rect: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[Rect, ...]: ...

    def __getitem__(self, index: int | slice) -> Rect | tuple[Rect, ...]:
        if isinstance(index, slice):
            return tuple(self._rect(row) for row in self.rows[index])
        return self._rect(self.rows[index])

    def __iter__(self) -> Iterator[Rect]:
        return (self._rect(row) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"ColumnSites({tuple(self)!r})"


@dataclass(frozen=True)
class SlackColumn(ElectricalColumn):
    """A stack of legal fill sites in one gap, clipped to one tile.

    Attributes:
        gap_um: edge-to-edge distance between the two neighbor lines (µm),
            or None when fewer than two line neighbors exist.
        below: neighbor on the low-coordinate side (None = boundary).
        above: neighbor on the high-coordinate side (None = boundary).
        layer: routing layer.
        tile: owning tile key ``(ix, iy)``.
        col: global site-grid column index along the routing direction.
        sites: legal site rectangles, ordered nearest-line-first is NOT
            guaranteed — ordered by increasing cross coordinate. The
            gridder stores them as :class:`ColumnSites` rows, which build
            each rect when it is read.
    """

    layer: str
    tile: tuple[int, int]
    col: int
    sites: Sequence[Rect]

    @property
    def capacity(self) -> int:
        """Number of fill features the column can take in this tile."""
        return len(self.sites)

    @property
    def gap_key(self) -> tuple:
        """Identity of the *physical* gap column. Columns in different
        tiles that share the same site-grid column and the same neighbor
        pair refer to the same physical stack; the evaluator recombines
        them when computing true (nonlinear) capacitance."""
        below = self.below.identity if self.below else None
        above = self.above.identity if self.above else None
        return (self.layer, self.col, below, above)

    def delay_ps(self, cap_ff: float, weighted: bool) -> float:
        """Delay impact (ps) of attaching ``cap_ff`` in this column."""
        return self.resistance_weight(weighted) * cap_ff * OHM_FF_TO_PS
