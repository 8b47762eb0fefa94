"""Slack-column data model (paper Section 5.1).

A *slack column* is a vertical (for horizontal routing) stack of legal
fill sites at one site-grid column position, lying in the *gap* between a
pair of neighboring active lines (or between a line and a boundary). The
three definitions of Section 5.1 differ in which gaps are seen:

* ``SlackColumnDef.WITHIN_TILE`` (definition I): only gaps between two
  active lines inside the tile;
* ``SlackColumnDef.TILE_BOUNDED`` (definition II): gaps against tile
  boundaries too, but neighbors outside the tile are invisible (their
  capacitance impact is *not* captured);
* ``SlackColumnDef.FULL_LAYOUT`` (definition III): the sweep runs over the
  whole layout, so every column knows its true neighboring lines even when
  those lines live in adjacent tiles.

Capacitance bookkeeping: a column with both neighbors present carries the
gap distance ``d`` and contributes ΔC(m) coupling to *both* lines; columns
missing a neighbor (boundary gaps) have no modeled delay impact — which is
precisely the inaccuracy of definitions I/II that the paper discusses.

Storage: the gridder writes a layer's columns into one
:class:`ColumnTable` of flat arrays, the only form a slack column takes.
The cost pass, the per-tile solvers, the tile and prepared-instance
digests, placement and local search all read the arrays, through the
table or a tile's :class:`TileColumns` view; no per-column object exists.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.geometry import Rect

TileKey = tuple[int, int]


class SlackColumnDef(enum.Enum):
    """Which slack-column definition the scan uses (paper §5.1)."""

    WITHIN_TILE = "I"
    TILE_BOUNDED = "II"
    FULL_LAYOUT = "III"


@dataclass(eq=False, repr=False)
class ColumnTable(Mapping[TileKey, "TileColumns"]):
    """One layer's slack columns as one structure of arrays.

    :class:`~repro.pilfill.scanline.ColumnGridder` writes every column of
    a layer into these flat arrays, grouped by tile in dissection order
    and, within a tile, in the order the gridder met them (gap block, then
    increasing ``col``). Column ``i`` is:

    * ``col[i]``, its site-grid column index along the routing axis, and
      ``along[i]``, the along-axis coordinate of its sites' low edge (DBU);
    * ``rows[row_bounds[i] : row_bounds[i + 1]]``, its free site rows in
      increasing order; ``capacities[i]`` counts them, and row ``r`` lies
      at cross coordinate ``cross_origin + r * pitch``;
    * ``gap_um[i]``, the gap between its two lines in µm, NaN when fewer
      than two lines bound it;
    * ``below[i]`` / ``above[i]``, the neighbour line's index into
      ``lines`` (``(net, line_index, sinks)`` each, one entry per line),
      -1 for no neighbour, and ``below_res[i]`` / ``above_res[i]``, that
      line's upstream resistance at the column centre (Ω, 0.0 without a
      neighbour).

    A column has modeled delay impact when both neighbours and its gap
    are present (:meth:`impact`). Tile ``tile_keys[t]`` owns columns
    ``bounds[t] : bounds[t + 1]``; as a :class:`Mapping` the table maps
    every tile key to a :class:`TileColumns` view of those rows. The
    program never writes the arrays once the gridder has built them.
    """

    layer: str
    horizontal: bool
    cross_origin: int
    pitch: int
    size: int
    tile_keys: list[TileKey]
    bounds: np.ndarray
    col: np.ndarray
    along: np.ndarray
    rows: np.ndarray
    row_bounds: np.ndarray
    gap_um: np.ndarray
    below: np.ndarray
    above: np.ndarray
    below_res: np.ndarray
    above_res: np.ndarray
    lines: list[tuple[str, int, int]]

    def __post_init__(self) -> None:
        self.capacities = np.diff(self.row_bounds)
        # Line weights W_l, then 0.0 where a missing neighbour's -1 lands.
        self._weights = np.array([*(sinks for _, _, sinks in self.lines), 0], dtype=np.float64)
        self._at = {key: t for t, key in enumerate(self.tile_keys)}
        self._bounds: list[int] = self.bounds.tolist()

    def __getitem__(self, key: TileKey) -> TileColumns:
        t = self._at[key]
        return TileColumns(self, key, self._bounds[t], self._bounds[t + 1])

    def __iter__(self) -> Iterator[TileKey]:
        return iter(self.tile_keys)

    def __len__(self) -> int:
        return len(self.tile_keys)

    def __contains__(self, key: object) -> bool:
        return key in self._at

    # By identity: a view has no content equality, so Mapping's would
    # make every table unequal to itself.
    __eq__ = object.__eq__

    def tile_capacities(self) -> list[int]:
        """Total sites per tile, in ``tile_keys`` order."""
        return (self.row_bounds[self.bounds[1:]] - self.row_bounds[self.bounds[:-1]]).tolist()

    def impact(self, at: np.ndarray | slice) -> np.ndarray:
        """Whether each column ``at`` (an index array or slice) has both
        neighbours and a gap, i.e. modeled delay impact."""
        return (self.below[at] >= 0) & (self.above[at] >= 0) & ~np.isnan(self.gap_um[at])

    def resistance_terms(
        self, at: np.ndarray | slice, weighted: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``W_l · R_l`` (``R_l`` alone unless ``weighted``) of the below and
        the above neighbour of each column ``at``; 0.0 for no neighbour."""
        r_b, r_a = self.below_res[at], self.above_res[at]
        if not weighted:
            return r_b, r_a
        return self._weights[self.below[at]] * r_b, self._weights[self.above[at]] * r_a

    def r_hat(self, at: np.ndarray | slice, weighted: bool) -> np.ndarray:
        """The r̂_k multiplier of the MDFC objective (paper Fig. 8 line 11)
        of each column ``at``: ``0.0 + w_b·R_b + w_a·R_a``, in that order,
        so every consumer gets the same bits."""
        w_b, w_a = self.resistance_terms(at, weighted)
        return 0.0 + w_b + w_a

    def tile_table(self, key: TileKey) -> ColumnTable:
        """Tile ``key``'s rows as a table of their own, naming only the
        lines those rows name (renumbered in their order here)."""
        t = self._at[key]
        lo, hi = self._bounds[t], self._bounds[t + 1]
        below, above = self.below[lo:hi], self.above[lo:hi]
        named = np.unique(np.concatenate((below, above)))
        named = named[named >= 0]

        def renumbered(ids: np.ndarray) -> np.ndarray:
            return np.where(ids >= 0, np.searchsorted(named, ids), -1)

        first, last = self.row_bounds[lo], self.row_bounds[hi]
        return ColumnTable(
            layer=self.layer,
            horizontal=self.horizontal,
            cross_origin=self.cross_origin,
            pitch=self.pitch,
            size=self.size,
            tile_keys=[key],
            bounds=np.array([0, hi - lo]),
            col=self.col[lo:hi],
            along=self.along[lo:hi],
            rows=self.rows[first:last],
            row_bounds=self.row_bounds[lo : hi + 1] - first,
            gap_um=self.gap_um[lo:hi],
            below=renumbered(below),
            above=renumbered(above),
            below_res=self.below_res[lo:hi],
            above_res=self.above_res[lo:hi],
            lines=[self.lines[i] for i in named.tolist()],
        )


@dataclass(eq=False)
class TileColumns:
    """One tile's slack columns: rows ``lo:hi`` of a :class:`ColumnTable`.

    Every reader goes through the table's arrays; the methods below are
    the table's, restricted to the tile. A view pickles as a view over
    :meth:`ColumnTable.tile_table`, so a pool payload ships the tile's own
    rows and the lines they name, never the layer's table, while an
    in-process solve reads the parent's view as it is.
    """

    table: ColumnTable
    key: TileKey
    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo

    def __reduce__(self) -> tuple[type[TileColumns], tuple[ColumnTable, TileKey, int, int]]:
        return (TileColumns, (self.table.tile_table(self.key), self.key, 0, len(self)))

    def impact(self) -> np.ndarray:
        """:meth:`ColumnTable.impact` of the tile's columns."""
        return self.table.impact(slice(self.lo, self.hi))

    def resistance_terms(self, weighted: bool) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`ColumnTable.resistance_terms` of the tile's columns."""
        return self.table.resistance_terms(slice(self.lo, self.hi), weighted)

    def r_hat(self, weighted: bool) -> np.ndarray:
        """:meth:`ColumnTable.r_hat` of the tile's columns."""
        return self.table.r_hat(slice(self.lo, self.hi), weighted)

    def neighbors(self) -> tuple[list[int], list[int]]:
        """Each column's below and above line, as an index into the
        table's ``lines`` (-1 for none)."""
        table, lo, hi = self.table, self.lo, self.hi
        return table.below[lo:hi].tolist(), table.above[lo:hi].tolist()

    def impact_nets(self) -> list[tuple[str, str] | None]:
        """The below and above nets of each column with impact, None for
        the others."""
        lines = self.table.lines
        below, above = self.neighbors()
        return [
            (lines[b][0], lines[a][0]) if has else None
            for has, b, a in zip(self.impact().tolist(), below, above, strict=True)
        ]

    def electrical_fields(
        self,
    ) -> list[tuple[float | None, list[object] | None, list[object] | None]]:
        """``(gap_um, below, above)`` of each column, each neighbour as
        ``[net, line_index, sinks, resistance_ohm]`` or None: the form
        the digests hash."""
        table, lo, hi = self.table, self.lo, self.hi
        lines = table.lines
        return [
            (
                None if gap != gap else gap,  # NaN: fewer than two lines
                None if b < 0 else [*lines[b], b_res],
                None if a < 0 else [*lines[a], a_res],
            )
            for gap, b, b_res, a, a_res in zip(
                table.gap_um[lo:hi].tolist(),
                table.below[lo:hi].tolist(),
                table.below_res[lo:hi].tolist(),
                table.above[lo:hi].tolist(),
                table.above_res[lo:hi].tolist(),
                strict=True,
            )
        ]

    def site_rects(self, picks: Sequence[tuple[int, int]]) -> list[Rect]:
        """The rect of site ``s`` of column ``k`` for each ``(k, s)`` of
        ``picks``, in order."""
        if not picks:
            return []
        table, lo = self.table, self.lo
        bounds = table.row_bounds[lo : self.hi + 1].tolist()
        rows = table.rows[bounds[0] : bounds[-1]].tolist()
        along = table.along[lo : self.hi].tolist()
        first = bounds[0]
        cross_origin, pitch, size = table.cross_origin, table.pitch, table.size
        out: list[Rect] = []
        for k, s in picks:
            cross = cross_origin + rows[bounds[k] - first + s] * pitch
            a = along[k]
            if table.horizontal:
                out.append(Rect(a, cross, a + size, cross + size))
            else:
                out.append(Rect(cross, a, cross + size, a + size))
        return out

    def sites(self) -> list[list[Rect]]:
        """Every column's site rects, in column then row order."""
        caps = self.table.capacities[self.lo : self.hi].tolist()
        rects = self.site_rects([(k, s) for k, cap in enumerate(caps) for s in range(cap)])
        starts = [0, *accumulate(caps)]
        return [rects[start:end] for start, end in zip(starts[:-1], starts[1:], strict=True)]
