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

Storage: the gridder writes a layer's columns into one
:class:`ColumnTable` of flat arrays, which the cost pass, the tile digests
and placement read directly. :class:`SlackColumn` (with its
:class:`ColumnSites` and :class:`ColumnNeighbor` objects) is the object
view of one column, built from the table only when a tile's columns are
indexed or iterated (:class:`TileColumns`).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import overload

import numpy as np

from repro.geometry import Rect
from repro.layout.rctree import OHM_FF_TO_PS

TileKey = tuple[int, int]


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

    The column table holds the free rows of a column (``rows``,
    increasing) and the column's along-axis site coordinate; each
    :class:`Rect` is
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
            guaranteed — ordered by increasing cross coordinate. A column
            built from a :class:`ColumnTable` holds them as
            :class:`ColumnSites` rows, which build each rect when it is
            read.
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


def neighbor_payload(neighbor: ColumnNeighbor | None) -> list[object] | None:
    """A neighbour as plain data, ``[net, line_index, sinks,
    resistance_ohm]``, or None: the form the digests hash."""
    if neighbor is None:
        return None
    return [neighbor.net, neighbor.line_index, neighbor.sinks, neighbor.resistance_ohm]


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
      than two lines bound it (``SlackColumn.gap_um is None``);
    * ``below[i]`` / ``above[i]``, the neighbour line's index into
      ``lines`` (``(net, line_index, sinks)`` each), -1 for no neighbour,
      and ``below_res[i]`` / ``above_res[i]``, that line's upstream
      resistance at the column centre (Ω, 0.0 without a neighbour).

    Tile ``tile_keys[t]`` owns columns ``bounds[t] : bounds[t + 1]``. As a
    :class:`Mapping` the table maps every tile key to a
    :class:`TileColumns` view; a view's ``len()`` and the array readers
    (cost tables, tile digests, placement) build no :class:`SlackColumn`,
    and a view builds its tile's columns only when it is indexed or
    iterated. The program never writes the arrays once the gridder has
    built them.
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
        self.line_sinks = np.array([sinks for _, _, sinks in self.lines], dtype=np.int64)
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

    def tile_capacities(self) -> list[int]:
        """Total sites per tile, in ``tile_keys`` order."""
        return (self.row_bounds[self.bounds[1:]] - self.row_bounds[self.bounds[:-1]]).tolist()

    def electrical_fields(
        self, lo: int, hi: int
    ) -> list[tuple[float | None, list[object] | None, list[object] | None]]:
        """``(gap_um, below, above)`` of columns ``lo:hi``, each neighbour
        as :func:`neighbor_payload` gives it."""
        lines = self.lines
        gaps = self.gap_um[lo:hi].tolist()
        return [
            (
                None if gap != gap else gap,  # NaN: fewer than two lines
                None if b < 0 else [*lines[b], b_res],
                None if a < 0 else [*lines[a], a_res],
            )
            for gap, b, b_res, a, a_res in zip(
                gaps,
                self.below[lo:hi].tolist(),
                self.below_res[lo:hi].tolist(),
                self.above[lo:hi].tolist(),
                self.above_res[lo:hi].tolist(),
                strict=True,
            )
        ]

    def electrical_columns(self, lo: int, hi: int) -> tuple[ElectricalColumn, ...]:
        """Geometry-free columns ``lo:hi``."""
        return tuple(
            ElectricalColumn(
                gap,
                None if below is None else ColumnNeighbor(*below),
                None if above is None else ColumnNeighbor(*above),
            )
            for gap, below, above in self.electrical_fields(lo, hi)
        )

    def slack_columns(self, key: TileKey, lo: int, hi: int) -> tuple[SlackColumn, ...]:
        """Columns ``lo:hi`` (all owned by tile ``key``) as objects."""
        bounds = self.row_bounds[lo : hi + 1].tolist()
        rows = self.rows[bounds[0] : bounds[-1]].tolist()
        first = bounds[0]
        cross_origin, pitch, size = self.cross_origin, self.pitch, self.size
        return tuple(
            SlackColumn(
                gap_um=column.gap_um,
                below=column.below,
                above=column.above,
                layer=self.layer,
                tile=key,
                col=col,
                sites=ColumnSites(
                    tuple(rows[start - first : end - first]),
                    along, cross_origin, pitch, size, self.horizontal,
                ),
            )
            for column, col, along, start, end in zip(
                self.electrical_columns(lo, hi),
                self.col[lo:hi].tolist(),
                self.along[lo:hi].tolist(),
                bounds[:-1],
                bounds[1:],
                strict=True,
            )
        )


@dataclass(eq=False)
class TileColumns(Sequence[SlackColumn]):
    """One tile's slack columns: rows ``lo:hi`` of a :class:`ColumnTable`.

    ``len()`` and :meth:`site_rects` read the table's arrays; indexing or
    iterating builds the tile's :class:`SlackColumn` objects once, on first
    use. A view compares equal to any sequence of equal columns. The cost
    tables of a prepared tile hold its view;
    :meth:`~repro.pilfill.costs.TileCosts.electrical` swaps it for
    geometry-free columns before a payload ships.
    """

    table: ColumnTable = field(repr=False)
    key: TileKey
    lo: int
    hi: int
    _columns: tuple[SlackColumn, ...] | None = field(default=None, repr=False)

    def _built(self) -> tuple[SlackColumn, ...]:
        if self._columns is None:
            self._columns = self.table.slack_columns(self.key, self.lo, self.hi)
        return self._columns

    def __len__(self) -> int:
        return self.hi - self.lo

    @overload
    def __getitem__(self, index: int) -> SlackColumn: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[SlackColumn, ...]: ...

    def __getitem__(self, index: int | slice) -> SlackColumn | tuple[SlackColumn, ...]:
        return self._built()[index]

    def __iter__(self) -> Iterator[SlackColumn]:
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None  # type: ignore[assignment]

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


def electrical_fields(
    columns: Sequence[ElectricalColumn],
) -> list[tuple[float | None, list[object] | None, list[object] | None]]:
    """``(gap_um, below, above)`` per column, each neighbour as
    :func:`neighbor_payload` gives it; a :class:`TileColumns` answers from
    its table's arrays."""
    if isinstance(columns, TileColumns):
        return columns.table.electrical_fields(columns.lo, columns.hi)
    return [(c.gap_um, neighbor_payload(c.below), neighbor_payload(c.above)) for c in columns]


def electrical_columns(columns: Sequence[ElectricalColumn]) -> tuple[ElectricalColumn, ...]:
    """Geometry-free copies of ``columns``; a :class:`TileColumns` builds
    them from its table's arrays."""
    if isinstance(columns, TileColumns):
        return columns.table.electrical_columns(columns.lo, columns.hi)
    return tuple(ElectricalColumn(c.gap_um, c.below, c.above) for c in columns)
