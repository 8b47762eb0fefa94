"""The per-column object view of slack columns, for test oracles.

The program holds a layer's slack columns only as a
:class:`~repro.pilfill.columns.ColumnTable` of flat arrays. The oracles
under ``tests/`` state their reference computations over one object per
column instead — :class:`SlackColumn` with its :class:`ColumnSites` and
up to two :class:`ColumnNeighbor` objects, or the geometry-free
:class:`ElectricalColumn` — the form the gridder built before the table
replaced it. :func:`slack_columns` converts a tile's
:class:`~repro.pilfill.columns.TileColumns` view to objects and
:func:`column_table` packs objects back into a table, so a test can run
the program on the arrays and its oracle on the objects of the same
columns. :func:`delta_cap_ff_of_objects` is the ΔC division as it read
the objects.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np

from repro.geometry import Rect
from repro.layout.rctree import OHM_FF_TO_PS
from repro.pilfill.columns import ColumnTable, TileColumns
from repro.pilfill.costs import TileCosts

TileKey = tuple[int, int]


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
    solvers read: gap, neighbors, r̂.
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
            converted from a table holds them as :class:`ColumnSites`
            rows.
    """

    layer: str
    tile: tuple[int, int]
    col: int
    sites: Sequence[Rect]

    @property
    def capacity(self) -> int:
        """Number of fill features the column can take in this tile."""
        return len(self.sites)


def slack_columns(view: TileColumns) -> tuple[SlackColumn, ...]:
    """A tile's columns as objects, field by field from the table."""
    table, lo, hi = view.table, view.lo, view.hi
    bounds = table.row_bounds[lo : hi + 1].tolist()
    rows = table.rows.tolist()
    lines = table.lines

    def neighbor(at: int, res: float) -> ColumnNeighbor | None:
        return None if at < 0 else ColumnNeighbor(*lines[at], res)

    return tuple(
        SlackColumn(
            gap_um=None if math.isnan(gap) else gap,
            below=neighbor(b, b_res),
            above=neighbor(a, a_res),
            layer=table.layer,
            tile=view.key,
            col=col,
            sites=ColumnSites(
                tuple(rows[start:end]),
                along, table.cross_origin, table.pitch, table.size, table.horizontal,
            ),
        )
        for gap, b, b_res, a, a_res, col, along, start, end in zip(
            table.gap_um[lo:hi].tolist(),
            table.below[lo:hi].tolist(),
            table.below_res[lo:hi].tolist(),
            table.above[lo:hi].tolist(),
            table.above_res[lo:hi].tolist(),
            table.col[lo:hi].tolist(),
            table.along[lo:hi].tolist(),
            bounds[:-1],
            bounds[1:],
            strict=True,
        )
    )


def table_columns(table: ColumnTable) -> dict[TileKey, list[SlackColumn]]:
    """Every tile's columns as objects, tile by tile in table order."""
    return {key: list(slack_columns(view)) for key, view in table.items()}


def column_table(tiles: Mapping[TileKey, Sequence[SlackColumn]]) -> ColumnTable:
    """The columns of ``tiles``, in order, as one layer's column table.

    Every column's ``sites`` must be :class:`ColumnSites` on one shared
    grid (origin, pitch, size and direction) — the form the gridder makes.
    Lines are numbered in the order the columns first name them.
    """
    columns = [column for cols in tiles.values() for column in cols]
    sites = [column.sites for column in columns]
    assert all(isinstance(s, ColumnSites) for s in sites)
    grid = {(s.cross_origin, s.pitch, s.size, s.horizontal) for s in sites}
    assert len(grid) <= 1
    cross_origin, pitch, size, horizontal = grid.pop() if grid else (0, 1, 1, True)
    lines: dict[tuple[str, int, int], int] = {}

    def neighbor(n: ColumnNeighbor | None) -> tuple[int, float]:
        if n is None:
            return -1, 0.0
        return lines.setdefault((n.net, n.line_index, n.sinks), len(lines)), n.resistance_ohm

    below = [neighbor(column.below) for column in columns]
    above = [neighbor(column.above) for column in columns]
    counts = [len(s.rows) for s in sites]
    return ColumnTable(
        layer=columns[0].layer if columns else "",
        horizontal=horizontal,
        cross_origin=cross_origin,
        pitch=pitch,
        size=size,
        tile_keys=list(tiles),
        bounds=np.cumsum([0, *(len(cols) for cols in tiles.values())]),
        col=np.array([column.col for column in columns], dtype=np.int64),
        along=np.array([s.along for s in sites], dtype=np.int64),
        rows=np.array([row for s in sites for row in s.rows], dtype=np.int64),
        row_bounds=np.cumsum([0, *counts]),
        gap_um=np.array(
            [math.nan if c.gap_um is None else c.gap_um for c in columns], dtype=np.float64
        ),
        below=np.array([at for at, _ in below], dtype=np.int64),
        above=np.array([at for at, _ in above], dtype=np.int64),
        below_res=np.array([res for _, res in below], dtype=np.float64),
        above_res=np.array([res for _, res in above], dtype=np.float64),
        lines=list(lines),
    )


def delta_cap_ff_of_objects(costs: TileCosts, weighted: bool) -> np.ndarray:
    """:func:`~repro.pilfill.budgeted.delta_cap_ff` over the tile's column
    objects."""
    divisors = [
        c.resistance_weight(weighted) * OHM_FF_TO_PS if c.has_impact else 0.0
        for c in slack_columns(costs.columns)
    ]
    divisor = np.repeat(np.array(divisors, dtype=np.float64), costs.capacities + 1)
    out = np.zeros_like(costs.exact)
    np.divide(costs.exact, divisor, out=out, where=divisor > 0)
    return out
