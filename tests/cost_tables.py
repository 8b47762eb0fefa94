"""Hand-built cost tables for tests and benchmarks.

A test writes one table per column (entry ``n`` is the cost of ``n``
features, entry 0 first). :func:`pack_costs` lays the tables out back to
back as :class:`~repro.pilfill.costs.TileCosts`, the way
:func:`~repro.pilfill.costs.build_cost_views` fills a tile's slices;
:func:`column_tables` splits a flat array back into per-column tuples;
:func:`linear_objective` makes the ``linear`` tables the scored ones;
:func:`column_table` packs hand-built slack columns into the
:class:`~repro.pilfill.columns.ColumnTable` the cost pass reads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.pilfill.columns import (
    ColumnNeighbor,
    ColumnSites,
    ColumnTable,
    ElectricalColumn,
    SlackColumn,
)
from repro.pilfill.costs import TileCosts

#: A column without neighbours or gap: no modeled delay impact.
NO_IMPACT = ElectricalColumn(None, None, None)


def _flat(tables: Sequence[Sequence[float]]) -> np.ndarray:
    return np.array([v for table in tables for v in table], dtype=np.float64)


def pack_costs(
    exact: Sequence[Sequence[float]],
    linear: Sequence[Sequence[float]] | None = None,
    columns: Sequence[ElectricalColumn] | None = None,
) -> TileCosts:
    """One tile's :class:`TileCosts` from per-column tables.

    ``linear`` defaults to ``exact`` and ``columns`` to :data:`NO_IMPACT`
    for every column; every column's tables must have equal lengths.
    """
    linear = exact if linear is None else linear
    columns = [NO_IMPACT] * len(exact) if columns is None else columns
    assert len(columns) == len(exact) == len(linear)
    assert all(len(e) == len(lin) for e, lin in zip(exact, linear, strict=True))
    capacities = np.array([len(table) - 1 for table in exact], dtype=np.int64)
    return TileCosts(tuple(columns), capacities, _flat(exact), _flat(linear))


def column_tables(costs: TileCosts, values: np.ndarray | None = None) -> list[tuple[float, ...]]:
    """``values`` (``costs.exact`` by default) split into one tuple per
    column."""
    flat = (costs.exact if values is None else values).tolist()
    at = costs.offsets()
    return [tuple(flat[start:end]) for start, end in zip(at[:-1], at[1:], strict=True)]


def linear_objective(costs: TileCosts) -> TileCosts:
    """``costs`` with its ``linear`` tables as the ``exact`` ones, which
    the DP and ``allocation_cost`` score."""
    return pack_costs(column_tables(costs, costs.linear), columns=costs.columns)


def column_table(tiles: Mapping[tuple[int, int], Sequence[SlackColumn]]) -> ColumnTable:
    """The columns of ``tiles``, in order, as one layer's column table.

    Every column's ``sites`` must be :class:`ColumnSites` on one shared
    grid (origin, pitch, size and direction) — the form the gridder makes.
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
