"""Hand-built cost tables for tests and benchmarks.

A test writes one table per column (entry ``n`` is the cost of ``n``
features, entry 0 first). :func:`pack_costs` lays the tables out back to
back as :class:`~repro.pilfill.costs.TileCosts`, the way
:func:`~repro.pilfill.costs.build_cost_views` fills a tile's slices;
:func:`column_tables` splits a flat array back into per-column tuples;
:func:`linear_objective` makes the ``linear`` tables the scored ones.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.pilfill.columns import ElectricalColumn
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
