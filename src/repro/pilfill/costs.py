"""Cost tables shared by the MDFC solution methods.

For every slack column ``k`` we tabulate the delay impact (ps) of placing
``n = 0 .. C_k`` features:

* exact costs — the LUT capacitance model (ILP-II, Greedy, DP, evaluator),
* linear costs — ILP-I's Eq. 6 approximation (per-feature constant).

Both are weighted by the column's r̂ multiplier (Σ neighbor weight ×
upstream resistance), so a cost table entry *is* the objective
contribution of that column.

:func:`build_cost_views` evaluates Eq. 5/6 for every column of a set of
tiles in one array pass: the columns' capacities, gaps and r̂ inputs are
sliced from the layer's :class:`~repro.pilfill.columns.ColumnTable`, one
:meth:`LUTCache.get_batch` call resolves every
impactful column's table (in tile-then-column order, so the first spec of
each quantized key builds its table), the distinct tables are
concatenated, and ``np.repeat`` index arithmetic writes every entry of
every column into two flat float64 arrays. Each tile gets a
:class:`TileCosts` over its slices, which every solver, the solution
cache and the pool payloads read as they are. The result is bit-identical to
the scalar oracle in ``tests/costs_oracle.py``, which the property tests
pin the batched pass against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from repro.cap.fillimpact import linear_column_cap_array, table_counts
from repro.cap.lut import LUTCache
from repro.layout.rctree import OHM_FF_TO_PS
from repro.pilfill.columns import ColumnTable, TileColumns
from repro.tech.process import ProcessLayer
from repro.tech.rules import FillRules

TileKey = tuple[int, int]


@dataclass(eq=False, slots=True)
class TileCosts:
    """One tile's cost tables — the only per-tile solve input.

    ``columns`` is the tile's :class:`~repro.pilfill.columns.TileColumns`
    view of the layer's column table, which pickles as a one-tile table
    of its own (what a pool payload carries). ``capacities`` holds each
    column's site count (int64); ``exact`` and ``linear`` hold every
    column's ``capacity + 1``
    delay impacts (ps, entry 0 equal to 0) back to back in column order,
    so column ``k``'s table is ``exact[offsets()[k] : offsets()[k + 1]]``.
    In the parent the three arrays are slices of the arrays
    :func:`build_cost_views` fills; pickling copies just the slice.
    ``len()`` is the column count. Every cost pass builds one per tile, so
    the class is slotted rather than frozen (a third of the construction
    time); nothing writes a field after construction.
    """

    columns: TileColumns
    capacities: np.ndarray
    exact: np.ndarray
    linear: np.ndarray

    def __len__(self) -> int:
        return len(self.capacities)

    @property
    def capacity(self) -> int:
        """Total sites over the tile's columns."""
        return len(self.exact) - len(self.capacities)

    def offsets(self) -> list[int]:
        """Where each column's entry 0 sits in ``exact`` / ``linear``,
        then the end: ``len(self) + 1`` offsets."""
        return list(accumulate(self.capacities.tolist(), lambda at, cap: at + cap + 1, initial=0))

    def marginals(self) -> np.ndarray:
        """Every column's ``exact[n] - exact[n - 1]`` for ``n = 1 ..
        capacity``, in (column, n) order."""
        diffs = np.diff(self.exact)
        # Drop the differences that straddle two columns.
        keep = np.ones(diffs.size, dtype=bool)
        keep[np.cumsum(self.capacities + 1)[:-1] - 1] = False
        return diffs[keep]


def build_cost_views(
    table: ColumnTable,
    layer: ProcessLayer,
    rules: FillRules,
    dbu_per_micron: int,
    lut_cache: LUTCache,
    weighted: bool,
    keys: Sequence[TileKey] | None = None,
) -> dict[TileKey, TileCosts]:
    """Cost tables for every column of ``table``'s tiles (of ``keys``'
    tiles when given), in one array pass.

    A column is impactful when both neighbours and its gap are present
    (:meth:`ColumnTable.impact`); every other column's entries stay 0.0.
    For an impactful column, r̂ is ``0.0 + w_b·R_b + w_a·R_a`` in that
    order (:meth:`ColumnTable.r_hat`), ``exact``
    is ``r̂ · table · OHM_FF_TO_PS`` over its LUT table and ``linear`` is
    ``r̂ · Eq. 6 · OHM_FF_TO_PS`` at the column's own (unquantized) gap —
    the same IEEE operations, entry by entry, as
    ``tests/costs_oracle.py::build_costs_scalar``. Returns one
    :class:`TileCosts` per tile, in ``table`` (or ``keys``) order.
    """
    tiles = [table[key] for key in (table if keys is None else keys) if key in table]
    if keys is None:
        at = np.arange(len(table.col))
    else:
        at = np.concatenate(
            [np.arange(t.lo, t.hi) for t in tiles] or [np.zeros(0, dtype=np.int64)]
        )
    capacities = table.capacities[at]
    gap = table.gap_um[at]
    impact = np.flatnonzero(table.impact(at))
    specs = list(zip(gap[impact].tolist(), capacities[impact].tolist(), strict=True))

    ends = np.cumsum(capacities + 1)
    exact = np.zeros(int(ends[-1]) if len(at) else 0)
    linear = np.zeros_like(exact)
    if specs:
        luts = lut_cache.get_batch(specs)
        # The distinct tables back to back; ``table_at[i]`` is where
        # impactful column i's table starts. A cached table is the only
        # one with its (spacing, length).
        first: dict[tuple[float, int], int] = {}
        tables: list[tuple[float, ...]] = []
        table_at: list[int] = []
        size = 0
        for lut in luts:
            lut_key = (lut.spacing_um, len(lut.table))
            slot = first.get(lut_key)
            if slot is None:
                slot = first[lut_key] = size
                tables.append(lut.table)
                size += len(lut.table)
            table_at.append(slot)
        values = np.fromiter(chain.from_iterable(tables), dtype=np.float64, count=size)
        # Entry n of impactful column i: ``within`` is n, ``dest`` its slot
        # in the flat arrays, ``src`` its slot in the concatenated tables.
        within = table_counts(capacities[impact])
        lengths = capacities[impact] + 1
        dest = np.repeat(ends[impact] - lengths, lengths) + within
        src = np.repeat(np.array(table_at), lengths) + within

        r_rep = np.repeat(table.r_hat(at[impact], weighted), lengths)
        exact[dest] = r_rep * values[src] * OHM_FF_TO_PS
        gaps = np.repeat(gap[impact], lengths)
        fill_w_um = rules.fill_size / dbu_per_micron
        eq6 = linear_column_cap_array(layer.eps_r, layer.thickness_um, gaps, within, fill_w_um)
        linear[dest] = r_rep * eq6 * OHM_FF_TO_PS

    views: dict[TileKey, TileCosts] = {}
    bounds = [0, *ends.tolist()]
    c = 0
    for cols in tiles:
        n = len(cols)
        lo, hi = bounds[c], bounds[c + n]
        views[cols.key] = TileCosts(cols, capacities[c : c + n], exact[lo:hi], linear[lo:hi])
        c += n
    return views
