"""Per-tile cost tables shared by the MDFC solution methods.

For every slack column ``k`` in a tile we tabulate the delay impact (ps)
of placing ``n = 0 .. C_k`` features:

* exact costs — the LUT capacitance model (ILP-II, Greedy, DP, evaluator),
* linear costs — ILP-I's Eq. 6 approximation (per-feature constant).

Both are weighted by the column's r̂ multiplier (Σ neighbor weight ×
upstream resistance), so a cost table entry *is* the objective
contribution of that column.

:func:`build_costs` is the vectorized builder: columns are grouped by
their (quantized gap, capacity) LUT key, each group's capacitance tables
are evaluated once over the whole ``n = 0 .. C`` vector, and the per-column
r̂ scaling is a single numpy multiply. It is bit-identical to the scalar
oracle in ``tests/costs_oracle.py``, which the property tests pin the
vectorized path against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cap.fillimpact import linear_column_cap_array
from repro.cap.lut import LUTCache
from repro.layout.rctree import OHM_FF_TO_PS
from repro.pilfill.columns import ElectricalColumn, SlackColumn
from repro.tech.process import ProcessLayer
from repro.tech.rules import FillRules


@dataclass(frozen=True)
class ColumnCosts:
    """Cost tables of one column — the only per-column solve input.

    ``exact[n]`` and ``linear[n]`` are delay impacts in ps for ``n``
    features; both have length ``capacity + 1`` with entry 0 equal to 0.
    ``column`` is the geometry-free :class:`ElectricalColumn`, so the
    same object serves in-process solves and pool payloads; site rects stay on the prepared instance's
    :class:`SlackColumn` list at the same index.
    """

    column: ElectricalColumn
    exact: tuple[float, ...]
    linear: tuple[float, ...]

    @property
    def capacity(self) -> int:
        return len(self.exact) - 1


#: What every per-tile solver takes: one cost table per slack column.
TileCosts = Sequence[ColumnCosts]


def build_costs(
    columns: list[SlackColumn],
    layer: ProcessLayer,
    rules: FillRules,
    dbu_per_micron: int,
    lut_cache: LUTCache,
    weighted: bool,
) -> list[ColumnCosts]:
    """Cost tables for every column of a tile (vectorized).

    Impactful columns are batched through :meth:`LUTCache.get_batch` (one
    vectorized capacitance evaluation per distinct geometry) and the linear
    tables are grouped by exact ``(gap, capacity)`` so each distinct
    geometry is evaluated once; the r̂ weighting is applied as one array
    multiply per column. Results are bit-identical to the scalar oracle
    ``build_costs_scalar`` in ``tests/costs_oracle.py``.
    """
    fill_w_um = rules.fill_size / dbu_per_micron
    out: list[ColumnCosts | None] = [None] * len(columns)

    views = [col.electrical for col in columns]
    impact: list[int] = []
    for i, (col, view) in enumerate(zip(columns, views, strict=True)):
        if view.has_impact:
            impact.append(i)
        else:
            zero = (0.0,) * (col.capacity + 1)
            out[i] = ColumnCosts(view, zero, zero)
    if not impact:
        return out  # type: ignore[return-value]

    luts = lut_cache.get_batch(
        [(columns[i].gap_um, columns[i].capacity) for i in impact]
    )
    # Linear tables depend only on (gap, capacity); share one vectorized
    # evaluation per distinct geometry (no quantization — the scalar
    # reference uses each column's own gap value).
    linear_groups: dict[tuple[float, int], np.ndarray] = {}
    for i in impact:
        col = columns[i]
        key = (col.gap_um, col.capacity)
        if key not in linear_groups:
            linear_groups[key] = linear_column_cap_array(
                layer.eps_r, layer.thickness_um, col.gap_um, col.capacity, fill_w_um
            )

    for i, lut in zip(impact, luts, strict=True):
        col, view = columns[i], views[i]
        r_hat = view.resistance_weight(weighted)
        exact = r_hat * lut.table_array * OHM_FF_TO_PS
        linear = r_hat * linear_groups[(col.gap_um, col.capacity)] * OHM_FF_TO_PS
        out[i] = ColumnCosts(view, tuple(exact.tolist()), tuple(linear.tolist()))
    return out  # type: ignore[return-value]

