"""Scalar cost-table builder: the test oracle for ``build_cost_views``.

One pure-Python loop per column entry, with no batching and no sharing of
tables between columns of equal geometry. The batched pass in
:mod:`repro.pilfill.costs` must reproduce its tables exactly, byte for
byte, with the same LUT hit/miss accounting when it is run tile by tile
on one shared cache; ``tests/test_vector_kernels.py`` asserts that, and
``benchmarks/test_bench_kernels.py`` times the two against each other.
"""

from __future__ import annotations

from repro.cap.fillimpact import linear_column_cap
from repro.cap.lut import LUTCache
from repro.layout.rctree import OHM_FF_TO_PS
from repro.pilfill.columns import ElectricalColumn, SlackColumn
from repro.pilfill.costs import TileCosts
from repro.tech.process import ProcessLayer
from repro.tech.rules import FillRules
from tests.cost_tables import pack_costs


def build_costs_scalar(
    columns: list[SlackColumn],
    layer: ProcessLayer,
    rules: FillRules,
    dbu_per_micron: int,
    lut_cache: LUTCache,
    weighted: bool,
) -> TileCosts:
    """Cost tables for every column of a tile, one entry at a time, packed
    over geometry-free copies of the columns."""
    fill_w_um = rules.fill_size / dbu_per_micron
    views: list[ElectricalColumn] = []
    exact_tables: list[tuple[float, ...]] = []
    linear_tables: list[tuple[float, ...]] = []
    for col in columns:
        cap = col.capacity
        view = ElectricalColumn(col.gap_um, col.below, col.above)
        views.append(view)
        if not view.has_impact:
            zero = tuple(0.0 for _ in range(cap + 1))
            exact_tables.append(zero)
            linear_tables.append(zero)
            continue
        r_hat = view.resistance_weight(weighted)
        lut = lut_cache.get(col.gap_um, cap)
        exact = tuple(r_hat * lut.cap(n) * OHM_FF_TO_PS for n in range(cap + 1))
        linear = tuple(
            r_hat
            * linear_column_cap(layer.eps_r, layer.thickness_um, col.gap_um, n, fill_w_um)
            * OHM_FF_TO_PS
            for n in range(cap + 1)
        )
        exact_tables.append(exact)
        linear_tables.append(linear)
    return pack_costs(exact_tables, linear_tables, views)
