"""Differential tests: both ILP backends against the DP optimum.

Random per-tile cost tables — convex and non-convex, with zero-capacity
and no-impact columns — and every budget from 0 to the tile's capacity.
ILP-II on the bundled simplex/branch-and-bound and on HiGHS must each
reach the optimum :func:`allocate_dp` finds on the ``exact`` tables, and
ILP-I must do the same on the ``linear`` tables.

HiGHS stops once its default relative (1e-4) or absolute (1e-6) MIP gap
is met, so objectives are compared to those tolerances.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pilfill import allocate_dp, allocation_cost, solve_tile_ilp1, solve_tile_ilp2
from repro.pilfill.costs import TileCosts
from tests.column_objects import ColumnNeighbor, ElectricalColumn
from tests.cost_tables import linear_objective, pack_costs

BACKENDS = ("bundled", "scipy")

#: HiGHS's default ``mip_rel_gap`` and ``mip_abs_gap``.
REL, ABS = 1e-4, 1e-6

costs_ = st.floats(0.0, 10.0, allow_nan=False)


@st.composite
def exact_table(draw, capacity: int) -> tuple[float, ...]:
    """A cost table with entry 0 equal to 0: convex (sorted marginals
    summed) or arbitrary non-negative values."""
    values = draw(st.lists(costs_, min_size=capacity, max_size=capacity))
    if draw(st.booleans()):
        table = [0.0]
        for marginal in sorted(values):
            table.append(table[-1] + marginal)
        return tuple(table)
    return (0.0, *values)


@st.composite
def tiles(draw) -> tuple[TileCosts, int]:
    """One tile's column costs plus a budget in ``[0, capacity]``.

    Neighboring columns share a line (column ``k`` lies between lines
    ``k`` and ``k + 1``), so ILP-I sums several columns into one line's
    delay. A column without impact has a zero linear table, as
    :func:`~repro.pilfill.costs.build_cost_views` gives it.
    """
    n_cols = draw(st.integers(1, 4))
    # One sink count per line: line k + 1 is column k's above and column
    # k + 1's below neighbour.
    sinks = draw(st.lists(st.integers(1, 4), min_size=n_cols + 1, max_size=n_cols + 1))
    columns, exact, linear = [], [], []
    for k in range(n_cols):
        capacity = draw(st.integers(0, 4))
        impact = draw(st.booleans())
        lines = [
            ColumnNeighbor(
                net=f"n{k + side}", line_index=0,
                sinks=sinks[k + side],
                resistance_ohm=draw(st.floats(1.0, 100.0)),
            )
            for side in (0, 1)
        ]
        column = ElectricalColumn(
            gap_um=4.0 if impact else None,
            below=lines[0],
            above=lines[1] if impact else None,
        )
        per_feature = draw(costs_) if impact else 0.0
        columns.append(column)
        exact.append(draw(exact_table(capacity)))
        linear.append(tuple(per_feature * n for n in range(capacity + 1)))
    costs = pack_costs(exact, linear, columns)
    budget = draw(st.integers(0, costs.capacity))
    return costs, budget


def assert_reaches_optimum(sol, costs: TileCosts, budget: int) -> None:
    """``sol`` places ``budget`` features at the DP optimum of
    ``costs.exact``."""
    assert sum(sol.counts) == budget
    optimum = allocation_cost(costs, allocate_dp(costs, budget))
    assert allocation_cost(costs, sol.counts) == pytest.approx(optimum, rel=REL, abs=ABS)
    assert sol.model_objective_ps == pytest.approx(optimum, rel=REL, abs=ABS)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(tiles())
def test_ilp2_reaches_dp_optimum(backend, tile):
    costs, budget = tile
    sol = solve_tile_ilp2(costs, budget, backend=backend)
    assert_reaches_optimum(sol, costs, budget)


def _zero_capacity_with_impact() -> tuple[TileCosts, int]:
    """A column with both neighbor lines but no sites, beside an open one."""
    lines = [ColumnNeighbor(net=f"n{i}", line_index=0, sinks=1, resistance_ohm=1.0)
             for i in range(3)]
    columns = [ElectricalColumn(4.0, lines[0], lines[1]), ElectricalColumn(4.0, lines[1], lines[2])]
    return pack_costs([(0.0,), (0.0, 2.0)], [(0.0,), (0.0, 1.5)], columns), 1


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(tiles())
@example(_zero_capacity_with_impact())
def test_ilp1_reaches_dp_optimum_on_linear_tables(backend, weighted, tile):
    costs, budget = tile
    sol = solve_tile_ilp1(costs, budget, weighted, backend=backend)
    assert_reaches_optimum(sol, linear_objective(costs), budget)

