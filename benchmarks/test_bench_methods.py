"""Per-tile MDFC solver microbenchmarks: the method runtime ordering the
paper reports (Greedy fastest, ILP-II slowest but best) at tile scale."""

from __future__ import annotations

import random

import pytest

from repro.pilfill import (
    solve_tile_greedy,
    solve_tile_greedy_marginal,
    solve_tile_ilp1,
    solve_tile_ilp2,
)
from repro.pilfill.dp import allocate_dp, allocation_cost
from repro.pilfill.solution import TileSolution
from tests.column_objects import ColumnNeighbor, ElectricalColumn
from tests.cost_tables import pack_costs


def synthetic_tile(n_columns: int, max_capacity: int, seed: int = 0):
    """A representative per-tile instance with convex exact tables."""
    rng = random.Random(seed)
    columns, exact_tables, linear_tables = [], [], []
    for _ in range(n_columns):
        cap = rng.randint(1, max_capacity)
        base = rng.uniform(0.1, 2.0)
        growth = rng.uniform(1.1, 1.8)
        exact = [0.0]
        marginal = base
        for _ in range(cap):
            exact.append(exact[-1] + marginal)
            marginal *= growth
        linear = tuple(base * n for n in range(cap + 1))
        # One line "n" borders both sides of every column, so it has one
        # sink count; the per-column draw only keeps the random stream,
        # and with it the tables, of the original instance.
        rng.randint(1, 4)
        neighbor = ColumnNeighbor("n", 0, 1, rng.uniform(50, 500))
        columns.append(ElectricalColumn(4.0, neighbor, neighbor))
        exact_tables.append(tuple(exact))
        linear_tables.append(linear)
    costs = pack_costs(exact_tables, linear_tables, columns)
    return costs, costs.capacity // 2


SOLVERS = {
    "greedy": lambda costs, budget: solve_tile_greedy(costs, budget),
    "greedy_marginal": lambda costs, budget: solve_tile_greedy_marginal(costs, budget),
    "dp": lambda costs, budget: TileSolution(
        counts=allocate_dp(costs, budget)
    ),
    "ilp1_bundled": lambda costs, budget: solve_tile_ilp1(
        costs, budget, weighted=True, backend="bundled"
    ),
    "ilp2_bundled": lambda costs, budget: solve_tile_ilp2(costs, budget, backend="bundled"),
    "ilp2_scipy": lambda costs, budget: solve_tile_ilp2(costs, budget, backend="scipy"),
}


@pytest.mark.parametrize("solver_name", list(SOLVERS), ids=list(SOLVERS))
def test_tile_solver_speed(benchmark, solver_name):
    costs, budget = synthetic_tile(n_columns=12, max_capacity=6, seed=3)
    solver = SOLVERS[solver_name]
    solution = benchmark(solver, costs, budget)
    assert sum(solution.counts) == budget
    benchmark.extra_info["objective"] = round(
        allocation_cost(costs, solution.counts), 6
    )


@pytest.mark.parametrize("n_columns", [4, 12, 24], ids=lambda n: f"cols{n}")
def test_ilp2_scaling_with_columns(benchmark, n_columns):
    costs, budget = synthetic_tile(n_columns=n_columns, max_capacity=5, seed=1)
    solution = benchmark.pedantic(
        solve_tile_ilp2, args=(costs, budget), kwargs=dict(backend="scipy"),
        rounds=2, iterations=1,
    )
    assert sum(solution.counts) == budget
