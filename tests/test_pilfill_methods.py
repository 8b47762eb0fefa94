"""Per-tile MDFC solvers: DP oracle, marginal greedy, paper Greedy,
ILP-I, ILP-II — optimality relations and budget conservation."""

import itertools

import pytest

from repro.errors import FillError
from repro.pilfill import (
    allocate_dp,
    allocate_marginal_greedy,
    allocation_cost,
    solve_tile_greedy,
    solve_tile_greedy_marginal,
    solve_tile_ilp1,
    solve_tile_ilp2,
)
from tests.column_objects import ColumnNeighbor, ElectricalColumn
from tests.cost_tables import linear_objective, pack_costs


def brute_force(tables, budget):
    """Exhaustive optimum for tiny instances."""
    best = None
    ranges = [range(len(t)) for t in tables]
    for combo in itertools.product(*ranges):
        if sum(combo) != budget:
            continue
        cost = sum(t[n] for t, n in zip(tables, combo, strict=True))
        if best is None or cost < best:
            best = cost
    return best


def convex_table(marginals):
    table = [0.0]
    for m in marginals:
        table.append(table[-1] + m)
    return tuple(table)


class TestAllocators:
    def test_marginal_greedy_hand_case(self):
        tables = [convex_table([1, 2, 3]), convex_table([2, 2, 2])]
        costs = pack_costs(tables)
        counts = allocate_marginal_greedy(costs, 4)
        assert sum(counts) == 4
        # cheapest marginals: 1,2,2,2 -> [2,2] or [1,3]? marginals taken: 1,2,2,2
        assert allocation_cost(costs, counts) == pytest.approx(7.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_marginal_greedy_matches_brute_force_on_convex(self, seed):
        import random

        rng = random.Random(seed)
        tables = []
        for _ in range(4):
            k = rng.randint(0, 3)
            marginals = sorted(rng.uniform(0, 5) for _ in range(k))
            tables.append(convex_table(marginals))
        costs = pack_costs(tables)
        for budget in range(costs.capacity + 1):
            counts = allocate_marginal_greedy(costs, budget)
            assert sum(counts) == budget
            assert allocation_cost(costs, counts) == pytest.approx(
                brute_force(tables, budget)
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_dp_matches_brute_force_even_nonconvex(self, seed):
        import random

        rng = random.Random(100 + seed)
        tables = []
        for _ in range(3):
            k = rng.randint(1, 3)
            values = [0.0] + [rng.uniform(0, 10) for _ in range(k)]
            tables.append(tuple(values))  # arbitrary, not convex
        capacity = sum(len(t) - 1 for t in tables)
        budget = rng.randint(0, capacity)
        costs = pack_costs(tables)
        counts = allocate_dp(costs, budget)
        assert sum(counts) == budget
        assert allocation_cost(costs, counts) == pytest.approx(
            brute_force(tables, budget)
        )

    def test_budget_over_capacity_raises(self):
        with pytest.raises(FillError):
            allocate_marginal_greedy(pack_costs([convex_table([1.0])]), 2)
        with pytest.raises(FillError):
            allocate_dp(pack_costs([convex_table([1.0])]), 2)

    def test_negative_budget_raises(self):
        with pytest.raises(FillError):
            allocate_marginal_greedy(pack_costs([]), -1)

    def test_zero_budget(self):
        assert allocate_marginal_greedy(pack_costs([convex_table([1, 2])]), 0) == [0]
        assert allocate_dp(pack_costs([convex_table([1, 2])]), 0) == [0]

    def test_allocation_cost_validates(self):
        with pytest.raises(FillError):
            allocation_cost(pack_costs([convex_table([1.0])]), [5])
        with pytest.raises(FillError):
            allocation_cost(pack_costs([convex_table([1.0])]), [0, 0])


NEIGHBOR = ColumnNeighbor(net="n", line_index=0, sinks=1, resistance_ohm=1.0)
COLUMN = ElectricalColumn(gap_um=4.0, below=NEIGHBOR, above=NEIGHBOR)


def make_tables(specs):
    """Exact and linear tables from (exact_marginals, linear_per_feature)
    pairs."""
    exact = [convex_table(marginals) for marginals, _ in specs]
    linear = [tuple(lin * n for n in range(len(m) + 1)) for m, lin in specs]
    return exact, linear


def make_costs(specs):
    """Pack the tables of ``specs`` over impactful columns."""
    exact, linear = make_tables(specs)
    return pack_costs(exact, linear, [COLUMN] * len(specs))


class TestTileSolvers:
    SPECS = [
        ([1.0, 2.0, 4.0], 1.0),   # cheap first feature, costly later
        ([0.5, 3.0], 0.6),        # cheapest single feature
        ([2.0, 2.5, 3.0, 3.5], 2.0),
        ([10.0], 9.0),            # expensive singleton
    ]

    def test_ilp2_matches_dp_optimum(self):
        costs = make_costs(self.SPECS)
        for budget in (1, 3, 5, 8):
            sol = solve_tile_ilp2(costs, budget, backend="bundled")
            assert sum(sol.counts) == budget
            dp = allocate_dp(costs, budget)
            assert allocation_cost(costs, sol.counts) == pytest.approx(
                allocation_cost(costs, dp)
            )

    def test_ilp2_scipy_backend_agrees(self):
        costs = make_costs(self.SPECS)
        a = solve_tile_ilp2(costs, 4, backend="bundled")
        b = solve_tile_ilp2(costs, 4, backend="scipy")
        assert a.model_objective_ps == pytest.approx(b.model_objective_ps)

    def test_greedy_marginal_equals_ilp2(self):
        costs = make_costs(self.SPECS)
        for budget in (2, 5, 7):
            ilp = solve_tile_ilp2(costs, budget, backend="bundled")
            gm = solve_tile_greedy_marginal(costs, budget)
            assert gm.model_objective_ps == pytest.approx(ilp.model_objective_ps)

    def test_paper_greedy_fills_whole_columns(self):
        costs = make_costs(self.SPECS)
        sol = solve_tile_greedy(costs, 5)
        assert sum(sol.counts) == 5
        # Whole-column order by exact[cap]: col1 (3.5), col0 (7.0), ...
        # budget 5 -> col1 fully (2), col0 gets 3.
        assert sol.counts[1] == 2
        assert sol.counts[0] == 3

    def test_paper_greedy_never_better_than_ilp2(self):
        costs = make_costs(self.SPECS)
        for budget in range(1, 9):
            greedy = solve_tile_greedy(costs, budget)
            ilp = solve_tile_ilp2(costs, budget, backend="bundled")
            g_cost = allocation_cost(costs, greedy.counts)
            assert g_cost >= ilp.model_objective_ps - 1e-9

    def test_ilp1_optimal_under_linear_model(self):
        costs = make_costs(self.SPECS)
        for budget in (2, 4, 6):
            sol = solve_tile_ilp1(costs, budget, weighted=False, backend="bundled")
            assert sum(sol.counts) == budget
            lin = linear_objective(costs)
            dp = allocate_dp(lin, budget)
            assert allocation_cost(lin, sol.counts) == pytest.approx(
                allocation_cost(lin, dp)
            )

    def test_ilp1_can_be_suboptimal_under_exact_model(self):
        # Linear costs that rank columns opposite to their exact costs.
        specs = [
            ([1.0, 8.0, 27.0], 0.5),   # looks cheapest linearly, explodes
            ([2.0, 2.1, 2.2], 2.0),
        ]
        costs = make_costs(specs)
        ilp1 = solve_tile_ilp1(costs, 3, weighted=False, backend="bundled")
        ilp2 = solve_tile_ilp2(costs, 3, backend="bundled")
        assert allocation_cost(costs, ilp1.counts) > allocation_cost(costs, ilp2.counts)

    def test_zero_budget_all_methods(self):
        costs = make_costs(self.SPECS)
        for solver in (
            lambda: solve_tile_ilp1(costs, 0, weighted=True),
            lambda: solve_tile_ilp2(costs, 0),
            lambda: solve_tile_greedy(costs, 0),
            lambda: solve_tile_greedy_marginal(costs, 0),
        ):
            sol = solver()
            assert sol.counts == [0, 0, 0, 0]
            assert sol.model_objective_ps == 0.0

    def test_budget_over_capacity_raises(self):
        costs = make_costs(self.SPECS)
        capacity = costs.capacity
        with pytest.raises(FillError):
            solve_tile_ilp2(costs, capacity + 1)
        with pytest.raises(FillError):
            solve_tile_greedy(costs, capacity + 1)
        with pytest.raises(FillError):
            solve_tile_ilp1(costs, capacity + 1, weighted=True)

    def test_free_columns_preferred(self):
        """Columns without both neighbors cost nothing and absorb budget."""
        free_col = ElectricalColumn(gap_um=None, below=NEIGHBOR, above=None)
        zero = tuple(0.0 for _ in range(4))
        exact, linear = make_tables([([5.0, 6.0], 5.0)])
        costs = pack_costs([zero, *exact], [zero, *linear], [free_col, COLUMN])
        for solver in (
            lambda c, b: solve_tile_ilp2(c, b, backend="bundled"),
            solve_tile_greedy,
            solve_tile_greedy_marginal,
        ):
            sol = solver(costs, 3)
            assert sol.counts[0] == 3
            assert sol.model_objective_ps == pytest.approx(0.0)
