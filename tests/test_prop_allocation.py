"""Property tests of the per-tile allocation solvers: marginal greedy, DP,
bundled branch-and-bound — all must agree with brute force."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pilfill.dp import allocate_dp, allocate_marginal_greedy, allocation_cost
from tests.cost_tables import pack_costs
from tests.ilp_model_oracle import Model, VarKind, solve_branch_and_bound


@st.composite
def convex_tables(draw):
    """A list of convex, increasing cost tables (entry 0 == 0)."""
    n_cols = draw(st.integers(1, 4))
    tables = []
    for _ in range(n_cols):
        k = draw(st.integers(0, 3))
        marginals = sorted(
            draw(st.lists(st.floats(0, 10, allow_nan=False), min_size=k, max_size=k))
        )
        table = [0.0]
        for m in marginals:
            table.append(table[-1] + m)
        tables.append(tuple(table))
    return tables


@st.composite
def arbitrary_tables(draw):
    """Non-convex tables (still 0 at entry 0) for the DP."""
    n_cols = draw(st.integers(1, 3))
    tables = []
    for _ in range(n_cols):
        k = draw(st.integers(0, 3))
        values = draw(st.lists(st.floats(0, 10, allow_nan=False), min_size=k, max_size=k))
        tables.append(tuple([0.0] + values))
    return tables


def brute_force(tables, budget):
    best = None
    for combo in itertools.product(*(range(len(t)) for t in tables)):
        if sum(combo) != budget:
            continue
        cost = sum(t[n] for t, n in zip(tables, combo, strict=True))
        if best is None or cost < best:
            best = cost
    return best


@given(convex_tables(), st.integers(0, 12))
def test_marginal_greedy_optimal_on_convex(tables, budget):
    capacity = sum(len(t) - 1 for t in tables)
    budget = min(budget, capacity)
    costs = pack_costs(tables)
    counts = allocate_marginal_greedy(costs, budget)
    assert sum(counts) == budget
    assert all(0 <= c < len(t) for c, t in zip(counts, tables, strict=True))
    expected = brute_force(tables, budget)
    assert abs(allocation_cost(costs, counts) - expected) < 1e-9


@given(arbitrary_tables(), st.integers(0, 9))
def test_dp_optimal_on_arbitrary(tables, budget):
    capacity = sum(len(t) - 1 for t in tables)
    budget = min(budget, capacity)
    costs = pack_costs(tables)
    counts = allocate_dp(costs, budget)
    assert sum(counts) == budget
    expected = brute_force(tables, budget)
    assert abs(allocation_cost(costs, counts) - expected) < 1e-9


@settings(max_examples=25, deadline=None)
@given(convex_tables(), st.integers(0, 8))
def test_branch_and_bound_matches_dp(tables, budget):
    """The bundled MILP solver on the ILP-II-shaped model must match the
    exact DP optimum."""
    capacity = sum(len(t) - 1 for t in tables)
    budget = min(budget, capacity)

    model = Model("prop")
    m_vars = []
    objective_terms = []
    for k, table in enumerate(tables):
        cap = len(table) - 1
        m_k = model.add_var(f"m_{k}", lb=0, ub=cap, kind=VarKind.INTEGER)
        m_vars.append(m_k)
        if cap == 0:
            continue
        selectors = [model.add_var(f"s_{k}_{n}", kind=VarKind.BINARY)
                     for n in range(cap + 1)]
        model.add_constraint(sum((s * 1.0 for s in selectors), start=0.0) == 1.0)
        model.add_constraint(
            m_k == sum((selectors[n] * float(n) for n in range(cap + 1)), start=0.0)
        )
        for n in range(1, cap + 1):
            objective_terms.append(selectors[n] * table[n])
    model.add_constraint(sum((m * 1.0 for m in m_vars), start=0.0) == float(budget))
    model.minimize(sum(objective_terms, start=0.0))

    result = solve_branch_and_bound(model)
    assert result.status.is_optimal
    expected = brute_force(tables, budget)
    assert abs(result.objective - expected) < 1e-6
