"""Branch-and-bound MILP solver, cross-checked against scipy/HiGHS."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.ilp import SolveStatus
from tests.ilp_model_oracle import (
    Model,
    VarKind,
    solve,
    solve_branch_and_bound,
    solve_scipy,
)


class TestSmallMILPs:
    def test_knapsack_style(self):
        # max 5a+4b st 6a+4b<=24, a+2b<=6, integer -> known optimum 21 at (3,1)...
        # check against scipy rather than hand value
        m = Model()
        a = m.add_var("a", ub=10, kind=VarKind.INTEGER)
        b = m.add_var("b", ub=10, kind=VarKind.INTEGER)
        m.add_constraint(6 * a + 4 * b <= 24)
        m.add_constraint(a + 2 * b <= 6)
        m.maximize(5 * a + 4 * b)
        ours = solve_branch_and_bound(m)
        ref = solve_scipy(m)
        assert ours.status.is_optimal
        assert ours.objective == pytest.approx(ref.objective)

    def test_fractional_lp_integral_milp(self):
        # LP optimum fractional; MILP must branch.
        m = Model()
        x = m.add_var("x", ub=10, kind=VarKind.INTEGER)
        y = m.add_var("y", ub=10, kind=VarKind.INTEGER)
        m.add_constraint(2 * x + 3 * y <= 7)
        m.maximize(3 * x + 4 * y)
        res = solve_branch_and_bound(m)
        assert res.status.is_optimal
        assert res.values["x"] == round(res.values["x"])
        assert res.values["y"] == round(res.values["y"])
        ref = solve_scipy(m)
        assert res.objective == pytest.approx(ref.objective)

    def test_equality_budget(self):
        # The per-tile MDFC shape: sum m_k = F with convex-ish costs.
        m = Model()
        xs = [m.add_var(f"m{i}", ub=3, kind=VarKind.INTEGER) for i in range(4)]
        m.add_constraint(sum((x * 1.0 for x in xs), start=0.0) == 7)
        m.minimize(1 * xs[0] + 5 * xs[1] + 2 * xs[2] + 9 * xs[3])
        res = solve_branch_and_bound(m)
        assert res.status.is_optimal
        # fill cheapest first: m0=3, m2=3, then m1=1 -> 3+6+5 = 14
        assert res.objective == pytest.approx(14.0)
        assert res.values == {"m0": 3, "m1": 1, "m2": 3, "m3": 0}

    def test_infeasible(self):
        m = Model()
        x = m.add_var("x", ub=2, kind=VarKind.INTEGER)
        m.add_constraint(x * 1.0 == 5)
        res = solve_branch_and_bound(m)
        assert res.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        m = Model()
        x = m.add_var("x", kind=VarKind.INTEGER)
        m.minimize(-1 * x)
        res = solve_branch_and_bound(m)
        assert res.status is SolveStatus.UNBOUNDED

    def test_binary_one_hot(self):
        # The ILP-II selector shape.
        m = Model()
        sel = [m.add_var(f"s{n}", kind=VarKind.BINARY) for n in range(4)]
        m.add_constraint(sum((s * 1.0 for s in sel), start=0.0) == 1.0)
        m.minimize(5 * sel[0] + 1 * sel[1] + 3 * sel[2] + 4 * sel[3])
        res = solve_branch_and_bound(m)
        assert res.status.is_optimal
        assert res.values["s1"] == 1
        assert res.objective == pytest.approx(1.0)

    def test_continuous_and_integer_mix(self):
        m = Model()
        x = m.add_var("x", ub=10, kind=VarKind.INTEGER)
        y = m.add_var("y", ub=10)
        m.add_constraint(x + y >= 3.5)
        m.minimize(2 * x + 1.5 * y)
        ours = solve_branch_and_bound(m)
        ref = solve_scipy(m)
        assert ours.objective == pytest.approx(ref.objective)

    def test_negative_lower_bound_rejected_by_bundled(self):
        m = Model()
        m.add_var("x", lb=float("-inf"), ub=5)
        m.minimize(0.0)
        with pytest.raises(SolverError, match="finite lower bounds"):
            solve_branch_and_bound(m)

    def test_nonzero_lower_bounds_shifted(self):
        m = Model()
        x = m.add_var("x", lb=2, ub=8, kind=VarKind.INTEGER)
        m.minimize(x * 1.0)
        res = solve_branch_and_bound(m)
        assert res.values["x"] == 2
        ref = solve_scipy(m)
        assert res.objective == pytest.approx(ref.objective)

    def test_node_limit_status(self):
        rng = np.random.default_rng(3)
        m = Model()
        xs = [m.add_var(f"x{i}", ub=1, kind=VarKind.INTEGER) for i in range(12)]
        w = rng.integers(3, 20, 12)
        m.add_constraint(sum((int(w[i]) * xs[i] for i in range(12)), start=0.0) <= 40)
        m.maximize(sum((float(rng.uniform(1, 10)) * xs[i] for i in range(12)), start=0.0))
        res = solve_branch_and_bound(m, max_nodes=1)
        assert res.status in (SolveStatus.NODE_LIMIT, SolveStatus.OPTIMAL)


class TestRandomCrossChecks:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_bounded_milp_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        m = Model()
        xs = [m.add_var(f"x{i}", ub=int(rng.integers(1, 5)), kind=VarKind.INTEGER)
              for i in range(n)]
        a = rng.integers(-3, 4, size=(3, n))
        x0 = [rng.integers(0, x.ub + 1) for x in xs]
        b = a @ np.array(x0) + rng.integers(0, 3, size=3)
        for row, rhs in zip(a, b, strict=True):
            m.add_constraint(
                sum((int(row[i]) * xs[i] for i in range(n)), start=0.0) <= float(rhs)
            )
        c = rng.integers(-5, 6, size=n)
        m.minimize(sum((int(c[i]) * xs[i] for i in range(n)), start=0.0))
        ours = solve_branch_and_bound(m)
        ref = solve_scipy(m)
        assert ours.status.is_optimal and ref.status.is_optimal
        assert ours.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_values_are_exact_integers(self):
        m = Model()
        x = m.add_var("x", ub=7, kind=VarKind.INTEGER)
        m.add_constraint(2 * x <= 9)
        m.maximize(x * 1.0)
        res = solve_branch_and_bound(m)
        assert isinstance(res.values["x"], int)
        assert res.values["x"] == 4


class TestSolveDispatch:
    def test_auto_picks_bundled_for_small(self):
        m = Model()
        x = m.add_var("x", ub=3, kind=VarKind.INTEGER)
        m.maximize(x * 1.0)
        res = solve(m, backend="auto")
        assert res.objective == pytest.approx(3.0)

    def test_unknown_backend_rejected(self):
        m = Model()
        m.add_var("x", ub=1)
        m.minimize(0.0)
        with pytest.raises(SolverError):
            solve(m, backend="cplex")

    def test_result_accessors(self):
        m = Model()
        x = m.add_var("x", ub=3, kind=VarKind.INTEGER)
        m.maximize(x * 1.0)
        res = solve(m)
        assert res["x"] == 3
        assert res.value("missing", default=-1.0) == -1.0
