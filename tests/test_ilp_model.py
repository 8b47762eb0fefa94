"""The ILP modeling layer: expressions, constraints, compilation."""

import math

import numpy as np
import pytest

from repro.errors import SolverError
from tests.ilp_model_oracle import INF, Model, Sense, VarKind


class TestExpressions:
    def test_variable_arithmetic(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        expr = 2 * x + y - 3
        assert expr.coeffs == {x.index: 2.0, y.index: 1.0}
        assert expr.const == -3.0

    def test_negation_and_subtraction(self):
        m = Model()
        x = m.add_var("x")
        expr = -(x - 5)
        assert expr.coeffs == {x.index: -1.0}
        assert expr.const == 5.0

    def test_rsub(self):
        m = Model()
        x = m.add_var("x")
        expr = 10 - x
        assert expr.coeffs[x.index] == -1.0
        assert expr.const == 10.0

    def test_sum_with_start(self):
        m = Model()
        xs = [m.add_var(f"x{i}") for i in range(3)]
        expr = sum((x * 2.0 for x in xs), start=0.0)
        assert all(expr.coeffs[x.index] == 2.0 for x in xs)

    def test_expr_times_expr_rejected(self):
        m = Model()
        x = m.add_var("x")
        with pytest.raises(TypeError):
            (x + 1) * (x + 1)

    def test_mixing_models_rejected(self):
        m1, m2 = Model(), Model()
        x = m1.add_var("x")
        y = m2.add_var("y")
        with pytest.raises(SolverError):
            _ = x + y

    def test_evaluate(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        expr = 2 * x - y + 1
        assert expr.evaluate(np.array([3.0, 4.0])) == pytest.approx(3.0)


class TestConstraints:
    def test_senses(self):
        m = Model()
        x = m.add_var("x")
        assert (x <= 3).sense is Sense.LE
        assert (x >= 3).sense is Sense.GE
        assert (x == 3).sense is Sense.EQ

    def test_add_constraint_rejects_bool(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(SolverError):
            m.add_constraint(True)

    def test_duplicate_variable_name_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(SolverError):
            m.add_var("x")

    def test_binary_forces_bounds(self):
        m = Model()
        b = m.add_var("b", lb=-5, ub=10, kind=VarKind.BINARY)
        assert (b.lb, b.ub) == (0.0, 1.0)

    def test_bad_bounds_rejected(self):
        m = Model()
        with pytest.raises(SolverError):
            m.add_var("x", lb=5, ub=2)


class TestCompile:
    def test_le_and_ge_rows(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constraint(x + 2 * y <= 10)
        m.add_constraint(x - y >= 1)
        m.minimize(x + y)
        c = m.compile()
        assert c.a_ub.shape == (2, 2)
        np.testing.assert_allclose(c.a_ub[0], [1, 2])
        np.testing.assert_allclose(c.b_ub, [10, -1])
        np.testing.assert_allclose(c.a_ub[1], [-1, 1])  # GE negated

    def test_eq_rows(self):
        m = Model()
        x = m.add_var("x")
        m.add_constraint(x == 7)
        c = m.compile()
        assert c.a_eq.shape == (1, 1)
        assert c.b_eq[0] == 7.0

    def test_constant_moved_to_rhs(self):
        m = Model()
        x = m.add_var("x")
        m.add_constraint(x + 5 <= 10)
        c = m.compile()
        assert c.b_ub[0] == 5.0

    def test_objective_and_integrality(self):
        m = Model()
        x = m.add_var("x", kind=VarKind.INTEGER)
        y = m.add_var("y")
        m.minimize(3 * x + 1)
        c = m.compile()
        np.testing.assert_allclose(c.c, [3, 0])
        assert c.c0 == 1.0
        assert list(c.integer) == [True, False]

    def test_maximize_negates(self):
        m = Model()
        x = m.add_var("x", ub=5)
        m.maximize(2 * x)
        c = m.compile()
        assert c.c[0] == -2.0
        assert m.is_maximization

    def test_minimize_after_maximize_resets_flag(self):
        m = Model()
        x = m.add_var("x", ub=5)
        m.maximize(x * 1.0)
        m.minimize(x * 1.0)
        assert not m.is_maximization

    def test_constant_objective_allowed(self):
        m = Model()
        m.add_var("x", ub=1)
        m.minimize(0.0)
        c = m.compile()
        assert c.c0 == 0.0

    def test_infinite_upper_bound(self):
        m = Model()
        x = m.add_var("x", ub=INF)
        c = m.compile()
        assert math.isinf(c.ub[0])
