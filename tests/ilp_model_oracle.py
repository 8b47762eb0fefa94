"""The expression-built ILP models: the oracle of the array-built ones.

This is the PuLP-style modeling layer (:class:`Model`, :class:`LinExpr`)
the per-tile ILP builders used before they wrote
:class:`~repro.ilp.model.CompiledModel` arrays directly, together with
the three tile models as that layer built them (:func:`dsl_ilp1_model`,
:func:`dsl_ilp2_model`, :func:`dsl_budgeted_model`). Tests compare the
arrays each construction compiles to, byte for byte.

:func:`solve` compiles a :class:`Model`, hands the arrays to
:func:`repro.ilp.solve` and maps the solution back to variable names
(negating the objective of a :meth:`Model.maximize` model), so the
solver tests can keep stating their models as expressions.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro import ilp
from repro.errors import SolverError
from repro.ilp import CompiledModel, SolveStatus
from repro.pilfill.costs import TileCosts
from tests.column_objects import ElectricalColumn, slack_columns
from tests.cost_tables import column_tables

INF = math.inf


class VarKind(enum.Enum):
    """Variable domain."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


@dataclass(frozen=True)
class Variable:
    """Handle to a model variable. Supports arithmetic to build
    :class:`LinExpr` terms: ``2 * x + y - 3``."""

    model_id: int
    index: int
    name: str
    kind: VarKind
    lb: float
    ub: float

    def __add__(self, other: LinExpr | Variable | float) -> LinExpr:
        return LinExpr.from_term(self) + other

    def __radd__(self, other: LinExpr | Variable | float) -> LinExpr:
        return LinExpr.from_term(self) + other

    def __sub__(self, other: LinExpr | Variable | float) -> LinExpr:
        return LinExpr.from_term(self) - other

    def __rsub__(self, other: LinExpr | Variable | float) -> LinExpr:
        return (-1.0 * self) + other

    def __mul__(self, coeff: float) -> LinExpr:
        return LinExpr({self.index: float(coeff)}, 0.0, self.model_id)

    def __rmul__(self, coeff: float) -> LinExpr:
        return self.__mul__(coeff)

    def __neg__(self) -> LinExpr:
        return self * -1.0

    def __le__(self, other: LinExpr | Variable | float) -> Constraint:
        return LinExpr.from_term(self).__le__(other)

    def __ge__(self, other: LinExpr | Variable | float) -> Constraint:
        return LinExpr.from_term(self).__ge__(other)

    def __eq__(self, other: object) -> object:  # type: ignore[override]
        if isinstance(other, (int, float, Variable, LinExpr)):
            return LinExpr.from_term(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.model_id, self.index))


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass
class LinExpr:
    """Sparse linear expression ``Σ coeff_i · x_i + const``."""

    coeffs: dict[int, float]
    const: float = 0.0
    model_id: int = -1

    @staticmethod
    def from_term(var: Variable) -> "LinExpr":
        return LinExpr({var.index: 1.0}, 0.0, var.model_id)

    @staticmethod
    def constant(value: float) -> "LinExpr":
        return LinExpr({}, float(value), -1)

    def _merge_model(self, other_id: int) -> int:
        if self.model_id == -1:
            return other_id
        if other_id == -1 or other_id == self.model_id:
            return self.model_id
        raise SolverError("cannot mix variables from different models")

    def _coerce(self, other: LinExpr | Variable | float) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Variable):
            return LinExpr.from_term(other)
        if isinstance(other, (int, float)):
            return LinExpr.constant(float(other))
        raise TypeError(f"cannot combine LinExpr with {type(other).__name__}")

    def __add__(self, other: LinExpr | Variable | float) -> "LinExpr":
        rhs = self._coerce(other)
        coeffs = dict(self.coeffs)
        for idx, c in rhs.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + c
        return LinExpr(coeffs, self.const + rhs.const, self._merge_model(rhs.model_id))

    def __radd__(self, other: LinExpr | Variable | float) -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other: LinExpr | Variable | float) -> "LinExpr":
        return self.__add__(self._coerce(other) * -1.0)

    def __rsub__(self, other: LinExpr | Variable | float) -> "LinExpr":
        return (self * -1.0).__add__(other)

    def __mul__(self, coeff: float) -> "LinExpr":
        if not isinstance(coeff, (int, float)):
            raise TypeError("LinExpr supports multiplication by scalars only")
        return LinExpr(
            {i: c * coeff for i, c in self.coeffs.items()}, self.const * coeff, self.model_id
        )

    def __rmul__(self, coeff: float) -> "LinExpr":
        return self.__mul__(coeff)

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __le__(self, other: LinExpr | Variable | float) -> "Constraint":
        rhs = self._coerce(other)
        return Constraint(self - rhs, Sense.LE)

    def __ge__(self, other: LinExpr | Variable | float) -> "Constraint":
        rhs = self._coerce(other)
        return Constraint(self - rhs, Sense.GE)

    def __eq__(self, other: object) -> object:  # type: ignore[override]
        if isinstance(other, (int, float, Variable, LinExpr)):
            rhs = self._coerce(other)
            return Constraint(self - rhs, Sense.EQ)
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    def evaluate(self, values: np.ndarray) -> float:
        """Value of the expression at a variable assignment vector."""
        return self.const + sum(c * values[i] for i, c in self.coeffs.items())


@dataclass
class Constraint:
    """A normalized constraint ``expr (sense) 0``."""

    expr: LinExpr
    sense: Sense
    name: str = ""


class Model:
    """An optimization model under construction.

    Example::

        m = Model("tile")
        x = m.add_var("x", lb=0, ub=5, kind=VarKind.INTEGER)
        y = m.add_var("y", lb=0, ub=5, kind=VarKind.INTEGER)
        m.add_constraint(x + y == 7)
        m.minimize(3 * x + 2 * y)
    """

    # itertools.count: next() is atomic under the GIL, so models built
    # concurrently (thread-backend tile solves) still get distinct ids —
    # a bare `Model._next_id += 1` is a read-modify-write race.
    _ids = itertools.count(1)

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr | None = None
        self._id = next(Model._ids)
        self._names: set[str] = set()
        self._maximized = False

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = INF,
        kind: VarKind = VarKind.CONTINUOUS,
    ) -> Variable:
        """Create a variable. Binary variables force bounds to [0, 1]."""
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r}")
        if kind is VarKind.BINARY:
            lb, ub = 0.0, 1.0
        if lb > ub:
            raise SolverError(f"variable {name}: lb {lb} > ub {ub}")
        if math.isinf(lb) and lb > 0 or math.isinf(ub) and ub < 0:
            raise SolverError(f"variable {name}: invalid infinite bound")
        var = Variable(self._id, len(self.variables), name, kind, float(lb), float(ub))
        self.variables.append(var)
        self._names.add(name)
        return var

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise SolverError(
                "add_constraint expects an expression comparison "
                "(e.g. x + y <= 3); got a bool — don't use chained comparisons"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    @staticmethod
    def _as_expr(expr: LinExpr | Variable | float) -> LinExpr:
        if isinstance(expr, Variable):
            return LinExpr.from_term(expr)
        if isinstance(expr, (int, float)):
            return LinExpr.constant(float(expr))
        return expr

    def minimize(self, expr: LinExpr | Variable | float) -> None:
        """Set a minimization objective (constants allowed: feasibility
        problems compile to a zero objective)."""
        self.objective = self._as_expr(expr)
        self._maximized = False

    def maximize(self, expr: LinExpr | Variable | float) -> None:
        """Set a maximization objective (stored negated)."""
        self.objective = self._as_expr(expr) * -1.0
        self._maximized = True

    @property
    def is_maximization(self) -> bool:
        """True when :meth:`maximize` set the objective."""
        return self._maximized

    # -- compilation ---------------------------------------------------------

    def compile(self) -> CompiledModel:
        """Lower to dense arrays (minimization form)."""
        n = len(self.variables)
        c = np.zeros(n)
        c0 = 0.0
        if self.objective is not None:
            for idx, coeff in self.objective.coeffs.items():
                c[idx] = coeff
            c0 = self.objective.const

        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []
        eq_rows: list[np.ndarray] = []
        eq_rhs: list[float] = []
        for con in self.constraints:
            row = np.zeros(n)
            for idx, coeff in con.expr.coeffs.items():
                row[idx] = coeff
            rhs = -con.expr.const
            if con.sense is Sense.LE:
                ub_rows.append(row)
                ub_rhs.append(rhs)
            elif con.sense is Sense.GE:
                ub_rows.append(-row)
                ub_rhs.append(-rhs)
            else:
                eq_rows.append(row)
                eq_rhs.append(rhs)

        lb = np.array([v.lb for v in self.variables])
        ub = np.array([v.ub for v in self.variables])
        integer = np.array([v.kind is not VarKind.CONTINUOUS for v in self.variables])
        return CompiledModel(
            c=c,
            c0=c0,
            a_ub=np.array(ub_rows).reshape(len(ub_rows), n) if ub_rows else np.zeros((0, n)),
            b_ub=np.array(ub_rhs),
            a_eq=np.array(eq_rows).reshape(len(eq_rows), n) if eq_rows else np.zeros((0, n)),
            b_eq=np.array(eq_rhs),
            lb=lb,
            ub=ub,
            integer=integer,
        )


@dataclass
class NamedResult:
    """A solve outcome mapped back to :class:`Model` variable names.

    ``values`` holds ``int`` for integer variables and ``float`` for
    continuous ones; it is empty when the backend returned no point.
    """

    status: SolveStatus
    values: dict[str, float] = field(default_factory=dict)
    objective: float = float("nan")
    nodes: int = 0
    iterations: int = 0

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def value(self, name: str, default: float = 0.0) -> float:
        """Value of a variable, with a default for absent names."""
        return self.values.get(name, default)


def solve(model: Model, backend: str = "auto", **options: object) -> NamedResult:
    """Compile ``model`` and solve it with :func:`repro.ilp.solve`."""
    res = ilp.solve(model.compile(), backend, **options)
    values: dict[str, float] = {}
    if res.x is not None:
        values = {
            v.name: (round(x) if v.kind is not VarKind.CONTINUOUS else float(x))
            for v, x in zip(model.variables, res.x, strict=True)
        }
    objective = -res.objective if model.is_maximization else res.objective
    return NamedResult(res.status, values, objective, res.nodes, res.iterations)


def solve_branch_and_bound(model: Model, **options: object) -> NamedResult:
    """:func:`solve` on the bundled simplex + branch-and-bound."""
    return solve(model, "bundled", **options)


def solve_scipy(model: Model, **options: object) -> NamedResult:
    """:func:`solve` on HiGHS."""
    return solve(model, "scipy", **options)


# -- the per-tile models as the DSL built them --------------------------------


@dataclass(frozen=True)
class _Column:
    """One column's tables, split out of a tile's flat arrays."""

    column: ElectricalColumn
    exact: tuple[float, ...]
    linear: tuple[float, ...]

    @property
    def capacity(self) -> int:
        return len(self.exact) - 1


def _columns(costs: TileCosts) -> list[_Column]:
    return [
        _Column(column, exact, linear)
        for column, exact, linear in zip(
            slack_columns(costs.columns),
            column_tables(costs),
            column_tables(costs, costs.linear),
            strict=True,
        )
    ]


def dsl_ilp1_model(
    costs: TileCosts, budget: int, weighted: bool
) -> tuple[Model, list[Variable]]:
    """ILP-I (Eqs. 10-14); returns the model and the ``m_k`` variables."""
    model = Model("ilp1-tile")
    m_vars = []
    # Group columns by adjacent line so Δτ_l variables match the paper's
    # per-line constraints (Eq. 13).
    line_terms: dict[tuple[str, int], list] = {}

    for k, cc in enumerate(_columns(costs)):
        m_k = model.add_var(f"m_{k}", lb=0, ub=cc.capacity, kind=VarKind.INTEGER)
        m_vars.append(m_k)
        if not cc.column.has_impact or cc.capacity == 0:
            continue
        per_feature_delay = cc.linear[1]  # ps per feature, both lines, weighted
        cap_k = model.add_var(f"cap_{k}", lb=0.0, ub=INF)
        model.add_constraint(cap_k == m_k * per_feature_delay)
        for neighbor in (cc.column.below, cc.column.above):
            if neighbor is None:
                continue
            ident = neighbor.identity
            w = neighbor.sinks if weighted else 1
            share = (
                (w * neighbor.resistance_ohm)
                / cc.column.resistance_weight(weighted)
                if cc.column.resistance_weight(weighted) > 0
                else 0.0
            )
            line_terms.setdefault(ident, []).append(cap_k * share)

    tau_vars = []
    for ident, terms in line_terms.items():
        tau = model.add_var(f"tau_{ident[0]}_{ident[1]}", lb=0.0, ub=INF)
        model.add_constraint(tau == sum(terms, start=0.0))
        tau_vars.append(tau)

    model.add_constraint(sum((m * 1.0 for m in m_vars), start=0.0) == budget)
    if tau_vars:
        model.minimize(sum((t * 1.0 for t in tau_vars), start=0.0))
    else:
        model.minimize(sum((m * 0.0 for m in m_vars), start=0.0))
    return model, m_vars


def dsl_ilp2_model(costs: TileCosts, budget: int) -> tuple[Model, list[Variable]]:
    """ILP-II (Eqs. 17-21); returns the model and the ``m_k`` variables."""
    model = Model("ilp2-tile")
    m_vars = []
    objective_terms = []
    for k, cc in enumerate(_columns(costs)):
        m_k = model.add_var(f"m_{k}", lb=0, ub=cc.capacity, kind=VarKind.INTEGER)
        m_vars.append(m_k)
        if cc.capacity == 0:
            continue
        selectors = [
            model.add_var(f"s_{k}_{n}", kind=VarKind.BINARY)
            for n in range(cc.capacity + 1)
        ]
        # Eq. 19 (with the n = 0 selector included).
        model.add_constraint(sum((s * 1.0 for s in selectors), start=0.0) == 1.0)
        # Eq. 18.
        model.add_constraint(
            m_k == sum((selectors[n] * float(n) for n in range(cc.capacity + 1)), start=0.0)
        )
        # Eq. 20 folded with Eq. 21 into the objective directly.
        for n in range(1, cc.capacity + 1):
            if cc.exact[n] != 0.0:
                objective_terms.append(selectors[n] * cc.exact[n])

    model.add_constraint(sum((m * 1.0 for m in m_vars), start=0.0) == float(budget))
    model.minimize(sum(objective_terms, start=0.0))
    return model, m_vars


def dsl_budgeted_model(
    costs: TileCosts,
    cap_ff: np.ndarray,
    budget: int,
    net_budgets_ff: dict[str, float],
) -> tuple[Model, list[Variable]]:
    """ILP-II plus one ``<=`` row per budgeted net (``cap_ff`` is ΔC per
    entry of ``costs.exact``); returns the model and the ``m_k``
    variables."""
    cap_tables = column_tables(costs, cap_ff)
    model = Model("budgeted-tile")
    m_vars = []
    objective_terms = []
    net_terms: dict[str, list] = defaultdict(list)
    for k, (cc, caps) in enumerate(zip(_columns(costs), cap_tables, strict=True)):
        m_k = model.add_var(f"m_{k}", lb=0, ub=cc.capacity, kind=VarKind.INTEGER)
        m_vars.append(m_k)
        if cc.capacity == 0:
            continue
        selectors = [
            model.add_var(f"s_{k}_{n}", kind=VarKind.BINARY)
            for n in range(cc.capacity + 1)
        ]
        model.add_constraint(sum((s * 1.0 for s in selectors), start=0.0) == 1.0)
        model.add_constraint(
            m_k == sum((selectors[n] * float(n) for n in range(cc.capacity + 1)), start=0.0)
        )
        for n in range(1, cc.capacity + 1):
            if cc.exact[n] != 0.0:
                objective_terms.append(selectors[n] * cc.exact[n])
        if cc.column.has_impact:
            for neighbor in (cc.column.below, cc.column.above):
                if neighbor is None or neighbor.net not in net_budgets_ff:
                    continue
                for n in range(1, cc.capacity + 1):
                    if caps[n] != 0.0:
                        net_terms[neighbor.net].append(selectors[n] * caps[n])

    model.add_constraint(sum((m * 1.0 for m in m_vars), start=0.0) == float(budget))
    for net, terms in net_terms.items():
        model.add_constraint(
            sum(terms, start=0.0) <= net_budgets_ff[net]
        )
    model.minimize(sum(objective_terms, start=0.0))
    return model, m_vars
