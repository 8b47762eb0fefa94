"""ILP-I: the linear-capacitance integer program (paper Section 5.2).

Faithful to the published formulation: per tile, integer variables ``m_k``
(features per slack column), continuous ``Cap_k`` (Eq. 12, the *linear*
Eq. 6 capacitance), continuous ``Δτ_l`` per active line (Eq. 13), budget
equality (Eq. 11), capacities (Eq. 14), objective Σ W_l Δτ_l (Eq. 10).

The linear model underestimates the true (convex) capacitance — worst when
the fill width is not ≪ the line spacing — which is why ILP-I can lose to
Greedy and even to Normal fill on some configurations (paper Table 1).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import FillError, SolverError, SolveTimeoutError
from repro.ilp import CompiledModel, solve
from repro.ilp.result import SolveStatus
from repro.obs.trace import TracerLike
from repro.pilfill.costs import TileCosts
from repro.pilfill.solution import TileSolution


def build_ilp1_model(
    costs: TileCosts, budget: int, weighted: bool
) -> tuple[CompiledModel, np.ndarray]:
    """One tile's ILP-I model (Eqs. 10-14) as dense arrays, and the index
    of every ``m_k``.

    Variables: per column ``m_k``, then ``Cap_k`` if the column has impact
    and sites; after all columns, one ``Δτ_l`` per line beside such a
    column. Rows: Eq. 12 per ``Cap_k``, Eq. 13 per line, the budget.
    """
    m_at: list[int] = []
    cap_at: dict[int, int] = {}  # column -> index of its Cap_k
    col_ub: list[float] = []
    for k, (column, capacity) in enumerate(
        zip(costs.columns, costs.capacities.tolist(), strict=True)
    ):
        m_at.append(len(col_ub))
        col_ub.append(float(capacity))
        if column.has_impact and capacity > 0:
            cap_at[k] = len(col_ub)
            col_ub.append(math.inf)

    # Each line's Δτ_l takes the share w·R / r̂_k of every Cap_k beside it.
    # The cost tables store delay (ps) per count with r̂ folded in; the
    # shares recover the per-line pieces so the model mirrors Eqs. 12-13.
    lines: dict[tuple[str, int], dict[int, float]] = {}
    for k, cap_idx in cap_at.items():
        column = costs.columns[k]
        r_hat = column.resistance_weight(weighted)
        for neighbor in (column.below, column.above):
            if neighbor is None:
                continue
            w = neighbor.sinks if weighted else 1
            share = (w * neighbor.resistance_ohm) / r_hat if r_hat > 0 else 0.0
            terms = lines.setdefault(neighbor.identity, {})
            terms[cap_idx] = terms.get(cap_idx, 0.0) + share

    n_cols = len(col_ub)
    n = n_cols + len(lines)
    a_eq = np.zeros((len(cap_at) + len(lines) + 1, n))
    # Eqs. 12 and 13 move every variable to the left side: the right side
    # is -0.0, and a coefficient is 0.0 - x so that x = 0 gives +0.0.
    b_eq = np.full(a_eq.shape[0], -0.0)
    linear, at = costs.linear.tolist(), costs.offsets()
    for row, (k, cap_idx) in enumerate(cap_at.items()):
        a_eq[row, cap_idx] = 1.0  # Eq. 12: Cap_k - (ps per feature)·m_k = 0
        a_eq[row, m_at[k]] = 0.0 - linear[at[k] + 1]
    for j, terms in enumerate(lines.values()):
        row = len(cap_at) + j
        a_eq[row, n_cols + j] = 1.0  # Eq. 13: Δτ_l - Σ share·Cap_k = 0
        for cap_idx, share in terms.items():
            a_eq[row, cap_idx] = 0.0 - share
    a_eq[-1, m_at] = 1.0  # Eq. 11
    b_eq[-1] = float(budget)

    c = np.zeros(n)
    c[n_cols:] = 1.0
    ub = np.full(n, math.inf)
    ub[:n_cols] = col_ub
    integer = np.zeros(n, dtype=bool)
    integer[m_at] = True
    model = CompiledModel(
        c=c,
        c0=0.0,
        a_ub=np.zeros((0, n)),
        b_ub=np.zeros(0),
        a_eq=a_eq,
        b_eq=b_eq,
        lb=np.zeros(n),
        ub=ub,
        integer=integer,
    )
    return model, np.array(m_at, dtype=np.int64)


def solve_tile_ilp1(
    costs: TileCosts,
    budget: int,
    weighted: bool,
    backend: str = "auto",
    time_limit: float | None = None,
    tracer: TracerLike | None = None,
) -> TileSolution:
    """Solve one tile with the ILP-I formulation.

    Args:
        costs: the tile's cost tables (the ``linear`` tables are used).
        budget: features to place in this tile (Eq. 11's ``F``).
        weighted: True for the sink-weighted objective (weights are already
            folded into the cost tables; the flag is kept for symmetry and
            sanity checks).
        backend: ILP backend (``bundled``/``scipy``/``auto``).
        time_limit: wall-clock deadline in seconds for this tile's solve;
            exceeding it raises :class:`SolveTimeoutError`.
    """
    if budget == 0:
        return TileSolution(counts=[0] * len(costs))
    if budget > costs.capacity:
        raise FillError(f"budget {budget} exceeds tile capacity {costs.capacity}")

    model, m_at = build_ilp1_model(costs, budget, weighted)
    result = solve(model, backend=backend, time_limit=time_limit, tracer=tracer)
    if result.status is SolveStatus.TIME_LIMIT:
        raise SolveTimeoutError(f"ILP-I tile solve hit the {time_limit}s deadline")
    if not result.status.is_optimal or result.x is None:
        raise SolverError(f"ILP-I tile solve failed: {result.status}")
    return TileSolution(
        counts=result.x[m_at].astype(int).tolist(),
        model_objective_ps=result.objective,
        nodes=result.nodes,
        iterations=result.iterations,
    )
