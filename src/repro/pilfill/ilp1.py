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

from repro.errors import FillError, SolverError, SolveTimeoutError
from repro.ilp import INF, Model, VarKind, solve
from repro.ilp.result import SolveStatus
from repro.obs.trace import TracerLike
from repro.pilfill.costs import ColumnCosts
from repro.pilfill.solution import TileSolution


def solve_tile_ilp1(
    costs: list[ColumnCosts],
    budget: int,
    weighted: bool,
    backend: str = "auto",
    time_limit: float | None = None,
    tracer: TracerLike | None = None,
) -> TileSolution:
    """Solve one tile with the ILP-I formulation.

    Args:
        costs: per-column cost tables (the ``linear`` tables are used).
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
    capacity = sum(c.capacity for c in costs)
    if budget > capacity:
        raise FillError(f"budget {budget} exceeds tile capacity {capacity}")

    model = Model("ilp1-tile")
    m_vars = []
    # Group columns by adjacent line so Δτ_l variables match the paper's
    # per-line constraints (Eq. 13).
    line_terms: dict[tuple[str, int], list] = {}
    line_weight: dict[tuple[str, int], int] = {}

    for k, cc in enumerate(costs):
        m_k = model.add_var(f"m_{k}", lb=0, ub=cc.capacity, kind=VarKind.INTEGER)
        m_vars.append(m_k)
        if not cc.column.has_impact or cc.capacity == 0:
            continue
        # Cap_k = (per-feature linear ΔC folded with nothing) · m_k. The
        # cost tables store delay (ps) per count with r̂ folded in; recover
        # the per-feature, per-line pieces so the model mirrors Eqs. 12-13.
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
            line_weight[ident] = 1  # weight already folded into the share

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

    result = solve(model, backend=backend, time_limit=time_limit, tracer=tracer)
    if result.status is SolveStatus.TIME_LIMIT:
        raise SolveTimeoutError(f"ILP-I tile solve hit the {time_limit}s deadline")
    if not result.status.is_optimal:
        raise SolverError(f"ILP-I tile solve failed: {result.status}")
    counts = [int(result.value(m.name)) for m in m_vars]
    return TileSolution(
        counts=counts,
        model_objective_ps=result.objective,
        nodes=result.nodes,
        iterations=result.iterations,
    )
