"""Per-net capacitance-budgeted PIL-Fill (paper Section 7, "ongoing
research").

The paper's closing direction: timing flows hand down *budgeted slacks*
per net, translatable into capacitance budgets ``B_net`` (fF). Fill must
then satisfy the per-tile density prescription while keeping the coupling
capacitance added to each net within its budget — and, among feasible
placements, still minimize total weighted delay.

Per tile this is no longer separable per column (a column couples to two
nets, and budgets tie columns of the same net together), so it genuinely
needs the ILP machinery:

    minimize    Σ_k Σ_n cost_k(n) · s_{k,n}                 (ILP-II objective)
    subject to  Σ_k m_k = F                                  (budget, Eq. 17)
                one-hot selectors per column                 (Eqs. 18-19)
                Σ_{k adj net} ΔC_k(n)·s_{k,n} ≤ B_net        (NEW, per net)

A Lagrangian-flavoured greedy fallback (`solve_tile_budgeted_greedy`)
handles tiles too large for exact solving: marginal greedy that skips
columns whose next feature would breach a net budget.

Budgets are naturally derived from timing slack via
:func:`derive_net_cap_budgets`.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import FillError
from repro.ilp import CompiledModel, solve
from repro.layout.layout import RoutedLayout
from repro.layout.rctree import OHM_FF_TO_PS
from repro.pilfill.costs import TileCosts
from repro.pilfill.ilp2 import build_ilp2_model
from repro.pilfill.solution import TileSolution


@dataclass
class BudgetedOutcome:
    """Solution of one budgeted tile plus the capacitance actually used."""

    solution: TileSolution
    cap_used_ff: dict[str, float]
    feasible: bool


def build_budgeted_model(
    costs: TileCosts,
    cap_ff: np.ndarray,
    budget: int,
    net_budgets_ff: dict[str, float],
) -> tuple[CompiledModel, np.ndarray]:
    """ILP-II's selector model plus one ``<=`` row per budgeted net, and
    the index of every ``m_k``.

    A net's row sums ``ΔC_k(n)·s_{k,n}`` over the impactful columns beside
    it (twice for a column with the net on both sides), in the order nets
    first meet a coupled column (one with a nonzero ΔC entry); a net that
    never does gets no row.
    """
    model, m_at = build_ilp2_model(costs, budget)
    rows: dict[str, np.ndarray] = {}
    at = costs.offsets()
    for k, (column, cap) in enumerate(zip(costs.columns, costs.capacities.tolist(), strict=True)):
        entries = cap_ff[at[k] + 1 : at[k] + cap + 1]
        if cap == 0 or not column.has_impact or not entries.any():
            continue
        selectors = slice(int(m_at[k]) + 2, int(m_at[k]) + cap + 2)
        for neighbor in (column.below, column.above):
            if neighbor is None or neighbor.net not in net_budgets_ff:
                continue
            row = rows.get(neighbor.net)
            if row is None:
                row = rows[neighbor.net] = np.zeros(model.c.size)
            row[selectors] += entries  # a zero ΔC leaves +0.0
    if rows:
        model.a_ub = np.array(list(rows.values()))
        # Moving B_net across the sense and back turns a ±0.0 into -0.0.
        model.b_ub = -(0.0 - np.array([float(net_budgets_ff[net]) for net in rows]))
    return model, m_at


def solve_tile_budgeted_ilp(
    costs: TileCosts,
    cap_ff: np.ndarray,
    budget: int,
    net_budgets_ff: dict[str, float],
    backend: str = "auto",
    time_limit: float | None = None,
) -> BudgetedOutcome:
    """Exact per-tile solve with per-net capacitance budgets.

    Args:
        costs: the tile's cost tables (exact delay model).
        cap_ff: ΔC(n) in fF per entry of ``costs.exact``
            (:func:`delta_cap_ff`) — the raw capacitance each count adds
            to *each* adjacent net.
        budget: features to place in this tile.
        net_budgets_ff: remaining capacitance budget per net name; nets
            absent from the mapping are unconstrained.

    Returns:
        A :class:`BudgetedOutcome`; ``feasible=False`` when no placement
        satisfies every budget (the caller may then relax or report).
    """
    if budget == 0:
        return BudgetedOutcome(TileSolution(counts=[0] * len(costs)), {}, True)
    if budget > costs.capacity:
        raise FillError(f"budget {budget} exceeds tile capacity {costs.capacity}")

    model, m_at = build_budgeted_model(costs, cap_ff, budget, net_budgets_ff)
    result = solve(model, backend=backend, time_limit=time_limit)
    if not result.status.is_optimal or result.x is None:
        # Includes TIME_LIMIT: the caller already has a budgeted-greedy
        # fallback for infeasible outcomes, which covers timeouts too.
        return BudgetedOutcome(TileSolution(counts=[0] * len(costs)), {}, False)
    counts = result.x[m_at].astype(int).tolist()
    used = _cap_used(costs, cap_ff.tolist(), counts)
    solution = TileSolution(
        counts=counts,
        model_objective_ps=result.objective,
        nodes=result.nodes,
        iterations=result.iterations,
    )
    return BudgetedOutcome(solution, used, True)


def solve_tile_budgeted_greedy(
    costs: TileCosts,
    cap_ff: np.ndarray,
    budget: int,
    net_budgets_ff: dict[str, float],
) -> BudgetedOutcome:
    """Marginal greedy that respects per-net capacitance budgets.

    Grants the cheapest next feature whose ΔC fits in both adjacent nets'
    remaining budgets; columns that would breach a budget are frozen. May
    return fewer than ``budget`` features when the budgets bind —
    ``feasible`` reflects whether the full count was placed.
    """
    exact, caps, at = costs.exact.tolist(), cap_ff.tolist(), costs.offsets()
    capacities = costs.capacities.tolist()
    remaining = dict(net_budgets_ff)
    counts = [0] * len(costs)
    spent = 0.0

    heap: list[tuple[float, int]] = []
    for k, cap in enumerate(capacities):
        if cap > 0:
            heapq.heappush(heap, (exact[at[k] + 1] - exact[at[k]], k))

    placed = 0
    frozen: set[int] = set()
    while placed < budget and heap:
        marginal, k = heapq.heappop(heap)
        if k in frozen:
            continue
        column, n = costs.columns[k], at[k] + counts[k]
        delta_cap = caps[n + 1] - caps[n]
        nets = []
        if column.has_impact:
            nets = [
                nb.net for nb in (column.below, column.above)
                if nb is not None and nb.net in remaining
            ]
        if any(remaining[net] < delta_cap - 1e-15 for net in nets):
            frozen.add(k)
            continue
        counts[k] += 1
        for net in nets:
            remaining[net] -= delta_cap
        spent += marginal
        placed += 1
        if counts[k] < capacities[k]:
            heapq.heappush(heap, (exact[n + 2] - exact[n + 1], k))

    used = _cap_used(costs, caps, counts)
    solution = TileSolution(counts=counts, model_objective_ps=spent)
    return BudgetedOutcome(solution, used, placed == budget)


def _cap_used(costs: TileCosts, caps: list[float], counts: list[int]) -> dict[str, float]:
    used: dict[str, float] = defaultdict(float)
    for column, at, n in zip(costs.columns, costs.offsets()[:-1], counts, strict=True):
        if n == 0 or not column.has_impact:
            continue
        for neighbor in (column.below, column.above):
            if neighbor is not None:
                used[neighbor.net] += caps[at + n]
    return dict(used)


def derive_net_cap_budgets(
    layout: RoutedLayout,
    slack_fraction_ps: float = 0.05,
) -> dict[str, float]:
    """Capacitance budgets from timing slack (paper Section 7's premise).

    Gives each net a delay slack of ``slack_fraction_ps`` × its worst
    baseline sink delay, then converts to capacitance through the net's
    mean line resistance: B_net = slack_ps / (R̄ · 1e-3).
    """
    if slack_fraction_ps < 0:
        raise FillError("slack fraction must be non-negative")
    budgets: dict[str, float] = {}
    for tree in layout.trees():
        delays = tree.elmore_delays()
        if not delays:
            continue
        slack_ps = max(delays.values()) * slack_fraction_ps
        resistances = [
            line.resistance_at(line.segment.high_coord) for line in tree.lines
        ]
        mean_res = sum(resistances) / len(resistances)
        if mean_res <= 0:
            continue
        budgets[tree.net.name] = slack_ps / (mean_res * OHM_FF_TO_PS)
    return budgets


def delta_cap_ff(costs: TileCosts, weighted: bool) -> np.ndarray:
    """Raw ΔC(n) (fF) per entry of ``costs.exact``.

    ``exact[n] = r̂ · ΔC(n) · OHM_FF_TO_PS`` with ``r̂ =
    resistance_weight(weighted)``, the flag the tables were built with;
    one division of each column's entries by its ``r̂ · OHM_FF_TO_PS``
    yields the capacitance each adjacent net receives. Columns without
    impact (or with ``r̂ = 0``) get all-zero entries.
    """
    divisors = [
        c.resistance_weight(weighted) * OHM_FF_TO_PS if c.has_impact else 0.0
        for c in costs.columns
    ]
    divisor = np.repeat(np.array(divisors, dtype=np.float64), costs.capacities + 1)
    out = np.zeros_like(costs.exact)
    np.divide(costs.exact, divisor, out=out, where=divisor > 0)
    return out
