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
from repro.pilfill.costs import ColumnCosts
from repro.pilfill.ilp2 import build_ilp2_model
from repro.pilfill.solution import TileSolution


@dataclass
class BudgetedOutcome:
    """Solution of one budgeted tile plus the capacitance actually used."""

    solution: TileSolution
    cap_used_ff: dict[str, float]
    feasible: bool


def build_budgeted_model(
    costs: list[ColumnCosts],
    cap_tables: list[tuple[float, ...]],
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
    for k, (cc, caps) in enumerate(zip(costs, cap_tables, strict=True)):
        cap = cc.capacity
        if cap == 0 or not cc.column.has_impact or not any(caps[1 : cap + 1]):
            continue
        selectors = slice(int(m_at[k]) + 2, int(m_at[k]) + cap + 2)
        for neighbor in (cc.column.below, cc.column.above):
            if neighbor is None or neighbor.net not in net_budgets_ff:
                continue
            row = rows.get(neighbor.net)
            if row is None:
                row = rows[neighbor.net] = np.zeros(model.c.size)
            row[selectors] += caps[1 : cap + 1]  # a zero ΔC leaves +0.0
    if rows:
        model.a_ub = np.array(list(rows.values()))
        # Moving B_net across the sense and back turns a ±0.0 into -0.0.
        model.b_ub = -(0.0 - np.array([float(net_budgets_ff[net]) for net in rows]))
    return model, m_at


def solve_tile_budgeted_ilp(
    costs: list[ColumnCosts],
    cap_tables: list[tuple[float, ...]],
    budget: int,
    net_budgets_ff: dict[str, float],
    backend: str = "auto",
    time_limit: float | None = None,
) -> BudgetedOutcome:
    """Exact per-tile solve with per-net capacitance budgets.

    Args:
        costs: per-column cost tables (exact delay model).
        cap_tables: per-column ΔC(n) in fF (parallel to ``costs``) — the
            raw capacitance each count adds to *each* adjacent net.
        budget: features to place in this tile.
        net_budgets_ff: remaining capacitance budget per net name; nets
            absent from the mapping are unconstrained.

    Returns:
        A :class:`BudgetedOutcome`; ``feasible=False`` when no placement
        satisfies every budget (the caller may then relax or report).
    """
    if budget == 0:
        return BudgetedOutcome(TileSolution(counts=[0] * len(costs)), {}, True)
    capacity = sum(c.capacity for c in costs)
    if budget > capacity:
        raise FillError(f"budget {budget} exceeds tile capacity {capacity}")

    model, m_at = build_budgeted_model(costs, cap_tables, budget, net_budgets_ff)
    result = solve(model, backend=backend, time_limit=time_limit)
    if not result.status.is_optimal or result.x is None:
        # Includes TIME_LIMIT: the caller already has a budgeted-greedy
        # fallback for infeasible outcomes, which covers timeouts too.
        return BudgetedOutcome(TileSolution(counts=[0] * len(costs)), {}, False)
    counts = result.x[m_at].astype(int).tolist()
    used = _cap_used(costs, cap_tables, counts)
    solution = TileSolution(
        counts=counts,
        model_objective_ps=result.objective,
        nodes=result.nodes,
        iterations=result.iterations,
    )
    return BudgetedOutcome(solution, used, True)


def solve_tile_budgeted_greedy(
    costs: list[ColumnCosts],
    cap_tables: list[tuple[float, ...]],
    budget: int,
    net_budgets_ff: dict[str, float],
) -> BudgetedOutcome:
    """Marginal greedy that respects per-net capacitance budgets.

    Grants the cheapest next feature whose ΔC fits in both adjacent nets'
    remaining budgets; columns that would breach a budget are frozen. May
    return fewer than ``budget`` features when the budgets bind —
    ``feasible`` reflects whether the full count was placed.
    """
    remaining = dict(net_budgets_ff)
    counts = [0] * len(costs)
    spent = 0.0

    heap: list[tuple[float, int]] = []
    for k, cc in enumerate(costs):
        if cc.capacity > 0:
            heapq.heappush(heap, (cc.exact[1] - cc.exact[0], k))

    placed = 0
    frozen: set[int] = set()
    while placed < budget and heap:
        marginal, k = heapq.heappop(heap)
        if k in frozen:
            continue
        cc, caps = costs[k], cap_tables[k]
        nxt = counts[k] + 1
        delta_cap = caps[nxt] - caps[counts[k]]
        nets = []
        if cc.column.has_impact:
            nets = [
                n.net for n in (cc.column.below, cc.column.above)
                if n is not None and n.net in remaining
            ]
        if any(remaining[n] < delta_cap - 1e-15 for n in nets):
            frozen.add(k)
            continue
        counts[k] = nxt
        for n in nets:
            remaining[n] -= delta_cap
        spent += marginal
        placed += 1
        if nxt < len(cc.exact) - 1:
            heapq.heappush(heap, (cc.exact[nxt + 1] - cc.exact[nxt], k))

    used = _cap_used(costs, cap_tables, counts)
    solution = TileSolution(counts=counts, model_objective_ps=spent)
    return BudgetedOutcome(solution, used, placed == budget)


def _cap_used(
    costs: list[ColumnCosts],
    cap_tables: list[tuple[float, ...]],
    counts: list[int],
) -> dict[str, float]:
    used: dict[str, float] = defaultdict(float)
    for cc, caps, n in zip(costs, cap_tables, counts, strict=True):
        if n == 0 or not cc.column.has_impact:
            continue
        for neighbor in (cc.column.below, cc.column.above):
            if neighbor is not None:
                used[neighbor.net] += caps[n]
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


def build_cap_tables(costs: list[ColumnCosts], weighted: bool) -> list[tuple[float, ...]]:
    """Recover raw ΔC(n) (fF) per column from its cost tables.

    ``exact[n] = r̂ · ΔC(n) · OHM_FF_TO_PS`` with ``r̂ =
    resistance_weight(weighted)``, the flag the tables were built with;
    dividing it back out yields the capacitance each adjacent net
    receives. Columns without impact (or with ``r̂ = 0``) get all-zero
    tables.
    """
    out: list[tuple[float, ...]] = []
    for cc in costs:
        divisor = cc.column.resistance_weight(weighted) * OHM_FF_TO_PS
        if not cc.column.has_impact or divisor <= 0:
            out.append(tuple(0.0 for _ in range(cc.capacity + 1)))
            continue
        out.append(tuple(v / divisor for v in cc.exact))
    return out
