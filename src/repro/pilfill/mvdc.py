"""MVDC: Minimum Variation with Delay Constraint (paper footnote ‡ and
Section 7).

The dual of MDFC: instead of "place exactly F features with minimum delay
impact", MVDC asks "place as *much* fill as possible (to minimize density
variation) subject to an upper bound on delay impact". The paper mentions
studying this formulation but found it "less tractable to optimization
heuristics" and does not develop it; this module provides the natural
per-tile solution as an extension.

Per tile the problem is: maximize Σ m_k subject to Σ cost_k(m_k) ≤ D and
0 ≤ m_k ≤ C_k. With convex cost tables, granting features in ascending
marginal-cost order is optimal (exchange argument: any feasible allocation
can be transformed into the greedy one without reducing the count or
raising the cost), so the solver is an exact marginal greedy.
"""

from __future__ import annotations

import heapq
from typing import Mapping

from repro.errors import FillError
from repro.pilfill.costs import TileCosts
from repro.pilfill.solution import TileSolution


def solve_tile_mvdc(costs: TileCosts, delay_budget_ps: float) -> TileSolution:
    """Maximize feature count in one tile under a delay-impact cap.

    Args:
        costs: the tile's cost tables (exact model).
        delay_budget_ps: upper bound on the summed column delay impact, ps.

    Returns:
        The allocation with the most features whose modeled impact does not
        exceed the budget; among equal counts, the cheapest.
    """
    if delay_budget_ps < 0:
        raise FillError(f"delay budget must be non-negative, got {delay_budget_ps}")

    exact, at = costs.exact.tolist(), costs.offsets()
    caps = costs.capacities.tolist()
    counts = [0] * len(costs)
    spent = 0.0
    heap: list[tuple[float, int]] = []
    for k, cap in enumerate(caps):
        if cap > 0:
            heapq.heappush(heap, (exact[at[k] + 1] - exact[at[k]], k))
    while heap:
        marginal, k = heapq.heappop(heap)
        if spent + marginal > delay_budget_ps + 1e-15:
            # Convex marginals: every remaining step in this column is at
            # least as expensive, but a *different* column may still have a
            # cheaper next step — the heap ordering guarantees it doesn't.
            break
        counts[k] += 1
        spent += marginal
        if counts[k] < caps[k]:
            n = at[k] + counts[k]
            heapq.heappush(heap, (exact[n + 1] - exact[n], k))
    return TileSolution(counts=counts, model_objective_ps=spent)


def derive_tile_delay_budgets(
    requested: dict[tuple[int, int], int],
    costs_by_tile: Mapping[tuple[int, int], TileCosts],
    slack_fraction: float,
) -> dict[tuple[int, int], float]:
    """Heuristic per-tile delay budgets for an MVDC run.

    Budgets each tile at ``slack_fraction`` of the delay impact the *worst*
    placement of its requested feature count would cause — so the knob is
    interpretable: 1.0 means "no better than the worst case", 0.0 means
    "free columns only".
    """
    if not 0.0 <= slack_fraction <= 1.0:
        raise FillError(f"slack_fraction must be in [0, 1], got {slack_fraction}")
    budgets: dict[tuple[int, int], float] = {}
    for key, costs in costs_by_tile.items():
        want = requested.get(key, 0)
        if want <= 0 or not costs:
            budgets[key] = 0.0
            continue
        # Worst case: most expensive marginals first, summed as Python
        # floats.
        marginals = costs.marginals().tolist()
        marginals.sort(reverse=True)
        worst = sum(marginals[:want])
        budgets[key] = worst * slack_fraction
    return budgets
