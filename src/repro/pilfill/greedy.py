"""The Greedy PIL-Fill method (paper Fig. 8).

Per tile: score every slack column by its *whole-column* delay — the exact
capacitance of filling it to capacity times the cumulative weighted
resistance r̂_k (Fig. 8 lines 11-13) — then fill columns cheapest-first,
each to capacity (or to the remaining budget), deleting them as they fill
(lines 15-19).

The whole-column score is the published algorithm's weakness: a large
cheap-per-feature column can be passed over for a small expensive one.
The marginal variant (:func:`solve_tile_greedy_marginal`) fixes this and —
because the cost tables are convex — is actually *optimal*, matching
ILP-II; it is provided as an extension/ablation beyond the paper.
"""

from __future__ import annotations

from repro.errors import FillError
from repro.pilfill.costs import TileCosts
from repro.pilfill.dp import allocate_marginal_greedy, allocation_cost
from repro.pilfill.solution import TileSolution


def solve_tile_greedy(costs: TileCosts, budget: int) -> TileSolution:
    """Solve one tile with the paper's Greedy algorithm (Fig. 8)."""
    if budget == 0:
        return TileSolution(counts=[0] * len(costs))
    if budget > costs.capacity:
        raise FillError(f"budget {budget} exceeds tile capacity {costs.capacity}")

    # Fig. 8 line 13: sort by whole-column delay r̂_k · Cap(C_k); our cost
    # tables already fold r̂ in, so the score is the column's last exact
    # entry. Ties resolve by column index for determinism.
    exact = costs.exact.tolist()
    whole = [exact[end - 1] for end in costs.offsets()[1:]]
    order = sorted(range(len(costs)), key=lambda k: (whole[k], k))
    caps = costs.capacities.tolist()
    counts = [0] * len(costs)
    remaining = budget
    for k in order:
        if remaining == 0:
            break
        take = min(remaining, caps[k])
        counts[k] = take
        remaining -= take
    return TileSolution(counts=counts, model_objective_ps=allocation_cost(costs, counts))


def solve_tile_greedy_marginal(costs: TileCosts, budget: int) -> TileSolution:
    """Extension: marginal-cost greedy (optimal for the convex exact
    model). Not in the paper; used for the ablation benchmarks."""
    if budget == 0:
        return TileSolution(counts=[0] * len(costs))
    counts = allocate_marginal_greedy(costs, budget)
    return TileSolution(counts=counts, model_objective_ps=allocation_cost(costs, counts))
