"""Exact solvers for the per-tile separable MDFC problem.

The per-tile problem — minimize Σ_k cost_k(m_k) subject to Σ m_k = F,
0 ≤ m_k ≤ C_k integer — is a *separable resource allocation* problem.
When every cost table is convex in m (true for both the exact and linear
capacitance models), the marginal-greedy allocation is provably optimal;
a classic dynamic program solves the general (non-convex) case.

These serve three roles: a fast exact method in their own right (an
extension beyond the paper), the verification oracle for ILP-II in the
test suite, and the engine's fallback for very large tiles.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import FillError
from repro.pilfill.costs import TileCosts

#: Below this many total feature slots the scalar heap wins on constant
#: factors; above it the vectorized selection dominates. Results are
#: identical either way.
_VECTOR_MIN_SLOTS = 64


def _check_budget(costs: TileCosts, budget: int) -> None:
    if budget < 0:
        raise FillError(f"budget must be non-negative, got {budget}")
    if budget > costs.capacity:
        raise FillError(f"budget {budget} exceeds total column capacity {costs.capacity}")


def allocate_marginal_greedy(costs: TileCosts, budget: int) -> list[int]:
    """Optimal allocation for convex cost tables via marginal greedy.

    Grants features to the globally cheapest next-feature marginals of the
    ``exact`` tables. Optimal when every table's marginals are
    nondecreasing (convexity), which holds for Eq. 5/Eq. 6 costs.

    Large instances take a vectorized path — an
    ``np.argpartition``-based selection of the ``budget`` cheapest
    marginals with the heap's exact tie-breaking (marginal, then column
    index, then position) — that returns the same counts as the scalar
    heap (:func:`allocate_marginal_greedy_scalar`). Non-convex tables
    (where the heap's incremental behavior differs from global selection)
    fall back to the scalar path, preserving its legacy behavior exactly.

    Args:
        costs: the tile's cost tables (entry 0 of each must be 0).
        budget: exact total features to allocate.

    Returns:
        Features per column, summing to ``budget``.

    Raises:
        FillError: when the budget exceeds total capacity.
    """
    _check_budget(costs, budget)
    if budget == 0:
        return [0] * len(costs)
    if budget == costs.capacity:
        return costs.capacities.tolist()
    if costs.capacity < _VECTOR_MIN_SLOTS:
        return allocate_marginal_greedy_scalar(costs, budget)

    # Marginals in (column, position) order, which is exactly the heap's
    # tie order.
    marginals = costs.marginals()
    cols = np.repeat(np.arange(len(costs)), costs.capacities)

    # Convexity check: within-column marginals must be nondecreasing.
    same_col = cols[1:] == cols[:-1]
    if same_col.any() and (np.diff(marginals)[same_col] < 0.0).any():
        return allocate_marginal_greedy_scalar(costs, budget)

    # The budget cheapest marginals; ties at the cut resolve in flat
    # (column, position) order, matching the heap's (marginal, k) order.
    part = np.argpartition(marginals, budget - 1)[:budget]
    threshold = marginals[part].max()
    below = np.flatnonzero(marginals < threshold)
    ties = np.flatnonzero(marginals == threshold)[: budget - below.size]
    chosen = np.concatenate([below, ties])
    counts = np.bincount(cols[chosen], minlength=len(costs))
    return [int(c) for c in counts]


def allocate_marginal_greedy_scalar(costs: TileCosts, budget: int) -> list[int]:
    """Scalar heap reference for :func:`allocate_marginal_greedy`.

    Repeatedly grants one more feature to the column with the cheapest
    next-feature marginal cost (ties to the lowest column index). Kept as
    the verification oracle the property tests pin the vectorized path
    against, and as the fallback for tiny or non-convex instances.
    """
    _check_budget(costs, budget)
    exact, at = costs.exact.tolist(), costs.offsets()
    caps = costs.capacities.tolist()
    counts = [0] * len(caps)
    heap: list[tuple[float, int]] = []
    for k, cap in enumerate(caps):
        if cap > 0:
            heapq.heappush(heap, (exact[at[k] + 1] - exact[at[k]], k))
    for _ in range(budget):
        marginal, k = heapq.heappop(heap)
        counts[k] += 1
        if counts[k] < caps[k]:
            n = at[k] + counts[k]
            heapq.heappush(heap, (exact[n + 1] - exact[n], k))
    return counts


def allocate_dp(costs: TileCosts, budget: int) -> list[int]:
    """Exact allocation by dynamic programming (no convexity assumption).

    O(K · F · C_max) time — intended for verification and modest tiles.
    """
    _check_budget(costs, budget)
    exact, at = costs.exact.tolist(), costs.offsets()
    inf = float("inf")
    # best[f] = minimal cost to allocate f features among processed columns.
    best = [0.0] + [inf] * budget
    choice: list[list[int]] = []
    for start, end in zip(at[:-1], at[1:], strict=True):
        table = exact[start:end]
        cmax = len(table) - 1
        new = [inf] * (budget + 1)
        pick = [0] * (budget + 1)
        for f in range(budget + 1):
            for n in range(0, min(cmax, f) + 1):
                cand = best[f - n] + table[n]
                if cand < new[f] - 1e-15:
                    new[f] = cand
                    pick[f] = n
        best = new
        choice.append(pick)

    counts = [0] * len(costs)
    f = budget
    for k in range(len(costs) - 1, -1, -1):
        n = choice[k][f]
        counts[k] = n
        f -= n
    assert f == 0
    return counts


def allocation_cost(costs: TileCosts, counts: list[int]) -> float:
    """Objective value of an allocation: the ``exact`` entries of
    ``counts``, summed as Python floats in column order."""
    if len(counts) != len(costs):
        raise FillError("counts/cost tables length mismatch")
    exact = costs.exact.tolist()
    total = 0.0
    for at, cap, n in zip(costs.offsets()[:-1], costs.capacities.tolist(), counts, strict=True):
        if not 0 <= n <= cap:
            raise FillError(f"count {n} outside table range 0..{cap}")
        total += exact[at + n]
    return total
