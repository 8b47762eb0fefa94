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

#: Below this many total feature slots the scalar heap wins on constant
#: factors; above it the vectorized selection dominates. Results are
#: identical either way.
_VECTOR_MIN_SLOTS = 64


def allocate_marginal_greedy(cost_tables: list[tuple[float, ...]], budget: int) -> list[int]:
    """Optimal allocation for convex cost tables via marginal greedy.

    Grants features to the globally cheapest next-feature marginals.
    Optimal when every table's marginals are nondecreasing (convexity),
    which holds for Eq. 5/Eq. 6 costs.

    Large instances take a vectorized path — an
    ``np.argpartition``-based selection of the ``budget`` cheapest
    marginals with the heap's exact tie-breaking (marginal, then column
    index, then position) — that returns the same counts as the scalar
    heap (:func:`allocate_marginal_greedy_scalar`). Non-convex tables
    (where the heap's incremental behavior differs from global selection)
    fall back to the scalar path, preserving its legacy behavior exactly.

    Args:
        cost_tables: per column, cost of 0..C_k features (entry 0 must be 0).
        budget: exact total features to allocate.

    Returns:
        Features per column, summing to ``budget``.

    Raises:
        FillError: when the budget exceeds total capacity.
    """
    capacity = sum(len(t) - 1 for t in cost_tables)
    if budget < 0:
        raise FillError(f"budget must be non-negative, got {budget}")
    if budget > capacity:
        raise FillError(f"budget {budget} exceeds total column capacity {capacity}")
    if budget == 0:
        return [0] * len(cost_tables)
    if budget == capacity:
        return [len(t) - 1 for t in cost_tables]
    if capacity < _VECTOR_MIN_SLOTS:
        return allocate_marginal_greedy_scalar(cost_tables, budget)

    # Flatten every column's marginal vector; flat order is (column,
    # position) lexicographic, which is exactly the heap's tie order.
    # One flat concatenation + one diff, rather than a numpy call per
    # table — with thousands of short tables the per-array overhead
    # would otherwise dominate.
    lengths = np.fromiter((len(t) for t in cost_tables), dtype=np.int64, count=len(cost_tables))
    flat = np.fromiter(
        (v for t in cost_tables for v in t), dtype=np.float64, count=int(lengths.sum())
    )
    diffs = np.diff(flat)
    # Drop the diffs that straddle a table boundary (last entry of one
    # table to first entry of the next); what remains are the per-column
    # marginals in (column, position) order.
    boundary = np.cumsum(lengths)[:-1] - 1
    keep = np.ones(diffs.size, dtype=bool)
    keep[boundary] = False
    marginals = diffs[keep]
    cols = np.repeat(np.arange(len(cost_tables)), lengths - 1)

    # Convexity check: within-column marginals must be nondecreasing.
    same_col = cols[1:] == cols[:-1]
    if same_col.any() and (np.diff(marginals)[same_col] < 0.0).any():
        return allocate_marginal_greedy_scalar(cost_tables, budget)

    # The budget cheapest marginals; ties at the cut resolve in flat
    # (column, position) order, matching the heap's (marginal, k) order.
    part = np.argpartition(marginals, budget - 1)[:budget]
    threshold = marginals[part].max()
    below = np.flatnonzero(marginals < threshold)
    ties = np.flatnonzero(marginals == threshold)[: budget - below.size]
    chosen = np.concatenate([below, ties])
    counts = np.bincount(cols[chosen], minlength=len(cost_tables))
    return [int(c) for c in counts]


def allocate_marginal_greedy_scalar(
    cost_tables: list[tuple[float, ...]], budget: int
) -> list[int]:
    """Scalar heap reference for :func:`allocate_marginal_greedy`.

    Repeatedly grants one more feature to the column with the cheapest
    next-feature marginal cost (ties to the lowest column index). Kept as
    the verification oracle the property tests pin the vectorized path
    against, and as the fallback for tiny or non-convex instances.
    """
    capacity = sum(len(t) - 1 for t in cost_tables)
    if budget < 0:
        raise FillError(f"budget must be non-negative, got {budget}")
    if budget > capacity:
        raise FillError(f"budget {budget} exceeds total column capacity {capacity}")

    counts = [0] * len(cost_tables)
    heap: list[tuple[float, int]] = []
    for k, table in enumerate(cost_tables):
        if len(table) > 1:
            heapq.heappush(heap, (table[1] - table[0], k))
    for _ in range(budget):
        marginal, k = heapq.heappop(heap)
        counts[k] += 1
        table = cost_tables[k]
        nxt = counts[k] + 1
        if nxt < len(table):
            heapq.heappush(heap, (table[nxt] - table[counts[k]], k))
    return counts


def allocate_dp(cost_tables: list[tuple[float, ...]], budget: int) -> list[int]:
    """Exact allocation by dynamic programming (no convexity assumption).

    O(K · F · C_max) time — intended for verification and modest tiles.
    """
    capacity = sum(len(t) - 1 for t in cost_tables)
    if budget < 0:
        raise FillError(f"budget must be non-negative, got {budget}")
    if budget > capacity:
        raise FillError(f"budget {budget} exceeds total column capacity {capacity}")

    inf = float("inf")
    # best[f] = minimal cost to allocate f features among processed columns.
    best = [0.0] + [inf] * budget
    choice: list[list[int]] = []
    for table in cost_tables:
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

    counts = [0] * len(cost_tables)
    f = budget
    for k in range(len(cost_tables) - 1, -1, -1):
        n = choice[k][f]
        counts[k] = n
        f -= n
    assert f == 0
    return counts


def allocation_cost(cost_tables: list[tuple[float, ...]], counts: list[int]) -> float:
    """Objective value of an allocation."""
    if len(counts) != len(cost_tables):
        raise FillError("counts/cost_tables length mismatch")
    total = 0.0
    for table, n in zip(cost_tables, counts, strict=True):
        if not 0 <= n < len(table):
            raise FillError(f"count {n} outside table range 0..{len(table) - 1}")
        total += table[n]
    return total
