"""Shared FillResult invariant checks.

Used by the engine tests and the fault-injection suite: whatever happens
during a run — clean solve, method degradation, retries, failed tiles —
these structural properties must hold for the result to be a valid fill.
"""

from __future__ import annotations


def assert_fill_invariants(result, prepared=None, weighted: bool = True) -> None:
    """Assert the structural invariants of a :class:`FillResult`.

    * every tile's placed count stays within its effective budget, and
      the effective budget never exceeds the requested one,
    * the flat feature list is consistent with the per-tile solutions
      (same total, no duplicated rectangles),
    * with ``prepared`` given: per-column counts respect column capacity
      and every placed rectangle is a legal slack site of its column.
    """
    # Budgets: effective <= requested per tile (where both known).
    for key, effective in result.effective_budget.items():
        assert effective >= 0, f"tile {key}: negative effective budget"
        if key in result.requested_budget:
            assert effective <= result.requested_budget[key], (
                f"tile {key}: effective budget {effective} exceeds "
                f"requested {result.requested_budget[key]}"
            )

    total_from_tiles = 0
    for key, solution in result.tile_solutions.items():
        placed = solution.total_features
        total_from_tiles += placed
        assert placed >= 0, f"tile {key}: negative feature count"
        effective = result.effective_budget.get(key)
        if effective is not None:
            assert placed <= effective, (
                f"tile {key}: placed {placed} > effective budget {effective}"
            )
        assert all(c >= 0 for c in solution.counts), f"tile {key}: negative column count"

    assert result.total_features == total_from_tiles, (
        f"feature list ({result.total_features}) disagrees with per-tile "
        f"solutions ({total_from_tiles})"
    )

    rects = [f.rect for f in result.features]
    assert len(rects) == len(set(rects)), "duplicate fill rectangles (overfill)"

    # Reports, when present, must refer to known tiles and be coherent.
    for key, report in result.solve_reports.items():
        assert report.key == key
        if report.failed:
            solution = result.tile_solutions.get(key)
            if solution is not None:
                assert solution.total_features == 0, (
                    f"tile {key}: marked failed but has features"
                )

    if prepared is None:
        return

    costs_by_tile = prepared.costs_for(weighted)
    legal_sites = set()
    for key, solution in result.tile_solutions.items():
        costs = costs_by_tile.get(key)
        capacities = [] if costs is None else costs.capacities.tolist()
        assert len(solution.counts) == len(capacities), (
            f"tile {key}: {len(solution.counts)} counts vs {len(capacities)} columns"
        )
        columns = prepared.columns_by_tile.get(key, [])
        for k, (capacity, column) in enumerate(zip(capacities, columns, strict=True)):
            assert solution.counts[k] <= capacity, (
                f"tile {key} column {k}: count {solution.counts[k]} exceeds "
                f"capacity {capacity}"
            )
            legal_sites.update(column.sites)
    for rect in rects:
        assert rect in legal_sites, f"feature at {rect} is not on a legal slack site"
