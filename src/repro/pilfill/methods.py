"""Per-tile method dispatch, shared by the engine and the process workers.

One tile's MDFC instance is fully described by its cost tables, the
feature budget, and (for the stochastic baseline) a tile-owned RNG —
nothing here touches the layout. Keeping the dispatch free of engine
state is what lets the process-pool backend ship a compact picklable
payload to a worker and get back the exact solution the in-process path
would have produced.

Solvers take a list of :class:`~repro.pilfill.costs.ColumnCosts` — the
same objects in-process, in pool workers (carried inline in each
:class:`~repro.pilfill.parallel.TilePayload`) and in parent-side retries.
"""

from __future__ import annotations

import random

from repro.errors import FillError
from repro.obs.trace import TracerLike
from repro.pilfill.costs import TileCosts
from repro.pilfill.dp import allocate_dp, allocation_cost
from repro.pilfill.greedy import solve_tile_greedy, solve_tile_greedy_marginal
from repro.pilfill.ilp1 import solve_tile_ilp1
from repro.pilfill.ilp2 import solve_tile_ilp2
from repro.pilfill.mvdc import solve_tile_mvdc
from repro.pilfill.solution import TileSolution


def solve_tile_normal(costs: TileCosts, budget: int, rng: random.Random) -> TileSolution:
    """The Normal baseline: timing-oblivious random spread over the tile's
    column sites (same site universe as the other methods so density
    control quality is identical — paper Section 6). The sampled site
    indices are recorded so the placement uses the exact sites that were
    drawn, not a column-prefix approximation of them."""
    slots = [(k, s) for k, cc in enumerate(costs) for s in range(cc.capacity)]
    chosen = rng.sample(slots, budget)
    counts = [0] * len(costs)
    picked: list[list[int]] = [[] for _ in costs]
    for k, s in chosen:
        counts[k] += 1
        picked[k].append(s)
    tables = [c.exact for c in costs]
    return TileSolution(
        counts=counts,
        model_objective_ps=allocation_cost(tables, counts),
        site_indices=tuple(tuple(sorted(p)) for p in picked),
    )


def solve_tile_method(
    costs: TileCosts,
    method: str,
    budget: int,
    weighted: bool,
    ilp_backend: str,
    rng: random.Random,
    time_limit: float | None = None,
    tracer: TracerLike | None = None,
    delay_budget_ps: float | None = None,
) -> TileSolution:
    """Solve one tile with the named method (see ``engine.METHODS``), or
    with ``"mvdc"``: the most features ``delay_budget_ps`` allows, capped
    at ``budget`` (see :mod:`repro.pilfill.mvdc`).

    ``time_limit`` is a wall-clock deadline in seconds for this tile; only
    the ILP methods can spend unbounded time, so only they enforce it (the
    combinatorial methods finish in microseconds on per-tile instances).
    ``tracer``, when given, is handed to the ILP backends so their solver
    spans nest under the caller's rung span.
    """
    if method == "ilp1":
        return solve_tile_ilp1(
            costs, budget, weighted, backend=ilp_backend, time_limit=time_limit, tracer=tracer
        )
    if method == "ilp2":
        return solve_tile_ilp2(
            costs, budget, backend=ilp_backend, time_limit=time_limit, tracer=tracer
        )
    if method == "greedy":
        return solve_tile_greedy(costs, budget)
    if method == "greedy_marginal":
        return solve_tile_greedy_marginal(costs, budget)
    if method == "dp":
        tables = [c.exact for c in costs]
        counts = allocate_dp(tables, budget)
        return TileSolution(counts=counts, model_objective_ps=allocation_cost(tables, counts))
    if method == "normal":
        return solve_tile_normal(costs, budget, rng)
    if method == "mvdc":
        if delay_budget_ps is None:
            raise FillError("method 'mvdc' needs a delay budget")
        solution = solve_tile_mvdc(costs, delay_budget_ps)
        # MVDC may not *need* the whole prescription; cap at it.
        if solution.total_features > budget:
            solution = trim_to(costs, solution, budget)
        return solution
    raise FillError(f"unknown method {method!r}")


def trim_to(costs: TileCosts, solution: TileSolution, want: int) -> TileSolution:
    """Drop the most expensive granted features until only ``want``
    remain (marginals are convex, so trimming from the top is optimal)."""
    counts = list(solution.counts)
    spent = solution.model_objective_ps
    while sum(counts) > want:
        worst_k, worst_marginal = -1, -1.0
        for k, cc in enumerate(costs):
            if counts[k] > 0:
                marginal = cc.exact[counts[k]] - cc.exact[counts[k] - 1]
                if marginal > worst_marginal:
                    worst_k, worst_marginal = k, marginal
        if worst_k < 0:
            # No column has a positive count yet sum(counts) > want:
            # the solution and cost tables disagree (e.g. counts longer
            # than costs). Refuse rather than corrupt counts[-1].
            raise FillError(
                "cannot trim solution: no column with a positive count "
                f"(counts={counts}, want={want})"
            )
        counts[worst_k] -= 1
        spent -= worst_marginal
    return TileSolution(counts=counts, model_objective_ps=spent)
