"""ILP-II: the lookup-table integer program (paper Section 5.3).

Replaces ILP-I's linear capacitance with the exact per-column table
``f(n, d)`` through one-hot selector binaries ``m_{k,n}`` (Eqs. 18-20):

    m_k = Σ n · m_{k,n}        (Eq. 18)
    Σ_n m_{k,n} = 1            (Eq. 19)
    Cap_k = Σ f(n, d_k) m_{k,n}  (Eq. 20)

Note the published Eq. 19 sums from n = 1, which would force every column
to hold at least one feature; we include the n = 0 selector so empty
columns are representable (clearly the authors' intent — otherwise tiles
with more column capacity than budget would be infeasible).

Because the exact capacitance is modeled without approximation, ILP-II is
the reference-quality method: it dominates ILP-I and Greedy in the paper's
tables at 3-6× their runtime.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import FillError, SolverError, SolveTimeoutError
from repro.ilp import CompiledModel, solve
from repro.ilp.result import SolveStatus
from repro.obs.trace import TracerLike
from repro.pilfill.costs import TileCosts
from repro.pilfill.solution import TileSolution


def build_ilp2_model(costs: TileCosts, budget: int) -> tuple[CompiledModel, np.ndarray]:
    """One tile's one-hot selector model (Eqs. 17-21) as dense arrays, and
    the index of every ``m_k``.

    Variables: per column ``m_k``, then its selectors ``s_{k,0..capacity}``
    if it has sites. Rows: Eqs. 19 and 18 per such column, the budget. No
    inequality rows: the budgeted model appends its own.
    """
    sizes = (costs.capacities + 1).tolist()  # capacity + 1 per column
    width = [s + 1 if s > 1 else 1 for s in sizes]  # m_k and its selectors
    starts = list(itertools.accumulate(width, initial=0))
    n = starts.pop()
    m_at = np.array(starts, dtype=np.int64)
    open_m = [m for m, s in zip(starts, sizes, strict=True) if s > 1]
    open_sizes = [s for s in sizes if s > 1]
    # One entry per selector s_{k,j} of the columns with sites, in
    # variable order: its count j, its variable index and its Eq. 19 row.
    j = np.fromiter(
        itertools.chain.from_iterable(map(range, open_sizes)), np.int64, sum(open_sizes)
    )
    var = np.repeat(np.add(open_m, 1), open_sizes) + j
    row19 = np.repeat(np.arange(0, 2 * len(open_m), 2), open_sizes)
    c = np.zeros(n)
    a_eq = np.zeros((2 * len(open_m) + 1, n))
    b_eq = np.empty(len(a_eq))
    ub = np.ones(n)
    ub[m_at] = costs.capacities
    a_eq[row19, var] = 1.0  # Eq. 19: one selector is on
    a_eq[np.arange(1, 2 * len(open_m), 2), open_m] = 1.0  # Eq. 18: m_k - Σ j·s_{k,j} = 0
    a_eq[row19 + 1, var] = -j  # s_{k,0} gets -0, which is +0.0
    # Eq. 20 folded with Eq. 21; adding to +0.0 keeps a -0.0 entry out of
    # the objective, as a zero cost term is. A column without sites has
    # no selectors, so its lone 0.0 entry is skipped.
    exact = costs.exact[np.repeat(costs.capacities > 0, costs.capacities + 1)]
    on = j > 0
    c[var[on]] = np.add(0.0, exact[on])
    b_eq[0:-1:2] = 1.0
    # Eq. 18 moves m_k to the left side, so its right side is -0.0.
    b_eq[1:-1:2] = -0.0
    a_eq[-1, m_at] = 1.0  # Eq. 17
    b_eq[-1] = float(budget)
    model = CompiledModel(
        c=c,
        c0=0.0,
        a_ub=np.zeros((0, n)),
        b_ub=np.zeros(0),
        a_eq=a_eq,
        b_eq=b_eq,
        lb=np.zeros(n),
        ub=ub,
        integer=np.ones(n, dtype=bool),
    )
    return model, m_at


def solve_tile_ilp2(
    costs: TileCosts,
    budget: int,
    backend: str = "auto",
    time_limit: float | None = None,
    tracer: TracerLike | None = None,
) -> TileSolution:
    """Solve one tile with the ILP-II (lookup table) formulation.

    Args:
        costs: the tile's cost tables (the ``exact`` tables are used; the
            sink weights and upstream resistances are already folded in, so
            ``exact[n]`` is the Eq. 21 objective contribution directly).
        budget: features to place in this tile.
        backend: ILP backend (``bundled``/``scipy``/``auto``).
        time_limit: wall-clock deadline in seconds for this tile's solve;
            exceeding it raises :class:`SolveTimeoutError`.
    """
    if budget == 0:
        return TileSolution(counts=[0] * len(costs))
    if budget > costs.capacity:
        raise FillError(f"budget {budget} exceeds tile capacity {costs.capacity}")

    model, m_at = build_ilp2_model(costs, budget)
    result = solve(model, backend=backend, time_limit=time_limit, tracer=tracer)
    if result.status is SolveStatus.TIME_LIMIT:
        raise SolveTimeoutError(f"ILP-II tile solve hit the {time_limit}s deadline")
    if not result.status.is_optimal or result.x is None:
        raise SolverError(f"ILP-II tile solve failed: {result.status}")
    return TileSolution(
        counts=result.x[m_at].astype(int).tolist(),
        model_objective_ps=result.objective,
        nodes=result.nodes,
        iterations=result.iterations,
    )
