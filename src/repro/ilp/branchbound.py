"""Branch-and-bound MILP solver over the bundled simplex.

Substitutes the paper's CPLEX 7.0. Design:

* LP relaxations via :func:`repro.ilp.simplex.solve_lp`; general variable
  bounds are handled by shifting finite lower bounds to zero and passing
  the shifted upper bounds, which the simplex writes as explicit rows,
* best-first node selection on the parent relaxation bound,
* branching on the most fractional integer variable,
* a root rounding heuristic to seed the incumbent,
* pruning with a small absolute tolerance so ties resolve deterministically.

The per-tile PIL-Fill instances are small (tens to a few hundred
variables); for larger models use the scipy/HiGHS backend
(:mod:`repro.ilp.scipy_backend`), which takes the same
:class:`~repro.ilp.model.CompiledModel` arrays.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.ilp.model import CompiledModel
from repro.ilp.result import LPResult, SolveResult, SolveStatus
from repro.ilp.simplex import solve_lp
from repro.obs.trace import NULL_TRACER, TracerLike

#: Integrality tolerance.
INT_TOL = 1e-6
#: Pruning tolerance.
PRUNE_TOL = 1e-9


@dataclass
class _Node:
    bound: float
    lb: np.ndarray
    ub: np.ndarray


def _solve_relaxation(
    compiled: CompiledModel, lb: np.ndarray, ub: np.ndarray
) -> tuple[LPResult | _ShiftedLP | None, int]:
    """LP relaxation with per-node bounds: shift lb to 0, bound the rest above."""
    if np.isneginf(lb).any():
        raise SolverError(
            "bundled branch-and-bound requires finite lower bounds; "
            "use the scipy backend for free variables"
        )
    if (lb > ub + 1e-12).any():
        return None, 0  # empty box
    shift = lb
    b_ub = compiled.b_ub - compiled.a_ub @ shift if compiled.a_ub.size else compiled.b_ub
    b_eq = compiled.b_eq - compiled.a_eq @ shift if compiled.a_eq.size else compiled.b_eq
    res = solve_lp(compiled.c, compiled.a_ub, b_ub, compiled.a_eq, b_eq, upper=ub - lb)
    if res.status is not SolveStatus.OPTIMAL:
        return res, res.iterations
    x = res.x + shift
    return _ShiftedLP(res.objective + float(compiled.c @ shift), x), res.iterations


@dataclass
class _ShiftedLP:
    objective: float
    x: np.ndarray


def solve_branch_and_bound(
    model: CompiledModel,
    max_nodes: int = 100000,
    time_limit: float | None = None,
    tracer: TracerLike | None = None,
) -> SolveResult:
    """Solve a mixed-integer model to optimality (within tolerances).

    Returns OPTIMAL with the solution vector, INFEASIBLE, UNBOUNDED (when the
    root relaxation is unbounded), or NODE_LIMIT / TIME_LIMIT with the best
    incumbent found so far (if any). ``time_limit`` is wall-clock seconds;
    the deadline is checked between nodes, so a single huge LP relaxation
    can overshoot it (per-tile models are small enough that this is moot).
    ``tracer``, when given, records an ``ilp.branchbound`` span with the
    variable count, node count, and final status.
    """
    trc = tracer if tracer is not None else NULL_TRACER
    with trc.span("ilp.branchbound", vars=model.c.size) as span:
        result = _branch_and_bound(model, max_nodes, time_limit)
        span.set("status", result.status.name)
        span.set("nodes", result.nodes)
        return result


def _branch_and_bound(
    compiled: CompiledModel,
    max_nodes: int,
    time_limit: float | None,
) -> SolveResult:
    deadline = None if time_limit is None else time.monotonic() + time_limit
    int_idx = np.flatnonzero(compiled.integer)

    total_iters = 0
    nodes_explored = 0
    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf

    def consider(x: np.ndarray, obj: float) -> None:
        nonlocal incumbent_x, incumbent_obj
        if obj < incumbent_obj - PRUNE_TOL:
            incumbent_obj = obj
            incumbent_x = x.copy()

    def is_feasible(x: np.ndarray) -> bool:
        if compiled.a_ub.size and np.any(compiled.a_ub @ x > compiled.b_ub + 1e-7):
            return False
        if compiled.a_eq.size and np.any(np.abs(compiled.a_eq @ x - compiled.b_eq) > 1e-7):
            return False
        if np.any(x < compiled.lb - 1e-9) or np.any(x > compiled.ub + 1e-9):
            return False
        return True

    # Root relaxation.
    root, iters = _solve_relaxation(compiled, compiled.lb.copy(), compiled.ub.copy())
    total_iters += iters
    if root is None:
        return SolveResult(SolveStatus.INFEASIBLE, None, math.nan, 0, total_iters)
    if not isinstance(root, _ShiftedLP):
        if root.status is SolveStatus.UNBOUNDED:
            return SolveResult(SolveStatus.UNBOUNDED, None, -math.inf, 0, total_iters)
        return SolveResult(SolveStatus(root.status.value), None, math.nan, 0, total_iters)

    # Root heuristic: round to the nearest integer point in the box.
    if int_idx.size:
        rounded = root.x.copy()
        rounded[int_idx] = np.clip(
            np.round(rounded[int_idx]), compiled.lb[int_idx], compiled.ub[int_idx]
        )
        if is_feasible(rounded):
            consider(rounded, float(compiled.c @ rounded))

    counter = itertools.count()  # heap tie-breaker
    heap: list[tuple[float, int, _Node]] = []
    heapq.heappush(
        heap, (root.objective, next(counter), _Node(root.objective, compiled.lb.copy(), compiled.ub.copy()))
    )

    status = SolveStatus.OPTIMAL
    while heap:
        if nodes_explored >= max_nodes:
            status = SolveStatus.NODE_LIMIT
            break
        if deadline is not None and time.monotonic() >= deadline:
            status = SolveStatus.TIME_LIMIT
            break
        bound, _tie, node = heapq.heappop(heap)
        if bound >= incumbent_obj - PRUNE_TOL:
            continue  # pruned by incumbent
        relax, iters = _solve_relaxation(compiled, node.lb, node.ub)
        total_iters += iters
        nodes_explored += 1
        if relax is None or not isinstance(relax, _ShiftedLP):
            continue  # infeasible box
        if relax.objective >= incumbent_obj - PRUNE_TOL:
            continue
        x = relax.x
        frac = np.abs(x[int_idx] - np.round(x[int_idx])) if int_idx.size else np.array([])
        if frac.size == 0 or frac.max() <= INT_TOL:
            clean = x.copy()
            if int_idx.size:
                clean[int_idx] = np.round(clean[int_idx])
            consider(clean, float(compiled.c @ clean))
            continue
        # Branch on the most fractional integer variable.
        branch_var = int(int_idx[int(np.argmax(frac))])
        floor_val = math.floor(x[branch_var] + INT_TOL)
        lo_node = _Node(relax.objective, node.lb.copy(), node.ub.copy())
        lo_node.ub[branch_var] = floor_val
        hi_node = _Node(relax.objective, node.lb.copy(), node.ub.copy())
        hi_node.lb[branch_var] = floor_val + 1
        heapq.heappush(heap, (relax.objective, next(counter), lo_node))
        heapq.heappush(heap, (relax.objective, next(counter), hi_node))

    if incumbent_x is None:
        if status in (SolveStatus.NODE_LIMIT, SolveStatus.TIME_LIMIT):
            return SolveResult(status, None, math.nan, nodes_explored, total_iters)
        return SolveResult(SolveStatus.INFEASIBLE, None, math.nan, nodes_explored, total_iters)

    objective = float(compiled.c @ incumbent_x + compiled.c0)
    return SolveResult(
        status, compiled.rounded(incumbent_x), objective, nodes_explored, total_iters
    )
