"""The bundled simplex and branch-and-bound before the in-place tableau.

This is :mod:`repro.ilp.simplex` and :mod:`repro.ilp.branchbound` as they
were when every LP assembled its tableau with ``hstack`` and Python loops,
every pivot built an ``np.outer`` and every branch-and-bound node stacked
its upper-bound rows under ``A_ub``. The code is kept unchanged (only the
tracer span is left out), so ``tests/test_simplex_oracle.py`` can show that
the engine in ``src`` takes the same pivots: the same status, iterations,
nodes, solution bytes and objective repr on every model.
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

#: Feasibility / optimality tolerance.
TOL = 1e-9


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    max_iter: int = 20000,
) -> LPResult:
    """Solve the standard-form LP; see module docstring.

    Returns an :class:`LPResult` whose ``x`` is None unless the status is
    OPTIMAL.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    a_ub = np.asarray(a_ub, dtype=np.float64).reshape(-1, n)
    a_eq = np.asarray(a_eq, dtype=np.float64).reshape(-1, n)
    b_ub = np.asarray(b_ub, dtype=np.float64).ravel()
    b_eq = np.asarray(b_eq, dtype=np.float64).ravel()
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    if m == 0:
        # Only the trivial nonnegativity region: optimum at 0 unless some
        # cost is negative (then unbounded).
        if np.any(c < -TOL):
            return LPResult(SolveStatus.UNBOUNDED, None, -np.inf, 0)
        return LPResult(SolveStatus.OPTIMAL, np.zeros(n), 0.0, 0)

    # Assemble rows [A | slack | artificial | b] with b >= 0.
    rows = np.zeros((m, n))
    rhs = np.zeros(m)
    rows[:m_ub] = a_ub
    rhs[:m_ub] = b_ub
    rows[m_ub:] = a_eq
    rhs[m_ub:] = b_eq

    slack = np.zeros((m, m_ub))
    for i in range(m_ub):
        slack[i, i] = 1.0

    flip = rhs < 0
    rows[flip] *= -1.0
    rhs[flip] *= -1.0
    slack[flip] *= -1.0

    # Rows needing an artificial: all eq rows plus flipped ub rows (their
    # slack became a surplus and can't seed the basis).
    needs_art = np.ones(m, dtype=bool)
    for i in range(m_ub):
        if not flip[i]:
            needs_art[i] = False
    art_rows = np.flatnonzero(needs_art)
    n_art = art_rows.size

    art = np.zeros((m, n_art))
    for j, i in enumerate(art_rows):
        art[i, j] = 1.0

    tableau = np.hstack([rows, slack, art, rhs[:, None]])
    ncols = n + m_ub + n_art

    # Initial basis: slack for clean ub rows, artificial otherwise.
    basis = np.empty(m, dtype=np.int64)
    art_counter = 0
    for i in range(m):
        if needs_art[i]:
            basis[i] = n + m_ub + art_counter
            art_counter += 1
        else:
            basis[i] = n + i

    iterations = 0

    def run_phase(cost: np.ndarray, iter_budget: int) -> tuple[str, int]:
        """Optimize ``cost`` over the current tableau. Returns (status, iters)."""
        nonlocal tableau, basis
        # Reduced-cost row: z = cost - cost_B · B^-1 A (tableau rows are
        # already B^-1 A since we pivot in place).
        z = cost.copy().astype(np.float64)
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0.0:  # pilfill: allow[D104] -- exact-zero sparsity skip; any nonzero (even tiny) must contribute to the reduced-cost row
                z -= cb * tableau[i, :ncols]
        obj = 0.0
        for i in range(m):
            obj += cost[basis[i]] * tableau[i, ncols]

        used = 0
        bland = False
        while used < iter_budget:
            if bland:
                candidates = np.flatnonzero(z < -TOL)
                if candidates.size == 0:
                    return "optimal", used
                pivot_col = int(candidates[0])
            else:
                pivot_col = int(np.argmin(z))
                if z[pivot_col] >= -TOL:
                    return "optimal", used
            col = tableau[:, pivot_col]
            mask = col > TOL
            if not mask.any():
                return "unbounded", used
            ratios = np.full(m, np.inf)
            ratios[mask] = tableau[mask, ncols] / col[mask]
            pivot_row = int(np.argmin(ratios))
            # Bland tie-break: lowest basis index among minimal ratios.
            if bland:
                best = ratios[pivot_row]
                ties = np.flatnonzero(np.isclose(ratios, best, rtol=0, atol=TOL))
                pivot_row = int(min(ties, key=lambda i: basis[i]))

            # Pivot.
            pivot_val = tableau[pivot_row, pivot_col]
            tableau[pivot_row] /= pivot_val
            factors = tableau[:, pivot_col].copy()
            factors[pivot_row] = 0.0
            tableau -= np.outer(factors, tableau[pivot_row])
            z_factor = z[pivot_col]
            z = z - z_factor * tableau[pivot_row, :ncols]
            basis[pivot_row] = pivot_col
            used += 1
            # Heuristic cycling guard: switch to Bland after many pivots.
            if used > 4 * (m + ncols) and not bland:
                bland = True
        return "iteration_limit", used

    # -- phase 1 -------------------------------------------------------------
    if n_art > 0:
        phase1_cost = np.zeros(ncols)
        phase1_cost[n + m_ub:] = 1.0
        status, used = run_phase(phase1_cost, max_iter)
        iterations += used
        if status == "iteration_limit":
            return LPResult(SolveStatus.ITERATION_LIMIT, None, np.nan, iterations)
        infeas = sum(
            tableau[i, ncols] for i in range(m) if basis[i] >= n + m_ub
        )
        if status == "unbounded" or infeas > 1e-7:
            return LPResult(SolveStatus.INFEASIBLE, None, np.nan, iterations)
        # Pivot residual zero-level artificials out of the basis when possible.
        for i in range(m):
            if basis[i] >= n + m_ub:
                row = tableau[i, : n + m_ub]
                candidates = np.flatnonzero(np.abs(row) > 1e-7)
                if candidates.size:
                    pivot_col = int(candidates[0])
                    pivot_val = tableau[i, pivot_col]
                    tableau[i] /= pivot_val
                    factors = tableau[:, pivot_col].copy()
                    factors[i] = 0.0
                    tableau -= np.outer(factors, tableau[i])
                    basis[i] = pivot_col
        # Freeze artificial columns so they never re-enter.
        tableau[:, n + m_ub:ncols] = 0.0

    # -- phase 2 -------------------------------------------------------------
    phase2_cost = np.zeros(ncols)
    phase2_cost[:n] = c
    status, used = run_phase(phase2_cost, max_iter - iterations)
    iterations += used
    if status == "iteration_limit":
        return LPResult(SolveStatus.ITERATION_LIMIT, None, np.nan, iterations)
    if status == "unbounded":
        return LPResult(SolveStatus.UNBOUNDED, None, -np.inf, iterations)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i, ncols]
    # Clamp tiny negatives from roundoff.
    x[np.abs(x) < 1e-11] = 0.0
    return LPResult(SolveStatus.OPTIMAL, x, float(c @ x), iterations)


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
    """LP relaxation with per-node bounds: shift lb to 0, add ub rows."""
    if np.any(np.isneginf(lb)):
        raise SolverError(
            "bundled branch-and-bound requires finite lower bounds; "
            "use the scipy backend for free variables"
        )
    if np.any(lb > ub + 1e-12):
        return None, 0  # empty box
    n = compiled.c.shape[0]
    shift = lb
    b_ub = compiled.b_ub - compiled.a_ub @ shift if compiled.a_ub.size else compiled.b_ub
    b_eq = compiled.b_eq - compiled.a_eq @ shift if compiled.a_eq.size else compiled.b_eq

    span = ub - lb
    finite = np.flatnonzero(np.isfinite(span))
    extra_rows = np.zeros((finite.size, n))
    for r, i in enumerate(finite):
        extra_rows[r, i] = 1.0
    a_ub = np.vstack([compiled.a_ub, extra_rows]) if compiled.a_ub.size else extra_rows
    b_ub_full = np.concatenate([b_ub, span[finite]])

    res = solve_lp(compiled.c, a_ub, b_ub_full, compiled.a_eq, b_eq)
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
) -> SolveResult:
    """The branch-and-bound as it ran before the in-place tableau, without
    the tracer span."""
    return _branch_and_bound(model, max_nodes, time_limit)


def _branch_and_bound(
    compiled: CompiledModel,
    max_nodes: int,
    time_limit: float | None,
) -> SolveResult:
    deadline = None if time_limit is None else time.monotonic() + time_limit
    n = compiled.c.shape[0]
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
