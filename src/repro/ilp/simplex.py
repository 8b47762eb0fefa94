"""Dense two-phase primal simplex.

Solves the standard-form LP

    min  c·x   s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  0 <= x <= upper

with a classic tableau implementation: slack variables for inequality
rows, artificial variables for equality rows (and for inequality rows with
negative right-hand sides), phase 1 driving the artificials to zero, then
phase 2 on the original costs. Pivoting uses Dantzig's rule with an
automatic switch to Bland's rule when cycling is suspected.

This is the LP engine underneath :mod:`repro.ilp.branchbound`. It is not a
bounded-variable simplex: each finite ``upper`` entry becomes one more
``<=`` row, an identity entry written straight into the tableau after the
``A_ub`` rows. General lower bounds are shifted to zero by the caller.

The tableaux are tiny (tens of rows and columns), so the time goes to
numpy call overhead, not flops: the tableau is written into one array,
and each pivot updates it in place with as few calls as the pivot rules
allow. The pivot path is part of the solver's output — tied optima
resolve by it, and ``result_digest`` hashes the objective repr — so every
float operation and its order stays that of the oracle in
``tests/simplex_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.ilp.result import LPResult, SolveStatus

#: Feasibility / optimality tolerance.
TOL = 1e-9


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    max_iter: int = 20000,
    upper: np.ndarray | None = None,
) -> LPResult:
    """Solve the standard-form LP; see module docstring.

    ``upper`` holds per-variable upper bounds (``inf`` for none); ``None``
    means no variable is bounded above. Returns an :class:`LPResult` whose
    ``x`` is None unless the status is OPTIMAL.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    a_ub = np.asarray(a_ub, dtype=np.float64).reshape(-1, n)
    a_eq = np.asarray(a_eq, dtype=np.float64).reshape(-1, n)
    b_ub = np.asarray(b_ub, dtype=np.float64).ravel()
    b_eq = np.asarray(b_eq, dtype=np.float64).ravel()
    if upper is None:
        bounded = np.zeros(0, dtype=np.int64)
        b = np.concatenate([b_ub, b_eq])
    else:
        upper = np.asarray(upper, dtype=np.float64)
        bounded = np.isfinite(upper).nonzero()[0]
        b = np.concatenate([b_ub, upper[bounded], b_eq])
    m_a = a_ub.shape[0]
    m_ub = m_a + bounded.size  # A_ub rows, then one row per bounded variable
    m = b.size

    if m == 0:
        # Only the trivial nonnegativity region: optimum at 0 unless some
        # cost is negative (then unbounded).
        if np.any(c < -TOL):
            return LPResult(SolveStatus.UNBOUNDED, None, -np.inf, 0)
        return LPResult(SolveStatus.OPTIMAL, np.zeros(n), 0.0, 0)

    # Rows needing an artificial: all eq rows plus flipped ub rows (their
    # slack becomes a surplus and can't seed the basis).
    flip = b < 0
    needs_art = flip.copy()
    needs_art[m_ub:] = True
    art_rows = needs_art.nonzero()[0]
    n_art = art_rows.size
    ncols = n + m_ub + n_art

    # [A | slack | artificial | b] with b >= 0. Flipping negates [A | slack
    # | b] only, so a flipped row's zeros there become -0.0 and its
    # artificial column keeps +0.0.
    tableau = np.zeros((m, ncols + 1))
    tableau[:m_a, :n] = a_ub
    tableau[m_a + np.arange(bounded.size), bounded] = 1.0
    tableau[m_ub:, :n] = a_eq
    # Slack i sits at (i, n + i): flat index n + i·(ncols + 2) in a row of
    # ncols + 1 entries.
    tableau.ravel()[n : n + m_ub * (ncols + 2) : ncols + 2] = 1.0
    tableau[:, ncols] = b
    if flip.any():
        tableau[flip, : n + m_ub] *= -1.0
        tableau[flip, ncols] *= -1.0
    art_cols = n + m_ub + np.arange(n_art)
    tableau[art_rows, art_cols] = 1.0

    # Initial basis: slack for clean ub rows, artificial otherwise.
    basis = n + np.arange(m)
    basis[art_rows] = art_cols
    rhs = tableau[:, ncols]  # the tableau's b column, updated by every pivot

    iterations = 0

    # -- phase 1 -------------------------------------------------------------
    if n_art > 0:
        phase1_cost = np.zeros(ncols)
        phase1_cost[n + m_ub:] = 1.0
        status, used = _run_phase(tableau, basis, phase1_cost, max_iter)
        iterations += used
        if status == "iteration_limit":
            return LPResult(SolveStatus.ITERATION_LIMIT, None, np.nan, iterations)
        art_basic = (basis >= n + m_ub).nonzero()[0]
        # Python's sum adds in row order, as the phase-1 test always has.
        infeas = sum(rhs[art_basic].tolist())
        if status == "unbounded" or infeas > 1e-7:
            return LPResult(SolveStatus.INFEASIBLE, None, np.nan, iterations)
        # Pivot residual zero-level artificials out of the basis when possible.
        for i in art_basic.tolist():
            candidates = (np.abs(tableau[i, : n + m_ub]) > 1e-7).nonzero()[0]
            if candidates.size:
                pivot_col = int(candidates[0])
                _pivot(tableau, i, pivot_col)
                basis[i] = pivot_col
        # Freeze artificial columns so they never re-enter.
        tableau[:, n + m_ub:ncols] = 0.0

    # -- phase 2 -------------------------------------------------------------
    phase2_cost = np.zeros(ncols)
    phase2_cost[:n] = c
    status, used = _run_phase(tableau, basis, phase2_cost, max_iter - iterations)
    iterations += used
    if status == "iteration_limit":
        return LPResult(SolveStatus.ITERATION_LIMIT, None, np.nan, iterations)
    if status == "unbounded":
        return LPResult(SolveStatus.UNBOUNDED, None, -np.inf, iterations)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = rhs[structural]
    # Clamp tiny negatives from roundoff.
    x[np.abs(x) < 1e-11] = 0.0
    return LPResult(SolveStatus.OPTIMAL, x, float(c @ x), iterations)


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Pivot ``tableau`` in place on entry ``(row, col)``."""
    prow = tableau[row]
    prow /= prow[col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= factors[:, None] * prow


def _run_phase(
    tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, iter_budget: int
) -> tuple[str, int]:
    """Optimize ``cost`` over the tableau, pivoting it and ``basis`` in
    place. Returns (status, iterations)."""
    m = basis.size
    ncols = cost.size
    rhs = tableau[:, ncols]
    # Reduced-cost row: z = cost - cost_B · B^-1 A (tableau rows are
    # already B^-1 A since we pivot in place), seeded row by row in row
    # order.
    z = cost.copy()
    cost_b = cost[basis]
    for i in (cost_b != 0.0).nonzero()[0].tolist():  # pilfill: allow[D104] -- exact-zero sparsity skip; any nonzero (even tiny) must contribute to the reduced-cost row
        z -= cost_b[i] * tableau[i, :ncols]

    ratios = np.empty(m)
    cycling_guard = 4 * (m + ncols)
    used = 0
    bland = False
    while used < iter_budget:
        if bland:
            candidates = np.flatnonzero(z < -TOL)
            if candidates.size == 0:
                return "optimal", used
            pivot_col = int(candidates[0])
        else:
            pivot_col = int(z.argmin())
            if z[pivot_col] >= -TOL:
                return "optimal", used
        col = tableau[:, pivot_col]
        mask = col > TOL
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=mask)
        pivot_row = int(ratios.argmin())
        # A finite minimum ratio proves some entry is positive; only an
        # all-inf ratio row needs the (slower) test of the mask itself.
        if not ratios[pivot_row] < np.inf and not mask.any():
            return "unbounded", used
        # Bland tie-break: lowest basis index among minimal ratios.
        if bland:
            best = ratios[pivot_row]
            ties = np.flatnonzero(np.isclose(ratios, best, rtol=0, atol=TOL))
            pivot_row = int(min(ties, key=lambda i: basis[i]))

        _pivot(tableau, pivot_row, pivot_col)
        z -= z[pivot_col] * tableau[pivot_row, :ncols]
        basis[pivot_row] = pivot_col
        used += 1
        # Heuristic cycling guard: switch to Bland after many pivots.
        if used > cycling_guard and not bland:
            bland = True
    return "iteration_limit", used
