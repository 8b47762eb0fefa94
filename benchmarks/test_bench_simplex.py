"""Solver-substrate benchmarks: the bundled two-phase simplex vs
scipy/HiGHS on Min-Var-shaped LPs of growing size (ablation C's LP side).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ilp.result import SolveStatus
from repro.ilp.simplex import solve_lp


def minvar_shaped_lp(n_tiles_side: int, r: int, seed: int = 0):
    """Arrays for a Min-Var-like LP: maximize M s.t. window sums bound M
    above and below, tile fills bounded by slack."""
    rng = np.random.default_rng(seed)
    n = n_tiles_side * n_tiles_side
    orig = rng.uniform(0.05, 0.25, size=(n_tiles_side, n_tiles_side))
    slack = rng.uniform(0.0, 0.3, size=(n_tiles_side, n_tiles_side))

    # Variables: p_0..p_{n-1}, M. Minimize -M.
    nv = n + 1
    c = np.zeros(nv)
    c[-1] = -1.0
    a_ub_rows, b_ub = [], []
    w = max(0, n_tiles_side - r + 1)
    for i in range(w):
        for j in range(w):
            row_hi = np.zeros(nv)
            row_lo = np.zeros(nv)
            total = 0.0
            for di in range(r):
                for dj in range(r):
                    idx = (i + di) * n_tiles_side + (j + dj)
                    row_hi[idx] = 1.0
                    row_lo[idx] = -1.0
                    total += orig[i + di, j + dj]
            area = float(r * r)
            row_lo[-1] = area
            a_ub_rows.append(row_hi); b_ub.append(0.6 * area - total)
            a_ub_rows.append(row_lo); b_ub.append(total)
    # p bounds as rows (the raw simplex API keeps x >= 0 only).
    for k in range(n):
        row = np.zeros(nv)
        row[k] = 1.0
        a_ub_rows.append(row)
        b_ub.append(float(slack.flat[k]))
    row = np.zeros(nv)
    row[-1] = 1.0
    a_ub_rows.append(row)
    b_ub.append(0.6)
    return c, np.array(a_ub_rows), np.array(b_ub)


@pytest.mark.parametrize("side", [4, 6, 8], ids=lambda s: f"tiles{s}x{s}")
def test_bundled_simplex_scaling(benchmark, side):
    c, a_ub, b_ub = minvar_shaped_lp(side, r=2)
    result = benchmark.pedantic(
        solve_lp, args=(c, a_ub, b_ub, np.zeros((0, c.size)), np.zeros(0)),
        rounds=2, iterations=1,
    )
    assert result.status is SolveStatus.OPTIMAL
    benchmark.extra_info["objective"] = round(result.objective, 6)
    benchmark.extra_info["iterations"] = result.iterations


@pytest.mark.parametrize("side", [4, 6, 8], ids=lambda s: f"tiles{s}x{s}")
def test_scipy_lp_scaling(benchmark, side):
    from scipy.optimize import linprog

    c, a_ub, b_ub = minvar_shaped_lp(side, r=2)

    def run():
        return linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * c.size,
                       method="highs")

    res = benchmark.pedantic(run, rounds=2, iterations=1)
    assert res.status == 0
    benchmark.extra_info["objective"] = round(float(res.fun), 6)


def test_bundled_matches_highs_on_minvar_lp():
    from scipy.optimize import linprog

    c, a_ub, b_ub = minvar_shaped_lp(6, r=2, seed=3)
    ours = solve_lp(c, a_ub, b_ub, np.zeros((0, c.size)), np.zeros(0))
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * c.size,
                  method="highs")
    assert ours.status is SolveStatus.OPTIMAL and ref.status == 0
    assert ours.objective == pytest.approx(float(ref.fun), abs=1e-7)
