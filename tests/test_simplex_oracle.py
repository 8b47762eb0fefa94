"""The bundled simplex and branch-and-bound against their oracle.

:mod:`tests.simplex_oracle` is the engine as it was before the tableau was
written in place. Tied optima resolve by the pivot path, and
``result_digest`` hashes each tile's objective repr, so agreeing on the
optimum is not enough: every solve must report the same status, iterations,
nodes, solution bytes and objective repr as the oracle.

The LPs are small and dense, mostly over a few small coefficients, so
ties, degenerate vertices, redundant equalities, negative right-hand sides
and infeasible and unbounded problems all come up. The tile models are the
ILP-I, ILP-II and budgeted models built from random cost tables, with
zero-impact (tied) columns and signed zeros.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ilp import CompiledModel, SolveStatus
from repro.ilp.branchbound import solve_branch_and_bound
from repro.ilp.simplex import solve_lp
from repro.pilfill.budgeted import build_budgeted_model
from repro.pilfill.ilp1 import build_ilp1_model
from repro.pilfill.ilp2 import build_ilp2_model
from tests import simplex_oracle as oracle
from tests.test_ilp_arrays import _signed_zero_tile, tile_models

#: Mostly a few small values, so ties and degenerate vertices are common;
#: some binary floats cannot hold exactly, and any float may come up, so
#: roundoff (and the order of every sum) shows.
coeffs = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.7, -0.0, 0.0, 0.1, 1 / 3, 0.5, 1.0, 1.1, 3.0]),
    st.floats(-3.0, 3.0),
)
rhs_values = st.one_of(
    st.sampled_from([-3.0, -1.0, -0.3, -0.0, 0.0, 0.7, 1.0, 2.0, 2.5]),
    st.floats(-3.0, 3.0),
)


def lp_fields(res) -> tuple:
    x = None if res.x is None else res.x.tobytes()
    return res.status, res.iterations, x, repr(res.objective)


def mip_fields(res) -> tuple:
    x = None if res.x is None else res.x.tobytes()
    return res.status, res.nodes, res.iterations, x, repr(res.objective)


def matrix(draw, rows: int, n: int) -> np.ndarray:
    values = draw(st.lists(coeffs, min_size=rows * n, max_size=rows * n))
    return np.array(values, dtype=np.float64).reshape(rows, n)


@st.composite
def lps(draw) -> tuple[np.ndarray, ...]:
    """``(c, a_ub, b_ub, a_eq, b_eq, upper)`` with 1-5 variables; equality
    rows may repeat (redundant), and ``upper`` mixes finite bounds with
    ``inf``."""
    n = draw(st.integers(1, 5))
    m_ub = draw(st.integers(0, 4))
    m_eq = draw(st.integers(0, 3))
    c = matrix(draw, 1, n)[0]
    a_ub = matrix(draw, m_ub, n)
    a_eq = matrix(draw, m_eq, n)
    b_ub = np.array(draw(st.lists(rhs_values, min_size=m_ub, max_size=m_ub)))
    b_eq = np.array(draw(st.lists(rhs_values, min_size=m_eq, max_size=m_eq)))
    if m_eq and draw(st.booleans()):
        a_eq = np.vstack([a_eq, a_eq[:1]])  # a redundant equality
        b_eq = np.concatenate([b_eq, b_eq[:1]])
    upper = np.array(
        draw(st.lists(st.sampled_from([np.inf, 0.0, 0.3, 1.0, 3.5]), min_size=n, max_size=n))
    )
    return c, a_ub, b_ub.reshape(m_ub), a_eq, b_eq.reshape(a_eq.shape[0]), upper


def oracle_lp_with_upper(c, a_ub, b_ub, a_eq, b_eq, upper):
    """The oracle's LP with ``upper`` stacked under ``A_ub`` as identity
    rows, as its branch-and-bound did."""
    finite = np.flatnonzero(np.isfinite(upper))
    rows = np.zeros((finite.size, c.size))
    rows[np.arange(finite.size), finite] = 1.0
    return oracle.solve_lp(
        c, np.vstack([a_ub, rows]), np.concatenate([b_ub, upper[finite]]), a_eq, b_eq
    )


#: Beale's LP (min -3/4 x1 + 20 x2 - 1/2 x3 + 6 x4): Dantzig's rule with
#: lowest-row ties cycles on it until the guard switches to Bland's rule.
BEALE = (
    np.array([-0.75, 20.0, -0.5, 6.0]),
    np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]),
    np.array([0.0, 0.0, 1.0]),
    np.zeros((0, 4)),
    np.zeros(0),
)


@settings(max_examples=400, deadline=None)
@given(lps())
@example(
    (
        np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([1.0, -3.0]),
        np.zeros((0, 1)), np.zeros(0), np.array([np.inf]),
    )
)  # infeasible
@example(
    (np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]), np.zeros((0, 1)), np.zeros(0),
     np.array([np.inf]))
)  # unbounded
def test_lp_matches_oracle(lp):
    c, a_ub, b_ub, a_eq, b_eq, upper = lp
    assert lp_fields(solve_lp(c, a_ub, b_ub, a_eq, b_eq)) == lp_fields(
        oracle.solve_lp(c, a_ub, b_ub, a_eq, b_eq)
    )
    assert lp_fields(solve_lp(c, a_ub, b_ub, a_eq, b_eq, upper=upper)) == lp_fields(
        oracle_lp_with_upper(c, a_ub, b_ub, a_eq, b_eq, upper)
    )


def test_beale_reaches_bland_and_matches_oracle():
    res = solve_lp(*BEALE)
    m, ncols = 3, 4 + 3
    # More pivots than the cycling guard allows: the Bland branch ran.
    assert res.iterations > 4 * (m + ncols)
    assert res.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(res.x, [1.0, 0.0, 1.0, 0.0], atol=1e-9)
    assert lp_fields(res) == lp_fields(oracle.solve_lp(*BEALE))


@st.composite
def mips(draw) -> CompiledModel:
    """A small MILP from :func:`lps`, with finite lower bounds, the LP's
    upper bounds and random integrality."""
    c, a_ub, b_ub, a_eq, b_eq, upper = draw(lps())
    n = c.size
    lb = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -1.0]), min_size=n, max_size=n)))
    return CompiledModel(
        c=c, c0=0.0, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        lb=lb, ub=np.maximum(upper, lb),
        integer=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )


def assert_same_mip(model: CompiledModel) -> None:
    want = oracle.solve_branch_and_bound(model, max_nodes=200)
    got = solve_branch_and_bound(model, max_nodes=200)
    assert mip_fields(got) == mip_fields(want)


@settings(max_examples=300, deadline=None)
@given(mips())
def test_branch_and_bound_matches_oracle(model):
    assert_same_mip(model)


@settings(max_examples=150, deadline=None)
@given(tile_models())
@example(_signed_zero_tile())
def test_tile_models_match_oracle(tile):
    """ILP-I (weighted and not), ILP-II and the budgeted ILP of one tile."""
    costs, cap_tables, budget, net_budgets = tile
    assert_same_mip(build_ilp1_model(costs, budget, weighted=True)[0])
    assert_same_mip(build_ilp1_model(costs, budget, weighted=False)[0])
    assert_same_mip(build_ilp2_model(costs, budget)[0])
    assert_same_mip(build_budgeted_model(costs, cap_tables, budget, net_budgets)[0])
