"""The array-built Min-Var budget LP against its expression-built oracle.

:func:`repro.fillsynth.budget.minvar_lp` builds the LP as a CSC matrix by
index arithmetic; :mod:`tests.minvar_oracle` builds the same LP from
``Model``/``LinExpr`` objects, one window at a time. HiGHS must receive
the same bytes from both — ``scipy.optimize.milp`` turns the oracle's
dense rows into ``csc_array(a_ub)`` — so every array is compared exactly
(values, dtypes, and the sign of zero), for both phases, and so are the
budgets that come out.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_array

from repro.dissection import DensityMap, FixedDissection
from repro.errors import FillError
from repro.fillsynth.budget import (
    hybrid_budget,
    lp_minvar_budget,
    minvar_lp,
    minvar_lp_size,
)
from repro.geometry import Rect
from repro.ilp import solve_lp_arrays
from repro.tech import DensityRules, FillRules
from tests.minvar_oracle import (
    add_phase2,
    minvar_model,
    oracle_hybrid_budget,
    oracle_lp_minvar_budget,
)

TILE = 100
FILL = FillRules(fill_size=10, fill_gap=5, buffer_distance=5)


@st.composite
def instances(draw):
    """A density map, a capacity map and the LP knobs.

    Die sides are cut short of a tile multiple so edge tiles and windows
    are smaller; some tiles have zero capacity and some none at all. An
    empty corner block gives windows whose feature area is zero.
    """
    r = draw(st.sampled_from([1, 2, 3, 8]))
    # At least two tiles a side, so a cut die still holds a whole tile.
    nx = draw(st.integers(max(r, 2), r + 5))
    ny = draw(st.integers(max(r, 2), r + 5))
    cut_x = draw(st.integers(0, TILE - 1))
    cut_y = draw(st.integers(0, TILE - 1))
    rules = DensityRules(window_size=TILE * r, r=r, max_density=0.6)
    dissection = FixedDissection(Rect(0, 0, nx * TILE - cut_x, ny * TILE - cut_y), rules)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tile_area = np.zeros((dissection.nx, dissection.ny))
    capacity = {}
    for tile in dissection.tiles():
        tile_area[tile.key] = rng.integers(0, tile.rect.area // 2 + 1)
        present = rng.random()
        if present > 0.15:
            capacity[tile.key] = 0 if present < 0.3 else int(rng.integers(1, 40))
    empty = draw(st.integers(0, dissection.nx))
    tile_area[:empty, :empty] = 0.0
    target = draw(st.one_of(st.none(), st.just("mean"), st.floats(0.0, 1.0)))
    max_density = draw(st.one_of(st.none(), st.floats(0.3, 1.0)))
    return DensityMap(dissection, tile_area), capacity, target, max_density


def resolve(density, target):
    """The float target the oracle takes for ``"mean"``."""
    if target == "mean":
        return float(density.window_density().mean())
    return target


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_csc(got, dense):
    want = csc_array(dense)
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        assert_same_bytes(getattr(got, attr), getattr(want, attr))


@settings(max_examples=60, deadline=None)
@given(instances())
def test_arrays_match_oracle_model(case):
    density, capacity, target, max_density = case
    lp = minvar_lp(density, capacity, FILL, max_density, target)
    model, tile_vars, m_var = minvar_model(
        density, capacity, FILL, max_density, resolve(density, target)
    )

    compiled = model.compile()
    c1, a1, b1 = lp.phase1()
    assert_same_csc(a1, compiled.a_ub)
    assert_same_bytes(b1, compiled.b_ub)
    assert_same_bytes(c1, compiled.c)
    assert_same_bytes(lp.lb, compiled.lb)
    assert_same_bytes(lp.ub, compiled.ub)
    size = minvar_lp_size(density.dissection)
    assert a1.shape == (size["lp_rows"], size["lp_vars"])
    assert a1.nnz == size["lp_nnz"]

    phase1 = solve_lp_arrays(c1, a1, b1, lp.lb, lp.ub)
    assert phase1.status.is_optimal
    m_star = float(phase1.x[-1])
    add_phase2(model, tile_vars, m_var, m_star)
    compiled = model.compile()
    c2, a2, b2 = lp.phase2(m_star)
    assert_same_csc(a2, compiled.a_ub)
    assert_same_bytes(b2, compiled.b_ub)
    assert_same_bytes(c2, compiled.c)


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(0, 3))
def test_budgets_match_oracle(case, seed):
    density, capacity, target, max_density = case
    oracle_target = resolve(density, target)
    assert lp_minvar_budget(
        density, capacity, FILL, max_density=max_density, target_density=target
    ) == oracle_lp_minvar_budget(
        density, capacity, FILL, max_density=max_density, target_density=oracle_target
    )
    assert hybrid_budget(
        density, capacity, FILL,
        target_density=target, max_density=max_density, seed=seed,
    ) == oracle_hybrid_budget(
        density, capacity, FILL,
        target_density=oracle_target, max_density=max_density, seed=seed,
    )


def test_zero_phase2_bound_is_positive_zero():
    # A target of 1e-9 caps M* at 1e-9, so the phase-2 bound is zero.
    rules = DensityRules(window_size=2 * TILE, r=2, max_density=0.6)
    dissection = FixedDissection(Rect(0, 0, 3 * TILE, 3 * TILE), rules)
    density = DensityMap(dissection, np.zeros((3, 3)))
    capacity = {tile.key: 5 for tile in dissection.tiles()}
    lp = minvar_lp(density, capacity, FILL, target_density=1e-9)
    model, tile_vars, m_var = minvar_model(density, capacity, FILL, target_density=1e-9)
    add_phase2(model, tile_vars, m_var, 1e-9)
    _, _, b_ub = lp.phase2(1e-9)
    assert_same_bytes(b_ub, model.compile().b_ub)


def test_no_windows_raises_like_oracle():
    # 2x2 tiles cannot hold one 3x3-tile window.
    rules = DensityRules(window_size=3 * TILE, r=3, max_density=0.6)
    dissection = FixedDissection(Rect(0, 0, 2 * TILE, 2 * TILE), rules)
    density = DensityMap(dissection, np.zeros((2, 2)))
    capacity = {tile.key: 5 for tile in dissection.tiles()}
    with pytest.raises(FillError, match="no windows"):
        lp_minvar_budget(density, capacity, FILL)
    with pytest.raises(FillError, match="no windows"):
        hybrid_budget(density, capacity, FILL)
    with pytest.raises(FillError, match="no windows"):
        oracle_lp_minvar_budget(density, capacity, FILL)
