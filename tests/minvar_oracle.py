"""Expression-built Min-Var budget LP: the oracle of the array-built one.

This is the :class:`~repro.ilp.Model` / ``LinExpr`` construction that
:func:`repro.fillsynth.budget.lp_minvar_budget` used before it built its
LP as arrays: one variable per tile, two constraints per
:meth:`FixedDissection.windows` window, compiled to dense rows and solved
through :func:`repro.ilp.solve` on HiGHS. Tests compare the arrays each
construction hands HiGHS, and the budgets each one returns.
"""

from __future__ import annotations

import numpy as np

from repro.dissection.density import DensityMap
from repro.errors import FillError
from repro.fillsynth.budget import montecarlo_budget
from repro.tech.rules import FillRules
from tests.ilp_model_oracle import Model, Variable, solve

TileKey = tuple[int, int]


def minvar_model(
    density: DensityMap,
    capacity: dict[TileKey, int],
    rules: FillRules,
    max_density: float | None = None,
    target_density: float | None = None,
) -> tuple[Model, dict[TileKey, Variable], Variable]:
    """The phase-1 Min-Var model: maximize ``M``."""
    dissection = density.dissection
    windows = list(dissection.windows())
    if not windows:
        raise FillError("dissection has no windows; die too small for window size")

    current = density.window_density()
    ceiling = max(
        max_density if max_density is not None else dissection.rules.max_density,
        float(current.max()),
    )

    model = Model("minvar-budget")
    fill_area = float(rules.fill_area)
    tile_vars = {}
    for tile in dissection.tiles():
        cap_area = capacity.get(tile.key, 0) * fill_area
        tile_vars[tile.key] = model.add_var(f"p_{tile.ix}_{tile.iy}", lb=0.0, ub=cap_area)

    m_ub = ceiling if target_density is None else min(ceiling, target_density)
    m_var = model.add_var("M", lb=0.0, ub=m_ub)
    window_areas = density.window_area()
    for win in windows:
        added = sum((tile_vars[k] * 1.0 for k in win.tile_keys), start=0.0)
        orig = float(window_areas[win.ix, win.iy])
        area = float(win.rect.area)
        model.add_constraint(added + orig <= ceiling * area)
        model.add_constraint(added + orig >= m_var * area)
    model.maximize(m_var * 1.0)
    return model, tile_vars, m_var


def add_phase2(
    model: Model, tile_vars: dict[TileKey, Variable], m_var: Variable, m_star: float
) -> None:
    """Turn the phase-1 model into phase 2: minimum total fill at ``M*``."""
    total_fill = sum((v * 1.0 for v in tile_vars.values()), start=0.0)
    model.add_constraint(m_var >= m_star - 1e-9)
    model.minimize(total_fill)


def oracle_lp_minvar_budget(
    density: DensityMap,
    capacity: dict[TileKey, int],
    rules: FillRules,
    max_density: float | None = None,
    target_density: float | None = None,
) -> dict[TileKey, int]:
    """Min-Var LP fill budgets through the expression-built model."""
    model, tile_vars, m_var = minvar_model(
        density, capacity, rules, max_density, target_density
    )
    phase1 = solve(model, backend="scipy")
    if not phase1.status.is_optimal:
        raise FillError(f"Min-Var budget LP (phase 1) failed: {phase1.status}")
    add_phase2(model, tile_vars, m_var, phase1.value("M"))
    result = solve(model, backend="scipy")
    if not result.status.is_optimal:
        raise FillError(f"Min-Var budget LP (phase 2) failed: {result.status}")

    fill_area = float(rules.fill_area)
    budget: dict[TileKey, int] = {}
    for key, var in tile_vars.items():
        features = int(result.value(var.name) / fill_area + 1e-9)
        budget[key] = min(features, capacity.get(key, 0))
    return budget


def oracle_hybrid_budget(
    density: DensityMap,
    capacity: dict[TileKey, int],
    rules: FillRules,
    target_density: float | None = None,
    max_density: float | None = None,
    seed: int = 0,
) -> dict[TileKey, int]:
    """LP + Monte-Carlo top-up, with the oracle LP."""
    lp = oracle_lp_minvar_budget(
        density, capacity, rules, max_density=max_density, target_density=target_density
    )
    fill_area = float(rules.fill_area)
    extra_area = np.zeros((density.dissection.nx, density.dissection.ny))
    for (ix, iy), count in lp.items():
        extra_area[ix, iy] = count * fill_area
    topped = density.added(extra_area)
    leftover = {key: capacity.get(key, 0) - lp.get(key, 0) for key in capacity}
    if target_density is None:
        target_density = float(density.window_density().mean())
    mc = montecarlo_budget(
        topped, leftover, rules,
        target_density=target_density, max_density=max_density, seed=seed,
    )
    return {key: lp.get(key, 0) + mc.get(key, 0) for key in sorted(set(lp) | set(mc))}
