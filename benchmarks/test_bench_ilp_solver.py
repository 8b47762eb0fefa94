"""Ablation C: the bundled simplex + branch-and-bound (the CPLEX
substitute) vs scipy/HiGHS — agreement and relative speed on real
per-tile ILP-II instances harvested from T1 — and the bundled engine's
pivot path on those instances, pinned as counts."""

from __future__ import annotations

import pytest

from repro.cap.lut import LUTCache
from repro.dissection import FixedDissection
from repro.fillsynth import SiteLegality
from repro.pilfill import SlackColumnDef, extract_columns, solve_tile_ilp2
from repro.pilfill.costs import build_cost_views
from repro.synth import default_fill_rules, density_rules_for


@pytest.fixture(scope="module")
def harvested_tiles(t1_layout):
    """Per-tile cost instances from T1/32/2 — the mid-size tiles the paper
    actually solves."""
    rules = default_fill_rules(t1_layout.stack)
    dissection = FixedDissection(t1_layout.die, density_rules_for(32, 2, t1_layout.stack))
    legality = SiteLegality(t1_layout, "metal3", rules)
    columns = extract_columns(
        t1_layout, "metal3", dissection, legality, rules, SlackColumnDef.FULL_LAYOUT
    )
    layer = t1_layout.stack.layer("metal3")
    dbu = t1_layout.stack.dbu_per_micron
    # Every gridded column holds at least one site.
    chosen = [key for key, cols in columns.items() if len(cols) >= 4][:6]
    assert chosen, "expected harvestable tiles"
    lut = LUTCache(layer.eps_r, layer.thickness_um, rules.fill_size / dbu)
    views = build_cost_views(columns, layer, rules, dbu, lut, weighted=True, keys=chosen)
    return [(view, view.capacity // 3) for view in views.values()]


@pytest.fixture(scope="module")
def bundled_solutions(harvested_tiles):
    """The bundled engine's solution of every harvested tile."""
    return [
        solve_tile_ilp2(costs, budget, backend="bundled") for costs, budget in harvested_tiles
    ]


#: The bundled engine's pivot path on the harvested tiles: total
#: branch-and-bound nodes, total simplex iterations and each tile's
#: objective repr. Tied optima resolve by the path and ``result_digest``
#: hashes the objective repr, so a speed-up must leave these exactly as
#: they are; these are the values of the engine before its tableau was
#: written in place.
BUNDLED_NODES = 32
BUNDLED_ITERATIONS = 4930
BUNDLED_OBJECTIVES = (
    "0.0",
    "0.0011331951994497105",
    "0.0009767774171748126",
    "0.0017494493166131987",
    "0.008487298852865926",
    "0.0010665552340676661",
)


def test_bundled_pivot_path_is_pinned(bundled_solutions):
    assert sum(s.nodes for s in bundled_solutions) == BUNDLED_NODES
    assert sum(s.iterations for s in bundled_solutions) == BUNDLED_ITERATIONS
    assert tuple(repr(s.model_objective_ps) for s in bundled_solutions) == BUNDLED_OBJECTIVES


@pytest.mark.parametrize("backend", ["bundled", "scipy"])
def test_ilp2_backend_speed(benchmark, harvested_tiles, backend):
    def solve_all():
        return [
            solve_tile_ilp2(costs, budget, backend=backend)
            for costs, budget in harvested_tiles
        ]

    solutions = benchmark.pedantic(solve_all, rounds=2, iterations=1)
    benchmark.extra_info["tiles"] = len(harvested_tiles)
    benchmark.extra_info["objective_sum"] = round(
        sum(s.model_objective_ps for s in solutions), 6
    )


def test_backends_agree_on_harvested_tiles(harvested_tiles, bundled_solutions):
    """Solver-substitution validity: the bundled B&B reaches the HiGHS
    optimum on every harvested instance (within HiGHS's MIP gap)."""
    for (costs, budget), bundled in zip(harvested_tiles, bundled_solutions, strict=True):
        scipy_sol = solve_tile_ilp2(costs, budget, backend="scipy")
        assert bundled.model_objective_ps <= scipy_sol.model_objective_ps * (1 + 1e-3) + 1e-12
        assert abs(bundled.model_objective_ps - scipy_sol.model_objective_ps) <= (
            1e-3 * max(1.0, abs(scipy_sol.model_objective_ps))
        )
