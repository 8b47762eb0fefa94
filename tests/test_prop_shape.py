"""The paper's shape check as a seeded property.

EXPERIMENTS.md "Shape checks" row 1: ILP-II is best on every
configuration. Here that is drawn over generated layouts: every method
runs under the same per-tile budgets, and in every tile the exact-table
cost of ILP-II's counts is at most that of ILP-I's, Greedy's and
Normal's. HiGHS (the ``auto`` backend's large-tile engine) stops within
its default MIP gap, so ILP-II may exceed the optimum by that much.

It guards the array-built ILP-I and ILP-II tile models on real layouts,
beyond the one golden CSV.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import TABLE_METHODS
from repro.pilfill import EngineConfig, PILFillEngine, allocation_cost, prepare
from repro.synth import GeneratorSpec, generate_layout
from repro.tech import DensityRules, FillRules, default_stack
from tests.test_ilp_differential import ABS, REL

FILL = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
DENSITY = DensityRules(window_size=16000, r=2, max_density=0.6)


def small_layout(seed: int):
    spec = GeneratorSpec(
        name=f"shape-{seed}",
        die_um=48.0,
        n_nets=24,
        seed=seed,
        trunk_len_um=(8.0, 24.0),
        branch_len_um=(2.0, 8.0),
        sinks_per_net=(1, 3),
    )
    return generate_layout(spec, default_stack())


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**16))
def test_ilp2_costs_no_more_than_any_method_per_tile(seed):
    layout = small_layout(seed)
    prepared = prepare(layout, "metal3", FILL, DENSITY)
    budget = None
    results = {}
    for method in ("ilp2", *(m for m in TABLE_METHODS if m != "ilp2")):
        cfg = EngineConfig(fill_rules=FILL, density_rules=DENSITY, method=method, seed=seed)
        results[method] = PILFillEngine(layout, "metal3", cfg, prepared=prepared).run(budget)
        budget = results[method].requested_budget

    tables = prepared.costs_for(True)
    best = results.pop("ilp2")
    assert best.tile_solutions
    for method, result in results.items():
        assert sorted(result.tile_solutions) == sorted(best.tile_solutions), method
        for key, solution in best.tile_solutions.items():
            theirs = result.tile_solutions[key].counts
            assert sum(theirs) == sum(solution.counts), (method, key)
            mine = allocation_cost(tables[key], solution.counts)
            other = allocation_cost(tables[key], theirs)
            assert mine <= other + REL * abs(other) + ABS, (method, key, mine, other)
