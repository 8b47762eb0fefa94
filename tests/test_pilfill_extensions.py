"""The two extension formulations: MVDC (footnote ‡) and per-net
capacitance budgets (Section 7 future work)."""

import itertools

import pytest

from repro.errors import FillError
from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    delta_cap_ff,
    derive_net_cap_budgets,
    derive_tile_delay_budgets,
    evaluate_impact,
    solve_tile_budgeted_greedy,
    solve_tile_budgeted_ilp,
    solve_tile_mvdc,
)
from repro.pilfill.columns import ColumnNeighbor, ElectricalColumn
from repro.tech import DensityRules
from tests.cost_tables import column_tables, pack_costs


def make_column(marginals, net_a="a", net_b="b", sinks=1, res=1000.0):
    """One impactful column's (column, exact, linear)."""
    cap = len(marginals)
    below = ColumnNeighbor(net=net_a, line_index=0, sinks=sinks, resistance_ohm=res)
    above = ColumnNeighbor(net=net_b, line_index=0, sinks=sinks, resistance_ohm=res)
    col = ElectricalColumn(4.0, below, above)
    exact = [0.0]
    for m in marginals:
        exact.append(exact[-1] + m)
    linear = tuple(marginals[0] * n if marginals else 0.0 for n in range(cap + 1))
    return col, tuple(exact), linear


def tile(*columns):
    """Pack ``make_column`` results into one tile's cost tables."""
    return pack_costs(
        [exact for _, exact, _ in columns],
        [linear for _, _, linear in columns],
        [col for col, _, _ in columns],
    )


def free_tile(capacity):
    """One column with a single neighbour: no modeled impact."""
    free_col = ElectricalColumn(None, ColumnNeighbor("a", 0, 1, 10.0), None)
    zero = (0.0,) * (capacity + 1)
    return pack_costs([zero], [zero], [free_col])


class TestMvdc:
    def test_zero_budget_places_nothing_costly(self):
        costs = tile(make_column([1.0, 2.0]), make_column([0.5]))
        sol = solve_tile_mvdc(costs, 0.0)
        assert sol.total_features == 0

    def test_free_columns_always_granted(self):
        sol = solve_tile_mvdc(free_tile(3), 0.0)
        assert sol.total_features == 3

    def test_budget_respected(self):
        costs = tile(make_column([1.0, 2.0, 4.0]), make_column([1.5, 3.0]))
        for budget in (0.5, 1.0, 2.5, 4.5, 100.0):
            sol = solve_tile_mvdc(costs, budget)
            assert sol.model_objective_ps <= budget + 1e-12

    def test_maximizes_count_brute_force(self):
        costs = tile(make_column([1.0, 2.0, 4.0]), make_column([1.5, 3.0]))
        tables = column_tables(costs)
        for budget in (0.0, 1.0, 2.4, 2.6, 4.5, 7.0, 100.0):
            sol = solve_tile_mvdc(costs, budget)
            best = 0
            for combo in itertools.product(*(range(len(t)) for t in tables)):
                cost = sum(t[n] for t, n in zip(tables, combo, strict=True))
                if cost <= budget + 1e-12:
                    best = max(best, sum(combo))
            assert sol.total_features == best

    def test_negative_budget_rejected(self):
        with pytest.raises(FillError):
            solve_tile_mvdc(pack_costs([]), -1.0)

    def test_derive_budgets_scales_with_fraction(self):
        costs = {(0, 0): tile(make_column([1.0, 2.0]))}
        requested = {(0, 0): 2}
        lo = derive_tile_delay_budgets(requested, costs, 0.2)
        hi = derive_tile_delay_budgets(requested, costs, 0.8)
        assert hi[(0, 0)] == pytest.approx(4 * lo[(0, 0)])
        full = derive_tile_delay_budgets(requested, costs, 1.0)
        assert full[(0, 0)] == pytest.approx(3.0)  # worst-case 2 features

    def test_derive_budgets_bad_fraction(self):
        with pytest.raises(FillError):
            derive_tile_delay_budgets({}, {}, 1.5)

    def test_engine_run_mvdc(self, small_generated_layout, fill_rules):
        cfg = EngineConfig(
            fill_rules=fill_rules,
            density_rules=DensityRules(window_size=16000, r=2, max_density=0.6),
            method="greedy",
            backend="scipy",
        )
        engine = PILFillEngine(small_generated_layout, "metal3", cfg)
        strict = engine.run_mvdc(slack_fraction=0.05)
        loose = engine.run_mvdc(slack_fraction=0.9)
        assert strict.total_features <= loose.total_features
        # MVDC never exceeds the density prescription per tile.
        for key, placed in loose.effective_budget.items():
            assert placed <= loose.requested_budget.get(key, 0)
        # And the strict run's delay impact is lower.
        strict_imp = evaluate_impact(
            small_generated_layout, "metal3", strict.features, fill_rules
        )
        loose_imp = evaluate_impact(
            small_generated_layout, "metal3", loose.features, fill_rules
        )
        assert strict_imp.weighted_total_ps <= loose_imp.weighted_total_ps + 1e-12


class TestCapTables:
    def test_recovers_delta_c(self):
        costs = tile(make_column([1.0, 2.0], sinks=2, res=500.0))
        caps = delta_cap_ff(costs, True)
        # exact[n] = r_hat(w=True) * dC(n) * 1e-3; r_hat = 2 nets * 2 sinks * 500
        from repro.layout.rctree import OHM_FF_TO_PS

        r_hat = costs.columns[0].resistance_weight(True)
        for n in range(3):
            assert caps[n] == pytest.approx(costs.exact[n] / (r_hat * OHM_FF_TO_PS))

    def test_zero_for_free_columns(self):
        assert delta_cap_ff(free_tile(1), True).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("weighted", [False, True])
def test_budgeted_cap_tables_are_lut_delta_c(weighted):
    """Regression: unweighted tables were divided by the sink-weighted r̂,
    so on T1 32/2 metal3 2,255 of 4,099 impactful columns carried a wrong
    ΔC (up to 67%) and an unweighted budgeted greedy run overspent 18
    nets. Either flag must recover the LUT's ΔC and keep every net within
    its budget by that ΔC."""
    from collections import defaultdict

    from repro.cap.lut import LUTCache
    from repro.synth import default_fill_rules, density_rules_for, make_t1

    layout = make_t1()
    cfg = EngineConfig(
        fill_rules=default_fill_rules(layout.stack),
        density_rules=density_rules_for(32, 2, layout.stack),
        method="ilp2",
        backend="scipy",
        weighted=weighted,
    )
    engine = PILFillEngine(layout, "metal3", cfg)
    prep = engine.prepared
    layer = layout.stack.layer("metal3")
    lut = LUTCache(
        layer.eps_r, layer.thickness_um, cfg.fill_rules.fill_size / layout.stack.dbu_per_micron
    )
    impactful = 0
    for key, costs in prep.costs_for(weighted).items():
        caps = column_tables(costs, delta_cap_ff(costs, weighted))
        for col, table in zip(prep.columns_by_tile[key], caps, strict=True):
            if not col.has_impact:
                continue
            impactful += 1
            delta_c = lut.get(col.gap_um, col.capacity)
            for n in range(col.capacity + 1):
                assert table[n] == pytest.approx(delta_c.cap(n), rel=1e-9, abs=0.0)
    assert impactful > 0

    budgets = derive_net_cap_budgets(layout, 1e-4)
    result = engine.run_budgeted(budgets, exact=False)
    assert result.total_features > 0
    used: dict[str, float] = defaultdict(float)
    for key, solution in result.tile_solutions.items():
        for col, n in zip(prep.columns_by_tile[key], solution.counts, strict=True):
            if n == 0 or not col.has_impact:
                continue
            for neighbor in (col.below, col.above):
                if neighbor is not None:
                    used[neighbor.net] += lut.get(col.gap_um, col.capacity).cap(n)
    over = sorted(
        net for net, cap in used.items() if cap > budgets.get(net, float("inf")) * (1 + 1e-9)
    )
    assert over == []


class TestBudgetedFill:
    def columns(self):
        # Column 0 couples nets a/b; column 1 couples nets c/d; column 2 a/c.
        return tile(
            make_column([1.0, 2.0, 3.0], net_a="a", net_b="b"),
            make_column([1.2, 2.4], net_a="c", net_b="d"),
            make_column([5.0, 6.0], net_a="a", net_b="c"),
        )

    def test_unconstrained_matches_ilp2_optimum(self):
        costs = self.columns()
        caps = delta_cap_ff(costs, True)
        out = solve_tile_budgeted_ilp(costs, caps, 3, {}, backend="bundled")
        assert out.feasible
        from repro.pilfill import solve_tile_ilp2

        plain = solve_tile_ilp2(costs, 3, backend="bundled")
        assert out.solution.model_objective_ps == pytest.approx(
            plain.model_objective_ps
        )

    def test_tight_budget_shifts_placement(self):
        costs = self.columns()
        caps = delta_cap_ff(costs, True)
        free = solve_tile_budgeted_ilp(costs, caps, 3, {}, backend="bundled")
        # Forbid net 'a' from receiving almost anything: columns 0 and 2
        # become unusable, so everything must go to column 1 (capacity 2)
        # -> infeasible for budget 3.
        tight = solve_tile_budgeted_ilp(
            costs, caps, 3, {"a": 1e-9}, backend="bundled"
        )
        assert not tight.feasible
        # Budget 2 is feasible using only column 1.
        ok = solve_tile_budgeted_ilp(costs, caps, 2, {"a": 1e-9}, backend="bundled")
        assert ok.feasible
        assert ok.solution.counts[1] == 2
        assert ok.cap_used_ff.get("a", 0.0) <= 1e-9
        # At equal feature count, constraining can only raise the optimum.
        free2 = solve_tile_budgeted_ilp(costs, caps, 2, {}, backend="bundled")
        assert free2.solution.model_objective_ps <= ok.solution.model_objective_ps + 1e-12
        assert free.feasible

    def test_cap_used_respects_budgets(self):
        costs = self.columns()
        caps = delta_cap_ff(costs, True)
        budgets = {"a": caps[2], "b": 1e9, "c": 1e9, "d": 1e9}
        out = solve_tile_budgeted_ilp(costs, caps, 4, budgets, backend="bundled")
        if out.feasible:
            for net, used in out.cap_used_ff.items():
                assert used <= budgets.get(net, float("inf")) + 1e-9

    def test_greedy_respects_budgets(self):
        costs = self.columns()
        caps = delta_cap_ff(costs, True)
        budgets = {"a": 1e-9}
        out = solve_tile_budgeted_greedy(costs, caps, 3, budgets)
        assert not out.feasible  # only column 1 usable, capacity 2 < 3
        assert out.solution.counts[0] == 0
        assert out.solution.counts[2] == 0
        assert out.cap_used_ff.get("a", 0.0) <= 1e-9

    def test_greedy_matches_ilp_when_unconstrained(self):
        costs = self.columns()
        caps = delta_cap_ff(costs, True)
        greedy = solve_tile_budgeted_greedy(costs, caps, 4, {})
        ilp = solve_tile_budgeted_ilp(costs, caps, 4, {}, backend="bundled")
        assert greedy.feasible and ilp.feasible
        assert greedy.solution.model_objective_ps == pytest.approx(
            ilp.solution.model_objective_ps
        )

    def test_budget_over_capacity_raises(self):
        costs = self.columns()
        caps = delta_cap_ff(costs, True)
        with pytest.raises(FillError):
            solve_tile_budgeted_ilp(costs, caps, 100, {})

    def test_derive_net_budgets(self, small_generated_layout):
        budgets = derive_net_cap_budgets(small_generated_layout, slack_fraction_ps=0.1)
        assert set(budgets) == set(small_generated_layout.nets)
        assert all(b > 0 for b in budgets.values())
        smaller = derive_net_cap_budgets(small_generated_layout, slack_fraction_ps=0.01)
        for net in budgets:
            assert smaller[net] < budgets[net]

    def test_derive_net_budgets_validates(self, small_generated_layout):
        with pytest.raises(FillError):
            derive_net_cap_budgets(small_generated_layout, slack_fraction_ps=-1.0)
