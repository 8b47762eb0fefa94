"""Shared preprocessing (PreparedInstance) and the parallel tile solver.

Regression targets of the shared-preprocessing/parallel-solve PR:

* serial vs parallel engine runs are bit-identical for every method,
* the Normal baseline places exactly the sites it sampled (not a
  column-prefix approximation) and is order-independent,
* ``run_config`` builds the preprocessing exactly once per configuration,
* an explicit budget override skips the density-map build,
* ``trim_to`` refuses to underflow instead of corrupting counts,
* the process pool ships picklable payloads and reproduces the serial
  run bit-for-bit for every method (including MVDC).
"""

from __future__ import annotations

import pytest

from repro.dissection import density as density_module
from repro.errors import FillError
from repro.experiments import run_config
from repro.pilfill import (
    METHODS,
    EngineConfig,
    PILFillEngine,
    PreparedInstance,
    TilePayload,
    TileSolution,
    dispatch_tile_payloads,
    prepare,
    result_digest,
    solve_tile_payload,
    tile_digest,
    tile_rng,
    trim_to,
)
from repro.pilfill.budgeted import derive_net_cap_budgets
from repro.synth import default_fill_rules, density_rules_for, make_t1
from repro.tech import DensityRules
from tests.column_objects import ColumnNeighbor, ElectricalColumn, slack_columns
from tests.cost_tables import pack_costs


@pytest.fixture(scope="module")
def t1_layout():
    return make_t1()


@pytest.fixture(scope="module")
def t1_setup(t1_layout):
    fill_rules = default_fill_rules(t1_layout.stack)
    density_rules = density_rules_for(32, 2, t1_layout.stack)
    prepared = prepare(t1_layout, "metal3", fill_rules, density_rules)
    return t1_layout, fill_rules, density_rules, prepared


def _config(fill_rules, density_rules, **kwargs):
    kwargs.setdefault("backend", "scipy")
    return EngineConfig(fill_rules=fill_rules, density_rules=density_rules, **kwargs)


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", (0, 3))
    def test_bit_identical_features(self, t1_setup, method, seed):
        """workers=4 must reproduce the serial run exactly: same feature
        list (order included), budgets, solutions, and objective."""
        layout, fill_rules, density_rules, prepared = t1_setup
        runs = {}
        for workers in (1, 4):
            cfg = _config(
                fill_rules, density_rules, method=method, seed=seed, workers=workers
            )
            engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
            runs[workers] = engine.run()
        serial, parallel = runs[1], runs[4]
        assert serial.features == parallel.features
        assert serial.requested_budget == parallel.requested_budget
        assert serial.effective_budget == parallel.effective_budget
        assert serial.model_objective_ps == parallel.model_objective_ps
        assert {k: s.counts for k, s in serial.tile_solutions.items()} == {
            k: s.counts for k, s in parallel.tile_solutions.items()
        }

    def test_mvdc_parallel_matches_serial(self, t1_setup):
        layout, fill_rules, density_rules, prepared = t1_setup
        runs = {}
        for workers in (1, 3):
            cfg = _config(
                fill_rules, density_rules, method="greedy", workers=workers
            )
            engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
            runs[workers] = engine.run_mvdc(slack_fraction=0.3)
        assert runs[1].features == runs[3].features
        assert runs[1].effective_budget == runs[3].effective_budget


class TestProcessBackend:
    @pytest.mark.parametrize("method", METHODS)
    def test_bit_identical_to_serial(self, t1_setup, method):
        """The process pool must reproduce the serial run exactly: the
        payloads carry bit-identical cost tables and the per-tile RNG is
        re-derived from (seed, key) inside the worker."""
        layout, fill_rules, density_rules, prepared = t1_setup
        runs = {}
        for workers in (1, 2):
            cfg = _config(
                fill_rules, density_rules, method=method, seed=2, workers=workers
            )
            engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
            runs[workers] = engine.run()
        serial, process = runs[1], runs[2]
        assert serial.features == process.features
        assert serial.effective_budget == process.effective_budget
        assert serial.model_objective_ps == process.model_objective_ps
        assert {k: s.counts for k, s in serial.tile_solutions.items()} == {
            k: s.counts for k, s in process.tile_solutions.items()
        }

    def test_mvdc_process_matches_serial(self, t1_setup):
        layout, fill_rules, density_rules, prepared = t1_setup
        runs = {}
        for workers in (1, 2):
            cfg = _config(fill_rules, density_rules, method="greedy", workers=workers)
            engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
            runs[workers] = engine.run_mvdc(slack_fraction=0.3)
        assert runs[1].features == runs[2].features
        assert runs[1].effective_budget == runs[2].effective_budget

    def test_payloads_are_picklable_and_compact(self, t1_setup):
        """Payloads must pickle standalone (no layout/engine references)."""
        import pickle

        layout, fill_rules, density_rules, prepared = t1_setup
        cfg = _config(fill_rules, density_rules, method="greedy")
        engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
        baseline = engine.run()
        costs_by_tile = prepared.costs_for(cfg.weighted)
        key = next(iter(baseline.tile_solutions))
        payload = TilePayload(
            key=key, method="greedy", budget=baseline.effective_budget[key],
            weighted=cfg.weighted, ilp_backend=cfg.backend, seed=cfg.seed,
            costs=costs_by_tile[key],
        )
        blob = pickle.dumps(payload)
        outcome = solve_tile_payload(pickle.loads(blob))
        assert outcome.value.counts == baseline.tile_solutions[key].counts
        # Compactness: a tile ships in kilobytes, not a pickled layout.
        assert len(blob) < 200_000

    def test_payload_ships_only_its_tiles_slices(self, t1_setup):
        """A one-tile payload cut from the whole-grid tables round-trips
        its arrays byte for byte, and pickles the tile's own slices plus
        its columns — never the grid's arrays behind them."""
        import pickle

        costs_by_tile = t1_setup[-1].costs_for(True)
        key = max(costs_by_tile, key=lambda k: costs_by_tile[k].capacity)
        costs = costs_by_tile[key]
        assert costs.exact.base is not None  # a view into the grid's arrays
        payload = TilePayload(
            key=key, method="greedy", budget=1, weighted=True,
            ilp_backend="scipy", seed=0, costs=costs,
        )
        blob = pickle.dumps(payload)
        shipped = pickle.loads(blob).costs
        for name in ("capacities", "exact", "linear"):
            got, want = getattr(shipped, name), getattr(costs, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        assert slack_columns(shipped.columns) == slack_columns(costs.columns)
        own = costs.capacities.nbytes + costs.exact.nbytes + costs.linear.nbytes
        # The fixed part: the payload's scalar fields and three array headers.
        overhead = 2_000
        assert len(blob) <= own + len(pickle.dumps(costs.columns)) + overhead
        assert len(blob) < costs.exact.base.nbytes

    def test_pickled_view_is_a_one_tile_table(self, t1_setup):
        """A payload's column view pickles as a table of the tile's own
        rows: it names only the lines those rows name, and the tile digest
        of the round-tripped tables equals the parent's, byte for byte."""
        import pickle

        costs_by_tile = t1_setup[-1].costs_for(True)
        layer_lines = t1_setup[-1].columns_by_tile.lines
        checked = 0
        for key, costs in costs_by_tile.items():
            shipped = pickle.loads(pickle.dumps(costs))
            view = shipped.columns
            assert (view.key, view.lo, view.hi) == (key, 0, len(costs))
            assert view.table.tile_keys == [key]
            below, above = costs.columns.neighbors()
            named = sorted({at for at in below + above if at >= 0})
            assert view.table.lines == [layer_lines[at] for at in named]
            assert tile_digest("ctx", key, shipped, 1) == tile_digest("ctx", key, costs, 1)
            checked += bool(named) and len(named) < len(layer_lines)
        assert checked  # some tile names lines, and fewer than the layer has

    def test_parallel_backend_validated(self, t1_setup):
        _, fill_rules, density_rules, _ = t1_setup
        with pytest.raises(FillError, match="backend"):
            _config(fill_rules, density_rules, parallel_backend="mpi")

    def test_dispatch_backend_validated(self, t1_setup):
        """The process pool is the only pool kind: the thread pool is gone."""
        _, fill_rules, density_rules, _ = t1_setup
        cfg = _config(fill_rules, density_rules, parallel_backend="process")
        assert cfg.parallel_backend == "process"
        with pytest.raises(FillError, match="backend"):
            _config(fill_rules, density_rules, parallel_backend="thread")


class TestNormalSiteSampling:
    def test_places_exactly_the_sampled_sites(self, t1_setup):
        """The placement must be the drawn (column, site) slots — not the
        first ``count`` sites of each column (the pre-fix bug)."""
        layout, fill_rules, density_rules, prepared = t1_setup
        cfg = _config(fill_rules, density_rules, method="normal", seed=1)
        result = PILFillEngine(layout, "metal3", cfg, prepared=prepared).run()
        costs_by_tile = prepared.costs_for(cfg.weighted)

        expected = []
        non_prefix_columns = 0
        for tile in prepared.dissection.tiles():
            solution = result.tile_solutions.get(tile.key)
            if solution is None:
                continue
            assert solution.site_indices is not None
            capacities = costs_by_tile[tile.key].capacities.tolist()
            sites = prepared.columns_by_tile[tile.key].sites()
            for k, capacity in enumerate(capacities):
                picked = solution.sites_for(k)
                assert len(picked) == solution.counts[k]
                assert all(0 <= s < capacity for s in picked)
                if picked and picked != tuple(range(len(picked))):
                    non_prefix_columns += 1
                for s in picked:
                    expected.append(sites[k][s])
        assert [f.rect for f in result.features] == expected
        # With 1000+ random slots the sample is essentially never a pure
        # column prefix everywhere; this is what the old code collapsed to.
        assert non_prefix_columns > 0

    def test_reproducible_regardless_of_tile_order(self, t1_setup):
        """Per-tile RNGs make each tile's draw a function of (seed, key)
        only, so visiting tiles in any order yields the same solution."""
        layout, fill_rules, density_rules, prepared = t1_setup
        cfg = _config(fill_rules, density_rules, method="normal", seed=5)
        engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
        baseline = engine.run()
        budget = baseline.requested_budget
        costs_by_tile = prepared.costs_for(cfg.weighted)

        keys = sorted(baseline.tile_solutions)
        for order in (keys, list(reversed(keys))):
            outcomes = dispatch_tile_payloads([
                TilePayload(
                    key=key, method="normal", budget=baseline.effective_budget[key],
                    weighted=cfg.weighted, ilp_backend=cfg.backend, seed=cfg.seed,
                    costs=costs_by_tile[key],
                )
                for key in order
            ])
            for key in keys:
                assert outcomes[key].value.counts == baseline.tile_solutions[key].counts
                assert (
                    outcomes[key].value.site_indices
                    == baseline.tile_solutions[key].site_indices
                )
        assert sum(budget.values()) > 0

    def test_tile_rng_is_stable(self):
        a = tile_rng(7, (3, 4)).random()
        b = tile_rng(7, (3, 4)).random()
        c = tile_rng(7, (4, 3)).random()
        assert a == b
        assert a != c


class TestTileRngOnDemand:
    """Only the Normal baseline draws from a tile's RNG, so only a Normal
    rung derives one; the digests pin that the streams did not move."""

    #: ``result_digest`` of T1/32/2 at seed 3 (scipy backend), from before
    #: the RNG was derived on demand.
    NORMAL_DIGEST = "8dae0249a1dff59f89b3e11193cbe1cb645b3df5981277a790d5a06a67b0f80a"
    MVDC_DIGEST = "f2e3ef4d27297a04dbb0440207d880264d6f4e4fede85af85a91d54fd5430e99"

    @pytest.fixture
    def rng_calls(self, monkeypatch):
        import repro.pilfill.parallel as parallel_mod

        calls: list[tuple[int, tuple[int, int]]] = []

        def spy(seed, key):
            calls.append((seed, key))
            return tile_rng(seed, key)

        monkeypatch.setattr(parallel_mod, "tile_rng", spy)
        return calls

    def _engine(self, t1_setup, method):
        layout, fill_rules, density_rules, prepared = t1_setup
        cfg = _config(fill_rules, density_rules, method=method, seed=3)
        return PILFillEngine(layout, "metal3", cfg, prepared=prepared)

    def test_ilp2_run_derives_no_rng(self, t1_setup, rng_calls):
        result = self._engine(t1_setup, "ilp2").run()
        assert result.tile_solutions
        assert rng_calls == []

    def test_normal_run_derives_one_rng_per_solved_tile(self, t1_setup, rng_calls):
        result = self._engine(t1_setup, "normal").run()
        assert result_digest(result) == self.NORMAL_DIGEST
        assert sorted(rng_calls) == sorted((3, key) for key in result.tile_solutions)

    def test_mvdc_run_derives_no_rng(self, t1_setup, rng_calls):
        result = self._engine(t1_setup, "greedy").run_mvdc(0.25)
        assert result_digest(result) == self.MVDC_DIGEST
        assert rng_calls == []


class TestCostTableDigests:
    """``result_digest`` of T1/32/2 at seed 3 (scipy backend) for the runs
    that read the cost tables through the allocation kernels, ILP-I's
    unweighted model and the capacitance-budgeted variant, pinned before
    the tables became one array representation."""

    MARGINAL_DIGEST = "26adb05729a53db3f03907bf32099fbd15e0ae0450d24c8596a3267ef3e84a93"
    ILP1_UNWEIGHTED_DIGEST = "022c5867ef95023243797ed7e9b7ee19c30128cf150c02f434bf5785875b5bad"
    #: (slack fraction, exact) -> digest. At 0.0002 the budgets bind: five
    #: tiles fall back from the ILP to the budgeted greedy, and both
    #: variants place fewer features than requested.
    BUDGETED_DIGESTS = {
        (0.05, True): "ef3c0c92b25a5be2e003a19e8a132238aad41b334faafb7c300b514fe8d0aa2c",
        (0.05, False): "eefd086c3718e21651e7aef96f4fa3a6017c44f83a8dde0d2650fe5b0cf2e254",
        (0.0002, True): "d50762917ea7fd572c7f2fa12a36aac76bfc8c4095e59091621f9f5d58489784",
        (0.0002, False): "a073123b8858b7fcc26e0433f6d629ccdd299f1a8bb54ce999d26d398f87d97d",
    }

    def _engine(self, t1_setup, **kwargs):
        layout, fill_rules, density_rules, prepared = t1_setup
        cfg = _config(fill_rules, density_rules, seed=3, **kwargs)
        return PILFillEngine(layout, "metal3", cfg, prepared=prepared)

    @pytest.mark.parametrize("method", ("greedy_marginal", "dp"))
    def test_exact_allocation_kernels(self, t1_setup, method):
        # Both are optimal on convex tables and sum the objective in
        # column order, so they digest equal.
        result = self._engine(t1_setup, method=method).run()
        assert result_digest(result) == self.MARGINAL_DIGEST

    def test_unweighted_ilp1(self, t1_setup):
        result = self._engine(t1_setup, method="ilp1", weighted=False).run()
        assert result_digest(result) == self.ILP1_UNWEIGHTED_DIGEST

    @pytest.mark.parametrize(("fraction", "exact"), sorted(BUDGETED_DIGESTS))
    def test_budgeted(self, t1_setup, fraction, exact):
        budgets = derive_net_cap_budgets(t1_setup[0], fraction)
        result = self._engine(t1_setup, method="ilp2").run_budgeted(budgets, exact=exact)
        assert result_digest(result) == self.BUDGETED_DIGESTS[(fraction, exact)]


class TestPreparedSharing:
    def test_run_config_builds_preprocessing_once(self, t1_layout):
        before = PreparedInstance.build_count
        result = run_config(t1_layout, "T1", 32, 2, backend="scipy")
        assert PreparedInstance.build_count == before + 1
        assert set(result.outcomes) == {"normal", "ilp1", "ilp2", "greedy"}
        # The shared preprocessing timings surface on the row.
        assert {"setup", "scanline"} <= set(result.prepare_seconds)

    def test_budget_override_skips_density_map(
        self, small_generated_layout, fill_rules, monkeypatch
    ):
        def boom(*args, **kwargs):  # pragma: no cover - fails the test if hit
            raise AssertionError("density map must not be built with a budget override")

        cfg = _config(
            fill_rules, DensityRules(window_size=16000, r=2, max_density=0.6),
            method="greedy",
        )
        baseline = PILFillEngine(small_generated_layout, "metal3", cfg).run()
        monkeypatch.setattr(density_module.DensityMap, "from_layout", boom)
        engine = PILFillEngine(small_generated_layout, "metal3", cfg)
        result = engine.run(budget=baseline.requested_budget)
        assert result.effective_budget == baseline.effective_budget
        assert result.phase_seconds["density"] == 0.0

    def test_budget_for_is_cached(self, t1_setup):
        layout, fill_rules, density_rules, prepared = t1_setup
        cfg = _config(fill_rules, density_rules)
        first = prepared.budget_for(cfg)
        second = prepared.budget_for(cfg)
        assert first == second
        assert first is not second  # defensive copies

    def test_mismatched_prepared_rejected(self, t1_setup):
        layout, fill_rules, density_rules, prepared = t1_setup
        other_rules = density_rules_for(20, 2, layout.stack)
        cfg = _config(fill_rules, other_rules)
        with pytest.raises(FillError, match="density rules"):
            PILFillEngine(layout, "metal3", cfg, prepared=prepared)

    def test_prepared_wrong_layer_rejected(self, t1_setup):
        layout, fill_rules, density_rules, prepared = t1_setup
        cfg = _config(fill_rules, density_rules)
        with pytest.raises(FillError, match="layout/layer"):
            PILFillEngine(layout, "metal4", cfg, prepared=prepared)


class TestGuards:
    def test_workers_validated(self, t1_setup):
        _, fill_rules, density_rules, _ = t1_setup
        with pytest.raises(FillError, match="workers"):
            _config(fill_rules, density_rules, workers=0)

    def test_dispatch_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            dispatch_tile_payloads([], workers=0)

    def test_trim_to_underflow_raises(self):
        """A zero-count solution asked to shrink further must raise, not
        decrement counts[-1] into the negatives."""
        neighbor = ColumnNeighbor(net="n", line_index=0, sinks=1, resistance_ohm=1.0)
        col = ElectricalColumn(gap_um=4.0, below=neighbor, above=neighbor)
        costs = pack_costs([(0.0, 1.0, 2.0)], columns=[col])
        # counts disagree with the cost tables: total 2 but no positive
        # entry the trimmer can take a feature from.
        bad = TileSolution(counts=[0, 2], model_objective_ps=2.0)
        with pytest.raises(FillError, match="trim"):
            trim_to(costs, bad, want=1)
