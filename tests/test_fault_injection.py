"""Fault injection: deadlines, fallback chain, per-tile isolation, retry.

Exercises every edge of the robust solve layer deterministically via
:mod:`repro.testing.faults`: ILP-II → ILP-I → Greedy degradation, worker
death + retry on both dispatch paths (in-process and the process pool),
per-tile and per-run deadlines, and the acceptance sweep
(20% of tiles lose ILP-II, one tile's worker dies — the table still
completes, degraded cells are annotated, non-faulted tiles bit-identical).
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    FillError,
    SolverError,
    SolveTimeoutError,
    WorkerDeathError,
)
from repro.experiments import TableSpec, run_config, run_table
from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    SlackColumnDef,
    fallback_chain,
    prepare,
)
from repro.tech import DensityRules, FillRules
from repro.testing.faults import FaultRule, FaultSpec, sample_tiles
from tests.invariants import assert_fill_invariants

FILL = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
DENSITY = DensityRules(window_size=16000, r=2, max_density=0.6)

#: Worker counts covering both dispatch paths (in-process, process pool).
WORKERS = [
    pytest.param(1, id="serial"),
    pytest.param(2, id="process"),
]


def make_cfg(method="ilp2", **kwargs):
    return EngineConfig(
        fill_rules=FILL, density_rules=DENSITY, method=method, **kwargs
    )


@pytest.fixture(scope="module")
def prepared(small_generated_layout):
    return prepare(
        small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
    )


@pytest.fixture(scope="module")
def base_ilp2(small_generated_layout, prepared):
    """No-fault ILP-II reference run (solutions compared tile-by-tile)."""
    return PILFillEngine(
        small_generated_layout, "metal3", make_cfg("ilp2"), prepared=prepared
    ).run()


def faulted_run(layout, prepared, method, spec, budget=None, **kwargs):
    cfg = make_cfg(method, fault_spec=spec, **kwargs)
    return PILFillEngine(layout, "metal3", cfg, prepared=prepared).run(budget=budget)


def assert_non_faulted_identical(result, base, faulted_keys):
    """Tiles outside ``faulted_keys`` must match the reference bit-for-bit."""
    for key, solution in base.tile_solutions.items():
        if key in faulted_keys:
            continue
        assert result.tile_solutions[key].counts == solution.counts, (
            f"non-faulted tile {key} diverged from the no-fault run"
        )
        assert result.tile_solutions[key].site_indices == solution.site_indices


class TestFaultSpecUnit:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FillError, match="fault kind"):
            FaultRule(kind="segfault")

    def test_single_rule_matching(self):
        spec = FaultSpec.single("error", tiles=[(0, 0)], methods=("ilp2",), attempts=(0,))
        with pytest.raises(SolverError):
            spec.check((0, 0), "ilp2", 0)
        spec.check((0, 1), "ilp2", 0)  # other tile: no fault
        spec.check((0, 0), "ilp1", 0)  # other method: no fault
        spec.check((0, 0), "ilp2", 1)  # retry attempt: no fault (transient)

    def test_exception_types(self):
        for kind, exc in (
            ("error", SolverError),
            ("timeout", SolveTimeoutError),
            ("worker_death", WorkerDeathError),
        ):
            with pytest.raises(exc):
                FaultSpec.single(kind, attempts=None).check((0, 0), "ilp2", 3)

    def test_persistent_rule_fires_on_every_attempt(self):
        spec = FaultSpec.single("error", attempts=None)
        for attempt in range(3):
            with pytest.raises(SolverError):
                spec.check((1, 1), "greedy", attempt)

    def test_sample_tiles_deterministic_and_bounded(self):
        keys = [(i, j) for i in range(5) for j in range(4)]
        picked = sample_tiles(keys, 0.2, seed=3)
        assert picked == sample_tiles(reversed(keys), 0.2, seed=3)
        assert len(picked) == 4  # 20% of 20
        assert picked <= set(keys)
        assert sample_tiles(keys, 0.0) == frozenset()
        assert len(sample_tiles(keys, 1e-9)) == 1  # at least one when > 0
        with pytest.raises(FillError):
            sample_tiles(keys, 1.5)

    def test_fallback_chain_shape(self):
        assert fallback_chain("ilp2") == ("ilp2", "ilp1", "greedy")
        assert fallback_chain("ilp1") == ("ilp1", "greedy")
        assert fallback_chain("greedy") == ("greedy",)
        assert fallback_chain("normal") == ("normal", "greedy")


class TestFallbackEdges:
    """Each edge of the degradation chain, serial dispatch."""

    def test_ilp2_degrades_to_ilp1(self, small_generated_layout, prepared, base_ilp2):
        faulted = sorted(base_ilp2.tile_solutions)[:2]
        spec = FaultSpec.single("error", tiles=faulted, methods=("ilp2",), attempts=None)
        result = faulted_run(
            small_generated_layout, prepared, "ilp2", spec,
            budget=base_ilp2.requested_budget,
        )
        assert result.degraded_tiles == faulted
        for key in faulted:
            report = result.solve_reports[key]
            assert report.used_method == "ilp1" and report.requested_method == "ilp2"
            assert any("ilp2" in e for e in report.errors)
        assert_non_faulted_identical(result, base_ilp2, set(faulted))
        assert_fill_invariants(result, prepared)

    def test_ilp2_degrades_past_ilp1_to_greedy(
        self, small_generated_layout, prepared, base_ilp2
    ):
        faulted = sorted(base_ilp2.tile_solutions)[:1]
        spec = FaultSpec.single(
            "error", tiles=faulted, methods=("ilp2", "ilp1"), attempts=None
        )
        result = faulted_run(
            small_generated_layout, prepared, "ilp2", spec,
            budget=base_ilp2.requested_budget,
        )
        report = result.solve_reports[faulted[0]]
        assert report.used_method == "greedy"
        assert len(report.errors) == 2  # both ILP rungs failed
        assert_non_faulted_identical(result, base_ilp2, set(faulted))
        assert_fill_invariants(result, prepared)

    def test_ilp1_degrades_to_greedy(self, small_generated_layout, prepared):
        base = PILFillEngine(
            small_generated_layout, "metal3", make_cfg("ilp1"), prepared=prepared
        ).run()
        faulted = sorted(base.tile_solutions)[:2]
        spec = FaultSpec.single("error", tiles=faulted, methods=("ilp1",), attempts=None)
        result = faulted_run(
            small_generated_layout, prepared, "ilp1", spec,
            budget=base.requested_budget,
        )
        assert result.degraded_tiles == faulted
        assert all(
            result.solve_reports[k].used_method == "greedy" for k in faulted
        )
        assert_non_faulted_identical(result, base, set(faulted))
        assert_fill_invariants(result, prepared)

    def test_chain_exhausted_tile_fails_sweep_survives(
        self, small_generated_layout, prepared, base_ilp2
    ):
        faulted = sorted(base_ilp2.tile_solutions)[:1]
        spec = FaultSpec.single(
            "error", tiles=faulted, methods=("ilp2", "ilp1", "greedy"), attempts=None
        )
        result = faulted_run(
            small_generated_layout, prepared, "ilp2", spec,
            budget=base_ilp2.requested_budget,
        )
        assert result.failed_tiles == faulted
        report = result.solve_reports[faulted[0]]
        assert report.failed and report.retries == 1  # one dispatcher retry spent
        assert result.tile_solutions[faulted[0]].total_features == 0
        # Everyone else is untouched and the total only misses the failed tile.
        assert_non_faulted_identical(result, base_ilp2, set(faulted))
        missing = base_ilp2.tile_solutions[faulted[0]].total_features
        assert result.total_features == base_ilp2.total_features - missing
        assert_fill_invariants(result, prepared)


class TestWorkerDeathRetry:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_transient_death_retried_bit_identical(
        self, small_generated_layout, prepared, base_ilp2, workers
    ):
        """A worker dying once on a tile is retried with the same derived
        RNG — the final result is bit-identical to the no-fault run."""
        key = sorted(base_ilp2.tile_solutions)[0]
        spec = FaultSpec.single("worker_death", tiles=[key], attempts=(0,))
        result = faulted_run(
            small_generated_layout, prepared, "ilp2", spec,
            budget=base_ilp2.requested_budget,
            workers=workers,
        )
        assert result.retried_tiles == [key]
        assert result.failed_tiles == [] and result.degraded_tiles == []
        assert [f.rect for f in result.features] == [f.rect for f in base_ilp2.features]
        assert_fill_invariants(result, prepared)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_persistent_death_fails_tile_only(
        self, small_generated_layout, prepared, base_ilp2, workers
    ):
        key = sorted(base_ilp2.tile_solutions)[0]
        spec = FaultSpec.single("worker_death", tiles=[key], attempts=None)
        result = faulted_run(
            small_generated_layout, prepared, "ilp2", spec,
            budget=base_ilp2.requested_budget,
            workers=workers,
        )
        assert result.failed_tiles == [key]
        assert "WorkerDeathError" in result.solve_reports[key].errors[0]
        assert_non_faulted_identical(result, base_ilp2, {key})
        assert_fill_invariants(result, prepared)

    def test_normal_method_retry_keeps_rng_stream(
        self, small_generated_layout, prepared
    ):
        """The stochastic Normal baseline re-derives its tile RNG on the
        retry, so the re-drawn sample equals the no-fault draw exactly."""
        base = PILFillEngine(
            small_generated_layout, "metal3", make_cfg("normal", seed=11),
            prepared=prepared,
        ).run()
        key = sorted(base.tile_solutions)[0]
        spec = FaultSpec.single("worker_death", tiles=[key], attempts=(0,))
        result = faulted_run(
            small_generated_layout, prepared, "normal", spec,
            budget=base.requested_budget, seed=11,
        )
        assert result.retried_tiles == [key]
        assert [f.rect for f in result.features] == [f.rect for f in base.features]


class TestDeadlines:
    def test_50ms_tile_deadline_triggers_time_limit_fallback(
        self, small_generated_layout, prepared, base_ilp2, monkeypatch
    ):
        """A real 50 ms per-tile deadline: the bundled solver's LP is
        slowed to ~60 ms per relaxation, so every ILP attempt exceeds the
        deadline, surfaces TIME_LIMIT, and degrades to Greedy."""
        import repro.ilp.branchbound as bb

        real_solve_lp = bb.solve_lp

        def slow_solve_lp(*args, **kwargs):
            time.sleep(0.06)
            return real_solve_lp(*args, **kwargs)

        monkeypatch.setattr(bb, "solve_lp", slow_solve_lp)
        result = faulted_run(
            small_generated_layout, prepared, "ilp2", None,
            budget=base_ilp2.requested_budget,
            backend="bundled", tile_deadline_s=0.05,
        )
        assert result.failed_tiles == []
        solved = sorted(result.tile_solutions)
        assert result.degraded_tiles == solved  # every ILP tile degraded
        for key in solved:
            report = result.solve_reports[key]
            assert report.used_method == "greedy"
            assert all("deadline" in e for e in report.errors)
            assert report.retries == 0  # timeouts are never retried
        assert_fill_invariants(result, prepared)

    def test_run_deadline_skips_remaining_tiles(
        self, small_generated_layout, prepared, base_ilp2
    ):
        result = faulted_run(
            small_generated_layout, prepared, "ilp2", None,
            budget=base_ilp2.requested_budget, run_deadline_s=1e-6,
        )
        assert result.total_features == 0
        assert result.failed_tiles == sorted(result.tile_solutions)
        assert all(
            "run deadline" in r.errors[0] for r in result.solve_reports.values()
        )
        assert_fill_invariants(result, prepared)

    def test_injected_timeout_not_retried(
        self, small_generated_layout, prepared, base_ilp2
    ):
        """A tile whose whole chain times out fails with retries=0 — a
        deadline that fired once would fire on the retry too."""
        key = sorted(base_ilp2.tile_solutions)[0]
        spec = FaultSpec.single(
            "timeout", tiles=[key], methods=("ilp2", "ilp1", "greedy"), attempts=None
        )
        result = faulted_run(
            small_generated_layout, prepared, "ilp2", spec,
            budget=base_ilp2.requested_budget,
        )
        assert result.failed_tiles == [key]
        assert result.solve_reports[key].retries == 0

    def test_bad_deadline_rejected(self):
        with pytest.raises(FillError, match="tile_deadline_s"):
            make_cfg(tile_deadline_s=0.0)
        with pytest.raises(FillError, match="run_deadline_s"):
            make_cfg(run_deadline_s=-1.0)


class TestStrictMode:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_fallback_false_propagates_fault(
        self, small_generated_layout, prepared, base_ilp2, workers
    ):
        """Strict mode raises the injected error on both dispatch paths:
        the pool's parent-side re-solve of the failed chunk re-raises."""
        key = sorted(base_ilp2.tile_solutions)[0]
        spec = FaultSpec.single("error", tiles=[key], methods=("ilp2",), attempts=None)
        with pytest.raises(SolverError):
            faulted_run(
                small_generated_layout, prepared, "ilp2", spec,
                budget=base_ilp2.requested_budget, fallback=False, workers=workers,
            )

    def test_fallback_false_unfaulted_matches_robust_run(
        self, small_generated_layout, prepared, base_ilp2
    ):
        """Robust mode must not change successful solves: strict and
        robust runs are bit-identical when nothing fails."""
        strict = faulted_run(
            small_generated_layout, prepared, "ilp2", None,
            budget=base_ilp2.requested_budget, fallback=False,
        )
        assert [f.rect for f in strict.features] == [
            f.rect for f in base_ilp2.features
        ]
        # Strict mode records an ok report per solved tile (no robust layer,
        # but `clean` must rest on evidence, not an empty report dict).
        assert set(strict.solve_reports) == set(strict.tile_solutions)
        assert all(
            r.ok and r.used_method == "ilp2" and r.retries == 0
            for r in strict.solve_reports.values()
        )
        assert strict.clean


class TestHarnessAndTables:
    def test_run_config_counts_degraded_tiles(self, small_generated_layout):
        spec = FaultSpec.single("error", methods=("ilp2",), attempts=None)
        result = run_config(
            small_generated_layout, "small", window_um=16, r=2,
            methods=("normal", "ilp2", "greedy"), fault_spec=spec,
        )
        ilp2 = result.outcomes["ilp2"]
        assert ilp2.degraded_tiles > 0 and not ilp2.clean
        assert result.outcomes["greedy"].clean
        assert result.outcomes["normal"].clean

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", WORKERS)
    def test_acceptance_sweep_with_faults(
        self, small_generated_layout, prepared, base_ilp2, workers
    ):
        """The ISSUE acceptance scenario: ILP-II dies on 20% of tiles and
        one tile's worker dies once — the sweep completes on every
        dispatch path, degraded tiles are reported, and non-faulted tiles are
        bit-identical to the no-fault run."""
        tiles = sorted(base_ilp2.tile_solutions)
        killed = sample_tiles(tiles, 0.2, seed=42)
        dead_worker_tile = next(k for k in tiles if k not in killed)
        spec = FaultSpec(
            rules=(
                FaultRule(kind="error", tiles=killed, methods=("ilp2",), attempts=None),
                FaultRule(kind="worker_death", tiles=frozenset({dead_worker_tile}),
                          attempts=(0,)),
            )
        )
        result = faulted_run(
            small_generated_layout, prepared, "ilp2", spec,
            budget=base_ilp2.requested_budget,
            workers=workers,
        )
        assert result.degraded_tiles == sorted(killed)
        assert result.failed_tiles == []
        assert dead_worker_tile in result.retried_tiles
        assert_non_faulted_identical(result, base_ilp2, killed)
        assert_fill_invariants(result, prepared)

    def test_table1_end_to_end_annotates_star_and_bang(
        self, small_generated_layout, base_ilp2
    ):
        """Table 1 under faults, end to end: a degraded cell renders with
        ``*``, a cell with failed tiles with ``!``, the legend explains
        both, and the CSV carries the per-cell degraded/failed counts."""
        t0, t1 = sorted(base_ilp2.tile_solutions)[:2]
        spec = TableSpec(
            testcases=("small",), windows_um=(16,), r_values=(2,),
            fault_spec=FaultSpec(rules=(
                # t0: ILP-II degrades to ILP-I -> the ilp2 cell gets `*`.
                FaultRule(kind="error", tiles=frozenset({t0}),
                          methods=("ilp2",), attempts=None),
                # t1: ILP-I's whole chain dies -> the ilp1 cell gets `!`
                # (greedy's own cell fails on t1 too).
                FaultRule(kind="error", tiles=frozenset({t1}),
                          methods=("ilp1", "greedy"), attempts=None),
            )),
        )
        table = run_table(
            weighted=False, spec=spec, layouts={"small": small_generated_layout}
        )
        row = table.rows[0]
        assert row.outcomes["ilp2"].degraded_tiles == 1
        assert row.outcomes["ilp1"].failed_tiles == 1
        assert row.outcomes["greedy"].failed_tiles == 1
        assert row.outcomes["normal"].clean
        assert table.degraded_cells == 3

        text = table.format()
        assert "*" in text and "!" in text
        assert "degraded to a cheaper fallback" in text
        assert "failed (left unfilled)" in text

        header, *rows = table.to_csv().strip().splitlines()
        cols = header.split(",")
        by_method = {
            line.split(",")[cols.index("method")]: line.split(",") for line in rows
        }
        deg, fail = cols.index("degraded_tiles"), cols.index("failed_tiles")
        assert by_method["ilp2"][deg] == "1" and by_method["ilp2"][fail] == "0"
        assert by_method["ilp1"][deg] == "0" and by_method["ilp1"][fail] == "1"
        assert by_method["greedy"][fail] == "1"
        assert by_method["normal"][deg] == "0" and by_method["normal"][fail] == "0"

    @pytest.mark.slow
    def test_table_sweep_annotates_degraded_cells(self, small_generated_layout):
        spec = TableSpec(
            testcases=("small",), windows_um=(16,), r_values=(2,),
            methods=("normal", "ilp1", "ilp2", "greedy"),
            fault_spec=FaultSpec.single(
                "error", methods=("ilp2",), attempts=None
            ),
        )
        table = run_table(
            weighted=False, spec=spec, layouts={"small": small_generated_layout}
        )
        assert table.degraded_cells > 0
        text = table.format()
        assert "*" in text and "degraded" in text
        csv = table.to_csv()
        assert "degraded_tiles" in csv.splitlines()[0]


# --- Property test: any fault pattern, the engine completes and the ---
# --- placement never exceeds the budget.                             ---

_KINDS = st.sampled_from(["error", "timeout", "worker_death"])
_METHOD_SETS = st.sampled_from(
    [None, ("ilp2",), ("ilp1",), ("greedy",), ("ilp2", "ilp1"),
     ("ilp2", "ilp1", "greedy")]
)
_ATTEMPTS = st.sampled_from([None, (0,), (1,), (0, 1)])
_RULES = st.builds(
    lambda kind, methods, attempts, frac, seed: (kind, methods, attempts, frac, seed),
    _KINDS, _METHOD_SETS, _ATTEMPTS,
    st.floats(min_value=0.0, max_value=1.0), st.integers(0, 10),
)


class TestFaultProperty:
    @pytest.mark.slow
    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rules=st.lists(_RULES, min_size=1, max_size=3))
    def test_any_fault_pattern_completes_within_budget(
        self, small_generated_layout, prepared, base_ilp2, rules
    ):
        tiles = sorted(base_ilp2.tile_solutions)
        spec = FaultSpec(
            rules=tuple(
                FaultRule(
                    kind=kind,
                    tiles=sample_tiles(tiles, frac, seed=seed) or None,
                    methods=methods,
                    attempts=attempts,
                )
                for kind, methods, attempts, frac, seed in rules
            )
        )
        result = faulted_run(
            small_generated_layout, prepared, "ilp2", spec,
            budget=base_ilp2.requested_budget,
        )
        # Completion: every solvable tile has a solution (possibly empty).
        assert set(result.tile_solutions) == set(base_ilp2.tile_solutions)
        # Budget: no tile ever exceeds its effective budget.
        assert result.total_features <= base_ilp2.total_features
        assert_fill_invariants(result, prepared)
