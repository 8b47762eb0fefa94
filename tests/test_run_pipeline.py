"""The one run pipeline: every mode × every knob, MVDC caching, digest pins.

``PILFillEngine.run`` is the only solve loop; ``run_mvdc`` is the same
loop with the MVDC per-tile strategy, and ``run_budgeted`` keeps its
serial capacity-ordered visit but shares the merge. Regression targets:

* every (mode, knob) cell either shows the knob's effect or raises
  :class:`FillError` — no knob is silently ignored,
* an MVDC run warmed from the solution cache equals the cold run, and
  MVDC and MDFC runs sharing one cache never hit each other's entries,
* MVDC and budgeted placements are pinned by ``result_digest``, and every
  solved tile of every mode carries exactly one ``SolveReport``,
* an unknown ILP backend is rejected up front instead of silently
  degrading every ILP tile to Greedy.
"""

from __future__ import annotations

import pytest

from repro.errors import FillError, SolverError
from repro.ilp import ILP_BACKENDS
from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    SlackColumnDef,
    SolutionCache,
    derive_net_cap_budgets,
    pool_stats,
    prepare,
    result_digest,
    shutdown_pools,
)
from repro.synth import default_fill_rules, density_rules_for, make_t1, make_t2
from repro.tech import DensityRules, FillRules
from repro.testing.faults import FaultSpec

FILL = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
DENSITY = DensityRules(window_size=16000, r=2, max_density=0.6)

MODES = ("run", "mvdc", "budgeted")

#: The per-tile method each mode requests (what fault rules match on).
MODE_METHOD = {"run": "ilp2", "mvdc": "mvdc", "budgeted": "budgeted_ilp"}


def make_cfg(**kwargs):
    kwargs.setdefault("method", "ilp2")
    kwargs.setdefault("backend", "scipy")
    return EngineConfig(fill_rules=FILL, density_rules=DENSITY, **kwargs)


def run_mode(engine: PILFillEngine, mode: str, net_budgets: dict[str, float]):
    if mode == "run":
        return engine.run()
    if mode == "mvdc":
        return engine.run_mvdc(slack_fraction=0.3)
    return engine.run_budgeted(net_budgets, exact=True)


def assert_one_report_per_tile(result):
    assert result.tile_solutions
    assert set(result.solve_reports) == set(result.tile_solutions)


@pytest.fixture(scope="module")
def prepared(small_generated_layout):
    prep = prepare(
        small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
    )
    yield prep
    prep.close()


@pytest.fixture(scope="module")
def net_budgets(small_generated_layout):
    return derive_net_cap_budgets(small_generated_layout, slack_fraction_ps=0.05)


@pytest.fixture(scope="module")
def baselines(small_generated_layout, prepared, net_budgets):
    """Default-knob reference run of every mode."""
    return {
        mode: run_mode(
            PILFillEngine(small_generated_layout, "metal3", make_cfg(), prepared=prepared),
            mode,
            net_budgets,
        )
        for mode in MODES
    }


class TestKnobModeMatrix:
    """Each cell either shows the knob's effect or raises FillError."""

    @pytest.fixture
    def run_with(self, small_generated_layout, prepared, net_budgets):
        def go(mode, **knobs):
            engine = PILFillEngine(
                small_generated_layout, "metal3", make_cfg(**knobs), prepared=prepared
            )
            result = run_mode(engine, mode, net_budgets)
            assert_one_report_per_tile(result)
            return result

        return go

    @pytest.mark.parametrize(
        "mode,knobs",
        [
            ("budgeted", {"workers": 2}),
            ("budgeted", {"shards": 3}),
            ("budgeted", {"solution_cache": SolutionCache()}),
            ("budgeted", {"fallback": False}),
            ("budgeted", {"fault_spec": FaultSpec.single("error")}),
            ("mvdc", {"tile_deadline_s": 1.0}),
        ],
        ids=lambda v: v if isinstance(v, str) else next(iter(v)),
    )
    def test_rejected_knobs_raise(self, run_with, mode, knobs):
        with pytest.raises(FillError, match=next(iter(knobs))):
            run_with(mode, **knobs)

    @pytest.mark.parametrize("mode", ["run", "mvdc"])
    def test_workers_use_the_process_pool(self, run_with, baselines, mode):
        shutdown_pools()
        created = pool_stats()["created"]
        try:
            result = run_with(mode, workers=2)
            assert pool_stats()["created"] == created + 1
        finally:
            shutdown_pools()
        assert result_digest(result) == result_digest(baselines[mode])

    @pytest.mark.parametrize("mode", ["run", "mvdc"])
    def test_shards_split_the_loop(self, run_with, baselines, mode):
        result = run_with(mode, shards=3, telemetry=True)
        names = [s.name for s in result.telemetry.tracer.records()]
        assert names.count("shard") == 3
        assert result_digest(result) == result_digest(baselines[mode])

    @pytest.mark.parametrize("mode", ["run", "mvdc"])
    def test_solution_cache_serves_warm_runs(self, run_with, baselines, mode):
        cache = SolutionCache()
        cold = run_with(mode, solution_cache=cache)
        warm = run_with(mode, solution_cache=cache)
        assert cold.cache_stats["misses"] == len(cold.tile_solutions) > 0
        assert warm.cache_stats["hits"] == cold.cache_stats["misses"]
        assert warm.cache_stats["misses"] == 0
        assert result_digest(warm) == result_digest(cold) == result_digest(baselines[mode])
        assert warm.solve_reports == cold.solve_reports

    @pytest.mark.parametrize("mode", ["run", "mvdc"])
    def test_fallback_false_propagates_first_failure(self, run_with, baselines, mode):
        key = sorted(baselines[mode].tile_solutions)[0]
        spec = FaultSpec.single(
            "error", tiles=[key], methods=(MODE_METHOD[mode],), attempts=(0,)
        )
        robust = run_with(mode, fault_spec=spec)
        assert key in robust.retried_tiles + robust.degraded_tiles
        with pytest.raises(SolverError, match="injected"):
            run_with(mode, fault_spec=spec, fallback=False)

    def test_fault_spec_degrades_mdfc_tile(self, run_with, baselines):
        key = sorted(baselines["run"].tile_solutions)[0]
        spec = FaultSpec.single("error", tiles=[key], methods=("ilp2",), attempts=None)
        result = run_with("run", fault_spec=spec)
        assert result.degraded_tiles == [key]
        assert result.solve_reports[key].used_method == "ilp1"

    def test_fault_spec_retries_mvdc_tile(self, run_with, baselines):
        key = sorted(baselines["mvdc"].tile_solutions)[0]
        spec = FaultSpec.single("error", tiles=[key], methods=("mvdc",), attempts=(0,))
        result = run_with("mvdc", fault_spec=spec)
        assert result.retried_tiles == [key]
        assert result.solve_reports[key].used_method == "mvdc"
        assert result_digest(result) == result_digest(baselines["mvdc"])

    @pytest.mark.parametrize("mode", MODES)
    def test_telemetry_records_every_tile(self, run_with, baselines, mode):
        result = run_with(mode, telemetry=True)
        counters = dict(result.telemetry.metrics.snapshot().counters)
        assert counters["tiles.solved"] == len(result.tile_solutions)
        names = [s.name for s in result.telemetry.tracer.records()]
        assert names.count("tile") == len(result.tile_solutions)
        assert result_digest(result) == result_digest(baselines[mode])
        assert baselines[mode].telemetry is None

    @pytest.mark.parametrize("mode", ["run", "budgeted"])
    def test_tile_deadline_degrades_ilp_tiles(self, run_with, mode):
        # Bundled branch-and-bound checks its deadline before the first
        # node, so a 1 ns limit times out every ILP attempt.
        result = run_with(mode, backend="bundled", tile_deadline_s=1e-9)
        assert result.failed_tiles == []
        assert result.degraded_tiles == sorted(result.tile_solutions)
        assert all(
            "deadline" in result.solve_reports[key].errors[-1]
            for key in result.degraded_tiles
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_run_deadline_fails_every_tile(self, run_with, mode):
        result = run_with(mode, run_deadline_s=1e-9)
        assert result.total_features == 0
        assert result.failed_tiles == sorted(result.tile_solutions)
        assert all(
            report.errors[-1].startswith("TIME_LIMIT")
            for report in result.solve_reports.values()
        )


class TestMvdcCache:
    def test_warm_mvdc_equals_cold(self, small_generated_layout, prepared, baselines):
        cache = SolutionCache()
        runs = [
            PILFillEngine(
                small_generated_layout, "metal3",
                make_cfg(solution_cache=cache, shards=shards), prepared=prepared,
            ).run_mvdc(slack_fraction=0.3)
            for shards in (1, 2)
        ]
        cold, warm = runs
        assert cold.cache_stats["hits"] == 0
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hits"] == cold.cache_stats["stores"] > 0
        assert result_digest(warm) == result_digest(cold) == result_digest(baselines["mvdc"])

    @pytest.mark.parametrize("first", ["run", "mvdc"])
    def test_mvdc_and_mdfc_never_share_entries(
        self, small_generated_layout, prepared, net_budgets, first
    ):
        cache = SolutionCache()
        engine = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(solution_cache=cache),
            prepared=prepared,
        )
        second = "mvdc" if first == "run" else "run"
        primed = run_mode(engine, first, net_budgets)
        other = run_mode(engine, second, net_budgets)
        again = run_mode(engine, first, net_budgets)
        assert primed.cache_stats["stores"] > 0
        assert other.cache_stats["hits"] == 0
        assert other.cache_stats["misses"] == len(other.tile_solutions)
        assert again.cache_stats["hits"] == primed.cache_stats["stores"]

    def test_slack_fraction_keys_the_context(self):
        from repro.pilfill import run_context_digest

        cfg = make_cfg()
        digests = {
            run_context_digest(cfg, "metal3"),
            run_context_digest(cfg, "metal3", 0.3),
            run_context_digest(cfg, "metal3", 0.5),
        }
        assert len(digests) == 3


#: ``result_digest`` prefixes of MVDC (slack 0.3) and budgeted
#: (``derive_net_cap_budgets(layout, 0.05)``) runs, ILP-II on HiGHS.
DIGEST_PINS = {
    "T1": ("a3318f024014ead2", "ef3c0c92b25a5be2", "eefd086c3718e216"),
    "T2": ("cceb08af1cf62f90", "352f3aecd099625a", "5cb7250ebede57fa"),
}


@pytest.mark.parametrize(
    "case,make,window_um,r", [("T1", make_t1, 32, 2), ("T2", make_t2, 20, 4)]
)
def test_mvdc_and_budgeted_digests_pinned(case, make, window_um, r):
    layout = make()
    cfg = EngineConfig(
        fill_rules=default_fill_rules(layout.stack),
        density_rules=density_rules_for(window_um, r, layout.stack),
        method="ilp2",
        backend="scipy",
    )
    engine = PILFillEngine(layout, "metal3", cfg)
    net_budgets = derive_net_cap_budgets(layout, 0.05)
    results = (
        engine.run_mvdc(slack_fraction=0.3),
        engine.run_budgeted(net_budgets, exact=True),
        engine.run_budgeted(net_budgets, exact=False),
    )
    assert tuple(result_digest(r)[:16] for r in results) == DIGEST_PINS[case]
    for result in results + (engine.run(),):
        assert_one_report_per_tile(result)


class TestIlpBackendValidated:
    @pytest.mark.parametrize("backend", ILP_BACKENDS)
    def test_known_backends_accepted(self, backend):
        assert make_cfg(backend=backend).backend == backend

    def test_unknown_backend_rejected(self):
        """Regression: ``backend="cplex"`` used to construct, and every
        ILP tile of a T1 W=32 r=2 ILP-II run silently fell back to Greedy."""
        layout = make_t1()
        with pytest.raises(FillError, match="ILP backend 'cplex'"):
            EngineConfig(
                fill_rules=default_fill_rules(layout.stack),
                density_rules=density_rules_for(32, 2, layout.stack),
                method="ilp2",
                backend="cplex",
            )
