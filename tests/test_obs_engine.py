"""Engine-level telemetry: spans/metrics on real runs, bit-identity with
tracing enabled, the run-report export, and the timeout-retry bugfix.

The bit-identity tests are the acceptance gate for the observability
layer: enabling telemetry must not perturb any solver result, on either
dispatch path.
"""

from __future__ import annotations

import json
from functools import partial

import pytest

from repro.errors import SolveTimeoutError
from repro.fillsynth.budget import minvar_lp
from repro.obs.trace import Tracer
from repro.pilfill import EngineConfig, PILFillEngine, SlackColumnDef, prepare
from repro.pilfill.parallel import tile_rng
from repro.pilfill.robust import solve_tile_robust
from repro.tech import DensityRules, FillRules
from repro.testing.faults import FaultRule, FaultSpec

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
def base_run(small_generated_layout, prepared):
    """Telemetry-off reference run."""
    return PILFillEngine(
        small_generated_layout, "metal3", make_cfg("ilp2"), prepared=prepared
    ).run()


def span_names(tracer):
    return [rec.name for rec in tracer.records()]


class TestTelemetryRun:
    def test_disabled_run_has_no_telemetry(self, base_run):
        assert base_run.telemetry is None
        report = base_run.to_report()
        assert report["metrics"] is None and report["spans"] is None

    def test_enabled_run_records_spans_and_metrics(
        self, small_generated_layout, prepared, base_run
    ):
        result = PILFillEngine(
            small_generated_layout, "metal3",
            make_cfg("ilp2", telemetry=True), prepared=prepared,
        ).run(budget=base_run.requested_budget)
        assert result.telemetry is not None
        names = span_names(result.telemetry.tracer)
        assert "engine.run" in names
        assert "solve" in names
        assert names.count("tile") == len(result.tile_solutions)
        assert "rung" in names
        assert "ilp.scipy" in names  # backend spans absorbed from tiles
        counters = dict(result.telemetry.metrics.snapshot().counters)
        assert counters["tiles.solved"] == len(result.tile_solutions)
        assert counters["features.placed"] == result.total_features
        assert counters["solve.rungs_attempted"] == len(result.tile_solutions)
        timers = dict(result.telemetry.metrics.snapshot().timers)
        assert timers["tile.seconds"].count == len(result.tile_solutions)

    def test_bundled_backend_span(self, small_generated_layout, prepared, base_run):
        result = PILFillEngine(
            small_generated_layout, "metal3",
            make_cfg("ilp2", telemetry=True, backend="bundled"), prepared=prepared,
        ).run(budget=base_run.requested_budget)
        names = span_names(result.telemetry.tracer)
        assert "ilp.branchbound" in names

    @pytest.mark.parametrize("workers", WORKERS)
    def test_tracing_is_bit_identical_on_every_backend(
        self, small_generated_layout, prepared, base_run, workers
    ):
        """Telemetry on must not perturb results: every dispatch backend
        reproduces the telemetry-off serial run feature for feature."""
        result = PILFillEngine(
            small_generated_layout, "metal3",
            make_cfg(
                "ilp2", telemetry=True, workers=workers
            ),
            prepared=prepared,
        ).run(budget=base_run.requested_budget)
        assert [f.rect for f in result.features] == [
            f.rect for f in base_run.features
        ]
        assert result.telemetry is not None
        counters = dict(result.telemetry.metrics.snapshot().counters)
        assert counters["tiles.solved"] == len(result.tile_solutions)
        # Worker tile spans were absorbed into the run tracer.
        names = span_names(result.telemetry.tracer)
        assert names.count("tile") == len(result.tile_solutions)


class TestBudgetSpans:
    @pytest.mark.parametrize("mode", ["lp", "hybrid"])
    def test_budget_spans_nest_and_count_the_lp(self, small_generated_layout, mode):
        """The budget span carries the Min-Var LP's size and splits its time
        into assembly and the two HiGHS phases."""
        fresh = prepare(
            small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
        )
        tracer = Tracer()
        fresh.budget_for(make_cfg("ilp2", budget_mode=mode), tracer=tracer)
        records = tracer.records()
        (root,) = [i for i, rec in enumerate(records) if rec.name == "prepare.budget"]
        children = [rec.name for rec in records if rec.parent == root]
        assert children == ["budget.assemble", "budget.lp_phase1", "budget.lp_phase2"]
        attrs = dict(records[root].attrs)
        d = fresh.dissection
        assert int(attrs["lp_vars"]) == d.tile_count + 1
        assert int(attrs["lp_rows"]) == 2 * d.window_count
        lp = minvar_lp(fresh.density, fresh.capacity(), FILL)
        assert int(attrs["lp_nnz"]) == lp.phase1()[1].nnz


class TestRunReportExport:
    def test_fault_injected_report_shows_rung_history(
        self, small_generated_layout, prepared, base_run, tmp_path
    ):
        """The --trace-out payload of a degraded run names the degraded
        tile, its rung errors, and carries its span/rung trace."""
        key = sorted(base_run.tile_solutions)[0]
        spec = FaultSpec.single("error", tiles=[key], methods=("ilp2",), attempts=None)
        cfg = make_cfg("ilp2", telemetry=True, fault_spec=spec)
        result = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run(budget=base_run.requested_budget)
        assert result.degraded_tiles == [key]

        from repro.obs.report import write_report

        path = tmp_path / "trace.json"
        write_report(path, result.to_report(cfg))
        report = json.loads(path.read_text())
        assert report["schema"] == "pilfill-run-report/v1"
        assert report["config"]["method"] == "ilp2"
        assert report["totals"]["degraded_tiles"] == 1
        degraded = [
            r for r in report["solve_reports"] if r["status"] == "degraded"
        ]
        assert len(degraded) == 1
        assert degraded[0]["tile"] == list(key)
        assert degraded[0]["used_method"] == "ilp1"
        assert any("ilp2" in e for e in degraded[0]["errors"])
        # The span tree records the failed rung with its error attr.
        flat = []

        def walk(nodes):
            for node in nodes:
                flat.append(node)
                walk(node["children"])

        walk(report["spans"])
        failed_rungs = [
            n for n in flat
            if n["name"] == "rung" and "error" in n["attrs"]
        ]
        assert any("SolverError" in n["attrs"]["error"] for n in failed_rungs)

    def test_report_round_trips_through_json(self, base_run):
        json.loads(json.dumps(base_run.to_report()))


class TestTimeoutRetryFix:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_expired_run_deadline_never_retried(
        self, small_generated_layout, prepared, base_run, workers
    ):
        """The headline bugfix: a run-deadline expiry raised *between*
        rungs is classified as TIME_LIMIT and fails the tile without
        spending the dispatcher retry — on every dispatch backend."""
        result = PILFillEngine(
            small_generated_layout, "metal3",
            make_cfg(
                "ilp2", run_deadline_s=1e-6,
                workers=workers,
            ),
            prepared=prepared,
        ).run(budget=base_run.requested_budget)
        assert result.total_features == 0
        assert result.failed_tiles == sorted(result.tile_solutions)
        for report in result.solve_reports.values():
            assert report.retries == 0
            assert report.errors[0].startswith("TIME_LIMIT:")
            assert "run deadline" in report.errors[0]

    def test_mid_chain_expiry_preserves_rung_errors(
        self, small_generated_layout, prepared, base_run, monkeypatch
    ):
        """A run deadline that expires after a rung already failed carries
        the rung history on the exception (``rung_errors``), so the failed
        report shows the whole chain, not just the timeout."""
        import repro.pilfill.robust as robust_mod

        key = sorted(base_run.tile_solutions)[0]
        spec = FaultSpec.single("error", tiles=[key], methods=("ilp2",), attempts=None)
        ticks = iter([0.0, 1000.0])

        class FakeTime:
            @staticmethod
            def time() -> float:
                return next(ticks)

        monkeypatch.setattr(robust_mod, "time", FakeTime)
        costs = prepared.costs_for(True)[key]
        with pytest.raises(SolveTimeoutError) as excinfo:
            solve_tile_robust(
                costs, "ilp2", base_run.effective_budget[key], True, "scipy",
                partial(tile_rng, 0, key), key=key, run_deadline=10.0, fault_spec=spec,
            )
        assert "run deadline" in str(excinfo.value)
        assert len(excinfo.value.rung_errors) == 1
        assert excinfo.value.rung_errors[0].startswith("ilp2:")

    def test_last_rung_timeout_keeps_prior_errors(
        self, small_generated_layout, prepared, base_run
    ):
        """When the chain's last rung itself times out, the earlier rung
        failures still land in the report (not just the final timeout)."""
        key = sorted(base_run.tile_solutions)[0]
        spec = FaultSpec(rules=(
            FaultRule(
                kind="error", tiles=frozenset([key]), methods=("ilp2", "ilp1"),
                attempts=None,
            ),
            FaultRule(
                kind="timeout", tiles=frozenset([key]), methods=("greedy",),
                attempts=None,
            ),
        ))
        result = PILFillEngine(
            small_generated_layout, "metal3",
            make_cfg("ilp2", fault_spec=spec), prepared=prepared,
        ).run(budget=base_run.requested_budget)
        assert result.failed_tiles == [key]
        report = result.solve_reports[key]
        assert report.retries == 0  # timeout never retried
        assert len(report.errors) == 3  # ilp2, ilp1, then the timeout
        assert report.errors[0].startswith("ilp2:")
        assert report.errors[1].startswith("ilp1:")
        assert report.errors[2].startswith("TIME_LIMIT:")


class TestStrictModeReports:
    def test_strict_run_records_ok_reports(
        self, small_generated_layout, prepared, base_run
    ):
        """fallback=False used to record no reports, making `clean`
        vacuously true; strict runs now report every solved tile."""
        result = PILFillEngine(
            small_generated_layout, "metal3",
            make_cfg("ilp2", fallback=False), prepared=prepared,
        ).run(budget=base_run.requested_budget)
        assert set(result.solve_reports) == set(result.tile_solutions)
        assert all(r.ok for r in result.solve_reports.values())
        assert result.clean
