"""Phase timings are span durations: one clock, each second under one phase.

Under a stepping clock — the telemetry clock frozen, and advanced by a
distinct power of two inside each phase's kernel — every
``phase_seconds`` entry is pinned exactly: ``setup`` 1, ``scanline`` 2
(per net when streaming, plus 4 for the final sweep), ``density`` 8,
``costs`` 16, ``budget`` 32, ``solve`` 64 per dispatch or budgeted tile.
A phase nested in another one (a cost-table build inside ``engine.run``)
counts only under its own phase. With a real tracer, every phase equals
the self time of its spans, as ``benchmarks/check_phase_report.py``
computes it from the span tree.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cap.lut import LUTCache
from repro.dissection.density import DensityMap
from repro.dissection.fixed import FixedDissection
from repro.fillsynth.budget import lp_minvar_budget
from repro.io.deflite import parse_def
from repro.layout.rctree import RCTree
from repro.obs.clock import ManualClock, MonotonicClock
from repro.obs.trace import Tracer, span_tree
from repro.pilfill import EngineConfig, PILFillEngine, prepare, prepare_streaming
from repro.pilfill.budgeted import delta_cap_ff, derive_net_cap_budgets
from repro.pilfill.parallel import dispatch_tile_payloads
from repro.pilfill.scanline import (
    IncrementalSweep,
    extract_columns,
    extract_columns_from_lines,
)
from repro.synth import GeneratorSpec, iter_banded_def_lines
from repro.tech import DensityRules, FillRules

# ``repro.pilfill.prepare`` as an attribute is the function; fetch the modules by name.
engine_module = importlib.import_module("repro.pilfill.engine")
prepare_module = importlib.import_module("repro.pilfill.prepare")

FILL = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
DENSITY = DensityRules(window_size=16000, r=2, max_density=0.6)
LAYER = "metal3"
SPEC = GeneratorSpec(
    name="phase", die_um=32.0, n_nets=6, seed=3,
    trunk_len_um=(8.0, 16.0), branch_len_um=(2.0, 6.0), sinks_per_net=(1, 2),
)
#: Phase seconds of an eager ``prepare``.
PREPARED = {"setup": 1.0, "scanline": 2.0}
#: Phase seconds of a first run over a fresh preparation (one dispatch).
FIRST_RUN = {**PREPARED, "density": 8.0, "costs": 16.0, "budget": 32.0, "solve": 64.0}

_spec = importlib.util.spec_from_file_location(
    "check_phase_report",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_phase_report.py",
)
assert _spec is not None and _spec.loader is not None
check_phase_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_phase_report)


def _stepped(clock, step, inner):
    """``inner``, advancing ``clock`` by ``step`` on every call."""

    def stepped(*args, **kwargs):
        clock.advance(step)
        return inner(*args, **kwargs)

    return stepped


@pytest.fixture
def clock(monkeypatch):
    """The system telemetry clock, frozen and stepped only by the phases'
    kernels. Each kernel is swapped where ``prepare``/``engine`` look it
    up, so a stepped kernel calling another one steps once."""
    manual = ManualClock()
    monkeypatch.setattr(MonotonicClock, "now", lambda self: manual.now())

    class Sweep(IncrementalSweep):
        def finish(self):
            manual.advance(4.0)
            return super().finish()

    for module, name, value in (
        (prepare_module, "FixedDissection", _stepped(manual, 1.0, FixedDissection)),
        (prepare_module, "extract_columns", _stepped(manual, 2.0, extract_columns)),
        (prepare_module, "RCTree", SimpleNamespace(build=_stepped(manual, 2.0, RCTree.build))),
        (prepare_module, "IncrementalSweep", Sweep),
        (prepare_module, "extract_columns_from_lines",
         _stepped(manual, 4.0, extract_columns_from_lines)),
        (prepare_module, "DensityMap", SimpleNamespace(
            from_layout=_stepped(manual, 8.0, DensityMap.from_layout),
            from_tile_clips=_stepped(manual, 8.0, DensityMap.from_tile_clips),
        )),
        (prepare_module, "LUTCache", _stepped(manual, 16.0, LUTCache)),
        (prepare_module, "lp_minvar_budget", _stepped(manual, 32.0, lp_minvar_budget)),
        (engine_module, "dispatch_tile_payloads",
         _stepped(manual, 64.0, dispatch_tile_payloads)),
        (engine_module, "delta_cap_ff", _stepped(manual, 64.0, delta_cap_ff)),
    ):
        monkeypatch.setattr(module, name, value)
    return manual


@pytest.fixture(scope="module")
def banded_lines(stack):
    return list(iter_banded_def_lines(SPEC, stack))


@pytest.fixture(scope="module")
def layout(stack, banded_lines):
    return parse_def("\n".join(banded_lines) + "\n", stack)


def _config(method="greedy", **kwargs):
    return EngineConfig(fill_rules=FILL, density_rules=DENSITY, method=method, **kwargs)


def _fresh(layout):
    return prepare(layout, LAYER, FILL, DENSITY)


class TestPreparePhases:
    def test_prepare(self, clock, layout):
        assert _fresh(layout).phase_seconds == PREPARED

    @pytest.mark.parametrize("banded", [True, False], ids=["banded", "collect"])
    def test_prepare_streaming(self, clock, stack, banded_lines, banded):
        prep = prepare_streaming(
            iter(banded_lines), stack, LAYER, FILL, DENSITY, banded=banded
        )
        scanline = 2.0 * SPEC.n_nets + 4.0
        assert prep.phase_seconds == {"setup": 1.0, "scanline": scanline, "density": 8.0}

    def test_budget_for_excludes_density_build(self, clock, layout):
        prep = _fresh(layout)
        prep.budget_for(_config())
        prep.budget_for(_config())  # memoized: no second charge
        assert prep.phase_seconds == {**PREPARED, "density": 8.0, "budget": 32.0}

    def test_costs_for(self, clock, layout):
        prep = _fresh(layout)
        prep.costs_for(weighted=True)
        prep.costs_for(weighted=True)  # memoized: no second charge
        prep.costs_for(weighted=False)
        assert prep.phase_seconds == {**PREPARED, "costs": 32.0}


class TestRunPhases:
    def test_run(self, clock, layout):
        engine = PILFillEngine(layout, LAYER, _config(), prepared=_fresh(layout))
        assert engine.run().phase_seconds == FIRST_RUN

    def test_run_mvdc(self, clock, layout):
        engine = PILFillEngine(layout, LAYER, _config(), prepared=_fresh(layout))
        assert engine.run_mvdc().phase_seconds == FIRST_RUN

    def test_run_budgeted(self, clock, layout):
        engine = PILFillEngine(layout, LAYER, _config(), prepared=_fresh(layout))
        result = engine.run_budgeted(
            derive_net_cap_budgets(layout, slack_fraction_ps=100.0), exact=False
        )
        tiles = len(result.tile_solutions)
        assert tiles > 0
        assert result.phase_seconds == {**FIRST_RUN, "solve": 64.0 * tiles}
        assert set(result.tile_seconds.values()) == {64.0}

    def test_first_run_solve_excludes_cost_build(self, clock, layout):
        """The first method over a fresh preparation builds the cost
        tables and the budget inside its run; its ``solve`` seconds (the
        tables' ``cpu_s``) must not include them."""
        prepared = _fresh(layout)
        first = PILFillEngine(layout, LAYER, _config(), prepared=prepared).run()
        second = PILFillEngine(layout, LAYER, _config(), prepared=prepared).run()
        assert first.phase_seconds["solve"] == second.phase_seconds["solve"]
        assert first.solve_seconds == 64.0

    def test_no_phase_metric(self, layout):
        result = PILFillEngine(layout, LAYER, _config(telemetry=True)).run()
        timers = dict(result.telemetry.metrics.snapshot().timers)
        assert not [name for name in timers if name.startswith("phase.")]


class TestPhasesEqualSpanSelfTime:
    @pytest.mark.parametrize("mode", ["run", "run_mvdc", "run_budgeted"])
    def test_engine_report_matches_its_spans(self, layout, mode):
        cfg = _config(telemetry=True)
        engine = PILFillEngine(layout, LAYER, cfg)
        if mode == "run_budgeted":
            result = engine.run_budgeted(
                derive_net_cap_budgets(layout, slack_fraction_ps=100.0), exact=False
            )
        else:
            result = getattr(engine, mode)()
        assert check_phase_report.mismatches(result.to_report(cfg)) == []

    def test_engine_stepping_clock_exact(self, clock, layout):
        result = PILFillEngine(layout, LAYER, _config(telemetry=True)).run()
        spans = span_tree(result.telemetry.tracer.records())
        assert check_phase_report.phase_self_seconds(spans) == result.phase_seconds
        assert result.phase_seconds == FIRST_RUN

    @pytest.mark.parametrize("banded", [True, False], ids=["banded", "collect"])
    def test_prepare_streaming_matches_its_spans(self, stack, banded_lines, banded):
        tracer = Tracer()
        prep = prepare_streaming(
            iter(banded_lines), stack, LAYER, FILL, DENSITY, tracer=tracer, banded=banded
        )
        spans = check_phase_report.phase_self_seconds(tracer.tree())
        assert spans == pytest.approx(prep.phase_seconds, abs=1e-9)
        assert set(spans) == {"setup", "scanline", "density"}

    def test_check_flags_a_mismatch(self, layout):
        cfg = _config(telemetry=True)
        report = PILFillEngine(layout, LAYER, cfg).run().to_report(cfg)
        report["phase_seconds"]["solve"] += 1e-6
        (error,) = check_phase_report.mismatches(report)
        assert "'solve'" in error
        report["spans"] = None
        assert check_phase_report.mismatches(report) != []
