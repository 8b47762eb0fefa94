"""Unit tests for the telemetry subsystem (repro.obs).

Covers the tracer (nesting, manual clock, absorb/re-basing, the span
tree), the metrics registry (counters, timers, snapshot/merge), the
null fast-path objects, pickling of everything that crosses the
process-pool boundary, and the run-report JSON shape.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.errors import SolveTimeoutError
from repro.obs import (
    EMPTY_SNAPSHOT,
    NULL_METRICS,
    NULL_TRACER,
    ManualClock,
    Metrics,
    MetricsSnapshot,
    NullTracer,
    SpanRecord,
    TimerStat,
    Tracer,
    span_tree,
    write_report,
)


class TestManualClock:
    def test_advance(self):
        clock = ManualClock(10.0)
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.now() == 12.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


class TestTracer:
    def test_nested_spans_parents_and_durations(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        with tracer.span("outer", tile=(0, 1)):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(2.0)
            clock.advance(0.5)
        outer, inner = tracer.records()
        assert outer.name == "outer" and outer.parent == -1
        assert inner.name == "inner" and inner.parent == 0
        assert inner.start_s == 1.0 and inner.duration_s == 2.0
        assert outer.start_s == 0.0 and outer.duration_s == 3.5
        assert dict(outer.attrs) == {"tile": "(0, 1)"}

    def test_siblings_share_parent(self):
        tracer = Tracer(ManualClock())
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        root, a, b = tracer.records()
        assert a.parent == 0 and b.parent == 0

    def test_handle_set_attaches_attrs(self):
        tracer = Tracer(ManualClock())
        with tracer.span("s") as span:
            span.set("status", 42)
        assert dict(tracer.records()[0].attrs) == {"status": "42"}

    def test_exception_sets_error_attr_and_propagates(self):
        tracer = Tracer(ManualClock())
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("s"):
                raise ValueError("boom")
        (rec,) = tracer.records()
        assert dict(rec.attrs)["error"] == "ValueError: boom"

    def test_absorb_rebases_parents_under_open_span(self):
        worker = Tracer(ManualClock())
        with worker.span("tile"):
            with worker.span("rung"):
                pass
        run = Tracer(ManualClock())
        with run.span("solve"):
            run.absorb(worker.records())
        solve, tile, rung = run.records()
        assert solve.parent == -1
        assert tile.parent == 0  # grafted root → the open "solve" span
        assert rung.parent == 1  # worker-relative parent re-based

    def test_absorb_with_no_open_span_grafts_roots(self):
        worker = Tracer(ManualClock())
        with worker.span("tile"):
            pass
        run = Tracer(ManualClock())
        run.absorb(worker.records())
        assert run.records()[0].parent == -1

    def test_span_tree_nests(self):
        tracer = Tracer(ManualClock())
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        forest = span_tree(tracer.records())
        assert len(forest) == 1
        assert forest[0]["name"] == "root"
        assert forest[0]["children"][0]["name"] == "child"
        assert forest[0]["children"][0]["children"] == []
        json.dumps(forest)  # JSON-ready

    def test_handle_reports_its_duration_after_exit(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        with tracer.span("s") as span:
            clock.advance(1.5)
            assert span.seconds == 0.0
        assert span.seconds == 1.5 == tracer.records()[0].duration_s

    def test_null_tracer_times_spans_but_records_nothing(self):
        clock = ManualClock()
        tracer = NullTracer(clock)
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(2.0)
        assert (outer.seconds, inner.seconds) == (3.0, 2.0)
        assert tracer.records() == () and tracer.tree() == []

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", x=1) as span:
            span.set("k", "v")
        assert NULL_TRACER.records() == ()
        assert NULL_TRACER.tree() == []
        NULL_TRACER.absorb((SpanRecord("s", 0.0, 0.0),))
        assert NULL_TRACER.records() == ()

    def test_span_records_pickle(self):
        rec = SpanRecord("s", 0.5, 1.5, parent=2, attrs=(("k", "v"),))
        assert pickle.loads(pickle.dumps(rec)) == rec


class TestMetrics:
    def test_counters_and_timers(self):
        m = Metrics()
        m.count("tiles")
        m.count("tiles", 2)
        m.observe("t", 1.0)
        m.observe("t", 3.0)
        snap = m.snapshot()
        assert dict(snap.counters) == {"tiles": 3}
        (name, stat), = snap.timers
        assert name == "t"
        assert stat == TimerStat(count=2, total_s=4.0, min_s=1.0, max_s=3.0)
        assert stat.as_dict()["mean_s"] == 2.0

    def test_snapshot_sorted_and_picklable(self):
        m = Metrics()
        m.count("b")
        m.count("a")
        snap = m.snapshot()
        assert [name for name, _ in snap.counters] == ["a", "b"]
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_merge_folds_counters_and_timers(self):
        worker = Metrics()
        worker.count("tiles", 2)
        worker.observe("t", 5.0)
        run = Metrics()
        run.count("tiles")
        run.observe("t", 1.0)
        run.merge(worker.snapshot())
        run.merge(None)  # no-op
        snap = run.snapshot()
        assert dict(snap.counters) == {"tiles": 3}
        stat = dict(snap.timers)["t"]
        assert stat.count == 2 and stat.total_s == 6.0
        assert stat.min_s == 1.0 and stat.max_s == 5.0

    def test_null_metrics_is_inert(self):
        NULL_METRICS.count("x")
        NULL_METRICS.observe("y", 1.0)
        NULL_METRICS.merge(MetricsSnapshot(counters=(("x", 1),)))
        assert NULL_METRICS.snapshot() is EMPTY_SNAPSHOT
        assert EMPTY_SNAPSHOT.as_dict() == {"counters": {}, "timers": {}}


class TestSolveTimeoutErrorPickling:
    def test_rung_errors_survive_pickle(self):
        exc = SolveTimeoutError("deadline", rung_errors=("ilp2: boom", "ilp1: bust"))
        clone = pickle.loads(pickle.dumps(exc))
        assert str(clone) == "deadline"
        assert clone.rung_errors == ("ilp2: boom", "ilp1: bust")

    def test_default_rung_errors_empty(self):
        assert SolveTimeoutError("x").rung_errors == ()


class TestWriteReport:
    def test_writes_json_with_trailing_newline(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"schema": "test/v1", "n": 1})
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"schema": "test/v1", "n": 1}

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "artifacts" / "nested" / "report.json"
        write_report(path, {"schema": "test/v1"})
        assert json.loads(path.read_text()) == {"schema": "test/v1"}
