"""Tests of the benchmark itself, on tiny designs.

    PYTHONPATH=src python -m pytest perfbench -q

Each workload's child runs in-process three times on one tiny design —
once untraced, twice traced — which checks that the metrics it reports are
the ones ``BENCHMARK.json`` names, that reps give one digest, and that a
digest mismatch is counted as a failed op instead of crashing the run.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

import calib
import child
import summary
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
PINNED = json.loads((Path(__file__).resolve().parent / "pinned.json").read_text())
TINY = {"chip_stream": 40.0, "table_t2": 34.0, "table_t2_p2": 34.0, "eco_t2": 48.0}


def rep(name: str, designs: list[dict], work_dir: Path, trace: bool) -> dict:
    return child.run({
        "workload": name,
        "designs": designs,
        "work_dir": str(work_dir),
        "seconds": 0.0,
        "first": 0,
        "min_ops": 1,
        "whole_rounds": False,
        "trace": trace,
        "kernel_s": calib.REFERENCE_S,
        "spawned_at": time.monotonic(),
    })


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def reps(request, tmp_path_factory):
    name = request.param
    work_dir = tmp_path_factory.mktemp(name)
    designs = workloads.WORKLOADS[name].generate(0, work_dir, 1, die_um=TINY[name])
    return name, [rep(name, designs, work_dir, trace) for trace in (False, True, True)]


def test_workloads_match_benchmark_json():
    # Every workload is in BENCHMARK.json except those that only serve as
    # another's reference.
    references = {w.reference for w in workloads.WORKLOADS.values()} - {None}
    assert [w["name"] for w in SPEC["workloads"]] == [
        name for name in workloads.WORKLOADS if name not in references
    ]
    assert set(PINNED) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        assert len(PINNED[name]["digest"]) == workload.designs
        if workload.reference is not None:
            assert workloads.WORKLOADS[workload.reference].designs == workload.designs


def test_table_workloads_pin_one_digest():
    # Serial and 2-worker process runs must place bit-identical fill.
    assert PINNED["table_t2"] == PINNED["table_t2_p2"]


def test_metrics_match_benchmark_json(reps):
    _, children = reps
    untraced, traced, _ = children
    summary.check_ops(children, None)
    assert list(summary.e2e_values([untraced])) == [m["name"] for m in SPEC["end_to_end"]]
    layers = traced["ops"][0]["layers"]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert all(isinstance(v, (int, float)) for v in layers.values())
    assert untraced["setup_s"] > 0 and untraced["peak_rss_mb"] > 0
    assert "layers" not in untraced["ops"][0] and "spans" not in untraced["ops"][0]


def test_reps_give_one_digest(reps):
    name, children = reps
    ops = [op for c in children for op in c["ops"]]
    assert all(op["error"] is None and op["failed_tiles"] == 0 for op in ops)
    assert len({op["digest"] for op in ops}) == 1
    attempted, failed, reasons = summary.check_ops(children, None)
    assert (attempted, failed) == (3, 0), reasons


def test_digest_mismatch_is_a_failed_op(reps):
    _, children = reps
    tampered = json.loads(json.dumps(children))
    tampered[1]["ops"][0]["digest"] = "0" * 64
    pins = {"digest": [children[0]["ops"][0]["digest"]]}
    attempted, failed, reasons = summary.check_ops(tampered, pins)
    assert (attempted, failed) == (3, 1)
    assert "digest" in reasons[0]
    assert summary.e2e_values([tampered[1]])["fill_s"] == 0.0


def test_reference_digest_decides(reps):
    # Without pins, a reference op's digest is what every op must match,
    # even when the workload's own ops agree with one another.
    _, children = reps
    reference = json.loads(json.dumps(children[:1]))
    reference[0]["ops"][0]["digest"] = "1" * 64
    attempted, failed, _ = summary.check_ops(children, None, reference)
    assert (attempted, failed) == (4, 3)


def test_lone_op_is_unchecked(reps):
    # One op of a design, with neither a pin nor a reference, proves nothing.
    _, children = reps
    attempted, failed, reasons = summary.check_ops(children[:1], None)
    assert (attempted, failed) == (1, 1)
    assert "unchecked" in reasons[0]


def test_illegal_fill_is_found(tmp_path):
    design = workloads.generate_table(0, tmp_path, 1, 34.0)[0]
    layout = workloads.parse_def(Path(design["def"]).read_text(), workloads.STACK)
    wire = layout.feature_rects(workloads.LAYER)[0]
    size = workloads.FILL_RULES.fill_size
    on_wire = workloads.FillFeature(
        workloads.LAYER, workloads.Rect(wire.xlo, wire.ylo, wire.xlo + size, wire.ylo + size)
    )
    state = {"designs": [design]}
    legal = workloads.Outcome(digest="", failed_tiles=0, placed=[(layout, [])])
    assert workloads.illegal_fill(state, 0, legal) is None
    # A None layout is the design's DEF, parsed for the check.
    illegal = workloads.Outcome(digest="", failed_tiles=0, placed=[(None, [on_wire])])
    assert "buffer distance" in workloads.illegal_fill(state, 0, illegal)
    assert not layout.fills


def test_trace_accounts_for_the_op(reps):
    _, (_, traced, _) = reps
    layers = traced["ops"][0]["layers"]
    assert 0.0 <= layers["trace.unaccounted_frac"] <= 0.05
    spans = traced["ops"][0]["spans"]
    assert spans[0]["name"] == "op" and spans[0]["parent"] == -1
    assert all("rss_step_mb" in s["attrs"] for s in spans if s["parent"] == 0)


def test_times_are_reference_seconds(reps):
    _, children = reps
    summary.check_ops(children, None)
    ops = [op for c in children for op in c["ops"]]
    assert all(op["speed"] > 0 for op in ops)
    expected = ops[0]["seconds"] * ops[0]["speed"]
    assert summary.e2e_values(children[:1])["fill_s"] == pytest.approx(expected)
    assert all(len(c["kernel_s"]) == 2 for c in children)
    assert children[0]["ops"][0]["speed"] == calib.scale(*children[0]["kernel_s"])


def test_kernel_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert calib.kernel_s() > 0 and gc.isenabled()
    gc.disable()
    try:
        calib.kernel_s()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_reference_layers_scale_times_and_rates():
    raw = {"solve.s": 2.0, "solve.tile_p50_ms": 4.0, "io.def_mb_per_s": 10.0,
           "prepare.tiles": 5.0, "trace.overhead_frac": 0.01}
    assert summary.reference_layers(raw, 0.5) == {
        "solve.s": 1.0, "solve.tile_p50_ms": 2.0, "io.def_mb_per_s": 20.0,
        "prepare.tiles": 5.0, "trace.overhead_frac": 0.01, "host.speed": 0.5,
    }


def _op(seconds: float) -> dict:
    return {"seconds": seconds}


@pytest.mark.parametrize(
    "first, done, whole_rounds, expected",
    [
        (0, 0, False, True),  # below min_ops
        (0, 2, False, False),  # out of time
        (1, 2, True, False),  # at a round boundary, out of time
        (0, 2, True, True),  # mid-round: the round is finished
    ],
)
def test_child_runs_whole_rounds(first, done, whole_rounds, expected):
    spec = {"min_ops": 1, "first": first, "whole_rounds": whole_rounds}
    ops = [_op(1.0)] * done
    assert child._another(ops, spec, 3, deadline=time.monotonic()) is expected


def _side(median: float, spread: float = 0.0) -> dict:
    return {"median": median, "q1": median * (1 - spread / 2), "q3": median * (1 + spread / 2)}


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        (_side(1.0), _side(1.2), "lower", "regressed"),
        (_side(1.0), _side(0.8), "lower", "improved"),
        (_side(1.0), _side(1.05), "lower", "unchanged"),
        (_side(1.0), _side(0.8), "higher", "regressed"),
        (_side(1.0, spread=0.3), _side(1.0), "lower", "unresolved"),
        (_side(1.0), _side(2.0, spread=0.3), "lower", "unresolved"),
    ],
)
def test_diff_labels(a, b, better, expected):
    assert summary.label(a, b, better, bound=0.1)[1] == expected


def test_diff_names_the_layer_that_moved():
    def bench(solve_s: float) -> dict:
        layers = {name: {"value": 0.0, "unit": unit} for name, (unit, _) in summary.LAYERS.items()}
        layers["solve.s"]["value"] = solve_s
        e2e = {name: _side(1.0 + solve_s) for name in summary.E2E}
        return {"workloads": {"w": {"e2e": e2e, "per_layer": layers}}}

    lines = summary.diff_lines(bench(0.5), bench(1.0))
    assert any(line.startswith("w fill_s") and line.endswith("regressed") for line in lines)
    assert [line.split()[0] for line in lines if line.startswith("    ")] == ["solve.s"]
