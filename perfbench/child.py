"""One benchmark rep: a fresh process that sets a workload up and runs ops.

Started by ``run.py`` as ``python perfbench/child.py SPEC.json``. The spec
names the workload, its design files, the time to spend on ops, where to
write the result, and the calibration kernel's time the parent measured
just before the spawn. Set-up time runs from the moment the parent spawned
this process to the start of the first op, so it covers interpreter start,
``import repro`` and the workload's own set-up.

Ops cycle through the designs; ``first`` is the index, in that cycle, of
this child's first op, so the children of a run continue one another's
rounds. A child runs at least ``min_ops`` ops, then more while half a
typical op still fits in its time. A child with ``whole_rounds`` also
finishes the round it is in, and starts a new round only while a whole
round fits. After each op, untimed, its fill is checked against the fill
rules. An op that raises or places illegal fill is recorded as failed and
the rep goes on.

The calibration kernel (:mod:`calib`) runs right after set-up, after every
op that ends at least :data:`CALIBRATE_EVERY_S` after the last kernel run,
and after the last op. Each op's ``speed`` comes from the kernel runs on
either side of it, and set-up's from the parent's run and the first one.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

import calib
import summary
import workloads
from spans import Probe, peak_rss_mb

#: Op time between two kernel runs, so short ops share one.
CALIBRATE_EVERY_S = 1.0


def run(spec: dict) -> dict:
    workload = workloads.WORKLOADS[spec["workload"]]
    designs = spec["designs"]
    state = workload.setup(designs, Path(spec["work_dir"]))
    setup_wall_s = time.monotonic() - spec["spawned_at"]
    kernels = [calib.kernel_s()]
    calibrated = time.monotonic()
    deadline = calibrated + spec["seconds"]
    ops: list[dict] = []
    while _another(ops, spec, len(designs), deadline):
        j = (spec["first"] + len(ops)) % len(designs)
        if workload.stage is not None:
            workload.stage(state, j)
        ops.append(_run_op(workload, state, j, spec["trace"]))
        ops[-1]["kernel"] = len(kernels) - 1
        if time.monotonic() - calibrated >= CALIBRATE_EVERY_S:
            kernels.append(calib.kernel_s())
            calibrated = time.monotonic()
    if ops and ops[-1]["kernel"] == len(kernels) - 1:
        kernels.append(calib.kernel_s())
    for op in ops:
        k = op.pop("kernel")
        op["speed"] = calib.scale(kernels[k], kernels[k + 1])
        if "layers" in op:
            op["layers"] = summary.reference_layers(op["layers"], op["speed"])
    setup_speed = calib.scale(spec["kernel_s"], kernels[0])
    return {
        "setup_s": setup_wall_s * setup_speed,
        "setup_wall_s": setup_wall_s,
        "kernel_s": kernels,
        "peak_rss_mb": peak_rss_mb(),
        "ops": ops,
    }


def _another(ops: list[dict], spec: dict, designs: int, deadline: float) -> bool:
    if len(ops) < spec["min_ops"]:
        return True
    mean = sum(op["seconds"] for op in ops) / len(ops)
    left = deadline - time.monotonic()
    if not spec["whole_rounds"]:
        return left > 0.5 * mean
    if (spec["first"] + len(ops)) % designs:
        return True
    return left > (designs - 0.5) * mean


def _run_op(workload: workloads.Workload, state: dict, j: int, trace: bool) -> dict:
    """Time one op on design ``j``; what it produced is released on return,
    so nothing of it is resident during the next op."""
    probe = Probe(trace)
    op: dict = {"design": j, "digest": None, "failed_tiles": 0, "error": None}
    t0 = time.perf_counter()
    try:
        with probe.call("op", design=j):
            outcome = workload.op(state, j, probe)
        op["seconds"] = time.perf_counter() - t0
        overhead_s = probe.overhead_s
        illegal = workloads.illegal_fill(state, j, outcome)
        if illegal is not None:
            op["error"] = f"illegal fill: {illegal}"
        if trace and workload.attribute is not None:
            workload.attribute(state, j, outcome, probe)
    except Exception:
        op.setdefault("seconds", time.perf_counter() - t0)
        op["error"] = traceback.format_exc(limit=4)
        print(op["error"], file=sys.stderr)
        return op
    op.update(
        digest=outcome.digest,
        failed_tiles=outcome.failed_tiles,
        prepared_digest=outcome.prepared_digest,
    )
    if trace:
        op["spans"] = probe.records()
        op["layers"] = summary.layer_values(op["spans"], overhead_s)
    return op


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    Path(spec["result"]).write_text(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
