"""Shared preprocessing + parallel solve vs the serial seed path.

The seed-state harness rebuilt the dissection, legality map, density map,
scan-line columns, and cost tables once *per method* — 4× redundant work
per table configuration. This benchmark runs a Table-2 style
configuration sweep both ways:

* **legacy**: a fresh engine per method, no shared state (the seed path),
* **shared**: one :class:`PreparedInstance` per configuration reused by
  every method (today's ``run_config``), with the ``workers`` knob fanned
  out over the available cores.

and asserts the shared path is strictly faster in wall clock. On a
multi-core host the parallel tile dispatch adds to the preprocessing
savings; on a single core the preprocessing savings alone carry the
assertion (the scan line dominates, and the seed path pays it four
times).
"""

from __future__ import annotations

import os
import time

from repro.experiments import run_config
from repro.pilfill import EngineConfig, PILFillEngine
from repro.synth import default_fill_rules, density_rules_for

#: A representative slice of the Table 2 sweep (weighted objective).
SWEEP = [("T1", 32, 2), ("T1", 32, 4), ("T1", 20, 2), ("T1", 20, 4)]
METHODS = ("normal", "ilp1", "ilp2", "greedy")


def _legacy_sweep(layouts) -> list[float]:
    """The seed path: every method rebuilds the preprocessing."""
    taus = []
    for testcase, window, r in SWEEP:
        layout = layouts[testcase]
        fill_rules = default_fill_rules(layout.stack)
        density_rules = density_rules_for(window, r, layout.stack)
        budget = None
        for method in METHODS:
            cfg = EngineConfig(
                fill_rules=fill_rules,
                density_rules=density_rules,
                method=method,
                weighted=True,
                backend="scipy",
            )
            engine = PILFillEngine(layout, "metal3", cfg)  # no shared prep
            run = engine.run(budget=budget)
            if budget is None:
                budget = run.requested_budget
            taus.append(run.model_objective_ps)
    return taus


def _shared_sweep(layouts, workers: int) -> list[float]:
    """Today's path: one PreparedInstance per configuration."""
    taus = []
    for testcase, window, r in SWEEP:
        result = run_config(
            layouts[testcase], testcase, window, r,
            weighted=True, backend="scipy", workers=workers,
        )
        taus.extend(out.model_objective_ps for out in result.outcomes.values())
    return taus


def test_shared_prepare_beats_legacy_sweep(benchmark, layouts):
    workers = max(1, min(4, os.cpu_count() or 1))

    # Each arm's time is the best of three alternating runs, so another
    # process loading a CPU during one run cannot decide the comparison.
    legacy_s = shared_s = float("inf")
    for round_ in range(3):
        t0 = time.perf_counter()
        legacy = _legacy_sweep(layouts)
        legacy_s = min(legacy_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        if round_ == 0:  # the run pytest-benchmark records
            shared = benchmark.pedantic(
                _shared_sweep, args=(layouts, workers), rounds=1, iterations=1
            )
        else:
            shared = _shared_sweep(layouts, workers)
        shared_s = min(shared_s, time.perf_counter() - t0)

    benchmark.extra_info["legacy_s"] = round(legacy_s, 3)
    benchmark.extra_info["shared_s"] = round(shared_s, 3)
    benchmark.extra_info["speedup"] = round(legacy_s / shared_s, 2)
    benchmark.extra_info["workers"] = workers
    print(
        f"\nsweep: legacy {legacy_s:.2f}s vs shared(workers={workers}) "
        f"{shared_s:.2f}s — {legacy_s / shared_s:.2f}x"
    )

    # Same model objectives either way (the refactor changes speed, not math).
    assert shared == legacy
    # The shared path must win: it pays preprocessing once per
    # configuration instead of once per method.
    assert shared_s < legacy_s


def test_parallel_workers_never_slower_than_half(layouts):
    """Process-pool dispatch overhead stays bounded: a 4-worker solve of the
    heaviest configuration finishes within 2x the serial solve (on
    multi-core hosts it should be faster; the bound guards pathological
    regressions without flaking on 1-core CI runners)."""
    layout = layouts["T1"]
    fill_rules = default_fill_rules(layout.stack)
    density_rules = density_rules_for(20, 4, layout.stack)
    times = {}
    for workers in (1, 4):
        cfg = EngineConfig(
            fill_rules=fill_rules,
            density_rules=density_rules,
            method="ilp2",
            weighted=True,
            backend="scipy",
            workers=workers,
        )
        engine = PILFillEngine(layout, "metal3", cfg)
        times[workers] = engine.run().solve_seconds
    assert times[4] < 2.0 * times[1] + 0.05
