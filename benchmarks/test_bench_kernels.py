"""Vectorized kernels vs scalar references, and the process-pool backend.

Wall-clock guards for the batched numpy hot paths:

* the argpartition marginal-greedy selection must clearly beat the heap
  on large instances (thousands of columns),
* the batched cost-table pass must never regress against the scalar
  reference on a real prepared instance,
* the process backend must stay bit-identical to serial and, on hosts
  with enough cores, deliver real wall-clock speedup for the pure-Python
  methods (Greedy/DP).

Speedup assertions are guarded by instance size and ``os.cpu_count()``
so single-core CI runners exercise the equivalence contracts without
flaking on timing.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cap.lut import LUTCache
from repro.pilfill import EngineConfig, PILFillEngine, prepare
from repro.pilfill.costs import build_cost_views
from repro.pilfill.dp import allocate_marginal_greedy, allocate_marginal_greedy_scalar
from repro.synth import default_fill_rules, density_rules_for
from tests.cost_tables import pack_costs
from tests.costs_oracle import build_costs_scalar


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _large_costs(n_cols: int = 2000, slots: int = 8):
    rng = np.random.default_rng(7)
    tables = []
    for _ in range(n_cols):
        marginals = np.sort(rng.uniform(0.0, 5.0, size=slots))
        tables.append(tuple(np.concatenate([[0.0], np.cumsum(marginals)])))
    return pack_costs(tables)


def test_marginal_greedy_vector_beats_heap(benchmark):
    costs = _large_costs()
    budget = costs.capacity // 2

    fast = benchmark.pedantic(
        allocate_marginal_greedy, args=(costs, budget), rounds=3, iterations=1
    )
    t_vec = _best_of(lambda: allocate_marginal_greedy(costs, budget))
    t_heap = _best_of(lambda: allocate_marginal_greedy_scalar(costs, budget))

    benchmark.extra_info["vector_ms"] = round(t_vec * 1e3, 3)
    benchmark.extra_info["heap_ms"] = round(t_heap * 1e3, 3)
    benchmark.extra_info["speedup"] = round(t_heap / t_vec, 2)

    assert fast == allocate_marginal_greedy_scalar(costs, budget)
    # 16k slots is deep in the vectorized regime; the argpartition path
    # must win outright (it measures ~5x on a laptop core).
    assert t_vec < t_heap


def test_build_costs_never_regresses(benchmark, t1_layout):
    layout = t1_layout
    fill_rules = default_fill_rules(layout.stack)
    density_rules = density_rules_for(32, 2, layout.stack)
    prepared = prepare(layout, "metal3", fill_rules, density_rules)
    proc = layout.stack.layer("metal3")
    dbu = layout.stack.dbu_per_micron
    tiles = prepared.columns_by_tile

    def fresh_cache() -> LUTCache:
        return LUTCache(
            eps_r=proc.eps_r,
            thickness_um=proc.thickness_um,
            fill_width_um=fill_rules.fill_size / dbu,
        )

    def batched() -> dict:
        return build_cost_views(tiles, proc, fill_rules, dbu, fresh_cache(), True)

    def scalar() -> list:
        cache = fresh_cache()
        return [
            build_costs_scalar(cols, proc, fill_rules, dbu, cache, True)
            for cols in tiles.values()
        ]

    fast = benchmark.pedantic(batched, rounds=3, iterations=1)
    t_vec = _best_of(batched)
    t_scalar = _best_of(scalar)
    slow = scalar()

    benchmark.extra_info["vector_ms"] = round(t_vec * 1e3, 3)
    benchmark.extra_info["scalar_ms"] = round(t_scalar * 1e3, 3)
    benchmark.extra_info["scalar_over_vector"] = round(t_scalar / t_vec, 2)

    views = list(fast.values())
    assert b"".join(v.exact.tobytes() for v in views) == b"".join(c.exact.tobytes() for c in slow)
    assert b"".join(v.linear.tobytes() for v in views) == b"".join(
        c.linear.tobytes() for c in slow
    )
    # Equal-or-better with generous slack; the guard is against regression.
    assert t_vec < 1.5 * t_scalar + 0.01


def test_process_backend_speedup_and_identity(t1_layout):
    """Process pool: always bit-identical; ≥2x wall clock on ≥4 cores for
    the GIL-bound methods (the acceptance configuration)."""
    layout = t1_layout
    fill_rules = default_fill_rules(layout.stack)
    density_rules = density_rules_for(20, 4, layout.stack)
    prepared = prepare(layout, "metal3", fill_rules, density_rules)
    cores = os.cpu_count() or 1
    workers = max(2, min(4, cores))

    for method in ("greedy", "dp"):
        results = {}
        times = {}
        for label, w in (("serial", 1), ("process", workers)):
            cfg = EngineConfig(
                fill_rules=fill_rules, density_rules=density_rules,
                method=method, backend="scipy", seed=0, workers=w,
            )
            engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
            t0 = time.perf_counter()
            results[label] = engine.run()
            times[label] = time.perf_counter() - t0
        assert results["serial"].features == results["process"].features
        assert (
            results["serial"].model_objective_ps
            == results["process"].model_objective_ps
        )
        if cores >= 4:
            # Real parallel hardware: the pool must pay for itself.
            assert times["process"] * 2.0 < times["serial"], (
                f"{method}: process backend {times['process']:.3f}s vs "
                f"serial {times['serial']:.3f}s on {cores} cores"
            )
