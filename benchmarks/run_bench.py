"""Trajectory benchmark: kernel throughput + backend sweep → BENCH_<date>.json.

Run from the repo root::

    PYTHONPATH=src python benchmarks/run_bench.py [--workers 4] [--out PATH]

Measures, on the T1 testcase:

* **Kernels** — ops/sec of the vectorized cost/allocator/evaluator hot
  paths against their scalar references (columns/sec for ``build_costs``,
  allocations/sec for the marginal-greedy selector, features/sec for the
  impact evaluator and model),
* **Solve sweep** — wall-clock of the full engine solve for Greedy and DP
  in-process and on the process pool, asserting the placements stay
  bit-identical across both,
* **Large grid** — the r=8 (~1 000-tile) scenario the persistent-pool /
  chunked-dispatch machinery targets, timing a cold
  (pool spin-up included) and a warm (steady-state) process run against
  serial. The ``process_speedup > 1`` gate is recorded honestly: it is
  skipped — with the reason — on hosts with fewer than 2 CPUs,
* **ECO re-fill** — on T2, a full fill primes the content-addressed
  tile-solution cache, a deterministic ~1%-area window edit is applied,
  and a warm incremental re-fill is timed against a cold one; the warm
  result is asserted bit-identical and ``warm_speedup > 5`` is the gate,
* **T3 streaming** — the chip-scale scenario: the band-sorted T3 DEF is
  parsed both materialized and streaming (tracemalloc peaks compared;
  gate ``stream_peak < 50%``), and the window densities of the streamed
  map are timed,
* **T3 sharding** — the solve phase on the full 308×308 T3 grid, run
  sharded (``EngineConfig.shards``, row-band cost tables built and
  released per shard) and unsharded (every cost table resident at once);
  gates ``digest_equal`` (bit-identical placements, via
  :func:`~repro.pilfill.shard.result_digest`) and
  ``shard_peak_lt_unsharded`` (tracemalloc peaks).
* **Budget LP** — the Min-Var budget LP alone on synthetic 29x29, 52x52
  and 77x77 tile grids (r=8), each in a fresh process: seconds per phase,
  LP size and nonzeros, and the peak-RSS step; gates
  ``rss_step_52_lt_120mb`` and ``completes_77``.

Results land in a dated JSON file (``BENCH_YYYY-MM-DD.json`` by default;
same-day reruns get a ``.1``/``.2`` suffix instead of overwriting) so the
repo accumulates a perf trajectory across PRs — each payload records the
git SHA and a UTC timestamp to anchor the point. Absolute numbers are
host-dependent; the scalar-vs-vector and serial-vs-parallel ratios are
the signal.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.cap.lut import LUTCache
from repro.io.atomic import atomic_write_json
from repro.pilfill import (
    EngineConfig,
    ImpactModel,
    PILFillEngine,
    evaluate_impact,
    prepare,
)
from repro.pilfill.costs import build_costs, build_costs_scalar
from repro.pilfill.dp import allocate_marginal_greedy, allocate_marginal_greedy_scalar
from repro.synth import default_fill_rules, density_rules_for, make_t1


def _time(fn, *, repeats: int = 3) -> float:
    """Best-of wall-clock seconds of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernels(layout, fill_rules, density_rules, prepared) -> dict:
    proc = layout.stack.layer("metal3")
    dbu = layout.stack.dbu_per_micron
    tiles = list(prepared.columns_by_tile.items())
    n_columns = sum(len(cols) for _, cols in tiles)

    def fresh_cache() -> LUTCache:
        return LUTCache(
            eps_r=proc.eps_r,
            thickness_um=proc.thickness_um,
            fill_width_um=fill_rules.fill_size / dbu,
        )

    def run_costs(builder) -> None:
        cache = fresh_cache()
        for _, cols in tiles:
            builder(cols, proc, fill_rules, dbu, cache, True)

    t_vec = _time(lambda: run_costs(build_costs))
    t_scalar = _time(lambda: run_costs(build_costs_scalar))

    # Marginal-greedy allocator on a large synthetic instance.
    rng = np.random.default_rng(7)
    tables = []
    for _ in range(2000):
        marginals = np.sort(rng.uniform(0.0, 5.0, size=8))
        tables.append(tuple(np.concatenate([[0.0], np.cumsum(marginals)])))
    capacity = sum(len(t) - 1 for t in tables)
    budget = capacity // 2
    t_alloc_vec = _time(lambda: allocate_marginal_greedy(tables, budget))
    t_alloc_scalar = _time(lambda: allocate_marginal_greedy_scalar(tables, budget))

    # Evaluator + incremental model on a real placement.
    cfg = EngineConfig(
        fill_rules=fill_rules, density_rules=density_rules,
        method="greedy", backend="scipy",
    )
    features = PILFillEngine(layout, "metal3", cfg, prepared=prepared).run().features
    t_eval = _time(lambda: evaluate_impact(layout, "metal3", features, fill_rules))
    # score on a reused model: the sweep and spatial index are built once.
    model = ImpactModel(layout, "metal3", fill_rules)
    t_score = _time(lambda: model.score(features))

    return {
        "build_costs": {
            "columns": n_columns,
            "vector_s": round(t_vec, 6),
            "scalar_s": round(t_scalar, 6),
            "vector_columns_per_s": round(n_columns / t_vec, 1),
            "scalar_columns_per_s": round(n_columns / t_scalar, 1),
            "speedup": round(t_scalar / t_vec, 2),
        },
        "allocate_marginal_greedy": {
            "columns": len(tables),
            "budget": budget,
            "vector_s": round(t_alloc_vec, 6),
            "scalar_s": round(t_alloc_scalar, 6),
            "speedup": round(t_alloc_scalar / t_alloc_vec, 2),
        },
        "evaluate_impact": {
            "features": len(features),
            "seconds": round(t_eval, 6),
            "features_per_s": round(len(features) / t_eval, 1),
        },
        "impact_model_score": {
            "features": len(features),
            "seconds": round(t_score, 6),
            "features_per_s": round(len(features) / t_score, 1),
        },
    }


def bench_solve_sweep(layout, fill_rules, density_rules, prepared, workers: int) -> dict:
    """Serial vs process-pool engine solves; placements must agree.

    Records the *effective* worker count alongside the requested one: a
    ``--workers 4`` run on a 1-core host is not a parallelism measurement,
    and readers of the trajectory need to see that from the row itself
    rather than cross-referencing the host block.
    """
    cpu_count = os.cpu_count() or 1
    out: dict = {
        "workers": workers,
        "effective_workers": min(workers, cpu_count),
        "cpu_count": cpu_count,
        "methods": {},
    }
    for method in ("greedy", "dp"):
        entry: dict = {}
        baseline_features = None
        for label, w in (("serial", 1), ("process", workers)):
            cfg = EngineConfig(
                fill_rules=fill_rules, density_rules=density_rules,
                method=method, backend="scipy", seed=0, workers=w,
            )
            engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
            t0 = time.perf_counter()
            result = engine.run()
            entry[f"{label}_s"] = round(time.perf_counter() - t0, 4)
            if baseline_features is None:
                baseline_features = result.features
            elif result.features != baseline_features:
                raise AssertionError(
                    f"{method}/{label}: placement diverged from serial"
                )
        entry["bit_identical"] = True
        entry["process_speedup"] = round(entry["serial_s"] / entry["process_s"], 2)
        out["methods"][method] = entry
    return out


def bench_large_grid(layout, fill_rules, workers: int, window: int = 32, r: int = 8) -> dict:
    """Chunked persistent-pool dispatch on a fine dissection (~32×32 tiles).

    This is the scenario the persistent-pool/chunked-dispatch work
    targets: ~1 000 small tile solves, where per-future and
    per-payload overhead — not the solves — used to dominate the process
    backend. Three timed runs per method:

    * ``serial_s`` — the workers=1 baseline,
    * ``process_cold_s`` — first process run, *including* pool spin-up
      (what a one-shot CLI run pays),
    * ``process_warm_s`` — second process run on the same persistent pool
      (what every further ``engine.run()`` pays; each run pickles its
      tiles' cost tables into the batches again).

    ``process_speedup`` is serial / warm. The ``gate`` block records
    whether the ``process_speedup > 1`` acceptance check applies: a host
    without at least 2 CPUs cannot demonstrate a parallel speedup, so the
    gate is *skipped* there (and says so) instead of lying or failing.

    ``workers`` is clamped to >= 2: with one worker the engine takes its
    serial fast-path and the "process" timings would never touch the
    pool or the chunker — the machinery this bench
    exists to measure. ``effective_workers`` still records what the host
    can actually parallelize.
    """
    from repro.pilfill.executor import pool_stats, shutdown_pools
    from repro.synth import density_rules_for

    workers = max(2, workers)
    cpu_count = os.cpu_count() or 1
    density_rules = density_rules_for(window, r, layout.stack)
    prepared = prepare(layout, "metal3", fill_rules, density_rules)
    out: dict = {
        "window_um": window,
        "r": r,
        "tiles": len(prepared.columns_by_tile),
        "workers": workers,
        "effective_workers": min(workers, cpu_count),
        "cpu_count": cpu_count,
        "methods": {},
    }
    # Warm the prepared cost/LUT caches outside the timers: every run
    # shares them through ``prepared``, so leaving the one-time table
    # build inside ``serial_s`` would inflate every speedup ratio.
    warm_cfg = EngineConfig(
        fill_rules=fill_rules, density_rules=density_rules,
        method="greedy", backend="scipy", seed=0, workers=1,
    )
    PILFillEngine(layout, "metal3", warm_cfg, prepared=prepared).run()
    shutdown_pools()  # cold start must be honest: no pool left from the sweep
    created_before = pool_stats()["created"]
    for method in ("greedy",):
        entry: dict = {}
        runs: dict[str, object] = {}
        for label, w in (
            ("serial", 1),
            ("process_cold", workers),
            ("process_warm", workers),
        ):
            cfg = EngineConfig(
                fill_rules=fill_rules, density_rules=density_rules,
                method=method, backend="scipy", seed=0, workers=w,
            )
            engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
            t0 = time.perf_counter()
            result = engine.run()
            entry[f"{label}_s"] = round(time.perf_counter() - t0, 4)
            runs[label] = result.features
        if runs["process_cold"] != runs["serial"] or runs["process_warm"] != runs["serial"]:
            raise AssertionError(f"{method}: large-grid placement diverged from serial")
        entry["bit_identical"] = True
        stats = pool_stats()
        # Cold + warm share one persistent pool: exactly one creation.
        entry["pool_stats"] = {
            "live": stats["live"],
            "created": stats["created"] - created_before,
        }
        entry["process_speedup"] = round(entry["serial_s"] / entry["process_warm_s"], 2)
        out["methods"][method] = entry
    prepared.close()
    shutdown_pools()
    if cpu_count < 2:
        out["gate"] = {
            "process_speedup_gt_1": None,
            "skipped": True,
            "skip_reason": f"cpu_count={cpu_count} < 2: no parallel speedup is possible",
        }
    else:
        speedups = [e["process_speedup"] for e in out["methods"].values()]
        out["gate"] = {
            "process_speedup_gt_1": all(s > 1.0 for s in speedups),
            "skipped": False,
            "skip_reason": None,
        }
    return out


def bench_eco_refill(window: int = 20, r: int = 8, method: str = "ilp2") -> dict:
    """Cold full fill vs warm incremental re-fill after a ~1%-area ECO (T2).

    The incremental-cache scenario: prime a content-addressed
    :class:`~repro.pilfill.incremental.SolutionCache` with a full run on
    T2, apply a deterministic :func:`~repro.synth.edit_window` ECO to a
    window covering ~1% of the die, then re-fill the edited layout twice
    — cold (no cache) and warm (cache primed on the base layout). Both
    re-fills rebuild preparation from scratch; ``warm_speedup`` compares
    the *solve* phases (cold solve / warm solve), which is where the
    cache acts — the shared preprocessing is identical work in both runs
    and is reported separately via the ``*_total_s`` fields.

    Both re-fills reuse the priming run's tile budgets (clamped to the
    edited capacity by the engine, exactly like the table harness reuses
    one budget across methods): re-deriving the global min-variance LP
    for a 1% edit would let float-level budget drift in far-away windows
    mask the locality of the edit. Density control still uses a fixed
    float target (the base layout's mean window density) rather than
    ``"mean"`` so the recorded config is edit-independent too.

    The warm placement is asserted bit-identical to the cold one — the
    crown-jewel contract of the cache. The ``gate`` block records the
    ``warm_speedup > 5`` acceptance check; no host-capability skip is
    needed because the cache speedup is single-core by nature.
    """
    from repro.geometry import Rect
    from repro.pilfill import SolutionCache
    from repro.synth import edit_window, make_t2

    layout = make_t2()
    fill_rules = default_fill_rules(layout.stack)
    density_rules = density_rules_for(window, r, layout.stack)
    base_prep = prepare(layout, "metal3", fill_rules, density_rules)
    target = float(base_prep.density.window_density().mean())

    def config(cache) -> EngineConfig:
        return EngineConfig(
            fill_rules=fill_rules, density_rules=density_rules,
            method=method, backend="scipy", seed=0,
            target_density=target, solution_cache=cache,
        )

    cache = SolutionCache()
    t0 = time.perf_counter()
    prime = PILFillEngine(layout, "metal3", config(cache), prepared=base_prep).run()
    prime_s = time.perf_counter() - t0
    budget = dict(prime.requested_budget)

    # ~1% of the die area: a window with 1/10 of the die side, centered
    # on the median *solved* tile so the edit provably dirties cached
    # work (a corner window could land entirely on zero-budget tiles).
    die = layout.die
    side = max(1, die.width // 10)
    solved = sorted(prime.tile_solutions)
    anchor = {t.key: t.rect for t in base_prep.dissection.tiles()}[
        solved[len(solved) // 2]
    ]
    cx = (anchor.xlo + anchor.xhi) // 2
    cy = (anchor.ylo + anchor.yhi) // 2
    eco_window = Rect(cx - side // 2, cy - side // 2, cx + side // 2, cy + side // 2)
    # The edit is random within the window; scan seeds deterministically
    # until its dirty rect actually crosses a solved (budget > 0) tile,
    # so the run demonstrates invalidation, not just digest misses.
    tile_index = base_prep.tile_index()
    solved_keys = set(solved)
    for eco_seed in range(1, 33):
        edited, summary = edit_window(layout, eco_window, seed=eco_seed)
        if any(k in solved_keys for k in tile_index.query(summary.rect)):
            break

    t0 = time.perf_counter()
    cold_prep = prepare(edited, "metal3", fill_rules, density_rules)
    cold = PILFillEngine(edited, "metal3", config(None), prepared=cold_prep).run(
        budget=dict(budget)
    )
    cold_total_s = time.perf_counter() - t0

    # Dirty-window bookkeeping: evict the entries the edit staled (the
    # digest already guarantees they could never be *wrongly* hit).
    dirty = cache.invalidate_window(cold_prep.tile_index(), summary.rect)

    t0 = time.perf_counter()
    warm_prep = prepare(edited, "metal3", fill_rules, density_rules)
    warm = PILFillEngine(edited, "metal3", config(cache), prepared=warm_prep).run(
        budget=dict(budget)
    )
    warm_total_s = time.perf_counter() - t0

    if warm.features != cold.features or warm.tile_solutions != cold.tile_solutions:
        raise AssertionError("eco_refill: warm placement diverged from cold")

    stats = warm.cache_stats or {}
    warm_speedup = round(cold.solve_seconds / warm.solve_seconds, 2)
    return {
        "testcase": "T2",
        "window_um": window,
        "r": r,
        "method": method,
        "tiles": len(cold_prep.columns_by_tile),
        "solved_tiles": len(cold.tile_solutions),
        "edit": {
            "seed": eco_seed,
            "action": summary.action,
            "net": summary.net,
            "window_area_fraction": round(
                (eco_window.area / die.area) if die.area else 0.0, 4
            ),
            "dirty_tiles": len(dirty),
        },
        "prime_s": round(prime_s, 4),
        "prime_features": prime.total_features,
        "cold_total_s": round(cold_total_s, 4),
        "warm_total_s": round(warm_total_s, 4),
        "cold_solve_s": round(cold.solve_seconds, 4),
        "warm_solve_s": round(warm.solve_seconds, 4),
        "bit_identical": True,
        "cache": {
            "hits": stats.get("hits", 0),
            "misses": stats.get("misses", 0),
            "stores": stats.get("stores", 0),
            # Invalidation happens between runs, so the warm run's
            # per-run delta would show 0; report the lifetime counter.
            "invalidated": cache.invalidated,
        },
        "warm_speedup": warm_speedup,
        "total_speedup": round(cold_total_s / warm_total_s, 2),
        "gate": {
            "warm_speedup_gt_5": warm_speedup > 5.0,
            "skipped": False,
            "skip_reason": None,
        },
    }


def bench_t3_streaming(
    n_nets: int = 7000, window: int = 20, r: int = 8, seed: int = 3
) -> dict:
    """Chip-scale streaming parse + window density on the T3 testcase.

    The scenario the streaming DEF-lite reader was built for: a 768 µm
    die with thousands of nets, too big to round-trip comfortably
    through a materialized layout. The
    band-sorted T3 DEF is generated to a temp file *outside* every timed
    region, then both input paths consume the same bytes:

    * **materialized** — ``read_text`` + :func:`parse_def` (the full text
      string and the full ``RoutedLayout`` resident at once), then the
      per-tile density accumulation via ``DensityMap.from_layout``,
    * **streaming** — :func:`parse_def_streaming` with ``keep_nets=False``
      union-folding each net's clipped rects into the per-tile area grid
      as the net is parsed and discarded; only one net and the parser's
      single-statement state are ever resident.

    Peak *allocation* is measured with ``tracemalloc`` (portable,
    interpreter-level — unlike RSS it cannot be confused by allocator
    reuse across the two phases). The :class:`FixedDissection` — tens of
    MB of tile objects at this grid, identical infrastructure for both
    paths — is built once from a header-only pre-pass, *outside* both
    measured regions, so the peaks compare what actually differs: the
    resident input representation. tracemalloc instrumentation slows
    both parses by a similar factor, so the wall-clock fields are
    indicative only; the **ratios** are the signal, as everywhere in
    this file.

    The streamed tile-area map is asserted exactly equal to the
    materialized one, and ``window_density`` on it is timed. Gate:
    ``stream_peak < 50%`` of the materialized parse peak, a single-core
    property, so it needs no host-capability skip.
    """
    import tempfile
    import tracemalloc

    from repro.dissection.density import DensityMap, clip_to_tiles
    from repro.dissection.fixed import FixedDissection
    from repro.geometry import total_area
    from repro.io.deflite import parse_def, parse_def_streaming
    from repro.synth import density_rules_for, iter_t3_def_lines
    from repro.tech.process import default_stack

    layer = "metal3"
    stack = default_stack()
    density_rules = density_rules_for(window, r, stack)

    with tempfile.TemporaryDirectory(prefix="t3-bench-") as tmp:
        path = Path(tmp) / "t3.def"
        t0 = time.perf_counter()
        n_lines = 0
        with path.open("w") as fh:
            for line in iter_t3_def_lines(stack, seed=seed, n_nets=n_nets):
                fh.write(line)
                fh.write("\n")
                n_lines += 1
        generate_s = time.perf_counter() - t0
        def_bytes = path.stat().st_size

        # Header-only pre-pass: stop at DIEAREA, build the shared
        # dissection before either measured region starts.
        class _DieFound(Exception):
            pass

        def _grab_die(die) -> None:
            holder["die"] = die
            raise _DieFound

        holder: dict = {}
        try:
            with path.open() as fh:
                parse_def_streaming(fh, stack, on_die=_grab_die, keep_nets=False)
        except _DieFound:
            pass
        dissection = FixedDissection(holder["die"], density_rules)

        # -- materialized path: whole text + whole layout resident ------
        tracemalloc.start()
        t0 = time.perf_counter()
        text = path.read_text()
        layout = parse_def(text, stack)
        parse_mat_s = time.perf_counter() - t0
        mat_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        nets_parsed = len(layout.nets)
        t0 = time.perf_counter()
        dmap_direct = DensityMap.from_layout(dissection, layout, layer)
        density_build_s = time.perf_counter() - t0
        del text, layout

        # -- streaming path: one net resident at a time ------------------
        # Each net's clips are union-folded into the area grid and
        # dropped immediately, so the resident state is O(die grid), not
        # O(input). The per-net fold is exact because a cross-net
        # same-layer overlap would be an electrical short — illegal in
        # any real layout — and every partial sum is an exact float64
        # integer; the equality assert against the union-exact
        # ``from_layout`` oracle below backs the claim.
        stream_area = np.zeros((dissection.nx, dissection.ny), dtype=np.float64)

        def on_net(net, start_line: int) -> None:
            net_clips: dict[tuple[int, int], list] = {}
            for seg in net.segments:
                if seg.layer != layer:
                    continue
                clip_to_tiles(dissection, seg.rect, net_clips)
            for key, clips in net_clips.items():
                stream_area[key] += total_area(clips)

        tracemalloc.start()
        t0 = time.perf_counter()
        with path.open() as fh:
            parse_def_streaming(fh, stack, on_net=on_net, keep_nets=False)
        parse_stream_s = time.perf_counter() - t0
        stream_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    if not np.array_equal(stream_area, dmap_direct.tile_area):
        raise AssertionError("t3_streaming: streamed tile areas diverged from materialized")

    t_direct = _time(lambda: dmap_direct.window_density())

    wx = max(0, dissection.nx - r + 1)
    wy = max(0, dissection.ny - r + 1)
    peak_ratio = round(stream_peak / mat_peak, 4) if mat_peak else None
    return {
        "testcase": "T3",
        "n_nets": n_nets,
        "nets_parsed": nets_parsed,
        "window_um": window,
        "r": r,
        "def_lines": n_lines,
        "def_bytes": def_bytes,
        "grid": [dissection.nx, dissection.ny],
        "windows": wx * wy,
        "generate_s": round(generate_s, 4),
        "parse_materialized_s": round(parse_mat_s, 4),
        "parse_streaming_s": round(parse_stream_s, 4),
        "materialized_peak_mb": round(mat_peak / 1e6, 2),
        "streaming_peak_mb": round(stream_peak / 1e6, 2),
        "streaming_peak_ratio": peak_ratio,
        "density_build_s": round(density_build_s, 4),
        "density_direct_s": round(t_direct, 6),
        "bit_identical": True,
        "gate": {
            "stream_peak_lt_half": peak_ratio is not None and peak_ratio < 0.5,
            "skipped": False,
            "skip_reason": None,
        },
    }


def bench_t3_shard(
    n_nets: int = 3000,
    window: int = 20,
    r: int = 8,
    seed: int = 3,
    shards: int = 4,
    die_um: float | None = None,
    budget_per_tile: int = 4,
) -> dict:
    """Sharded vs unsharded solve on the chip-scale T3 grid (308×308).

    The scenario the grid-sharding machinery targets: a solve phase whose
    cost tables no longer fit comfortably resident all at once. One
    shared :class:`PreparedInstance` (the dissection / legality /
    scan-line columns are identical infrastructure for both arms, built
    outside both measured regions) feeds two engine runs:

    * **sharded** — ``EngineConfig.shards`` row-band shards; each shard
      builds only its band's cost tables
      (:meth:`~repro.pilfill.prepare.PreparedInstance.costs_for` with
      ``keys``, which never memoizes) and releases them when the shard
      merges,
    * **unsharded** — the classic path, materializing every tile's cost
      table before the first solve.

    The sharded arm runs *first* so the unsharded arm's memoized full
    cost build cannot leak into the sharded peak. Peak allocation is
    tracemalloc around each ``engine.run()`` only — the same
    interpreter-level measure the T3 streaming bench uses, and the same
    caveat: instrumented wall-clocks are indicative, ratios are the
    signal.

    Both arms run the same explicit uniform per-tile budget: at ~95 000
    tiles the min-variance density LP is a scenario of its own, not the
    subject here, and a fixed budget keeps the two arms (and reruns
    across hosts) trivially comparable. The budget is part of the digest,
    so the gate still covers it.

    Gates: ``digest_equal`` — :func:`~repro.pilfill.shard.result_digest`
    of the two runs must match exactly (features in order, budgets,
    per-tile counts/site indices, float objective: the bit-identity crown
    jewel at full chip scale) — and ``shard_peak_lt_unsharded``.
    ``die_um`` scales the die down for smoke runs (``None`` → the full
    768 µm chip); the grid side scales with it, everything else is
    unchanged.
    """
    import tracemalloc
    from dataclasses import replace as dc_replace

    from repro.pilfill.shard import plan_shards, result_digest
    from repro.synth import generate_layout, t3_spec
    from repro.tech.process import default_stack

    stack = default_stack()
    spec = t3_spec(seed=seed, n_nets=n_nets)
    if die_um is not None:
        spec = dc_replace(spec, die_um=die_um)
    layout = generate_layout(spec, stack)
    fill_rules = default_fill_rules(stack)
    density_rules = density_rules_for(window, r, stack)

    t0 = time.perf_counter()
    prepared = prepare(layout, "metal3", fill_rules, density_rules)
    prepare_s = time.perf_counter() - t0
    dissection = prepared.dissection
    budget = {tile.key: budget_per_tile for tile in dissection.tiles()}
    plan = plan_shards(prepared, n_shards=shards)

    def run_arm(n_shards: int):
        cfg = EngineConfig(
            fill_rules=fill_rules, density_rules=density_rules,
            method="greedy", backend="scipy", seed=0, shards=n_shards,
        )
        engine = PILFillEngine(layout, "metal3", cfg, prepared=prepared)
        tracemalloc.start()
        t0 = time.perf_counter()
        result = engine.run(budget=dict(budget))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return result, elapsed, peak

    sharded, sharded_s, sharded_peak = run_arm(shards)
    unsharded, unsharded_s, unsharded_peak = run_arm(1)
    sharded_digest = result_digest(sharded)
    unsharded_digest = result_digest(unsharded)
    prepared.close()

    digest_equal = sharded_digest == unsharded_digest
    peak_ratio = (
        round(sharded_peak / unsharded_peak, 4) if unsharded_peak else None
    )
    return {
        "testcase": "T3",
        "n_nets": n_nets,
        "die_um": die_um if die_um is not None else spec.die_um,
        "window_um": window,
        "r": r,
        "grid": [dissection.nx, dissection.ny],
        "tiles": dissection.tile_count,
        "shards": plan.n_shards,
        "shard_rows": [s.rows for s in plan.shards],
        "budget_per_tile": budget_per_tile,
        "prepare_s": round(prepare_s, 4),
        "sharded_s": round(sharded_s, 4),
        "unsharded_s": round(unsharded_s, 4),
        "sharded_peak_mb": round(sharded_peak / 1e6, 2),
        "unsharded_peak_mb": round(unsharded_peak / 1e6, 2),
        "shard_peak_ratio": peak_ratio,
        "features": unsharded.total_features,
        "digest": unsharded_digest,
        "digest_equal": digest_equal,
        "gate": {
            "digest_equal": digest_equal,
            "shard_peak_lt_unsharded": (
                peak_ratio is not None and peak_ratio < 1.0
            ),
            "skipped": False,
            "skip_reason": None,
        },
    }


#: Tile grids (per side) of the budget-LP scenario, all at r=8: the chip
#: workload's 29x29, then about 4x and 10x its window count.
BUDGET_LP_GRIDS = (29, 52, 77)


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MB (``VmHWM`` on Linux)."""
    import resource

    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _budget_lp_point(n: int, r: int, seed: int) -> dict:
    """One Min-Var budget LP on a synthetic ``n``x``n`` tile grid.

    Runs in a fresh process (see :func:`bench_budget_lp`), so the peak-RSS
    step is the LP's alone. Seconds per phase come from the budget's own
    spans.
    """
    from repro.dissection.density import DensityMap
    from repro.dissection.fixed import FixedDissection
    from repro.fillsynth.budget import lp_minvar_budget, minvar_lp_size
    from repro.geometry import Rect
    from repro.obs.trace import Tracer
    from repro.tech.process import default_stack

    stack = default_stack()
    fill_rules = default_fill_rules(stack)
    density_rules = density_rules_for(20, r, stack)
    tile = density_rules.tile_size
    dissection = FixedDissection(Rect(0, 0, n * tile, n * tile), density_rules)
    rng = np.random.default_rng(seed)
    # Pre-fill densities of 5-40% per tile, and 0-8 fill sites of slack.
    tile_area = np.floor(rng.uniform(0.05, 0.4, size=(n, n)) * tile * tile)
    capacity = {t.key: int(rng.integers(0, 9)) for t in dissection.tiles()}
    density = DensityMap(dissection, tile_area)

    tracer = Tracer()
    rss_before = _peak_rss_mb()
    t0 = time.perf_counter()
    budget = lp_minvar_budget(
        density, capacity, fill_rules, target_density="mean", tracer=tracer
    )
    seconds = time.perf_counter() - t0
    rss_step = _peak_rss_mb() - rss_before
    span_s = {rec.name: rec.duration_s for rec in tracer.records()}
    return {
        "grid": [n, n],
        "r": r,
        **minvar_lp_size(dissection),
        "seconds": round(seconds, 4),
        "assemble_s": round(span_s["budget.assemble"], 4),
        "lp_phase1_s": round(span_s["budget.lp_phase1"], 4),
        "lp_phase2_s": round(span_s["budget.lp_phase2"], 4),
        "rss_step_mb": round(rss_step, 1),
        "features": sum(budget.values()),
    }


def bench_budget_lp(grids: tuple[int, ...] = BUDGET_LP_GRIDS, r: int = 8, seed: int = 0) -> dict:
    """The Min-Var budget LP alone, on synthetic grids up to 77x77 tiles.

    The chip workloads time the budget LP only at 29x29 tiles, and the
    T3-scale benches pass in a uniform budget, so this scenario is where
    the LP's growth with the grid shows. Each grid runs in a fresh spawned
    process: a peak-RSS high-water mark only ever rises, so a shared
    process would charge each grid only for what it added over the last.
    Gates: the 52x52 LP's peak-RSS step stays under 120 MB, and the
    77x77 LP completes.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    points = []
    for n in grids:
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            points.append(pool.submit(_budget_lp_point, n, r, seed).result())
    by_side = {p["grid"][0]: p for p in points}
    return {
        "r": r,
        "seed": seed,
        "points": points,
        "gate": {
            "rss_step_52_lt_120mb": 52 in by_side and by_side[52]["rss_step_mb"] < 120.0,
            "completes_77": 77 in by_side,
            "skipped": False,
            "skip_reason": None,
        },
    }


def git_sha() -> str | None:
    """Current commit SHA, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def unique_path(path: Path) -> Path:
    """``path`` if free, else the first ``stem.N.suffix`` that is.

    Same-day reruns used to overwrite ``BENCH_<date>.json``, silently
    erasing earlier points of the perf trajectory; default filenames now
    step aside (an explicit ``--out`` still overwrites deliberately).
    """
    if not path.exists():
        return path
    for n in range(1, 1000):
        candidate = path.with_name(f"{path.stem}.{n}{path.suffix}")
        if not candidate.exists():
            return candidate
    raise RuntimeError(f"no free name near {path} after 1000 tries")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=max(1, min(4, os.cpu_count() or 1)))
    parser.add_argument("--window", type=int, default=32)
    parser.add_argument("-r", type=int, default=2, dest="r")
    parser.add_argument("--out", help="output JSON path (default BENCH_<date>.json)")
    parser.add_argument("--skip-large-grid", action="store_true",
                        help="skip the r=8 large-grid persistent-pool scenario")
    parser.add_argument("--skip-eco", action="store_true",
                        help="skip the incremental ECO re-fill scenario")
    parser.add_argument("--skip-t3", action="store_true",
                        help="skip the chip-scale T3 streaming scenario")
    parser.add_argument("--t3-nets", type=int, default=7000,
                        help="net count for the T3 streaming scenario")
    parser.add_argument("--skip-t3-shard", action="store_true",
                        help="skip the chip-scale T3 sharded-solve scenario")
    parser.add_argument("--t3-shard-nets", type=int, default=3000,
                        help="net count for the T3 sharded-solve scenario")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for the T3 sharded-solve scenario")
    args = parser.parse_args(argv)

    layout = make_t1()
    fill_rules = default_fill_rules(layout.stack)
    density_rules = density_rules_for(args.window, args.r, layout.stack)
    prepared = prepare(layout, "metal3", fill_rules, density_rules)

    print("benchmarking kernels ...")
    kernels = bench_kernels(layout, fill_rules, density_rules, prepared)
    print("benchmarking solve backends ...")
    sweep = bench_solve_sweep(layout, fill_rules, density_rules, prepared, args.workers)
    large_grid = None
    if not args.skip_large_grid:
        print("benchmarking large-grid chunked dispatch ...")
        large_grid = bench_large_grid(layout, fill_rules, args.workers)
    eco_refill = None
    if not args.skip_eco:
        print("benchmarking incremental ECO re-fill ...")
        eco_refill = bench_eco_refill()
    t3_streaming = None
    if not args.skip_t3:
        print("benchmarking chip-scale T3 streaming ...")
        t3_streaming = bench_t3_streaming(n_nets=args.t3_nets)
    t3_shard = None
    if not args.skip_t3_shard:
        print("benchmarking chip-scale T3 sharded solve ...")
        t3_shard = bench_t3_shard(n_nets=args.t3_shard_nets, shards=args.shards)
    print("benchmarking the Min-Var budget LP on large grids ...")
    budget_lp = bench_budget_lp()

    now = datetime.datetime.now(datetime.timezone.utc)
    payload = {
        "date": now.date().isoformat(),
        "timestamp": now.isoformat(timespec="seconds"),
        "git": git_sha(),
        "testcase": {"name": "T1", "window_um": args.window, "r": args.r},
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernels": kernels,
        "solve_sweep": sweep,
        "large_grid": large_grid,
        "eco_refill": eco_refill,
        "t3_streaming": t3_streaming,
        "t3_shard": t3_shard,
        "budget_lp": budget_lp,
    }
    if args.out:
        out_path = Path(args.out)  # explicit path: overwrite is intentional
    else:
        out_path = unique_path(Path(f"BENCH_{payload['date']}.json"))
    # Atomic: a crash mid-dump must not leave a torn trajectory point.
    atomic_write_json(out_path, payload)
    print(json.dumps(payload, indent=2))
    print(f"\nwritten to {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
