"""Persistent process pool and chunked dispatch of inline tile payloads.

Regression targets of the persistent-pool executor PR:

* an empty payload list returns an empty mapping without ever creating
  a pool (the ``ProcessPoolExecutor(max_workers=0)`` ValueError a
  no-fill-needed run used to risk), serially and on the pool,
* chunked dispatch is bit-identical to serial for every chunk size, for
  the table methods and MVDC alike,
* the persistent pool actually persists: consecutive ``engine.run()``
  calls reuse one pool (stable worker PIDs, one lifetime creation),
* a worker death mid-batch retries only the dying tile — batchmates
  keep ``retries=0`` and the merged result stays bit-identical,
* a deadline expiry mid-batch fails only the expiring tile and is never
  retried,
* telemetry merges each tile exactly once (solved+failed == dispatched,
  even when a batch is re-solved in the parent after a worker death),
* a real worker death re-solves every batch in the parent and the
  broken pool is rebuilt on the next dispatch.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import FillError
from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    SlackColumnDef,
    TilePayload,
    chunk_payloads,
    dispatch_tile_payloads,
    get_pool,
    parallel,
    pool_stats,
    prepare,
    result_digest,
    shutdown_pools,
)
from repro.pilfill.parallel import _dispatch_chunks, solve_tile_batch
from repro.tech import DensityRules, FillRules
from repro.testing.faults import FaultSpec

FILL = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
DENSITY = DensityRules(window_size=16000, r=2, max_density=0.6)


def worker_pids(outcomes) -> frozenset[int]:
    """Distinct worker PIDs that produced ``outcomes`` (excluding the
    current process — i.e. excluding serial/parent-retry solves)."""
    me = os.getpid()
    return frozenset(
        o.pid for o in outcomes.values() if o.pid is not None and o.pid != me
    )

#: Worker counts covering both dispatch paths (in-process, process pool).
WORKERS = [
    pytest.param(1, id="serial"),
    pytest.param(2, id="process"),
]


def make_cfg(method="greedy", **kwargs):
    kwargs.setdefault("backend", "scipy")
    return EngineConfig(fill_rules=FILL, density_rules=DENSITY, method=method, **kwargs)


@pytest.fixture(scope="module")
def prepared(small_generated_layout):
    prep = prepare(
        small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
    )
    yield prep
    prep.close()


@pytest.fixture(scope="module")
def baseline(small_generated_layout, prepared):
    """Serial greedy reference run."""
    return PILFillEngine(
        small_generated_layout, "metal3", make_cfg(), prepared=prepared
    ).run()


def fixed_chunks(size):
    """A chunker with a fixed tiles-per-submit (``None``: one chunk of
    every payload), swapped in for
    :func:`~repro.pilfill.parallel.chunk_payloads` (parent side only)."""

    def chunk(payloads, workers):
        step = size or len(payloads)
        return [tuple(payloads[i : i + step]) for i in range(0, len(payloads), step)]

    return chunk


def make_payloads(prepared, baseline, method="greedy", **overrides):
    """Inline-column payloads for every solved tile of the baseline."""
    costs_by_tile = prepared.costs_for(True)
    kwargs = dict(method=method, weighted=True, ilp_backend="scipy", seed=0)
    kwargs.update(overrides)
    return [
        TilePayload(
            key=key,
            budget=baseline.effective_budget[key],
            costs=costs_by_tile[key].electrical(),
            **kwargs,
        )
        for key in sorted(baseline.tile_solutions)
    ]


class TestEmptyDispatch:
    """A run that needs no fill must not cost (or crash on) a pool."""

    def test_empty_payloads_return_empty_before_any_pool(self):
        created_before = pool_stats()["created"]
        assert dispatch_tile_payloads([], workers=1) == {}
        assert dispatch_tile_payloads([], workers=2) == {}
        assert dispatch_tile_payloads([], workers=8) == {}
        assert pool_stats()["created"] == created_before

    @pytest.mark.parametrize("workers", WORKERS)
    def test_engine_zero_budget_run_completes(
        self, small_generated_layout, prepared, workers
    ):
        """Engine-level regression: a zero budget everywhere dispatches
        zero payloads; the run completes with zero features."""
        cfg = make_cfg(workers=workers)
        engine = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        )
        result = engine.run(budget={})
        assert result.total_features == 0
        assert result.tile_solutions == {}


class TestChunking:
    def test_auto_chunking_bounds(self):
        payloads = list(range(300))  # chunker only len()s and slices
        chunks = chunk_payloads(payloads, workers=2)
        assert [x for chunk in chunks for x in chunk] == payloads
        sizes = {len(c) for c in chunks}
        assert max(sizes) <= 64
        # ~4 batches per worker: 300/(2*4) -> 38 per chunk.
        assert max(sizes) == 38

    def test_empty_and_invalid(self):
        assert chunk_payloads([], workers=4) == []
        with pytest.raises(ValueError, match="workers"):
            dispatch_tile_payloads([], workers=0)

    @pytest.mark.parametrize("method", ["greedy", "normal", "dp"])
    @pytest.mark.parametrize("chunk_size", [1, 2, None])
    def test_chunked_bit_identical_to_serial(
        self, small_generated_layout, prepared, method, chunk_size, monkeypatch
    ):
        """``chunk_size=None`` is the auto chunking; 1 and 2 swap in a
        fixed-size chunker."""
        serial = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(method), prepared=prepared
        ).run()
        if chunk_size is not None:
            monkeypatch.setattr(parallel, "chunk_payloads", fixed_chunks(chunk_size))
        cfg = make_cfg(method, workers=2)
        chunked = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run(budget=serial.requested_budget)
        assert chunked.features == serial.features
        assert chunked.model_objective_ps == serial.model_objective_ps
        assert {k: s.counts for k, s in chunked.tile_solutions.items()} == {
            k: s.counts for k, s in serial.tile_solutions.items()
        }

    def test_chunked_mvdc_bit_identical(
        self, small_generated_layout, prepared, monkeypatch
    ):
        serial = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(), prepared=prepared
        ).run_mvdc(slack_fraction=0.3)
        monkeypatch.setattr(parallel, "chunk_payloads", fixed_chunks(2))
        cfg = make_cfg(workers=2)
        chunked = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run_mvdc(slack_fraction=0.3)
        assert chunked.features == serial.features
        assert chunked.effective_budget == serial.effective_budget


class TestPoolPersistence:
    def test_pool_survives_across_engine_runs(self, small_generated_layout, prepared):
        """Two engine.run() calls, one pool creation — and the same pool
        means the same worker processes (stable PIDs)."""
        shutdown_pools()
        created_before = pool_stats()["created"]
        cfg = make_cfg(workers=2)
        engine = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        )
        first = engine.run()
        second = engine.run()
        assert first.features == second.features
        stats = pool_stats()
        assert stats["created"] == created_before + 1
        assert stats["live"] >= 1
        shutdown_pools()
        assert pool_stats()["live"] == 0

    def test_worker_pids_stable_across_dispatches(self, prepared, baseline):
        """Dispatch-level persistence: the second dispatch creates no pool,
        and every outcome of both came from that one pool's worker
        processes. Which worker drains which chunk is the pool's choice
        (one fresh worker may take a whole dispatch), so the PID sets of
        the two dispatches are not compared."""
        shutdown_pools()
        payloads = make_payloads(prepared, baseline)
        first = dispatch_tile_payloads(payloads, workers=2)
        created = pool_stats()["created"]
        second = dispatch_tile_payloads(payloads, workers=2)
        assert pool_stats()["created"] == created
        pids = worker_pids(first) | worker_pids(second)
        assert pids and pids <= set(get_pool(2)._processes)
        assert os.getpid() not in pids
        shutdown_pools()

    def test_registry_rejects_serial_worker_count(self):
        with pytest.raises(FillError, match="workers"):
            get_pool(1)


class TestFaultsMidBatch:
    def test_worker_death_mid_batch_retries_only_dying_tile(
        self, prepared, baseline
    ):
        """One tile's worker dies inside a multi-tile batch: the parent
        re-solves the batch, the dying tile spends its retry, batchmates
        come back retries=0, and the merge is bit-identical."""
        keys = sorted(baseline.tile_solutions)
        assert len(keys) >= 3
        dying = keys[1]
        spec = FaultSpec.single("worker_death", tiles=[dying], attempts=(0,))
        payloads = make_payloads(prepared, baseline, fault_spec=spec)
        clean = make_payloads(prepared, baseline)
        # One big chunk: the death strands every batchmate behind it.
        faulted = _dispatch_chunks([tuple(payloads)], workers=2)
        reference = dispatch_tile_payloads(clean, workers=2)
        assert set(faulted) == set(reference)
        for key in keys:
            assert faulted[key].value.counts == reference[key].value.counts
            assert faulted[key].retries == (1 if key == dying else 0), key
        shutdown_pools()

    def test_persistent_death_fails_tile_batchmates_survive(
        self, prepared, baseline
    ):
        keys = sorted(baseline.tile_solutions)
        dying = keys[0]
        spec = FaultSpec.single("worker_death", tiles=[dying], attempts=None)
        payloads = make_payloads(prepared, baseline, fault_spec=spec)
        outcomes = _dispatch_chunks([tuple(payloads)], workers=2)
        assert outcomes[dying].failed
        assert "WorkerDeathError" in outcomes[dying].error
        for key in keys[1:]:
            assert not outcomes[key].failed, key
        shutdown_pools()

    def test_deadline_expiry_mid_batch_fails_tile_without_retry(
        self, prepared, baseline
    ):
        """An injected timeout exhausting one tile's chain mid-batch:
        TIME_LIMIT failed outcome, retries=0, batchmates untouched."""
        keys = sorted(baseline.tile_solutions)
        expiring = keys[1]
        spec = FaultSpec.single(
            "timeout", tiles=[expiring], methods=("greedy",), attempts=None
        )
        payloads = make_payloads(prepared, baseline, fault_spec=spec)
        outcomes = _dispatch_chunks([tuple(payloads)], workers=2)
        assert outcomes[expiring].failed
        assert outcomes[expiring].error.startswith("TIME_LIMIT")
        assert outcomes[expiring].retries == 0
        for key in keys:
            if key != expiring:
                assert not outcomes[key].failed, key
        shutdown_pools()


class TestTelemetrySingleMerge:
    @pytest.mark.parametrize("fault", [None, "worker_death"])
    def test_metric_totals_count_each_tile_once(
        self, small_generated_layout, prepared, fault, monkeypatch
    ):
        """tiles.solved + tiles.failed must equal the dispatched tile
        count even when a batch is re-solved in the parent after a worker
        death — a double merge of the dead attempt's buffers would
        overcount."""
        serial = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(), prepared=prepared
        ).run()
        keys = sorted(serial.tile_solutions)
        spec = (
            FaultSpec.single("worker_death", tiles=[keys[0]], attempts=(0,))
            if fault
            else None
        )
        # One chunk holding every tile: the death strands all of them.
        monkeypatch.setattr(parallel, "chunk_payloads", fixed_chunks(None))
        cfg = make_cfg(workers=2, telemetry=True, fault_spec=spec)
        result = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run(budget=serial.requested_budget)
        counters = dict(result.telemetry.metrics.snapshot().counters)
        timers = dict(result.telemetry.metrics.snapshot().timers)
        n = len(keys)
        assert counters.get("tiles.solved", 0) + counters.get("tiles.failed", 0) == n
        assert timers["tile.seconds"].count == n
        assert counters.get("tiles.retried", 0) == (1 if fault else 0)
        assert counters.get("pool.tiles_submitted") == n
        assert result.features == serial.features
        shutdown_pools()


class TestNoSharedMemory:
    """Pool payloads carry their tile's TileCosts inline — the one wire
    format — and the pooled run's digest equals the serial one."""

    @pytest.mark.parametrize("shards", [1, 3])
    def test_inline_pool_payloads_match_serial(self, small_generated_layout, shards):
        prep = prepare(
            small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
        )
        try:
            serial = PILFillEngine(
                small_generated_layout, "metal3", make_cfg(shards=shards), prepared=prep
            ).run()
            pooled = PILFillEngine(
                small_generated_layout, "metal3",
                make_cfg(workers=2, shards=shards, telemetry=True), prepared=prep,
            ).run()
        finally:
            prep.close()
            shutdown_pools()
        counters = dict(pooled.telemetry.metrics.snapshot().counters)
        assert counters["pool.tiles_submitted"] > 0
        assert result_digest(pooled) == result_digest(serial)


def _exit_worker(payloads):
    """Pool entry that hard-kills its worker: a *real* worker death (not
    the injected WorkerDeathError), so the future raises
    BrokenProcessPool and the dispatcher walks its recovery path."""
    os._exit(1)


class TestBrokenPool:
    """A real worker death breaks the pool mid-run: every batch is
    re-solved in the parent, the broken pool is discarded, and the next
    dispatch rebuilds one."""

    def test_broken_pool_recovers_in_parent_and_rebuilds(
        self, prepared, baseline, monkeypatch
    ):
        shutdown_pools()
        # The pool submits parallel.solve_tile_batch; forked workers
        # resolve the swapped-in entry by reference and hard-exit.
        monkeypatch.setattr(parallel, "solve_tile_batch", _exit_worker)
        payloads = make_payloads(prepared, baseline)
        created_before = pool_stats()["created"]
        try:
            outcomes = _dispatch_chunks([tuple(payloads)], workers=2)
            monkeypatch.undo()
            reference = {o.key: o for o in solve_tile_batch(tuple(payloads))}
            assert set(outcomes) == set(reference)
            for key, outcome in outcomes.items():
                assert not outcome.failed, key
                assert outcome.value.counts == reference[key].value.counts

            # The broken pool is gone; the next dispatch rebuilds one.
            stats = pool_stats()
            assert stats["created"] == created_before + 1
            assert stats["live"] == 0
            rebuilt = dispatch_tile_payloads(payloads, workers=2)
            assert len(rebuilt) == len(payloads)
            assert pool_stats()["created"] == created_before + 2
        finally:
            shutdown_pools()


class TestPreparedClose:
    def test_close_is_idempotent_and_run_after_close_matches(
        self, small_generated_layout
    ):
        """close() drops the memoized cost tables; closing twice is
        harmless and a later run rebuilds them to the same result."""
        prep = prepare(
            small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
        )
        engine = PILFillEngine(small_generated_layout, "metal3", make_cfg(), prepared=prep)
        before = result_digest(engine.run())
        prep.close()
        prep.close()
        assert result_digest(engine.run()) == before
        prep.close()
