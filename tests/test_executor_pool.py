"""Persistent process pool, chunked dispatch, shared-memory cost store.

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
* the shared store round-trips content by hash, rejects corrupted
  blocks, and re-syncs across store epochs.
"""

from __future__ import annotations

import gc
import os
import pickle
from dataclasses import replace
from multiprocessing import shared_memory

import pytest

from repro.errors import FillError
from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    SlackColumnDef,
    TilePayload,
    chunk_payloads,
    dispatch_tile_payloads,
    executor,
    make_shared_store,
    pool_stats,
    prepare,
    result_digest,
    shutdown_pools,
    worker_pids,
)
from repro.pilfill.executor import (
    SharedStoreHandle,
    TileBatch,
    _STORE_CACHE,
    dispatch_batches,
    live_store_names,
    release_store,
    resolve_store,
    solve_tile_batch,
)
from repro.tech import DensityRules, FillRules
from repro.testing.faults import FaultSpec

FILL = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
DENSITY = DensityRules(window_size=16000, r=2, max_density=0.6)

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


def make_payloads(prepared, baseline, method="greedy", **overrides):
    """Inline-column payloads for every solved tile of the baseline."""
    costs_by_tile = prepared.costs_for(True)
    kwargs = dict(method=method, weighted=True, ilp_backend="scipy", seed=0)
    kwargs.update(overrides)
    return [
        TilePayload(
            key=key,
            budget=baseline.effective_budget[key],
            columns=tuple(costs_by_tile[key]),
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

    def test_explicit_chunk_size(self):
        chunks = chunk_payloads(list(range(10)), workers=4, batch_tiles=3)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_empty_and_invalid(self):
        assert chunk_payloads([], workers=4) == []
        with pytest.raises(FillError, match="batch_tiles"):
            chunk_payloads([1], workers=1, batch_tiles=0)

    def test_engine_batch_tiles_validated(self):
        with pytest.raises(FillError, match="batch_tiles"):
            make_cfg(batch_tiles=0)

    @pytest.mark.parametrize("method", ["greedy", "normal", "dp"])
    @pytest.mark.parametrize("batch_tiles", [1, 2, None])
    def test_chunked_bit_identical_to_serial(
        self, small_generated_layout, prepared, method, batch_tiles
    ):
        serial = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(method), prepared=prepared
        ).run()
        cfg = make_cfg(method, workers=2, batch_tiles=batch_tiles)
        chunked = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run(budget=serial.requested_budget)
        assert chunked.features == serial.features
        assert chunked.model_objective_ps == serial.model_objective_ps
        assert {k: s.counts for k, s in chunked.tile_solutions.items()} == {
            k: s.counts for k, s in serial.tile_solutions.items()
        }

    def test_chunked_mvdc_bit_identical(self, small_generated_layout, prepared):
        serial = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(), prepared=prepared
        ).run_mvdc(slack_fraction=0.3)
        cfg = make_cfg(workers=2, batch_tiles=2)
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
        """Dispatch-level PID check: consecutive dispatches on the
        persistent pool are served by the same worker processes."""
        shutdown_pools()
        payloads = make_payloads(prepared, baseline)
        first = dispatch_tile_payloads(payloads, workers=2)
        second = dispatch_tile_payloads(payloads, workers=2)
        pids_a, pids_b = worker_pids(first), worker_pids(second)
        assert pids_a and pids_a == pids_b
        assert os.getpid() not in pids_a
        shutdown_pools()

    def test_registry_rejects_serial_worker_count(self):
        from repro.pilfill import get_pool

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
        # One big batch: the death strands every batchmate behind it.
        faulted = dispatch_tile_payloads(
            payloads, workers=2, batch_tiles=len(payloads)
        )
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
        outcomes = dispatch_tile_payloads(
            payloads, workers=2, batch_tiles=len(payloads)
        )
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
        outcomes = dispatch_tile_payloads(
            payloads, workers=2, batch_tiles=len(payloads)
        )
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
        self, small_generated_layout, prepared, fault
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
        cfg = make_cfg(
            workers=2, batch_tiles=len(keys), telemetry=True, fault_spec=spec,
        )
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


class TestSharedStore:
    def test_round_trip_and_cache(self, prepared):
        columns = {k: tuple(cc) for k, cc in prepared.costs_for(True).items()}
        store = make_shared_store(columns)
        if store is None:
            pytest.skip("platform has no usable shared memory")
        try:
            data = resolve_store(store.handle)
            assert data == columns
            # Cached by content hash: the second resolve is the same object.
            assert resolve_store(store.handle) is data
            assert store.handle.content_hash in _STORE_CACHE.cached_hashes()
        finally:
            store.close()

    def test_hash_mismatch_rejected(self, prepared):
        columns = {k: tuple(cc) for k, cc in prepared.costs_for(True).items()}
        store = make_shared_store(columns)
        if store is None:
            pytest.skip("platform has no usable shared memory")
        try:
            forged = replace(store.handle, content_hash="0" * 64)
            with pytest.raises(FillError, match="hash mismatch"):
                resolve_store(forged)
        finally:
            store.close()

    def test_two_epochs_resolve_independently(self, prepared):
        """The stale-worker handshake: handles of different content hash
        resolve to their own data — a cached older epoch is never served
        for a newer handle."""
        costs = prepared.costs_for(True)
        keys = sorted(costs)
        all_columns = {k: tuple(costs[k]) for k in keys}
        half_columns = {k: all_columns[k] for k in keys[: len(keys) // 2 or 1]}
        store_a = make_shared_store(all_columns)
        store_b = make_shared_store(half_columns)
        if store_a is None or store_b is None:
            pytest.skip("platform has no usable shared memory")
        try:
            assert store_a.handle.content_hash != store_b.handle.content_hash
            assert resolve_store(store_a.handle) == all_columns
            assert resolve_store(store_b.handle) == half_columns
            assert resolve_store(store_a.handle) == all_columns
        finally:
            store_a.close()
            store_b.close()

    def test_close_is_idempotent(self, prepared):
        columns = {k: tuple(cc) for k, cc in prepared.costs_for(True).items()}
        store = make_shared_store(columns)
        if store is None:
            pytest.skip("platform has no usable shared memory")
        store.close()
        store.close()

    def test_store_backed_batch_solves_like_inline(self, prepared, baseline):
        """solve_tile_batch hydrating from the store must equal the
        inline-columns solve — this is the path pool workers run."""
        inline = make_payloads(prepared, baseline)
        stripped = [replace(p, columns=()) for p in inline]
        columns = {p.key: p.columns for p in inline}
        store = make_shared_store(columns)
        if store is None:
            pytest.skip("platform has no usable shared memory")
        try:
            via_store = solve_tile_batch(
                TileBatch(payloads=tuple(stripped), store=store.handle)
            )
            via_inline = solve_tile_batch(TileBatch(payloads=tuple(inline)))
            assert [o.value.counts for o in via_store] == [
                o.value.counts for o in via_inline
            ]
        finally:
            store.close()

    def test_missing_tile_in_store_raises(self, prepared, baseline):
        inline = make_payloads(prepared, baseline)
        store = make_shared_store({})  # empty store: no tile data at all
        if store is None:
            pytest.skip("platform has no usable shared memory")
        try:
            stripped = replace(inline[0], columns=())
            with pytest.raises(FillError, match="no cost columns"):
                solve_tile_batch(
                    TileBatch(payloads=(stripped,), store=store.handle, isolate=False)
                )
        finally:
            store.close()

    def test_handles_and_batches_pickle(self, prepared, baseline):
        handle = SharedStoreHandle(name="x", size=3, content_hash="ab")
        batch = TileBatch(
            payloads=tuple(make_payloads(prepared, baseline)[:2]), store=handle
        )
        assert pickle.loads(pickle.dumps(batch)) == batch


class TestNoSharedMemory:
    """Where shared memory is unavailable the engine sends every pool
    payload with its ColumnCosts inline — slower, never different."""

    @pytest.mark.parametrize("shards", [1, 3])
    def test_inline_pool_payloads_match_serial(
        self, small_generated_layout, monkeypatch, shards
    ):
        monkeypatch.setattr("repro.pilfill.executor.make_shared_store", lambda columns: None)
        monkeypatch.setattr("repro.pilfill.engine.make_shared_store", lambda columns: None)
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
        assert "pool.store_bytes" not in counters
        assert result_digest(pooled) == result_digest(serial)


def _exit_worker(batch):
    """Pool entry that hard-kills its worker: a *real* worker death (not
    the injected WorkerDeathError), so the future raises
    BrokenProcessPool and the dispatcher walks its recovery path."""
    os._exit(1)


class TestStoreLifetime:
    """Shared-memory segments must never outlive the run that made them.

    Regression targets of the broken-pool lifetime fix: a
    BrokenProcessPool mid-run used to strand both the parent-side shm
    block and the parent's resolved recovery copy until interpreter
    exit. Now the dispatcher releases the store eagerly once every batch
    is recovered, the registry/cache forget it, and owners that cached
    the store observe ``closed`` and rebuild.
    """

    def _store_payloads(self, prepared, baseline):
        inline = make_payloads(prepared, baseline)
        columns = {p.key: p.columns for p in inline}
        store = make_shared_store(columns)
        if store is None:
            pytest.skip("platform has no usable shared memory")
        return inline, [replace(p, columns=()) for p in inline], store

    def test_broken_pool_releases_store_and_recovers(
        self, prepared, baseline, monkeypatch
    ):
        """One real worker death: every batch is re-solved in the parent
        (bit-identical), then the shm segment is unlinked eagerly — no
        /dev/shm leak — and the broken pool is discarded for rebuild."""
        shutdown_pools()
        # The pool submits executor.solve_tile_batch; forked workers
        # resolve the swapped-in entry by reference and hard-exit.
        monkeypatch.setattr(executor, "solve_tile_batch", _exit_worker)
        inline, stripped, store = self._store_payloads(prepared, baseline)
        assert store.handle.name in live_store_names()
        created_before = pool_stats()["created"]
        try:
            outcomes = dispatch_batches(
                stripped,
                workers=2,
                store=store.handle,
                batch_tiles=len(stripped),
            )
            monkeypatch.undo()
            reference = {
                o.key: o
                for o in solve_tile_batch(TileBatch(payloads=tuple(inline)))
            }
            assert set(outcomes) == set(reference)
            for key, outcome in outcomes.items():
                assert not outcome.failed, key
                assert outcome.value.counts == reference[key].value.counts

            # The eager release: block unlinked, every index dropped.
            assert store.closed
            assert store.handle.name not in live_store_names()
            assert store.handle.content_hash not in _STORE_CACHE.cached_hashes()
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=store.handle.name)

            # The broken pool is gone; the next dispatch rebuilds one.
            stats = pool_stats()
            assert stats["created"] == created_before + 1
            assert stats["live"] == 0
            rebuilt = dispatch_tile_payloads(inline, workers=2)
            assert len(rebuilt) == len(inline)
            assert pool_stats()["created"] == created_before + 2
        finally:
            store.close()
            shutdown_pools()

    def test_release_store_unlinks_once(self, prepared):
        columns = {k: tuple(cc) for k, cc in prepared.costs_for(True).items()}
        store = make_shared_store(columns)
        if store is None:
            pytest.skip("platform has no usable shared memory")
        assert not store.closed
        assert release_store(store.handle) is True
        assert store.closed
        assert store.handle.name not in live_store_names()
        # Idempotent: the second release finds nothing live.
        assert release_store(store.handle) is False
        store.close()  # also still idempotent

    def test_release_evicts_resolved_copy(self, prepared):
        """The parent's own resolved copy (broken-pool recovery path)
        must not pin the payload either: release drops the cache entry."""
        columns = {k: tuple(cc) for k, cc in prepared.costs_for(True).items()}
        store = make_shared_store(columns)
        if store is None:
            pytest.skip("platform has no usable shared memory")
        resolve_store(store.handle)
        assert store.handle.content_hash in _STORE_CACHE.cached_hashes()
        release_store(store.handle)
        assert store.handle.content_hash not in _STORE_CACHE.cached_hashes()

    def test_collected_store_leaves_no_registry_ghost(self, prepared):
        """The registry holds weak refs: a store that is simply dropped
        is finalized (segment unlinked) and vanishes from the audit."""
        columns = {k: tuple(cc) for k, cc in prepared.costs_for(True).items()}
        store = make_shared_store(columns)
        if store is None:
            pytest.skip("platform has no usable shared memory")
        name = store.handle.name
        del store
        gc.collect()
        assert name not in live_store_names()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_prepared_rebuilds_store_after_release(self, small_generated_layout):
        """PreparedInstance caches its store per weighted flag; after an
        eager release it must hand out a fresh live store, not the
        closed one."""
        prep = prepare(
            small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
        )
        try:
            store = prep.shared_store_for(True)
            if store is None:
                pytest.skip("platform has no usable shared memory")
            release_store(store.handle)
            rebuilt = prep.shared_store_for(True)
            assert rebuilt is not store
            assert not rebuilt.closed
            # Same content, fresh segment.
            assert rebuilt.handle.content_hash == store.handle.content_hash
            assert rebuilt.handle.name != store.handle.name
            assert resolve_store(rebuilt.handle)
        finally:
            prep.close()


class TestPreparedStoreLifecycle:
    def test_shared_store_cached_per_flag_and_closed(self, small_generated_layout):
        prep = prepare(
            small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
        )
        store = prep.shared_store_for(True)
        assert prep.shared_store_for(True) is store  # built once per flag
        prep.close()
        prep.close()  # idempotent
        if store is not None:
            # The block is unlinked: a fresh resolve cannot attach it.
            fresh = replace(store.handle, content_hash="f" * 64)
            with pytest.raises((FileNotFoundError, FillError)):
                resolve_store(fresh)
