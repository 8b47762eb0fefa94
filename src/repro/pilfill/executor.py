"""Persistent process-pool executor with shared-memory tile payloads.

``BENCH_2026-08-05.json`` showed the process backend *losing* to serial
(greedy 0.09x, dp 0.49x) for a reason that has nothing to do with the
solves: every ``engine.run()`` cold-started a fresh
:class:`~concurrent.futures.ProcessPoolExecutor`, submitted one future
per tile, and pickled the full cost tables into every
:class:`~repro.pilfill.parallel.TilePayload`. The per-tile MDFC
instances are embarrassingly parallel — the dispatch was the bottleneck.
This module removes all three overheads while keeping the bit-identity
contract intact:

* **Persistent pools.** :func:`get_pool` lazily creates one pool per
  worker count and keeps it alive across ``engine.run()`` calls (the
  executor-reuse shape window-parallel density passes use in FFTPL-style
  placers, arXiv 1312.4587). Pools are parent-side state: worker
  processes re-import this module and see an empty registry, which is
  correct — they never dispatch. :func:`shutdown_pools` tears everything
  down explicitly; an ``atexit`` hook covers one-shot CLI use. A pool
  broken by a worker death is discarded and lazily rebuilt on the next
  dispatch.
* **Chunked dispatch.** Tiles ship in :class:`TileBatch` groups of
  dozens per submit (:func:`chunk_payloads`), so a 2 700-tile grid costs
  ~85 futures instead of 2 700. Results are unpacked in payload order
  regardless of completion order, preserving the deterministic merge.
* **Shared-memory payloads.** The large, run-constant input — the
  per-tile :class:`~repro.pilfill.costs.ColumnCosts` tables — is pickled
  once into a :mod:`multiprocessing.shared_memory` block
  (:class:`SharedCostStore`) and referenced from batches by a
  :class:`SharedStoreHandle` carrying a sha256 content hash. Workers
  attach, verify the hash, unpickle once, and cache the result; a batch
  whose hash differs from the cached epoch makes the worker drop its
  cache and re-sync, so a persistent pool can serve runs over different
  layouts back to back without ever seeing stale tables.

**Fork-safety.** Pools are created lazily on first dispatch, from the
dispatching (main) thread. Module state mutated in the parent *after*
that first fork is invisible to the workers — by design, nothing the
workers read lives in module state: tile data arrives via batches and
the shared store, and the content-hash handshake detects every store
change. Telemetry stays single-owner: each worker builds per-tile
buffers and ships them back inside the outcome; exactly one outcome per
tile is merged by the parent (a batch that is re-solved after a worker
death discards the dead attempt's buffers wholesale rather than merging
them twice).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Mapping, Sequence
from weakref import finalize, ref

from repro.errors import FillError, SolveTimeoutError, WorkerDeathError
from repro.obs.metrics import NULL_METRICS, MetricsLike
from repro.obs.trace import NULL_TRACER, TracerLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.pilfill.costs import ColumnCosts
    from repro.pilfill.parallel import TileKey, TileOutcome, TilePayload

#: What a shared block contains once unpickled: each tile's cost tables.
StoreColumns = Mapping["TileKey", "tuple[ColumnCosts, ...]"]

#: Upper bound on the auto-chosen tiles-per-batch (see :func:`chunk_payloads`).
MAX_AUTO_BATCH = 64

#: Batches per worker the auto chunking aims for — enough slack that a
#: fast worker is never idle waiting for one straggler batch.
BATCHES_PER_WORKER = 4


# ---------------------------------------------------------------------------
# Shared-memory store (parent side)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedStoreHandle:
    """Reference to a :class:`SharedCostStore` block, safe to pickle into
    every batch: the shm segment name, the payload byte length, and the
    sha256 content hash workers use both to verify the bytes and as the
    cache key for the stale-epoch handshake."""

    name: str
    size: int
    content_hash: str


class SharedCostStore:
    """Parent-owned shared-memory block holding one pickled
    ``{tile key: tuple of ColumnCosts}`` mapping.

    Created once per (prepared instance, weighted flag) and reused by
    every run; the block is unlinked when :meth:`close` is called or the
    store is garbage-collected (a :func:`weakref.finalize` guard — shm
    segments outlive processes on POSIX, so leaking them is not an
    option). Live stores are additionally tracked in the process-wide
    :class:`_LiveStoreRegistry` so a broken-pool recovery can unlink
    them *eagerly* (:func:`release_store`) instead of waiting for
    interpreter exit. ``handle`` is the picklable reference batches
    carry.
    """

    def __init__(self, columns: StoreColumns) -> None:
        blob = pickle.dumps(dict(columns), protocol=pickle.HIGHEST_PROTOCOL)
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, len(blob)))
        self._shm.buf[: len(blob)] = blob
        self.handle = SharedStoreHandle(
            name=self._shm.name,
            size=len(blob),
            content_hash=hashlib.sha256(blob).hexdigest(),
        )
        self._finalizer = finalize(self, _release_shm, self._shm)
        _LIVE_STORES.register(self)

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (the once-per-worker transfer cost)."""
        return self.handle.size

    @property
    def closed(self) -> bool:
        """Whether the shared block has been unlinked (the handle is then
        dead: workers attaching to it would raise). Owners that cache
        stores check this and rebuild — see
        :meth:`~repro.pilfill.prepare.PreparedInstance.shared_store_for`.
        """
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink the shared block (idempotent)."""
        _LIVE_STORES.unregister(self.handle.content_hash)
        self._finalizer()


def _release_shm(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink ``shm``, tolerating double release."""
    try:
        shm.close()
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - already gone
        pass


class _LiveStoreRegistry:
    """Parent-side index of live :class:`SharedCostStore` blocks.

    Keyed by content hash, holding weak references — the registry never
    extends a store's lifetime, it only lets :func:`release_store` find
    and unlink a block eagerly when the pool that was using it breaks.
    Worker processes re-import this module and see an empty registry,
    which is correct: only the parent creates stores. All mutation
    happens under the lock, per the C2xx concurrency rules.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_hash: dict[str, ref[SharedCostStore]] = {}

    def register(self, store: SharedCostStore) -> None:
        """Track a freshly created store (called by its constructor)."""
        with self._lock:
            self._by_hash[store.handle.content_hash] = ref(store)

    def unregister(self, content_hash: str) -> None:
        """Forget a store that is closing normally."""
        with self._lock:
            self._by_hash.pop(content_hash, None)

    def release(self, content_hash: str) -> bool:
        """Close (unlink) the live store behind ``content_hash``.

        Returns ``True`` when a live store was actually closed. The
        close happens outside the lock: ``close()`` re-enters
        :meth:`unregister`.
        """
        with self._lock:
            store_ref = self._by_hash.pop(content_hash, None)
        store = store_ref() if store_ref is not None else None
        if store is None:
            return False
        store.close()
        return True

    def live_names(self) -> tuple[str, ...]:
        """Segment names of stores still live (test/leak-audit hook)."""
        with self._lock:
            refs = list(self._by_hash.values())
        stores = (r() for r in refs)
        return tuple(sorted(s.handle.name for s in stores if s is not None and not s.closed))


#: The process-wide live-store index (parent-only; see the class docs).
_LIVE_STORES = _LiveStoreRegistry()


def release_store(handle: SharedStoreHandle) -> bool:
    """Eagerly unlink the live store behind ``handle``.

    Called when a broken pool is discarded mid-run: the dead workers'
    attached copies died with them, but the parent-side block (and the
    parent's own resolved copy, from the recovery path) would otherwise
    linger until the owning :class:`~repro.pilfill.prepare.
    PreparedInstance` is closed or the interpreter exits. Also drops
    this process's :class:`_StoreCache` entry for the handle. Returns
    ``True`` when a live block was unlinked. Owners that cached the
    store observe :attr:`SharedCostStore.closed` and rebuild.
    """
    released = _LIVE_STORES.release(handle.content_hash)
    _STORE_CACHE.evict(handle.content_hash)
    return released


def live_store_names() -> tuple[str, ...]:
    """Segment names of currently live shared stores (leak audits)."""
    return _LIVE_STORES.live_names()


def make_shared_store(columns: StoreColumns) -> SharedCostStore | None:
    """Build a :class:`SharedCostStore`, or ``None`` where the platform
    has no usable shared memory (callers then fall back to inline
    per-payload columns — slower, never wrong)."""
    try:
        return SharedCostStore(columns)
    except OSError:  # pragma: no cover - sandboxed /dev/shm
        return None


# ---------------------------------------------------------------------------
# Shared-memory store (worker side)
# ---------------------------------------------------------------------------


class _StoreCache:
    """Per-process cache of the resolved store contents.

    Single-owner by construction — each worker process (and the parent,
    which uses the same resolver for its retry path) owns exactly one
    instance and touches it from one thread at a time. Keyed by content
    hash: a handle carrying a new hash evicts the previous epoch, which
    is the stale-worker re-sync the persistent pool relies on.
    """

    def __init__(self) -> None:
        self._by_hash: dict[str, StoreColumns] = {}

    def resolve(self, handle: SharedStoreHandle) -> StoreColumns:
        cached = self._by_hash.get(handle.content_hash)
        if cached is not None:
            return cached
        shm = shared_memory.SharedMemory(name=handle.name)
        try:
            blob = bytes(shm.buf[: handle.size])
        finally:
            shm.close()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != handle.content_hash:
            raise FillError(
                f"shared store {handle.name} content hash mismatch: "
                f"expected {handle.content_hash[:12]}…, read {digest[:12]}…"
            )
        data = pickle.loads(blob)
        # New epoch: drop older stores so a long-lived worker's memory
        # stays bounded by one resolved table set per weighted flag.
        if len(self._by_hash) >= 4:
            self._by_hash.clear()
        self._by_hash[handle.content_hash] = data
        return data

    def evict(self, content_hash: str) -> bool:
        """Drop one resolved epoch; ``True`` when it was held.

        The parent resolves a copy of the store for its broken-pool
        recovery path — when the store is released early
        (:func:`release_store`) that copy must go too, or a later run
        reusing the content hash would silently serve bytes from a
        segment that no longer exists for new attachers.
        """
        return self._by_hash.pop(content_hash, None) is not None

    def cached_hashes(self) -> tuple[str, ...]:
        """Hashes currently resolved (test/introspection hook)."""
        return tuple(sorted(self._by_hash))


#: The one resolver this process owns (worker or parent alike).
_STORE_CACHE = _StoreCache()


def resolve_store(handle: SharedStoreHandle) -> StoreColumns:
    """Attach/verify/unpickle ``handle``'s block, cached by content hash."""
    return _STORE_CACHE.resolve(handle)


def _hydrate(payload: TilePayload, data: StoreColumns | None) -> TilePayload:
    """Fill a store-backed payload's columns from the resolved store.

    Payloads that already carry inline columns pass through untouched, so
    the same solve code serves both the shared-memory and legacy paths.
    """
    if payload.columns or data is None:
        return payload
    columns = data.get(payload.key)
    if columns is None:
        raise FillError(f"shared store has no cost columns for tile {payload.key}")
    return replace(payload, columns=columns)


# ---------------------------------------------------------------------------
# Worker entry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TileBatch:
    """Dozens of tile tasks shipped as one pool submit.

    ``store`` is ``None`` when the payloads carry their columns inline.
    ``isolate`` selects the retry-then-record policy inside the worker
    (mirroring the serial dispatcher) versus fail-fast strict mode.
    """

    payloads: tuple[TilePayload, ...]
    store: SharedStoreHandle | None = None
    isolate: bool = True


def _worker_init(handle: SharedStoreHandle | None) -> None:
    """Pool initializer: pre-resolve the store available at pool creation.

    Best-effort warm-up only — the per-batch content-hash handshake is
    what guarantees freshness, so failures here must not break the pool.
    """
    if handle is None:
        return
    try:
        resolve_store(handle)
    except Exception:  # noqa: BLE001 - warm-up is advisory  # pragma: no cover
        pass


def solve_tile_batch(batch: TileBatch) -> list[TileOutcome]:
    """Solve one batch inside a pool worker (also run in-process by the
    parent for serial dispatch and broken-pool recovery).

    Per-tile policy under ``isolate``: a deadline expiry is recorded as a
    ``TIME_LIMIT`` failed outcome (a deadline that fired will fire
    again, and the batch's remaining tiles still deserve their turn); any
    other solve error is retried once in place with the same derived RNG
    and then recorded as failed. Only
    :class:`~repro.errors.WorkerDeathError` escapes — nothing inside a
    dead worker can run recovery code, so the *parent* re-solves the
    whole batch (see :func:`dispatch_batches`). Exactly one outcome per
    tile ever leaves this function, so the parent can never merge a
    failed attempt's telemetry buffers alongside the retry's.
    """
    from repro.pilfill.parallel import _solve_payload_isolated, solve_tile_payload

    data = resolve_store(batch.store) if batch.store is not None else None
    outcomes: list[TileOutcome] = []
    for payload in batch.payloads:
        hydrated = _hydrate(payload, data)
        if batch.isolate:
            outcomes.append(
                _solve_payload_isolated(hydrated, escalate=(WorkerDeathError,))
            )
        else:
            outcomes.append(solve_tile_payload(hydrated))
    return outcomes


# ---------------------------------------------------------------------------
# Persistent pool registry (parent side)
# ---------------------------------------------------------------------------


class _PoolRegistry:
    """Lazily-created process pools keyed by worker count.

    Parent-side state: dispatchers in the main process borrow pools from
    here; worker processes never touch the registry (a freshly imported
    copy in a worker is empty, which is correct). All mutation happens
    under the lock, per the C2xx concurrency rules.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: dict[int, ProcessPoolExecutor] = {}
        self._created = 0

    def get(
        self, workers: int, warm: SharedStoreHandle | None = None
    ) -> ProcessPoolExecutor:
        """The persistent pool for ``workers``, created on first use.

        ``warm`` (optional) is handed to the worker initializer so
        freshly forked workers pre-resolve the current shared store.
        """
        if workers < 2:
            raise FillError(f"persistent pools need workers >= 2, got {workers}")
        with self._lock:
            pool = self._pools.get(workers)
            if pool is None:
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_worker_init,
                    initargs=(warm,),
                )
                self._pools[workers] = pool
                self._created += 1
            return pool

    def discard(self, workers: int) -> None:
        """Drop (and shut down) the pool for ``workers`` — called after a
        :class:`BrokenProcessPool` so the next dispatch rebuilds it."""
        with self._lock:
            pool = self._pools.pop(workers, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Shut every pool down and empty the registry (idempotent)."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown(wait=True, cancel_futures=True)

    def stats(self) -> dict[str, int]:
        """Live pool count and lifetime creations (test/obs hook)."""
        with self._lock:
            return {"live": len(self._pools), "created": self._created}


#: The process-wide registry (parent-only; see :class:`_PoolRegistry`).
_REGISTRY = _PoolRegistry()


def get_pool(workers: int, warm: SharedStoreHandle | None = None) -> ProcessPoolExecutor:
    """The persistent pool for ``workers`` (created lazily, reused across
    ``engine.run()`` calls until :func:`shutdown_pools`)."""
    return _REGISTRY.get(workers, warm)


def discard_pool(workers: int) -> None:
    """Forget a broken pool so the next dispatch starts a fresh one."""
    _REGISTRY.discard(workers)


def shutdown_pools() -> None:
    """Explicitly shut down every persistent pool.

    Long-lived embedders should call this when parallel filling is done;
    one-shot CLI runs are covered by the ``atexit`` registration below.
    """
    _REGISTRY.shutdown()


def pool_stats() -> dict[str, int]:
    """Registry introspection: live pools and lifetime pool creations."""
    return _REGISTRY.stats()


atexit.register(shutdown_pools)


# ---------------------------------------------------------------------------
# Chunked dispatch (parent side)
# ---------------------------------------------------------------------------


def chunk_payloads(
    payloads: Sequence[TilePayload], workers: int, batch_tiles: int | None = None
) -> list[tuple[TilePayload, ...]]:
    """Split ``payloads`` into submit-sized chunks, preserving order.

    ``batch_tiles=None`` auto-sizes: enough batches that every worker
    gets ~:data:`BATCHES_PER_WORKER` of them (so one slow batch cannot
    idle the rest of the pool), capped at :data:`MAX_AUTO_BATCH` tiles
    per submit. Chunking never affects results — only how many futures
    carry them.
    """
    n = len(payloads)
    if n == 0:
        return []
    if batch_tiles is None:
        per_batch = -(-n // (workers * BATCHES_PER_WORKER))  # ceil div
        batch_tiles = max(1, min(MAX_AUTO_BATCH, per_batch))
    elif batch_tiles < 1:
        raise FillError(f"batch_tiles must be >= 1, got {batch_tiles}")
    return [tuple(payloads[i : i + batch_tiles]) for i in range(0, n, batch_tiles)]


def dispatch_batches(
    payloads: Sequence[TilePayload],
    workers: int,
    isolate: bool = True,
    *,
    store: SharedStoreHandle | None = None,
    batch_tiles: int | None = None,
    tracer: TracerLike = NULL_TRACER,
    metrics: MetricsLike = NULL_METRICS,
) -> dict[TileKey, TileOutcome]:
    """Solve ``payloads`` on the persistent process pool in chunked batches.

    The parent submits :class:`TileBatch` groups, waits for them in
    submission order, and re-keys outcomes by payload order — the merge
    is deterministic no matter how the pool schedules batches. Failure
    policy per batch future:

    * ``isolate=False``: the first exception propagates (strict mode).
    * :class:`BrokenProcessPool` (a worker actually died): the broken
      pool is discarded from the registry, and this batch — plus any
      batch stranded behind it — is re-solved *in the parent* at attempt
      1 of the same deterministic contract (payload RNGs re-derive from
      ``(seed, key)``, so results match what the worker would have
      produced).
    * any other escaping exception (e.g. an injected
      :class:`~repro.errors.WorkerDeathError`): same parent-side attempt-1
      re-solve, pool kept.

    The re-solve *replaces* the batch wholesale; outcomes (and their
    telemetry buffers) from the failed attempt never reach the caller,
    so span/metric totals count every tile exactly once.

    After a broken pool the run's shared store is released eagerly
    (:func:`release_store`) — the dead workers' attached copies are
    gone, and keeping the parent-side block (plus the parent's resolved
    recovery copy) alive until interpreter exit is the shm leak this
    guards against. The release waits until every batch has been
    recovered: :func:`_resolve_batch_in_parent` needs the segment alive.
    """
    batches = [
        TileBatch(payloads=chunk, store=store, isolate=isolate)
        for chunk in chunk_payloads(payloads, workers, batch_tiles)
    ]
    if not batches:
        return {}

    pool = get_pool(workers, warm=store)
    futures: list[Future[list[TileOutcome]]] = []
    for batch in batches:
        metrics.count("pool.batches")
        metrics.count("pool.tiles_submitted", len(batch.payloads))
        if metrics is not NULL_METRICS:
            # Payload-bytes metric: what actually crosses the pickle
            # boundary per submit (the shared store is excluded — it
            # crosses once per worker, reported as pool.store_bytes).
            metrics.count("pool.payload_bytes", len(pickle.dumps(batch)))
        futures.append(pool.submit(solve_tile_batch, batch))
    if store is not None:
        metrics.count("pool.store_bytes", store.size)

    broken = False
    by_key: dict[TileKey, TileOutcome] = {}
    for index, (batch, future) in enumerate(zip(batches, futures, strict=True)):
        with tracer.span("solve.batch", index=index, tiles=len(batch.payloads)):
            try:
                outcomes = future.result()
            except SolveTimeoutError:
                if not isolate:
                    raise
                outcomes = _resolve_batch_in_parent(batch, store)
            except BrokenProcessPool:
                if not isolate:
                    raise
                broken = True
                discard_pool(workers)
                metrics.count("pool.broken")
                outcomes = _resolve_batch_in_parent(batch, store)
            except Exception:  # noqa: BLE001 - isolation is the point
                if not isolate:
                    raise
                outcomes = _resolve_batch_in_parent(batch, store)
        for outcome in outcomes:
            by_key[outcome.key] = outcome
    if broken and store is not None:
        release_store(store)
    # Re-key in payload order for the deterministic merge.
    return {p.key: by_key[p.key] for p in payloads}


def _resolve_batch_in_parent(
    batch: TileBatch, store: SharedStoreHandle | None
) -> list[TileOutcome]:
    """Re-solve a whole batch in the parent process.

    Used when the batch's worker died (really, or via an injected
    :class:`~repro.errors.WorkerDeathError`). The failed attempt returned
    nothing, so every outcome built here is the *only* one the caller
    sees for these tiles — the single-merge guarantee the telemetry
    totals rely on.

    Each tile replays the standard isolated policy from attempt 0:
    batchmates of the dying tile (whose own solves never failed) come
    back with ``retries=0``, exactly as the pre-batching per-tile
    dispatcher reported them, while the tile whose injected death
    re-fires on attempt 0 spends its one retry — matching the
    deterministic retry contract across process boundaries. A fault that
    persists into attempt 1 is recorded as failed rather than raised.
    """
    from repro.pilfill.parallel import _solve_payload_isolated

    data = resolve_store(store) if store is not None else None
    return [
        _solve_payload_isolated(_hydrate(payload, data))
        for payload in batch.payloads
    ]


def worker_pids(outcomes: Mapping[TileKey, TileOutcome]) -> frozenset[int]:
    """Distinct worker PIDs that produced ``outcomes`` (excluding the
    current process — i.e. excluding serial/parent-retry solves)."""
    me = os.getpid()
    return frozenset(
        o.pid for o in outcomes.values() if o.pid is not None and o.pid != me
    )
