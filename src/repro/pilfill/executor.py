"""Persistent process-pool executor with chunked, self-contained tile payloads.

``BENCH_2026-08-05.json`` showed the process backend *losing* to serial
(greedy 0.09x, dp 0.49x) for a reason that has nothing to do with the
solves: every ``engine.run()`` cold-started a fresh
:class:`~concurrent.futures.ProcessPoolExecutor`, submitted one future
per tile, and paid a pickle round trip for every
:class:`~repro.pilfill.parallel.TilePayload`. The per-tile MDFC
instances are embarrassingly parallel — the dispatch was the bottleneck.
This module cuts those overheads while keeping the bit-identity
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
* **Inline payloads.** Each batch carries its own tiles'
  :class:`~repro.pilfill.costs.ColumnCosts` tables and nothing else, so
  a worker is a pure function of its payload: it never reads tables of
  tiles it was not sent, and a persistent pool can serve runs over
  different layouts back to back.

**Fork-safety.** Pools are created lazily on first dispatch, from the
dispatching (main) thread. Module state mutated in the parent *after*
that first fork is invisible to the workers — by design, nothing the
workers read lives in module state: tile data arrives only via
batches. Telemetry stays single-owner: each worker builds per-tile
buffers and ships them back inside the outcome; exactly one outcome per
tile is merged by the parent (a batch that is re-solved after a worker
death discards the dead attempt's buffers wholesale rather than merging
them twice).
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import FillError, SolveTimeoutError, WorkerDeathError
from repro.obs.metrics import NULL_METRICS, MetricsLike
from repro.obs.trace import NULL_TRACER, TracerLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.pilfill.parallel import TileKey, TileOutcome, TilePayload

#: Upper bound on the auto-chosen tiles-per-batch (see :func:`chunk_payloads`).
MAX_AUTO_BATCH = 64

#: Batches per worker the auto chunking aims for — enough slack that a
#: fast worker is never idle waiting for one straggler batch.
BATCHES_PER_WORKER = 4


# ---------------------------------------------------------------------------
# Worker entry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TileBatch:
    """Dozens of tile tasks shipped as one pool submit, each payload
    carrying its tile's cost tables. ``isolate`` selects the
    retry-then-record policy inside the worker (mirroring the serial
    dispatcher) versus fail-fast strict mode.
    """

    payloads: tuple[TilePayload, ...]
    isolate: bool = True


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

    if batch.isolate:
        return [
            _solve_payload_isolated(payload, escalate=(WorkerDeathError,))
            for payload in batch.payloads
        ]
    return [solve_tile_payload(payload) for payload in batch.payloads]


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

    def get(self, workers: int) -> ProcessPoolExecutor:
        """The persistent pool for ``workers``, created on first use."""
        if workers < 2:
            raise FillError(f"persistent pools need workers >= 2, got {workers}")
        with self._lock:
            pool = self._pools.get(workers)
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
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


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent pool for ``workers`` (created lazily, reused across
    ``engine.run()`` calls until :func:`shutdown_pools`)."""
    return _REGISTRY.get(workers)


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
    """
    batches = [
        TileBatch(payloads=chunk, isolate=isolate)
        for chunk in chunk_payloads(payloads, workers, batch_tiles)
    ]
    if not batches:
        return {}

    pool = get_pool(workers)
    futures: list[Future[list[TileOutcome]]] = []
    for batch in batches:
        metrics.count("pool.batches")
        metrics.count("pool.tiles_submitted", len(batch.payloads))
        futures.append(pool.submit(solve_tile_batch, batch))

    by_key: dict[TileKey, TileOutcome] = {}
    for index, (batch, future) in enumerate(zip(batches, futures, strict=True)):
        with tracer.span("solve.batch", index=index, tiles=len(batch.payloads)):
            try:
                outcomes = future.result()
            except SolveTimeoutError:
                if not isolate:
                    raise
                outcomes = _resolve_batch_in_parent(batch)
            except BrokenProcessPool:
                if not isolate:
                    raise
                discard_pool(workers)
                metrics.count("pool.broken")
                outcomes = _resolve_batch_in_parent(batch)
            except Exception:  # noqa: BLE001 - isolation is the point
                if not isolate:
                    raise
                outcomes = _resolve_batch_in_parent(batch)
        for outcome in outcomes:
            by_key[outcome.key] = outcome
    # Re-key in payload order for the deterministic merge.
    return {p.key: by_key[p.key] for p in payloads}


def _resolve_batch_in_parent(batch: TileBatch) -> list[TileOutcome]:
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

    return [_solve_payload_isolated(payload) for payload in batch.payloads]


def worker_pids(outcomes: Mapping[TileKey, TileOutcome]) -> frozenset[int]:
    """Distinct worker PIDs that produced ``outcomes`` (excluding the
    current process — i.e. excluding serial/parent-retry solves)."""
    me = os.getpid()
    return frozenset(
        o.pid for o in outcomes.values() if o.pid is not None and o.pid != me
    )
