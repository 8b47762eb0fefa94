"""Per-tile dispatch for the PIL-Fill solve phase.

The per-tile MDFC instances are independent — the paper's tiled
formulation (and follow-ups such as the timing-aware fill flow of
arXiv:1711.01407) exploits exactly this. This module solves tiles
serially or fans them out over a persistent process pool, and returns
outcomes keyed in submission order for a deterministic merge:

* **Determinism.** Tiles carry their own RNG (seeded from the run seed
  and the tile key, see :func:`tile_rng`), so a stochastic method like
  the Normal baseline draws the same samples no matter which worker
  solves the tile or in which order tiles finish. The caller merges
  outcomes in dissection order, so any worker count is bit-identical to
  the serial path.
* **Self-contained payloads.** Every tile travels as a
  :class:`TilePayload` (cost tables + budget + seed + deadlines, *not*
  layout objects) and is solved by :func:`solve_tile_payload`. Payloads
  carry the tile's :class:`~repro.pilfill.costs.TileCosts` inline — its
  slices of the batched arrays over geometry-free columns — so a solve
  is a pure function of its payload and a persistent pool can serve runs
  over different layouts back to back.
* **One per-tile policy.** :func:`_solve_payload_isolated` is the policy
  on both sides of the process boundary. A robust payload
  (``fallback=True``) whose solve raises is retried once with the same
  derived RNG (attempt numbers, not shared counters, drive the retry so
  the contract holds across process boundaries) and then recorded as a
  failed :class:`TileOutcome` (``value=None``, ``error`` set). A
  deadline expiry fails the tile without a retry — a deadline that
  fired once will fire again. A strict payload (``fallback=False``)
  propagates its first failure.
* **Persistent pools.** :func:`get_pool` lazily creates one pool per
  worker count and keeps it alive across ``engine.run()`` calls (the
  executor-reuse shape window-parallel density passes use in FFTPL-style
  placers, arXiv 1312.4587). :func:`shutdown_pools` tears everything
  down explicitly; an ``atexit`` hook covers one-shot CLI use. A pool
  broken by a worker death is discarded and rebuilt on the next
  dispatch.
* **Chunked dispatch.** Tiles ship in chunks of dozens per submit
  (:func:`chunk_payloads`), so a 2 700-tile grid costs ~85 futures
  instead of 2 700. A chunk whose worker dies — really, or through an
  injected :class:`~repro.errors.WorkerDeathError` — is re-solved in
  the parent, and serial dispatch is that same parent solve.

**Fork-safety.** Pools are created lazily on first dispatch, from the
dispatching (main) thread. Module state mutated in the parent *after*
that first fork is invisible to the workers — by design, nothing the
workers read lives in module state: tile data arrives only via
payloads, and worker processes see an empty pool registry, which is
correct because they never dispatch. Telemetry stays single-owner: each
solve builds tile-local buffers and ships them back inside its outcome,
and exactly one outcome per tile reaches the caller (a chunk re-solved
after a worker death discards the dead attempt wholesale).
"""

from __future__ import annotations

import atexit
import os
import random
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.errors import FillError, SolveTimeoutError, WorkerDeathError
from repro.obs.metrics import NULL_METRICS, Metrics, MetricsLike, MetricsSnapshot
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer, TracerLike

from repro.pilfill.costs import TileCosts
from repro.pilfill.robust import SolveReport, fallback_chain, solve_tile_robust
from repro.pilfill.solution import TileSolution
from repro.testing.faults import FaultSpec

TileKey = tuple[int, int]

#: Accepted values of ``EngineConfig.parallel_backend``: ``workers > 1``
#: always means the persistent process pool.
PARALLEL_BACKENDS = ("process",)

#: Attempts per robust tile (1 + one retry).
MAX_ATTEMPTS = 2

#: Upper bound on the tiles per submit (see :func:`chunk_payloads`).
MAX_AUTO_BATCH = 64

#: Chunks per worker the chunking aims for — enough slack that a fast
#: worker is never idle waiting for one straggler chunk.
BATCHES_PER_WORKER = 4


def tile_rng(seed: int, key: TileKey) -> random.Random:
    """An RNG owned by one tile, reproducible regardless of solve order.

    String seeds hash through SHA-512 inside :class:`random.Random`, so
    the stream is stable across processes and interpreter hash
    randomization.
    """
    return random.Random(f"pilfill:{seed}:{key[0]}:{key[1]}")


@dataclass(frozen=True)
class TileOutcome:
    """One tile's solve result plus its wall-clock cost.

    ``value`` is ``None`` when every attempt failed (``error`` then holds
    the last failure — prefixed ``TIME_LIMIT:`` for deadline expiries —
    ``error_chain`` the fallback-rung history that preceded it, and
    ``retries`` how many retries were spent). Every successful outcome
    carries its :class:`~repro.pilfill.robust.SolveReport` in ``report``.
    ``spans`` / ``metrics`` marshal the tile-local telemetry buffer back
    from pool workers; both stay empty when telemetry is off. ``pid`` records the process that
    produced the outcome, so pool reuse (stable worker PIDs across
    consecutive runs) is observable from the results.
    """

    key: TileKey
    value: TileSolution | None
    seconds: float
    report: SolveReport | None = None
    error: str | None = None
    retries: int = 0
    error_chain: tuple[str, ...] = ()
    spans: tuple[SpanRecord, ...] = ()
    metrics: MetricsSnapshot | None = None
    pid: int | None = None

    @property
    def failed(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class TilePayload:
    """Everything a worker process needs to solve one tile.

    Deliberately contains no layout, engine, or dissection objects so
    pickling stays cheap. ``costs`` is the tile's
    :class:`~repro.pilfill.costs.TileCosts` over geometry-free columns
    (:meth:`~repro.pilfill.costs.TileCosts.electrical`): pickling copies
    only the tile's own slices of the batched arrays, and the same object
    serves in-process and pool solves. ``delay_budget_ps`` is
    the MVDC delay budget (method ``"mvdc"``; budget then acts as the
    feature-count cap).
    """

    key: TileKey
    method: str
    budget: int
    weighted: bool
    ilp_backend: str
    seed: int
    costs: TileCosts
    delay_budget_ps: float | None = None
    tile_deadline_s: float | None = None
    run_deadline: float | None = None  # absolute time.time() epoch
    fault_spec: FaultSpec | None = None
    fallback: bool = True
    telemetry: bool = False


def solve_tile_payload(payload: TilePayload, attempt: int = 0) -> TileOutcome:
    """Solve one tile: the single per-tile entry for in-process solves,
    pool workers, and parent-side retries alike.

    Produces the same :class:`TileSolution` wherever it runs: the cost
    tables are the engine's own (in-process) or their unpickled copies
    (pool), and the RNG is re-derived from ``(seed, key)`` — only when a
    Normal rung runs, the one method that draws from it — so the solve is
    order-, host-, and attempt-independent. ``attempt`` is the
    dispatcher attempt number (threaded to the fault hooks so transient
    faults fire on the first attempt only, regardless of which process
    runs the retry).

    The solve walks the robust fallback chain for ``payload.method``;
    strict mode (``payload.fallback=False``) is the chain of length one,
    so the first failure propagates to the dispatcher. MVDC payloads
    (``delay_budget_ps`` set, method ``"mvdc"``) always run that
    single-rung chain. Every successful outcome carries its
    :class:`~repro.pilfill.robust.SolveReport`.

    With ``payload.telemetry`` the solve records into a tile-local tracer
    and metrics registry (single-owner, lock-free) and marshals the
    frozen snapshot back on the outcome for the caller to merge.
    """
    tracer: TracerLike = Tracer() if payload.telemetry else NULL_TRACER
    metrics = Metrics() if payload.telemetry else None
    t0 = time.perf_counter()
    robust = solve_tile_robust(
        payload.costs,
        payload.method,
        payload.budget,
        payload.weighted,
        payload.ilp_backend,
        partial(tile_rng, payload.seed, payload.key),
        key=payload.key,
        chain=fallback_chain(payload.method) if payload.fallback else (payload.method,),
        delay_budget_ps=payload.delay_budget_ps,
        tile_deadline_s=payload.tile_deadline_s,
        run_deadline=payload.run_deadline,
        fault_spec=payload.fault_spec,
        attempt=attempt,
        tracer=tracer,
        metrics=metrics,
    )
    return TileOutcome(
        key=payload.key,
        value=robust.solution,
        seconds=time.perf_counter() - t0,
        report=robust.report,
        retries=attempt,
        spans=tracer.records(),
        metrics=metrics.snapshot() if metrics is not None else None,
        pid=os.getpid(),
    )


def _failed_outcome(key: TileKey, exc: BaseException, seconds: float, retries: int) -> TileOutcome:
    """Classify a terminal failure into a failed outcome.

    Deadline expiries are marked ``TIME_LIMIT:`` so reports (and readers
    of ``--trace-out`` output) can tell a timeout from a solver crash;
    the rung error history riding on :class:`SolveTimeoutError` is
    preserved in ``error_chain``.
    """
    if isinstance(exc, SolveTimeoutError):
        return TileOutcome(
            key=key,
            value=None,
            seconds=seconds,
            error=f"TIME_LIMIT: {exc}",
            retries=retries,
            error_chain=tuple(exc.rung_errors),
            pid=os.getpid(),
        )
    return TileOutcome(
        key=key,
        value=None,
        seconds=seconds,
        error=f"{type(exc).__name__}: {exc}",
        retries=retries,
        pid=os.getpid(),
    )


def _solve_payload_isolated(
    payload: TilePayload,
    escalate: tuple[type[BaseException], ...] = (),
) -> TileOutcome:
    """Solve one payload under the per-tile policy its ``fallback`` flag
    selects.

    A strict payload (``fallback=False``) is solved once and its first
    failure propagates. A robust payload fails a deadline expiry without
    a retry, retries any other solve error once and then records it as a
    failed outcome. ``escalate`` lists exception types that propagate
    instead: :func:`solve_tile_batch` passes
    :class:`~repro.errors.WorkerDeathError` so a worker death reaches the
    parent, which re-solves the whole chunk (nothing inside a dead worker
    can run recovery code).
    """
    if not payload.fallback:
        return solve_tile_payload(payload)
    t0 = time.perf_counter()
    last: BaseException | None = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            return solve_tile_payload(payload, attempt)
        except SolveTimeoutError as exc:
            return _failed_outcome(payload.key, exc, time.perf_counter() - t0, attempt)
        except escalate:
            raise
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            last = exc
    return _failed_outcome(payload.key, last, time.perf_counter() - t0, MAX_ATTEMPTS - 1)


def _solve_in_parent(payloads: Sequence[TilePayload]) -> list[TileOutcome]:
    """Solve ``payloads`` in this process, each from attempt 0: serial
    dispatch, and the re-solve of a chunk whose worker died.

    Batchmates of a dying tile (whose own solves never failed) come back
    with ``retries=0``, while a tile whose injected death re-fires on
    attempt 0 spends its one retry; a fault that persists into attempt 1
    is recorded as failed. The failed attempt returned nothing, so these
    are the only outcomes the caller sees for the chunk — the
    single-merge guarantee telemetry totals rely on.
    """
    return [_solve_payload_isolated(payload) for payload in payloads]


def solve_tile_batch(payloads: tuple[TilePayload, ...]) -> list[TileOutcome]:
    """Solve one chunk inside a pool worker: the parent's policy, except
    that a :class:`~repro.errors.WorkerDeathError` escapes to the parent.
    Exactly one outcome per tile ever leaves this function."""
    return [
        _solve_payload_isolated(payload, escalate=(WorkerDeathError,))
        for payload in payloads
    ]


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


def chunk_payloads(
    payloads: Sequence[TilePayload], workers: int
) -> list[tuple[TilePayload, ...]]:
    """Split ``payloads`` into submit-sized chunks, preserving order.

    Enough chunks that every worker gets ~:data:`BATCHES_PER_WORKER` of
    them (so one slow chunk cannot idle the rest of the pool), capped at
    :data:`MAX_AUTO_BATCH` tiles per submit. Chunking never affects
    results — only how many futures carry them.
    """
    n = len(payloads)
    per_chunk = max(1, min(MAX_AUTO_BATCH, -(-n // (workers * BATCHES_PER_WORKER))))
    return [tuple(payloads[i : i + per_chunk]) for i in range(0, n, per_chunk)]


def dispatch_tile_payloads(
    payloads: Sequence[TilePayload],
    workers: int = 1,
    *,
    tracer: TracerLike = NULL_TRACER,
    metrics: MetricsLike = NULL_METRICS,
) -> dict[TileKey, TileOutcome]:
    """Solve tile payloads, serially or on the persistent process pool.

    An empty payload list returns an empty mapping before any pool is
    touched (a no-fill-needed run must not cost a pool, and
    ``ProcessPoolExecutor(max_workers=0)`` would raise). ``workers=1``
    (or a single payload) solves in the parent — the same per-tile
    policy the pool workers run, so results never depend on the worker
    count. ``workers > 1`` submits :func:`chunk_payloads` chunks to the
    persistent pool for that worker count; ``tracer``/``metrics``
    receive per-chunk spans and dispatch metrics (batches, tiles, broken
    pools). The returned mapping is ordered by ``payloads`` regardless
    of completion order, giving a deterministic merge.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(payloads) <= 1:
        return {o.key: o for o in _solve_in_parent(payloads)}
    return _dispatch_chunks(
        chunk_payloads(payloads, workers), workers, tracer=tracer, metrics=metrics
    )


def _dispatch_chunks(
    chunks: Sequence[tuple[TilePayload, ...]],
    workers: int,
    *,
    tracer: TracerLike = NULL_TRACER,
    metrics: MetricsLike = NULL_METRICS,
) -> dict[TileKey, TileOutcome]:
    """Submit ``chunks`` to the persistent pool and collect their outcomes
    in submission order.

    A chunk whose future raises — an escaped
    :class:`~repro.errors.WorkerDeathError`, or a :class:`BrokenProcessPool`
    after a real worker death, which also discards the pool — is
    re-solved by :func:`_solve_in_parent` (payload RNGs re-derive from
    ``(seed, key)``, so results match what the worker would have
    produced). A strict payload's failure re-raises from that parent
    solve: the first failure in submission order propagates.
    """
    pool = get_pool(workers)
    futures: list[Future[list[TileOutcome]]] = []
    for chunk in chunks:
        metrics.count("pool.batches")
        metrics.count("pool.tiles_submitted", len(chunk))
        futures.append(pool.submit(solve_tile_batch, chunk))

    outcomes: dict[TileKey, TileOutcome] = {}
    for index, (chunk, future) in enumerate(zip(chunks, futures, strict=True)):
        with tracer.span("solve.batch", index=index, tiles=len(chunk)):
            try:
                solved = future.result()
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                if isinstance(exc, BrokenProcessPool):
                    discard_pool(workers)
                    metrics.count("pool.broken")
                solved = _solve_in_parent(chunk)
        outcomes.update((o.key, o) for o in solved)
    return outcomes
