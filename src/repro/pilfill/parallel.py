"""Per-tile dispatch for the PIL-Fill solve phase.

The per-tile MDFC instances are independent — the paper's tiled
formulation (and follow-ups such as the timing-aware fill flow of
arXiv:1711.01407) exploits exactly this. This module solves tiles
serially or fans them out over the persistent process pool, and returns
outcomes keyed in submission order for a deterministic merge:

* **Determinism.** Tiles carry their own RNG (seeded from the run seed
  and the tile key, see :func:`tile_rng`), so a stochastic method like
  the Normal baseline draws the same samples no matter which worker
  solves the tile or in which order tiles finish. The caller merges
  outcomes in dissection order, so any worker count is bit-identical to
  the serial path.
* **One per-tile entry.** Every tile travels as a :class:`TilePayload`
  (cost tables + budget + seed + deadlines, *not* layout objects) and is
  solved by :func:`solve_tile_payload` — in-process for ``workers=1``,
  inside a pool worker otherwise, and in the parent for retries.
  Payloads carry the tile's :class:`~repro.pilfill.costs.ColumnCosts`
  inline, so a solve is a pure function of its payload.
* **Per-tile timing.** Every outcome records its solve seconds so the
  hot tiles are visible from the CLI and harness.
* **Fault isolation.** With ``isolate=True`` (the default) a tile whose
  solve raises — or whose pool worker dies — never aborts the sweep: the
  dispatcher retries the tile once with the same derived RNG (attempt
  numbers, not shared counters, drive the retry so the contract holds
  across process boundaries), and records a failed
  :class:`TileOutcome` (``value=None``, ``error`` set) if the retry also
  fails. Timeouts are the exception: a deadline that fired once will
  fire again, so :class:`~repro.errors.SolveTimeoutError` fails the
  tile without a retry.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SolveTimeoutError
from repro.obs.metrics import NULL_METRICS, Metrics, MetricsLike, MetricsSnapshot
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer, TracerLike

from repro.pilfill.costs import ColumnCosts
from repro.pilfill.robust import SolveReport, fallback_chain, solve_tile_robust
from repro.pilfill.solution import TileSolution
from repro.testing.faults import FaultSpec

TileKey = tuple[int, int]

#: Accepted values of ``EngineConfig.parallel_backend``: ``workers > 1``
#: always means the persistent process pool.
PARALLEL_BACKENDS = ("process",)

#: Dispatcher attempts per tile under ``isolate=True`` (1 + one retry).
MAX_ATTEMPTS = 2


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
    pickling stays cheap. ``columns`` holds the tile's
    :class:`~repro.pilfill.costs.ColumnCosts` (geometry-free, so the same
    objects serve in-process and pool solves). ``delay_budget_ps`` is
    the MVDC delay budget (method ``"mvdc"``; budget then acts as the
    feature-count cap).
    """

    key: TileKey
    method: str
    budget: int
    weighted: bool
    ilp_backend: str
    seed: int
    columns: tuple[ColumnCosts, ...]
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
    (pool), and the RNG is re-derived from ``(seed, key)``, so the solve
    is order-, host-, and attempt-independent. ``attempt`` is the
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
        list(payload.columns),
        payload.method,
        payload.budget,
        payload.weighted,
        payload.ilp_backend,
        tile_rng(payload.seed, payload.key),
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
    """In-process payload solve with the retry-then-fail policy applied.

    ``escalate`` lists exception types that must propagate instead of
    being retried here — the batch worker passes
    :class:`~repro.errors.WorkerDeathError` so a simulated worker death
    escapes to the *dispatcher*, whose parent-side retry is the
    contract being exercised (nothing inside a dead worker can run
    recovery code).
    """
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


def dispatch_tile_payloads(
    payloads: Sequence[TilePayload],
    workers: int = 1,
    isolate: bool = True,
    *,
    batch_tiles: int | None = None,
    tracer: TracerLike = NULL_TRACER,
    metrics: MetricsLike = NULL_METRICS,
) -> dict[TileKey, TileOutcome]:
    """Solve tile payloads, serially or on the persistent process pool.

    An empty payload list returns an empty mapping before any pool is
    touched (a no-fill-needed run must not cost a pool, and
    ``ProcessPoolExecutor(max_workers=0)`` would raise). ``workers=1``
    (or a single payload) solves in-process — same code path as the pool
    workers, so results never depend on the worker count. The returned
    mapping is ordered by ``payloads`` regardless of completion order,
    giving a deterministic merge.

    ``workers > 1`` dispatches chunked :class:`~repro.pilfill.executor.
    TileBatch` submits on the persistent pool for that worker count;
    each batch carries its tiles' cost tables inline. ``batch_tiles``
    overrides the auto chunk size; ``tracer``/``metrics`` receive
    per-batch spans and dispatch metrics (batches, tiles, broken pools).

    With ``isolate=True`` a failing tile is retried once and then
    recorded as a failed :class:`TileOutcome` instead of aborting the
    sweep. A pool worker that *dies* (broken pool) has its batch — and
    any batch stranded by the broken pool — re-solved in the parent
    process, which is attempt 1 of the same deterministic contract.
    With ``isolate=False`` the first exception propagates.
    """
    from repro.pilfill.executor import dispatch_batches

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not payloads:
        return {}
    if workers == 1 or len(payloads) <= 1:
        if isolate:
            return {p.key: _solve_payload_isolated(p) for p in payloads}
        return {p.key: solve_tile_payload(p) for p in payloads}
    return dispatch_batches(
        payloads,
        workers,
        isolate,
        batch_tiles=batch_tiles,
        tracer=tracer,
        metrics=metrics,
    )
