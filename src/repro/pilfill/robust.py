"""Robust per-tile solving: deadlines, fallback chain, solve reports.

The paper's flow assumes CPLEX always returns an optimal solution; real
backends hang, hit limits, or die. This layer wraps the method dispatch
(:func:`~repro.pilfill.methods.solve_tile_method`) so one tile's failure
degrades that tile instead of aborting the sweep:

* **Deadlines.** An effective per-solve time limit is derived from the
  per-tile deadline and the remaining per-run deadline (an absolute
  ``time.time()`` epoch, comparable across processes). The ILP backends
  enforce it and surface :class:`~repro.errors.SolveTimeoutError`.
* **Fallback chain.** ILP-II → ILP-I → Greedy (paper Fig. 8 ordering by
  cost/quality); every other method falls back to Greedy directly, which
  is deterministic, fast, and cannot time out on per-tile instances. A
  timeout never retries the *same* method — under the same deadline it
  would just time out again.
* **Reports.** Every tile gets a :class:`SolveReport` recording which
  method was requested, which actually produced the solution, how many
  dispatcher retries happened, and the error chain — so tables can
  annotate degraded cells instead of silently mixing methods.

:class:`~repro.errors.WorkerDeathError` deliberately escapes the chain:
nothing inside a dead worker can run recovery code, so the *dispatcher*
(:mod:`repro.pilfill.parallel`) re-solves the worker's chunk in the
parent, where the per-tile policy retries the tile once with the same
derived RNG (preserving the bit-identity contract) and only then
records the tile as failed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from types import MappingProxyType

from repro.errors import SolveTimeoutError, WorkerDeathError
from repro.obs.metrics import NULL_METRICS, MetricsLike
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.pilfill.costs import TileCosts
from repro.pilfill.solution import TileSolution
from repro.testing import faults as fault_hooks
from repro.testing.faults import FaultSpec

TileKey = tuple[int, int]

#: Degradation order per requested method. Greedy is the terminal rung:
#: deterministic, near-instant, and never invokes an ILP backend.
#: Immutable: this module runs inside pool workers, so module state must
#: not be writable (C201).
_CHAINS: MappingProxyType[str, tuple[str, ...]] = MappingProxyType(
    {
        "ilp2": ("ilp2", "ilp1", "greedy"),
        "ilp1": ("ilp1", "greedy"),
        "greedy": ("greedy",),
        # MVDC's solver already is the exact marginal greedy: no cheaper
        # rung exists to degrade to.
        "mvdc": ("mvdc",),
    }
)


def fallback_chain(method: str) -> tuple[str, ...]:
    """The ordered methods tried for a tile requesting ``method``."""
    chain = _CHAINS.get(method)
    if chain is None:
        chain = (method, "greedy") if method != "greedy" else ("greedy",)
    return chain


@dataclass(frozen=True)
class SolveReport:
    """How one tile's solution was actually obtained.

    Attributes:
        key: the tile.
        requested_method: what the configuration asked for.
        used_method: what produced the returned solution; ``None`` means
            every rung of the chain failed on every dispatcher attempt
            and the tile was left empty (zero features).
        retries: dispatcher-level retries that preceded the outcome (0 =
            first attempt; 1 = the tile was retried after a worker death
            or chain exhaustion).
        errors: the error messages collected along the way, in order
            (``"method: message"`` per failed rung).
    """

    key: TileKey
    requested_method: str
    used_method: str | None
    retries: int = 0
    errors: tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """The solution came from a cheaper method than requested."""
        return self.used_method is not None and self.used_method != self.requested_method

    @property
    def failed(self) -> bool:
        """No method produced a solution; the tile holds zero features."""
        return self.used_method is None

    @property
    def ok(self) -> bool:
        return self.used_method == self.requested_method


@dataclass(frozen=True)
class RobustSolve:
    """A tile solution bundled with its provenance report."""

    solution: TileSolution
    report: SolveReport


def effective_time_limit(
    tile_deadline_s: float | None,
    run_deadline: float | None,
) -> float | None:
    """Per-solve wall-clock budget: min(tile deadline, remaining run time).

    ``run_deadline`` is an absolute ``time.time()`` epoch. Raises
    :class:`SolveTimeoutError` when the run deadline has already passed —
    no method (not even the greedy rung) should start then.
    """
    limits = []
    if tile_deadline_s is not None:
        limits.append(tile_deadline_s)
    if run_deadline is not None:
        remaining = run_deadline - time.time()
        if remaining <= 0:
            raise SolveTimeoutError("run deadline exceeded before tile solve started")
        limits.append(remaining)
    return min(limits) if limits else None


def solve_tile_robust(
    costs: TileCosts,
    method: str,
    budget: int,
    weighted: bool,
    ilp_backend: str,
    rng: random.Random,
    *,
    key: TileKey,
    chain: tuple[str, ...] | None = None,
    delay_budget_ps: float | None = None,
    tile_deadline_s: float | None = None,
    run_deadline: float | None = None,
    fault_spec: FaultSpec | None = None,
    attempt: int = 0,
    tracer: TracerLike | None = None,
    metrics: MetricsLike | None = None,
) -> RobustSolve:
    """Solve one tile, degrading down the fallback chain on failure.

    ``chain`` overrides :func:`fallback_chain` — strict mode passes the
    one-rung chain ``(method,)``, so the first failure re-raises.
    ``delay_budget_ps`` feeds the ``"mvdc"`` rung.

    Raises :class:`WorkerDeathError` (never handled here — the dispatcher
    owns the retry) and :class:`SolveTimeoutError` only when the *run*
    deadline is exhausted — that timeout carries the rung error history
    accumulated so far (``rung_errors``), so the dispatcher can record a
    complete failed report without retrying. Any other failure of the
    last chain rung re-raises that rung's exception, which the dispatcher
    turns into a retry and then a failed-tile outcome.
    """
    # Import here: methods → ilp is the heavy part of the import graph and
    # robust is imported by parallel, which workers import at startup.
    from repro.pilfill.methods import solve_tile_method

    trc = tracer if tracer is not None else NULL_TRACER
    mtr = metrics if metrics is not None else NULL_METRICS
    if chain is None:
        chain = fallback_chain(method)
    errors: list[str] = []
    with trc.span("tile", tile=key, method=method, attempt=attempt):
        for rung_index, rung in enumerate(chain):
            try:
                time_limit = effective_time_limit(tile_deadline_s, run_deadline)
            except SolveTimeoutError as exc:
                # Run deadline expired between rungs: never retried, and
                # the errors collected so far ride along on the exception.
                mtr.count("solve.deadline_hits")
                raise SolveTimeoutError(str(exc), rung_errors=tuple(errors)) from exc
            mtr.count("solve.rungs_attempted")
            with trc.span("rung", method=rung) as rung_span:
                try:
                    fault_hooks.inject(key, rung, attempt, fault_spec)
                    solution = solve_tile_method(
                        costs,
                        rung,
                        budget,
                        weighted,
                        ilp_backend,
                        rng,
                        time_limit=time_limit,
                        tracer=trc,
                        delay_budget_ps=delay_budget_ps,
                    )
                except WorkerDeathError:
                    raise  # the dispatcher retries; recovery cannot run in a dead worker
                except Exception as exc:  # noqa: BLE001 — isolation is the point
                    mtr.count("solve.rung_failures")
                    if isinstance(exc, SolveTimeoutError):
                        mtr.count("solve.deadline_hits")
                    rung_span.set("error", f"{type(exc).__name__}: {exc}")
                    errors.append(f"{rung}: {exc}")
                    if rung_index == len(chain) - 1:
                        if isinstance(exc, SolveTimeoutError):
                            # Keep the earlier rungs' errors on the timeout
                            # so the failed report shows the whole chain.
                            raise SolveTimeoutError(
                                str(exc), rung_errors=tuple(errors[:-1])
                            ) from exc
                        raise
                    continue
            if rung_index > 0:
                mtr.count("solve.fallbacks")
            return RobustSolve(
                solution=solution,
                report=SolveReport(
                    key=key,
                    requested_method=method,
                    used_method=rung,
                    retries=attempt,
                    errors=tuple(errors),
                ),
            )
    raise AssertionError("unreachable: chain is never empty")


def failed_report(
    key: TileKey,
    method: str,
    retries: int,
    error: str | None,
    prior_errors: tuple[str, ...] = (),
) -> SolveReport:
    """The report recorded when every attempt on a tile failed.

    ``prior_errors`` prepends the rung history that preceded the final
    error (e.g. the chain rungs tried before a run-deadline expiry).
    """
    return SolveReport(
        key=key,
        requested_method=method,
        used_method=None,
        retries=retries,
        errors=prior_errors + ((error,) if error else ()),
    )
