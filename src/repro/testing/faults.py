"""Deterministic, picklable fault injection for the solve path.

The robust solve layer (:mod:`repro.pilfill.robust`) calls :func:`inject`
at every per-tile solve attempt with ``(tile key, method, attempt)``. A
:class:`FaultSpec` — threaded through ``EngineConfig.fault_spec`` and the
process-pool :class:`~repro.pilfill.parallel.TilePayload` — decides
whether that attempt raises, and what:

* ``kind="error"`` raises :class:`~repro.errors.SolverError` — a generic
  backend failure; the fallback chain degrades to the next method.
* ``kind="timeout"`` raises :class:`~repro.errors.SolveTimeoutError` — a
  simulated deadline; degrades without a same-method retry.
* ``kind="worker_death"`` raises :class:`~repro.errors.WorkerDeathError`
  — escapes the fallback chain entirely (nothing inside a dead worker can
  run recovery code) so the *dispatcher* retry path is exercised.

Everything is stateless: a rule fires based on the attempt *number*, not
on a counter, so behavior is identical whether the retry happens in the
same process (in-process solves) or in the parent after a pool worker
died (process pool), and identical across repeated runs.

There is one injection channel: the explicit spec. The engine threads
``EngineConfig.fault_spec`` into every in-process solve and into the
payloads it ships to pool workers, so the same spec reaches both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import FillError, SolverError, SolveTimeoutError, WorkerDeathError

TileKey = tuple[int, int]

#: Accepted fault kinds.
FAULT_KINDS = ("error", "timeout", "worker_death")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *which* fault, *where*, and *when*.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        tiles: tile keys the rule applies to; ``None`` means every tile.
        methods: method names the rule applies to (``"ilp2"``, ``"mvdc"``,
            ...); ``None`` means every method.
        attempts: dispatcher attempt numbers the rule fires on. ``(0,)``
            models a *transient* fault (first attempt fails, the retry
            succeeds); ``None`` models a *persistent* fault (every attempt
            fails, forcing the fallback chain / failed-tile path).
    """

    kind: str
    tiles: frozenset[TileKey] | None = None
    methods: tuple[str, ...] | None = None
    attempts: tuple[int, ...] | None = (0,)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FillError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )

    def matches(self, key: TileKey, method: str, attempt: int) -> bool:
        if self.tiles is not None and key not in self.tiles:
            return False
        if self.methods is not None and method not in self.methods:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True

    def fire(self, key: TileKey, method: str, attempt: int) -> None:
        detail = f"injected {self.kind} fault: tile {key} method {method} attempt {attempt}"
        if self.kind == "worker_death":
            raise WorkerDeathError(detail)
        if self.kind == "timeout":
            raise SolveTimeoutError(detail)
        raise SolverError(detail)


@dataclass(frozen=True)
class FaultSpec:
    """An ordered set of :class:`FaultRule`; the first match fires.

    Frozen and built from hashable containers so it pickles into the
    process-pool tile payloads unchanged.
    """

    rules: tuple[FaultRule, ...] = ()

    @staticmethod
    def single(
        kind: str,
        tiles: Iterable[TileKey] | None = None,
        methods: Sequence[str] | None = None,
        attempts: Sequence[int] | None = (0,),
    ) -> "FaultSpec":
        """Convenience constructor for the common one-rule spec."""
        return FaultSpec(
            rules=(
                FaultRule(
                    kind=kind,
                    tiles=None if tiles is None else frozenset(tiles),
                    methods=None if methods is None else tuple(methods),
                    attempts=None if attempts is None else tuple(attempts),
                ),
            )
        )

    def check(self, key: TileKey, method: str, attempt: int) -> None:
        """Raise the first matching rule's fault, if any."""
        for rule in self.rules:
            if rule.matches(key, method, attempt):
                rule.fire(key, method, attempt)


def inject(key: TileKey, method: str, attempt: int, spec: FaultSpec | None = None) -> None:
    """The hook the robust solve layer calls before every attempt.

    Checks ``spec`` when one is given. Tests may also monkeypatch this
    function wholesale to inject arbitrary behavior.
    """
    if spec is not None:
        spec.check(key, method, attempt)


def sample_tiles(keys: Iterable[TileKey], fraction: float, seed: int = 0) -> frozenset[TileKey]:
    """A deterministic ``fraction`` of ``keys`` (at least one when any
    exist and ``fraction > 0``) — for specs like "kill ILP-II on 20% of
    tiles". Selection depends only on the sorted key set and the seed,
    never on iteration order.
    """
    if not 0.0 <= fraction <= 1.0:
        raise FillError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(set(keys))
    if not ordered or fraction == 0.0:
        return frozenset()
    count = max(1, round(fraction * len(ordered)))
    rng = random.Random(f"faults:{seed}")
    return frozenset(rng.sample(ordered, count))
