"""Lightweight tracing: nested spans with an injected monotonic clock.

A :class:`Tracer` records :class:`SpanRecord` rows — flat, picklable,
index-parented — so per-tile traces produced inside process-pool
workers can ship back through ``TileOutcome`` and be grafted into the
run-level tracer with :meth:`Tracer.absorb`.  Span timestamps come from
the :class:`~repro.obs.clock.Clock` given at construction; this module
never reads the wall clock itself (see :mod:`repro.obs.clock`).

Tracers are deliberately lock-free: each tracer has a single owner (the
engine's run loop, or one worker solving one tile) and cross-thread
results are merged by the owner, never written concurrently.

Every span handle is also a stopwatch: after the ``with`` block exits,
``handle.seconds`` is the span's measured duration, on a real tracer and
on the null one alike. The engine's phase timings are read from there,
so the span clock is the one timing source. When telemetry is off,
callers hold :data:`NULL_TRACER`: its spans read the clock on entry and
exit but record nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import TracebackType
from typing import Any

from repro.obs.clock import SYSTEM_CLOCK, Clock


@dataclass(frozen=True)
class SpanRecord:
    """One closed span: flat row, parented by index into the record list.

    ``start_s`` is relative to the owning tracer's construction time
    (worker spans absorbed into a run tracer keep their worker-relative
    start; only durations are comparable across process boundaries).
    """

    name: str
    start_s: float
    duration_s: float
    parent: int = -1
    attrs: tuple[tuple[str, str], ...] = ()

    def as_dict(self) -> dict[str, object]:
        """JSON-ready dict (used by the run-report exporter)."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
        }


class SpanHandle:
    """Attribute sink and stopwatch for one span: ``seconds`` is its
    duration once it has exited (0.0 before); ``set`` is a no-op when
    detached (``attrs=None``)."""

    __slots__ = ("_attrs", "seconds")

    def __init__(self, attrs: dict[str, str] | None) -> None:
        self._attrs = attrs
        self.seconds = 0.0

    def set(self, key: str, value: object) -> None:
        """Attach ``key=value`` to the span (stringified); no-op when null."""
        if self._attrs is not None:
            self._attrs[key] = str(value)


class _NullSpan(SpanHandle):
    """A timed span that records nothing (see :class:`NullTracer`)."""

    __slots__ = ("_clock", "_t0")

    def __init__(self, clock: Clock) -> None:
        super().__init__(None)
        self._clock = clock

    def __enter__(self) -> SpanHandle:
        self._t0 = self._clock.now()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.seconds = self._clock.now() - self._t0
        return None


class _ActiveSpan(SpanHandle):
    """One live span on a real :class:`Tracer`; on exit ``seconds`` is
    the duration written to its record."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: Tracer, index: int, attrs: dict[str, str]) -> None:
        super().__init__(attrs)
        self._tracer = tracer
        self._index = index

    def __enter__(self) -> SpanHandle:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        attrs = self._attrs or {}
        if exc is not None and "error" not in attrs:
            attrs["error"] = f"{type(exc).__name__}: {exc}"
        self.seconds = self._tracer._close(self._index, attrs)
        return None


class Tracer:
    """Records nested spans; single-owner, not thread-safe by design."""

    __slots__ = ("_clock", "_records", "_stack", "_t0")

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock: Clock = clock if clock is not None else SYSTEM_CLOCK
        self._records: list[SpanRecord] = []
        self._stack: list[int] = []
        self._t0 = self._clock.now()

    def span(self, name: str, **attrs: object) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("solve", tile=key) as s:``."""
        index = len(self._records)
        parent = self._stack[-1] if self._stack else -1
        self._records.append(
            SpanRecord(name=name, start_s=self._clock.now() - self._t0, duration_s=0.0, parent=parent)
        )
        self._stack.append(index)
        return _ActiveSpan(self, index, {k: str(v) for k, v in attrs.items()})

    def _close(self, index: int, attrs: dict[str, str]) -> float:
        """Close span ``index`` and return its duration."""
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        placeholder = self._records[index]
        duration_s = self._clock.now() - self._t0 - placeholder.start_s
        self._records[index] = dataclasses.replace(
            placeholder, duration_s=duration_s, attrs=tuple(sorted(attrs.items()))
        )
        return duration_s

    def records(self) -> tuple[SpanRecord, ...]:
        """All closed (and still-open placeholder) spans, in open order."""
        return tuple(self._records)

    def absorb(self, records: tuple[SpanRecord, ...]) -> None:
        """Graft a worker tracer's records under the current open span.

        Parent indices are re-based onto this tracer's record list; the
        grafted roots are parented to whatever span is currently open.
        Worker ``start_s`` values stay worker-relative (documented on
        :class:`SpanRecord`) — only durations survive the boundary.
        """
        offset = len(self._records)
        graft_parent = self._stack[-1] if self._stack else -1
        for rec in records:
            parent = rec.parent + offset if rec.parent >= 0 else graft_parent
            self._records.append(dataclasses.replace(rec, parent=parent))

    def tree(self) -> list[dict[str, Any]]:
        """Nested span tree of everything recorded so far."""
        return span_tree(self.records())


def span_tree(records: tuple[SpanRecord, ...]) -> list[dict[str, Any]]:
    """Nest flat index-parented records into a JSON-ready forest."""
    nodes: list[dict[str, Any]] = []
    kids: list[list[dict[str, Any]]] = []
    roots: list[dict[str, Any]] = []
    for i, rec in enumerate(records):
        node = rec.as_dict()
        children: list[dict[str, Any]] = []
        node["children"] = children
        nodes.append(node)
        kids.append(children)
        if 0 <= rec.parent < i:
            kids[rec.parent].append(node)
        else:
            roots.append(node)
    return roots


class NullTracer:
    """Disabled-telemetry tracer: spans are timed but nothing is recorded."""

    __slots__ = ("_clock",)

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock: Clock = clock if clock is not None else SYSTEM_CLOCK

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NullSpan(self._clock)

    def records(self) -> tuple[SpanRecord, ...]:
        return ()

    def absorb(self, records: tuple[SpanRecord, ...]) -> None:
        return None

    def tree(self) -> list[dict[str, Any]]:
        return []


NULL_TRACER = NullTracer()

#: Either a live tracer or the shared null tracer (PEP 604 runtime alias).
TracerLike = Tracer | NullTracer
