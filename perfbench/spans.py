"""Spans around the benchmark's public calls, on the program's own tracer.

A traced op opens one :class:`repro.obs.trace.Tracer` span per public call
it makes and sets on it the step in the process's peak RSS that the call
caused. The same tracer is handed to the calls that take one
(``prepare``, ``budget_for``, ``costs_for``), so the program's own phase
spans nest under the benchmark's. An untraced op holds
:data:`~repro.obs.trace.NULL_TRACER`: the calls run as a user would make
them, and attribute computations are skipped.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.trace import NULL_TRACER, SpanHandle, Tracer, TracerLike

_OFF = SpanHandle(None)


def maxrss_mb() -> float:
    """This process's peak resident set size in MB.

    Read from ``VmHWM``: Linux carries ``ru_maxrss`` across ``exec``, so a
    child started by a large parent would report the parent's peak.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb() -> float:
    """Peak RSS in MB of the largest process: this one or a reaped worker.

    A forked pool worker's peak already counts every page it inherited
    from this process, so adding the two would count those pages twice.
    """
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(maxrss_mb(), workers)


class Probe:
    """The tracer of one op, and what tracing itself cost inside it."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.tracer: TracerLike = Tracer() if enabled else NULL_TRACER
        self.overhead_s = 0.0

    @contextmanager
    def call(self, name: str, **attrs: object) -> Iterator[SpanHandle]:
        """Span one public call; its ``rss_step_mb`` is set on exit."""
        if not self.enabled:
            yield _OFF
            return
        t0 = time.perf_counter()
        with self.tracer.span(name, **attrs) as handle:
            rss_before = maxrss_mb()
            t1 = time.perf_counter()
            try:
                yield handle
            finally:
                t2 = time.perf_counter()
                handle.set("rss_step_mb", maxrss_mb() - rss_before)
                self.overhead_s += (t1 - t0) + (time.perf_counter() - t2)

    def attach(self, handle: SpanHandle, compute: Callable[[], dict]) -> None:
        """Set ``compute()``'s values on an open span (traced ops only)."""
        if self.enabled:
            t0 = time.perf_counter()
            for key, value in compute().items():
                handle.set(key, value)
            self.overhead_s += time.perf_counter() - t0

    def records(self) -> list[dict]:
        """The op's spans as JSON-ready rows, parented by index."""
        return [
            {
                "name": r.name,
                "start_s": r.start_s,
                "duration_s": r.duration_s,
                "parent": r.parent,
                "attrs": dict(r.attrs),
            }
            for r in self.tracer.records()
        ]
