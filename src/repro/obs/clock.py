"""Injectable monotonic clocks for the telemetry layer.

Every span duration in :mod:`repro.obs.trace` — and with it every
phase timing the engine reports — comes from a ``Clock`` passed in at
tracer construction, so this module is the *only* place in
the observability package that reads the real wall clock — it is the
sole ``repro.obs`` entry on the D102 wall-clock allowlist, which keeps
the lint rule honest: tracing code elsewhere cannot quietly call
``time.perf_counter()`` and escape review.

``ManualClock`` gives tests fully deterministic span timings.
"""

from __future__ import annotations

import time
from typing import Protocol


class Clock(Protocol):
    """Monotonic time source: ``now()`` returns seconds from an arbitrary origin."""

    def now(self) -> float:
        """Return the current monotonic time in seconds."""
        ...


class MonotonicClock:
    """The real monotonic clock (``time.perf_counter``)."""

    __slots__ = ()

    def now(self) -> float:
        return time.perf_counter()


class ManualClock:
    """A hand-advanced clock for deterministic tests."""

    __slots__ = ("_now_s",)

    def __init__(self, start_s: float = 0.0) -> None:
        self._now_s = start_s

    def now(self) -> float:
        return self._now_s

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance a monotonic clock backwards ({seconds})")
        self._now_s += seconds


#: Shared default clock: stateless, safe to reuse across tracers.
SYSTEM_CLOCK = MonotonicClock()
