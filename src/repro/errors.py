"""Exception hierarchy for the PIL-Fill reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the package with a single ``except`` clause,
while still being able to discriminate on more specific subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GeometryError(ReproError):
    """Invalid geometric construction or operation (e.g. negative extents)."""


class LayoutError(ReproError):
    """Inconsistent layout model (unknown net, segment outside die, ...)."""


class TechError(ReproError):
    """Invalid technology description (non-positive pitch, missing layer)."""


class DissectionError(ReproError):
    """Invalid fixed-dissection parameters (w not divisible by r, ...)."""


class ParseError(ReproError):
    """Malformed LEF-lite / DEF-lite input."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class SolverError(ReproError):
    """ILP/LP solver failure (infeasible where feasibility was required,
    iteration limit, numerical breakdown)."""


class SolveTimeoutError(SolverError):
    """A solve exceeded its wall-clock deadline (per-tile or per-run).

    Raised by the per-tile methods when the backend reports
    ``SolveStatus.TIME_LIMIT``; the robust solve layer catches it and
    degrades to a cheaper method instead of retrying (a retry under the
    same deadline would just time out again).

    ``rung_errors`` carries the fallback-chain error history accumulated
    *before* the deadline fired (e.g. the run deadline expiring between
    rungs), so failed reports keep the full story."""

    def __init__(self, message: str, rung_errors: tuple[str, ...] = ()):
        self.rung_errors = tuple(rung_errors)
        super().__init__(message)

    def __reduce__(self) -> tuple[type[SolveTimeoutError], tuple[str, tuple[str, ...]]]:
        # Preserve rung_errors across the process-pool pickle boundary
        # (BaseException.__reduce__ would replay only ``args``).
        message = str(self.args[0]) if self.args else ""
        return (type(self), (message, self.rung_errors))


class WorkerDeathError(ReproError):
    """A tile worker died mid-solve (real crash or injected fault).

    Deliberately *not* caught by the per-tile fallback chain — nothing
    inside a dead worker can run recovery code — so it always escapes to
    the dispatcher, which retries the tile once with the same derived RNG
    and then falls back. Used by the fault-injection harness to simulate
    worker death deterministically."""


class FillError(ReproError):
    """Fill synthesis failure (budget exceeds slack capacity, bad rules)."""
