"""Deterministic fault injection for exercising the robust solve layer.

Not imported by any production code path unless a
:class:`~repro.testing.faults.FaultSpec` is explicitly configured — the
module exists so CI can *provoke* solver faults (errors, timeouts, worker
death) on chosen tiles and verify the engine degrades instead of dying.
"""

from repro.testing.faults import (
    FaultRule,
    FaultSpec,
    inject,
    sample_tiles,
)

__all__ = ["FaultRule", "FaultSpec", "inject", "sample_tiles"]
