"""Host-speed calibration: a fixed kernel that tells how fast the host runs now.

The shared host this benchmark runs on has slow stretches, from seconds to
minutes long, in which everything runs up to twice as slowly. The process
is on the CPU all the while (no steal shows), so neither CPU time nor a
steal counter tells them apart. A fixed kernel timed next to the ops does:
its time rises and falls with theirs. Every op is timed between two kernel
runs, and its seconds are scaled to :data:`REFERENCE_S`, about the kernel's
time on the reference host in a quiet stretch, so a run reads about the
same on a slow stretch as on a fast one.

The kernel is interpreter-bound work — dict updates, list copies and
sorts — as most of the program's time is. Kernels built on numpy passes
over large arrays, gathers or dense copies followed the ops' slow stretches
less closely. The kernel uses nothing of the program, so a change to the
program moves the ops' time and leaves the kernel's alone. For that its
time must not depend on what an op left behind either. So the timed passes
build no containers: they reuse lists and a dict built before the clock
starts, after an untimed pass. They also run with the garbage collector
off, because a collection's cost grows with the objects the program holds.
A kernel that built its lists while timed ran 5% (serial) to 30% (after a
process pool shut down) slower right after an op than on its next run;
this one runs the same within 1%. It holds little memory, so it never sets
a process's peak RSS.
"""

from __future__ import annotations

import gc
import time

#: About the kernel's time in seconds on the reference host (2-vCPU shared
#: VM, Intel Xeon 2.0 GHz, Python 3.11) in a quiet stretch.
REFERENCE_S = 0.085
#: Timed passes per kernel run.
PASSES = 14


def _pass(counts: dict[int, int], base: list[int], work: list[int]) -> None:
    for i in range(40_000):
        k = i % 997
        counts[k] = counts[k] + i
    work[:] = base
    work.sort()
    work[:] = base
    work.sort(reverse=True)
    for k in counts:
        counts[k] = 0


def kernel_s() -> float:
    """Run the kernel once; the wall time of its timed passes in seconds."""
    base = [(i * 7919) % 10007 for i in range(20_000)]
    data = (dict.fromkeys(range(997), 0), base, list(base))
    enabled = gc.isenabled()
    gc.disable()
    try:
        _pass(*data)
        t0 = time.perf_counter()
        for _ in range(PASSES):
            _pass(*data)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(*kernel_seconds: float) -> float:
    """Factor that turns seconds measured next to these kernel runs into
    reference seconds (above 1 on a host faster than the reference)."""
    return REFERENCE_S / (sum(kernel_seconds) / len(kernel_seconds))
