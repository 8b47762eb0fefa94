"""Pre-built capacitance lookup tables for ILP-II (paper Section 5.3).

For each distinct (gap distance, capacity) the exact column capacitance
``f(n, d)`` is tabulated once for ``n = 0 .. capacity``. Tables are cached
by quantized key so the thousands of columns in a layout share a handful
of tables — exactly the pre-building the paper describes.

Tables are built with the vectorized capacitance kernel
(:func:`repro.cap.fillimpact.exact_column_cap_array` over
``n = 0 .. capacity``); :meth:`LUTCache.get_batch` builds every table it
misses in one numpy pass, whatever their number and capacities. The
engine builds cost tables in one thread per process; the cache stays safe
for callers that do share it across threads, because the get-or-build is
guarded by a lock (two threads asking for the same key get the same table
object, built once).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.cap.fillimpact import exact_column_cap_array, table_counts
from repro.errors import FillError


@dataclass(frozen=True)
class CapacitanceLUT:
    """Lumped capacitance increment per feature count for one column
    geometry: ``table[n]`` is ΔC (fF) with ``n`` features in the column."""

    spacing_um: float
    fill_width_um: float
    table: tuple[float, ...]

    @property
    def max_features(self) -> int:
        """Largest tabulated feature count."""
        return len(self.table) - 1

    def cap(self, n: int) -> float:
        """ΔC for ``n`` features."""
        if not 0 <= n <= self.max_features:
            raise FillError(f"feature count {n} outside LUT range 0..{self.max_features}")
        return self.table[n]

    def marginal(self, n: int) -> float:
        """ΔC(n) − ΔC(n−1): the cost of the n-th feature."""
        if not 1 <= n <= self.max_features:
            raise FillError(f"feature count {n} outside LUT range 1..{self.max_features}")
        return self.table[n] - self.table[n - 1]


class LUTCache:
    """Builds and caches :class:`CapacitanceLUT` instances.

    Keys quantize the gap distance to a DBU so physically identical columns
    share one table. Safe for concurrent readers and builders: lookups are
    lock-free on the hit path, and misses take a lock around the build so
    racing threads cannot build the same table twice.
    """

    def __init__(self, eps_r: float, thickness_um: float, fill_width_um: float):
        if fill_width_um <= 0:
            raise FillError("fill width must be positive")
        self.eps_r = eps_r
        self.thickness_um = thickness_um
        self.fill_width_um = fill_width_um
        self._cache: dict[tuple[int, int], CapacitanceLUT] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, spacing_um: float, capacity: int, quantum_um: float = 1e-3) -> CapacitanceLUT:
        """LUT for a column with gap ``spacing_um`` and up to ``capacity``
        features. ``quantum_um`` sets the cache key resolution."""
        if capacity < 0:
            raise FillError(f"capacity must be non-negative, got {capacity}")
        key = (round(spacing_um / quantum_um), capacity)
        # dict reads are atomic under the GIL; only the build is locked.
        hit = self._cache.get(key)
        if hit is not None:
            self._hits += 1
            return hit
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._hits += 1
                return hit
            self._misses += 1
            lut = self._build([(spacing_um, capacity)])[0]
            self._cache[key] = lut
            return lut

    def get_batch(
        self,
        specs: Sequence[tuple[float, int]] | Iterable[tuple[float, int]],
        quantum_um: float = 1e-3,
    ) -> list[CapacitanceLUT]:
        """LUTs for many ``(spacing_um, capacity)`` columns at once.

        Deduplicates by quantized key (the first spec of a key builds its
        table), builds every missing table in one locked pass and one
        array evaluation, and returns the tables in input order — the
        batched entry point the cost-table pass uses.
        """
        specs = list(specs)
        keys = []
        for spacing_um, capacity in specs:
            if capacity < 0:
                raise FillError(f"capacity must be non-negative, got {capacity}")
            keys.append((round(spacing_um / quantum_um), capacity))
        missing: dict[tuple[int, int], tuple[float, int]] = {}
        for key, spec in zip(keys, specs, strict=True):
            if key not in self._cache and key not in missing:
                missing[key] = spec
        if missing:
            with self._lock:
                todo = {key: spec for key, spec in missing.items() if key not in self._cache}
                for key, lut in zip(todo, self._build(list(todo.values())), strict=True):
                    self._misses += 1
                    self._cache[key] = lut
        self._hits += len(keys) - len(missing)
        return [self._cache[key] for key in keys]

    def stats(self) -> dict[str, int]:
        """Cumulative hit/miss counts (approximate under concurrency: the
        counters are plain ints bumped without the lock on the hit path,
        which is fine for telemetry and never affects cached contents)."""
        return {"hits": self._hits, "misses": self._misses}

    def _build(self, specs: list[tuple[float, int]]) -> list[CapacitanceLUT]:
        """Tables for ``specs``: every entry ``n = 0 .. capacity`` of every
        spec in one :func:`exact_column_cap_array` call at per-entry gaps
        (entry by entry the same IEEE operations as one call per table)."""
        capacities = np.array([capacity for _, capacity in specs], dtype=np.int64)
        counts = table_counts(capacities)
        gaps = np.repeat(
            np.array([spacing for spacing, _ in specs], dtype=np.float64), capacities + 1
        )
        values = exact_column_cap_array(
            self.eps_r, self.thickness_um, gaps, counts, self.fill_width_um
        ).tolist()
        luts = []
        start = 0
        for spacing_um, capacity in specs:
            end = start + capacity + 1
            luts.append(CapacitanceLUT(spacing_um, self.fill_width_um, tuple(values[start:end])))
            start = end
        return luts

    def __len__(self) -> int:
        return len(self._cache)
