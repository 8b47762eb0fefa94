"""Incremental ECO re-fill: content-addressed tile-solution caching.

Per-tile MDFC solves are pure functions of their local inputs: the
columns' electrical view + cost tables inside the tile, the tile's
effective budget, the solve knobs that change output (method,
weighting, ILP backend, seed, fallback policy, fault spec), and the
tile key itself (the deterministic per-tile RNG stream and fault
matching both hang off it). This module hashes exactly those inputs and fronts a
:class:`~repro.pilfill.store.SolutionStore` with hit/miss/invalidation
accounting.

Correctness never depends on change tracking: the digest covers every
solve input, so an edited tile hashes to a new key and misses by
construction. The dirty-window pass (:meth:`SolutionCache.
invalidate_window`) is bookkeeping — it evicts known-stale memory
entries and reports how many tiles an ECO touched, which is what the
``eco_refill`` bench and the run-report counters surface.

Cache keys are **pure content hashes**. Deriving a key from the wall
clock (or anything else environment-dependent) would make hits
irreproducible; the D102 lint rule and its ``D102_cachekey`` fixture
pair enforce that contract on these modules.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Mapping

from repro.geometry.rect import Rect
from repro.geometry.spatial import GridBinIndex
from repro.pilfill.costs import TileCosts
from repro.pilfill.robust import SolveReport
from repro.pilfill.solution import TileSolution
from repro.pilfill.store import STORE_VERSION, CachedEntry, SolutionStore, copy_solution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from pathlib import Path

    from repro.pilfill.engine import EngineConfig
    from repro.testing.faults import FaultSpec

TileKey = tuple[int, int]


def _rect_payload(rect: Rect) -> list[int]:
    return [rect.xlo, rect.ylo, rect.xhi, rect.yhi]


def _fault_spec_payload(spec: "FaultSpec | None") -> list[dict[str, object]] | None:
    """JSON-stable form of a fault spec (frozensets need explicit ordering)."""
    if spec is None:
        return None
    return [
        {
            "kind": rule.kind,
            "tiles": (
                None if rule.tiles is None else sorted(list(key) for key in rule.tiles)
            ),
            "methods": None if rule.methods is None else list(rule.methods),
            "attempts": None if rule.attempts is None else list(rule.attempts),
        }
        for rule in spec.rules
    ]


def _sha256(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def run_context_digest(
    config: "EngineConfig", layer: str, slack_fraction: float | None = None
) -> str:
    """Digest of the run-wide knobs every tile solve shares.

    Includes every :class:`EngineConfig` field that changes solve
    *output* and excludes the ones that only change *scheduling*
    (workers, parallel backend, shards, telemetry) — the bit-identity
    contract across dispatchers is what makes that exclusion sound.
    :data:`~repro.pilfill.store.STORE_VERSION` is folded in so a store
    format bump retires every old digest at the key level too.

    ``slack_fraction`` marks an MVDC run (see
    :meth:`~repro.pilfill.engine.PILFillEngine.run_mvdc`): its key joins
    the payload only then, so MDFC digests are unchanged and an MVDC
    digest can never equal an MDFC one.
    """
    rules = config.fill_rules
    density = config.density_rules
    payload: dict[str, object] = {
        "store_version": STORE_VERSION,
        "layer": layer,
        "method": config.method,
        "weighted": config.weighted,
        "ilp_backend": config.backend,
        "seed": config.seed,
        "fallback": config.fallback,
        "fill_rules": [rules.fill_size, rules.fill_gap, rules.buffer_distance],
        "density_rules": [
            density.window_size,
            density.r,
            density.min_density,
            density.max_density,
        ],
        "fault_spec": _fault_spec_payload(config.fault_spec),
    }
    if slack_fraction is not None:
        payload["mvdc_slack_fraction"] = slack_fraction
    return _sha256(payload)


def tile_digest(
    context_digest: str,
    key: TileKey,
    costs: TileCosts,
    budget: int,
) -> str:
    """Digest of one tile's full solve input.

    Covers the tile key (RNG stream + fault matching are keyed on it),
    the effective budget, the column count, the packed bytes of the
    tile's capacities and exact/linear cost-table slices, and — per column —
    the gap class and both timing neighbors: everything a solver reads.
    Site rects and the site-grid column index are deliberately out: no
    solver reads them, a cached solution holds only per-column counts
    and site indices, and the engine maps those onto the *current*
    prepared columns' sites at merge time — so a warm hit on a tile
    whose sites moved places features exactly where a cold solve would.
    Table entries hash as their float64 bytes and the per-column fields
    through ``repr`` (shortest round-trip), so equal digests mean
    bit-equal cost content (``-0.0`` and ``0.0`` differ), not merely
    approximately-equal. The fields come straight from the column
    table's arrays.
    Every section's length follows from the header and the capacities,
    so no two inputs share one byte stream.
    """
    digest = hashlib.sha256(repr((context_digest, key, budget, len(costs))).encode("utf-8"))
    digest.update(costs.capacities.tobytes())
    digest.update(costs.exact.tobytes())
    digest.update(costs.linear.tobytes())
    digest.update(repr(costs.columns.electrical_fields()).encode("utf-8"))
    return digest.hexdigest()


def cache_eligible(config: "EngineConfig") -> bool:
    """Whether a config's outcomes are safe to cache at all.

    Deadline-bounded runs are excluded: which method (or failure) a tile
    lands on then depends on wall-clock behaviour, so an entry primed on
    a fast machine could replay a wrong outcome on a slow one. Fault
    injection stays eligible — faults fire deterministically by attempt
    number and the spec is part of the digest.
    """
    return config.tile_deadline_s is None and config.run_deadline_s is None


class SolutionCache:
    """Hit/miss-accounted front for a :class:`SolutionStore`.

    One instance serves many runs (cold prime, then warm re-runs); the
    engine snapshots :meth:`stats` around each run to report per-run
    deltas. Holds the tile→digest map of the last completed run so a
    dirty-window pass can evict exactly the entries an edit staled.

    Not worker-reachable: the cache lives in the coordinating process
    and only ever short-circuits dispatch — payload workers never see it.
    """

    def __init__(self, store: SolutionStore | None = None, cache_dir: "str | Path | None" = None):
        if store is not None and cache_dir is not None:
            raise ValueError("pass either an existing store or a cache_dir, not both")
        self.store = store if store is not None else SolutionStore(cache_dir)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidated = 0
        self._run_digests: dict[TileKey, str] = {}

    def lookup(self, digest: str) -> tuple[TileSolution, SolveReport] | None:
        """A fresh (solution, report) pair for ``digest``, or ``None``.

        Every call counts as a hit or a miss; hits materialize new
        objects so concurrent results never share a mutable solution.
        """
        entry = self.store.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.materialize()

    def record(self, digest: str, solution: TileSolution, report: SolveReport) -> None:
        """Persist one solved (non-failed) tile outcome under ``digest``.

        Stores a copy: the caller keeps mutating rights over its own
        solution object without being able to corrupt future hits.
        """
        self.store.put(digest, CachedEntry(solution=copy_solution(solution), report=report))
        self.stores += 1

    def remember_run(self, digests: Mapping[TileKey, str]) -> None:
        """Retain the tile→digest map of the run that just completed, so a
        later :meth:`invalidate_window` can name the staled entries."""
        self._run_digests = dict(digests)

    def invalidate_window(
        self, tile_index: GridBinIndex[TileKey], window: Rect
    ) -> tuple[TileKey, ...]:
        """Dirty every remembered tile whose rect overlaps ``window``.

        Evicts the dirty tiles' memory-layer entries and counts them as
        invalidations. Returns the dirty keys (sorted) for reporting.
        The digest already guarantees correctness; this keeps the memory
        layer from accumulating unreachable entries across ECO iterations
        and gives the bench its "tiles touched" number.
        """
        dirty = sorted(key for key in tile_index.query(window) if key in self._run_digests)
        for key in dirty:
            if self.store.evict(self._run_digests.pop(key)):
                self.invalidated += 1
        return tuple(dirty)

    def stats(self) -> dict[str, int]:
        """Lifetime counters (snapshot-and-diff for per-run numbers)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
        }

