"""Grid sharding: partition the fill run along the dissection's cut lines.

The fixed r-dissection makes every tile's MDFC instance independent, and
its window structure gives natural horizontal cut lines: every tile-row
boundary ``y = die.ylo + iy * tile`` is a cut line of the sliding window
grid (windows advance by exactly one tile). :func:`plan_shards` splits
the tile grid into contiguous bands of tile rows along those lines —
deterministic integer shard keys, near-even row counts. The engine's run
loop (:meth:`~repro.pilfill.engine.PILFillEngine.run`) solves one shard
at a time and merges in global dissection order:

* **Bounded peak memory.** A multi-shard run builds only the current
  shard's cost tables
  (:meth:`~repro.pilfill.prepare.PreparedInstance.costs_for` with
  ``keys``), ships them inline in that shard's tile payloads, and
  releases them when the shard completes — peak memory holds one band,
  not the grid.
* **Bit-identity.** Sharded output equals the one-shard run for every
  method, worker count, and shard count; :func:`result_digest` is the
  canonical oracle for that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dissection.fixed import FixedDissection
from repro.errors import FillError
from repro.pilfill.incremental import _rect_payload, _sha256

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.pilfill.engine import FillResult
    from repro.pilfill.prepare import PreparedInstance

TileKey = tuple[int, int]


@dataclass(frozen=True)
class GridShard:
    """One contiguous band of tile rows, solvable independently.

    ``tile_keys`` covers *every* grid tile of the band (not just tiles
    with slack columns), column-major within the band — the same
    relative order the global sweep visits them in.
    """

    key: int
    iy_lo: int
    iy_hi: int
    tile_keys: tuple[TileKey, ...]

    @property
    def rows(self) -> int:
        return self.iy_hi - self.iy_lo

    @property
    def tile_count(self) -> int:
        return len(self.tile_keys)


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic partition of a fixed dissection into row bands.

    Shard keys are dense integers ``0..n_shards-1`` in ascending-row
    order; the same ``(grid, n_shards)`` input always produces the same
    plan.
    """

    shards: tuple[GridShard, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)


def plan_shards(
    prepared: "PreparedInstance | FixedDissection",
    n_shards: int | None = None,
) -> ShardPlan:
    """Partition the tile grid into row-band shards along window cut lines.

    ``n_shards`` selects the granularity (None → a single shard covering
    the grid). Rows are distributed as evenly as possible — ``divmod``
    spread, earlier shards take the remainder — and ``n_shards`` is
    clamped to the row count, so every shard holds at least one full
    tile row and the union of all shards is exactly the grid.
    """
    dissection = (
        prepared if isinstance(prepared, FixedDissection) else prepared.dissection
    )
    nx, ny = dissection.nx, dissection.ny
    if n_shards is None:
        n_shards = 1
    if n_shards < 1:
        raise FillError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, ny)

    shards: list[GridShard] = []
    base, extra = divmod(ny, n_shards)
    iy_lo = 0
    for key in range(n_shards):
        iy_hi = iy_lo + base + (1 if key < extra else 0)
        tile_keys = tuple(
            (ix, iy) for ix in range(nx) for iy in range(iy_lo, iy_hi)
        )
        shards.append(GridShard(key=key, iy_lo=iy_lo, iy_hi=iy_hi, tile_keys=tile_keys))
        iy_lo = iy_hi
    return ShardPlan(shards=tuple(shards))


def result_digest(result: "FillResult") -> str:
    """Canonical content digest of a :class:`FillResult` placement.

    Covers everything the bit-identity contract promises: the feature
    list *in order* (layer + exact rect), both budget maps, every tile
    solution's counts / explicit site indices / model objective, and the
    run's accumulated model objective via ``repr`` (shortest round-trip
    form, so equal digests mean equal floats). Timings, telemetry, and
    cache stats are excluded — they vary run to run by design. Sharded
    and unsharded runs of the same configuration must digest equal; the
    ``t3_shard`` bench gates on exactly that.
    """
    solutions: dict[str, object] = {}
    for (ix, iy), sol in sorted(result.tile_solutions.items()):
        solutions[f"{ix},{iy}"] = {
            "counts": list(sol.counts),
            "model_objective_ps": repr(sol.model_objective_ps),
            "site_indices": (
                None
                if sol.site_indices is None
                else [list(sites) for sites in sol.site_indices]
            ),
        }
    payload: dict[str, object] = {
        "features": [
            {"layer": f.layer, "rect": _rect_payload(f.rect)} for f in result.features
        ],
        "requested_budget": sorted(
            (f"{ix},{iy}", v) for (ix, iy), v in result.requested_budget.items()
        ),
        "effective_budget": sorted(
            (f"{ix},{iy}", v) for (ix, iy), v in result.effective_budget.items()
        ),
        "solutions": solutions,
        "model_objective_ps": repr(result.model_objective_ps),
    }
    return _sha256(payload)
