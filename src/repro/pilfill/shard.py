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
  not the grid. The shard bands are the same horizontal bands
  :class:`~repro.io.deflite.DefWindowStream` streams a chip-scale DEF
  in (:func:`iter_shard_windows` maps its windows onto shard keys), so a
  future multi-host driver can feed each shard only its slice of the
  input.
* **Bit-identity.** Sharded output equals the one-shard run for every
  method, worker count, and shard count; :func:`result_digest` is the
  canonical oracle for that claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, Iterator

from repro.dissection.fixed import FixedDissection
from repro.errors import FillError
from repro.pilfill.incremental import _rect_payload, _sha256

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.io.deflite import DefWindow
    from repro.pilfill.engine import FillResult
    from repro.pilfill.prepare import PreparedInstance
    from repro.tech.process import ProcessStack

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
    plan. ``tile_size`` / ``die_ylo`` let the plan map DEF-stream band
    coordinates back onto shards (see :meth:`shard_of_row` and
    :func:`iter_shard_windows`).
    """

    nx: int
    ny: int
    tile_size: int
    die_ylo: int
    shards: tuple[GridShard, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of_row(self, iy: int) -> int:
        """Shard key owning tile row ``iy`` (rows past the grid clamp to
        the nearest edge shard, matching the density clip behavior)."""
        if iy < 0:
            return 0
        for shard in self.shards:
            if iy < shard.iy_hi:
                return shard.key
        return self.shards[-1].key

    def shard_of(self, key: TileKey) -> int:
        """Shard key owning tile ``key``."""
        return self.shard_of_row(key[1])

    def band_bounds_dbu(self, key: int) -> tuple[int, int]:
        """The DBU y-range ``[lo, hi)`` shard ``key`` consumes from a
        band-sorted DEF stream."""
        shard = self.shards[key]
        return (
            self.die_ylo + shard.iy_lo * self.tile_size,
            self.die_ylo + shard.iy_hi * self.tile_size,
        )


def plan_shards(
    prepared: "PreparedInstance | FixedDissection",
    n_shards: int | None = None,
    max_tiles_per_shard: int | None = None,
) -> ShardPlan:
    """Partition the tile grid into row-band shards along window cut lines.

    Exactly one of ``n_shards`` / ``max_tiles_per_shard`` selects the
    granularity (neither → a single shard covering the grid). Rows are
    distributed as evenly as possible — ``divmod`` spread, earlier shards
    take the remainder — and ``n_shards`` is clamped to the row count, so
    every shard holds at least one full tile row and the union of all
    shards is exactly the grid.
    """
    dissection = (
        prepared if isinstance(prepared, FixedDissection) else prepared.dissection
    )
    nx, ny = dissection.nx, dissection.ny
    if n_shards is not None and max_tiles_per_shard is not None:
        raise FillError("pass n_shards or max_tiles_per_shard, not both")
    if max_tiles_per_shard is not None:
        if max_tiles_per_shard < 1:
            raise FillError(
                f"max_tiles_per_shard must be >= 1, got {max_tiles_per_shard}"
            )
        rows_per = max(1, max_tiles_per_shard // nx)
        n_shards = -(-ny // rows_per)  # ceil div
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
    return ShardPlan(
        nx=nx,
        ny=ny,
        tile_size=dissection.tile_size,
        die_ylo=dissection.die.ylo,
        shards=tuple(shards),
    )


def iter_shard_windows(
    source: "str | IO[str] | Iterable[str]",
    stack: "ProcessStack",
    plan: ShardPlan,
) -> "Iterator[tuple[int, DefWindow]]":
    """Stream a band-sorted DEF-lite source as ``(shard_key, window)``.

    Bands one tile row high ride :func:`~repro.io.deflite.
    iter_def_windows`; each window is tagged with the shard whose row
    band contains it, so a shard driver consumes only its own slice of
    the input and peak memory stays one band deep. Shard keys arrive in
    ascending order on band-sorted input.
    """
    from repro.io.deflite import iter_def_windows

    for window in iter_def_windows(source, stack, plan.tile_size):
        yield plan.shard_of_row(window.index), window


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
