"""The fixed r-dissection framework (paper Fig. 1).

An ``n × n`` layout is partitioned into square tiles of side ``w / r``
(``w`` = window size, ``r`` = dissection value). Density windows of side
``w`` slide with phase shift ``w / r``: window ``W(i, j)`` covers the
``r × r`` block of tiles with lower-left tile ``T(i, j)``. This realizes
the ``r²`` overlapping fixed dissections that foundry density rules
enforce.

Tiles are addressed column-major as ``(ix, iy)`` with ``T(0, 0)`` at the
die's lower-left corner. Edge tiles may be smaller when the die side is
not a multiple of the tile size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import DissectionError
from repro.geometry import Point, Rect
from repro.tech.rules import DensityRules


@dataclass(frozen=True)
class Tile:
    """One dissection tile."""

    ix: int
    iy: int
    rect: Rect

    @property
    def key(self) -> tuple[int, int]:
        """Grid address ``(ix, iy)``."""
        return (self.ix, self.iy)


@dataclass(frozen=True)
class Window:
    """One density window: an ``r × r`` block of tiles."""

    ix: int
    iy: int
    rect: Rect
    tile_keys: tuple[tuple[int, int], ...]

    @property
    def key(self) -> tuple[int, int]:
        """Lower-left tile address of the window."""
        return (self.ix, self.iy)


class FixedDissection:
    """Tiles and overlapping windows of a fixed r-dissection over a die."""

    def __init__(self, die: Rect, rules: DensityRules):
        if die.is_empty():
            raise DissectionError(f"die must have positive extent, got {die}")
        tile = rules.tile_size
        if tile > die.width or tile > die.height:
            raise DissectionError(
                f"tile size {tile} exceeds die extent {die.width}x{die.height}"
            )
        self.die = die
        self.rules = rules
        self.tile_size = tile
        self.nx = -(-die.width // tile)   # ceil division
        self.ny = -(-die.height // tile)
        # Tile objects are built on first use: callers that need only
        # keys (the gridder, the engine's merge) read tile_keys().
        self._built: dict[tuple[int, int], Tile] | None = None

    @property
    def _tiles(self) -> dict[tuple[int, int], Tile]:
        if self._built is None:
            die, tile = self.die, self.tile_size
            self._built = {
                (ix, iy): Tile(
                    ix,
                    iy,
                    Rect(
                        die.xlo + ix * tile,
                        die.ylo + iy * tile,
                        min(die.xlo + (ix + 1) * tile, die.xhi),
                        min(die.ylo + (iy + 1) * tile, die.yhi),
                    ),
                )
                for ix in range(self.nx)
                for iy in range(self.ny)
            }
        return self._built

    # -- tiles ---------------------------------------------------------------

    def tile(self, ix: int, iy: int) -> Tile:
        """Tile at grid address ``(ix, iy)``."""
        try:
            return self._tiles[(ix, iy)]
        except KeyError:
            raise DissectionError(
                f"tile ({ix},{iy}) outside grid {self.nx}x{self.ny}"
            ) from None

    def tiles(self) -> Iterator[Tile]:
        """All tiles, column-major order."""
        return iter(self._tiles.values())

    def tile_keys(self) -> list[tuple[int, int]]:
        """Every tile's key ``(ix, iy)``, in :meth:`tiles` order, without
        building a tile."""
        return [(ix, iy) for ix in range(self.nx) for iy in range(self.ny)]

    @property
    def tile_count(self) -> int:
        """Total number of tiles."""
        return self.nx * self.ny

    def tile_at_point(self, x: int, y: int) -> Tile:
        """Tile containing DBU point ``(x, y)``."""
        if not self.die.contains_point(Point(x, y)):
            raise DissectionError(f"point ({x},{y}) outside die {self.die}")
        ix = min((x - self.die.xlo) // self.tile_size, self.nx - 1)
        iy = min((y - self.die.ylo) // self.tile_size, self.ny - 1)
        return self._tiles[(ix, iy)]

    def tiles_overlapping(self, region: Rect) -> list[Tile]:
        """Tiles whose rects overlap ``region`` (open-interior)."""
        clipped = region.intersection(self.die)
        if clipped is None:
            return []
        ix0 = (clipped.xlo - self.die.xlo) // self.tile_size
        iy0 = (clipped.ylo - self.die.ylo) // self.tile_size
        ix1 = min((clipped.xhi - 1 - self.die.xlo) // self.tile_size, self.nx - 1)
        iy1 = min((clipped.yhi - 1 - self.die.ylo) // self.tile_size, self.ny - 1)
        return [
            self._tiles[(ix, iy)]
            for ix in range(ix0, ix1 + 1)
            for iy in range(iy0, iy1 + 1)
        ]

    # -- windows ---------------------------------------------------------------

    def windows(self) -> Iterator[Window]:
        """All r×r-tile windows, sliding by one tile in each direction.

        Follows the paper's convention: windows are the ``nr/w - 1`` × ``nr/w - 1``
        (here: ``nx - r + 1`` × ``ny - r + 1``) positions fully inside the die.
        """
        r = self.rules.r
        for ix in range(max(0, self.nx - r + 1)):
            for iy in range(max(0, self.ny - r + 1)):
                keys = tuple(
                    (ix + dx, iy + dy) for dx in range(r) for dy in range(r)
                )
                # The bounding box of the r×r block is spanned by its
                # lower-left and upper-right tiles.
                lo = self._tiles[keys[0]].rect
                hi = self._tiles[keys[-1]].rect
                yield Window(ix, iy, Rect(lo.xlo, lo.ylo, hi.xhi, hi.yhi), keys)

    @property
    def window_count(self) -> int:
        """Number of sliding windows."""
        r = self.rules.r
        return max(0, self.nx - r + 1) * max(0, self.ny - r + 1)

    def windows_containing_tile(self, ix: int, iy: int) -> list[tuple[int, int]]:
        """Window keys of all windows that include tile ``(ix, iy)``."""
        r = self.rules.r
        out = []
        for wx in range(max(0, ix - r + 1), min(ix, self.nx - r) + 1):
            for wy in range(max(0, iy - r + 1), min(iy, self.ny - r) + 1):
                out.append((wx, wy))
        return out
