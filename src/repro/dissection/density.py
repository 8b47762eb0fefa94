"""Layout density analysis over a fixed dissection.

Computes per-tile feature area (union-exact, clipped to tiles) and derives
per-window densities, the quantities that CMP density rules constrain and
the Min-Var fill-budget LP consumes. Window sums come from one four-slice
expression over a summed-area table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dissection.fixed import FixedDissection
from repro.geometry import Rect, total_area
from repro.layout.layout import RoutedLayout

TileKey = tuple[int, int]


def clip_to_tiles(
    dissection: FixedDissection,
    rect: Rect,
    clips_by_tile: dict[TileKey, list[Rect]],
) -> None:
    """Append ``rect`` clipped to each tile it overlaps to that tile's
    list in ``clips_by_tile``."""
    for tile in dissection.tiles_overlapping(rect):
        clipped = rect.intersection(tile.rect)
        if clipped is not None:
            clips_by_tile.setdefault(tile.key, []).append(clipped)


def density_ratio(areas: np.ndarray, geometry: np.ndarray) -> np.ndarray:
    """Window densities from window feature areas and window geometric
    areas: ``areas / geometry`` where the geometry is positive, else 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(geometry > 0, areas / geometry, 0.0)


@dataclass(frozen=True)
class DensityStats:
    """Summary of window densities on one layer."""

    min_density: float
    max_density: float
    mean_density: float

    @property
    def variation(self) -> float:
        """Max minus min window density — the quantity Min-Var fill drives
        down."""
        return self.max_density - self.min_density


class DensityMap:
    """Per-tile feature area and per-window density for one layer.

    ``tile_area[ix, iy]`` holds drawn feature area (DBU²) clipped to tile
    ``(ix, iy)``; ``window_density()`` aggregates tiles into the sliding
    windows of the dissection.
    """

    def __init__(self, dissection: FixedDissection, tile_area: np.ndarray):
        if tile_area.shape != (dissection.nx, dissection.ny):
            raise ValueError(
                f"tile_area shape {tile_area.shape} != grid "
                f"({dissection.nx},{dissection.ny})"
            )
        self.dissection = dissection
        self.tile_area = tile_area

    @staticmethod
    def from_tile_clips(
        dissection: FixedDissection,
        clips_by_tile: dict[TileKey, list[Rect]],
    ) -> "DensityMap":
        """Build from per-tile clip lists (see :func:`clip_to_tiles`);
        each tile's area is the union area of its clips."""
        area = np.zeros((dissection.nx, dissection.ny), dtype=np.float64)
        for key, clips in clips_by_tile.items():
            area[key] = total_area(clips)
        return DensityMap(dissection, area)

    @staticmethod
    def from_rects(dissection: FixedDissection, rects: list[Rect]) -> "DensityMap":
        """Build from drawn rectangles (overlaps are not double counted)."""
        clips_by_tile: dict[TileKey, list[Rect]] = {}
        for rect in rects:
            clip_to_tiles(dissection, rect, clips_by_tile)
        return DensityMap.from_tile_clips(dissection, clips_by_tile)

    @staticmethod
    def from_layout(
        dissection: FixedDissection,
        layout: RoutedLayout,
        layer: str,
        include_fill: bool = False,
    ) -> "DensityMap":
        """Build from one layout layer."""
        return DensityMap.from_rects(
            dissection, layout.feature_rects(layer, include_fill=include_fill)
        )

    # -- derived quantities ---------------------------------------------------

    def tile_density(self, ix: int, iy: int) -> float:
        """Feature density of one tile (0..1)."""
        tile = self.dissection.tile(ix, iy)
        return float(self.tile_area[ix, iy]) / tile.rect.area

    def window_area(self) -> np.ndarray:
        """Feature area per window, shape (wx, wy).

        ``P`` is the summed-area table padded with a zero row and column,
        so each window sum is four slices of it (the slices are empty
        along an axis the window does not fit in).
        """
        r = self.dissection.rules.r
        nx, ny = self.dissection.nx, self.dissection.ny
        P = np.zeros((nx + 1, ny + 1))
        P[1:, 1:] = self.tile_area.cumsum(axis=0).cumsum(axis=1)
        return P[r:, r:] - P[:-r, r:] - P[r:, :-r] + P[:-r, :-r]

    def window_geometry_area(self) -> np.ndarray:
        """Geometric area per window, shape (wx, wy).

        Windows are separable: a window's rect spans ``r`` tiles per
        axis, clipped to the die exactly like
        :meth:`FixedDissection.windows` builds them — this vectorized
        form reproduces those integers bit for bit without materializing
        ``wx * wy`` ``Window`` objects.
        """
        d = self.dissection
        die, tile, r = d.die, d.tile_size, d.rules.r
        wx, wy = max(0, d.nx - r + 1), max(0, d.ny - r + 1)
        ix = np.arange(wx, dtype=np.int64)
        iy = np.arange(wy, dtype=np.int64)
        spans_x = np.minimum(die.xlo + (ix + r) * tile, die.xhi) - (die.xlo + ix * tile)
        spans_y = np.minimum(die.ylo + (iy + r) * tile, die.yhi) - (die.ylo + iy * tile)
        return spans_x[:, None].astype(np.float64) * spans_y[None, :].astype(np.float64)

    def window_density(self) -> np.ndarray:
        """Feature density per window (0..1), shape (wx, wy)."""
        return density_ratio(self.window_area(), self.window_geometry_area())

    def stats(self) -> DensityStats:
        """Min/max/mean window density."""
        dens = self.window_density()
        if dens.size == 0:
            return DensityStats(0.0, 0.0, 0.0)
        return DensityStats(
            min_density=float(dens.min()),
            max_density=float(dens.max()),
            mean_density=float(dens.mean()),
        )

    def added(self, extra_tile_area: np.ndarray) -> "DensityMap":
        """A new map with per-tile area increased by ``extra_tile_area``
        (e.g. planned fill)."""
        return DensityMap(self.dissection, self.tile_area + extra_tile_area)
