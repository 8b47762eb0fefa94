"""Layout density analysis over a fixed dissection.

Computes per-tile feature area (union-exact, clipped to tiles) and derives
per-window densities, the quantities that CMP density rules constrain and
the Min-Var fill-budget LP consumes.

Two window-aggregation backends share one contract:

* ``direct`` — a summed-area table walked window by window in Python.
  Exact by construction (tile areas from integer-coordinate rects are
  integers well below 2**53, so every float64 partial sum is exact).
  This is the scalar oracle.
* ``fft`` — one full 2-D FFT convolution with an ``r x r`` ones kernel
  (the FFTPL trick, arXiv 1312.4587), then a canonical rounding step:
  when the tile-area map is integer-valued — as every map derived from
  drawn geometry is — the convolution output is snapped with
  ``np.rint`` to the exact integer window sums, making the backend
  *bit-identical* to ``direct`` and therefore to every downstream
  budget. Non-integer maps (synthetic tests) skip the snap and agree
  within FFT round-off only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dissection.fixed import FixedDissection
from repro.geometry import Rect, total_area
from repro.layout.layout import RoutedLayout

#: Window-aggregation backends accepted by :class:`DensityMap`.
DENSITY_BACKENDS = ("direct", "fft")

#: Largest integer magnitude float64 represents exactly; tile-area maps
#: below this bound can be snapped back to exact integers after the FFT.
_EXACT_INT_LIMIT = float(2**53)


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
    windows of the dissection using the selected ``backend``.
    """

    def __init__(
        self,
        dissection: FixedDissection,
        tile_area: np.ndarray,
        backend: str = "direct",
    ):
        if tile_area.shape != (dissection.nx, dissection.ny):
            raise ValueError(
                f"tile_area shape {tile_area.shape} != grid "
                f"({dissection.nx},{dissection.ny})"
            )
        if backend not in DENSITY_BACKENDS:
            raise ValueError(
                f"unknown density backend {backend!r}; expected one of "
                f"{DENSITY_BACKENDS}"
            )
        self.dissection = dissection
        self.tile_area = tile_area
        self.backend = backend

    @staticmethod
    def from_rects(
        dissection: FixedDissection,
        rects: list[Rect],
        backend: str = "direct",
    ) -> "DensityMap":
        """Build from drawn rectangles (overlaps are not double counted)."""
        area = np.zeros((dissection.nx, dissection.ny), dtype=np.float64)
        by_tile: dict[tuple[int, int], list[Rect]] = {}
        for rect in rects:
            for tile in dissection.tiles_overlapping(rect):
                clipped = rect.intersection(tile.rect)
                if clipped is not None:
                    by_tile.setdefault(tile.key, []).append(clipped)
        for key, clips in by_tile.items():
            area[key] = total_area(clips)
        return DensityMap(dissection, area, backend)

    @staticmethod
    def from_layout(
        dissection: FixedDissection,
        layout: RoutedLayout,
        layer: str,
        include_fill: bool = False,
        backend: str = "direct",
    ) -> "DensityMap":
        """Build from one layout layer."""
        return DensityMap.from_rects(
            dissection,
            layout.feature_rects(layer, include_fill=include_fill),
            backend,
        )

    # -- derived quantities ---------------------------------------------------

    def tile_density(self, ix: int, iy: int) -> float:
        """Feature density of one tile (0..1)."""
        tile = self.dissection.tile(ix, iy)
        return float(self.tile_area[ix, iy]) / tile.rect.area

    def window_area(self) -> np.ndarray:
        """Feature area per window, shape (wx, wy), via ``self.backend``."""
        if self.backend == "fft":
            return self._window_area_fft()
        return self._window_area_direct()

    def _window_area_direct(self) -> np.ndarray:
        """Summed-area table walked per window — the scalar oracle."""
        r = self.dissection.rules.r
        nx, ny = self.dissection.nx, self.dissection.ny
        wx, wy = max(0, nx - r + 1), max(0, ny - r + 1)
        # 2-D summed-area table for O(1) window sums.
        summed = self.tile_area.cumsum(axis=0).cumsum(axis=1)
        padded = np.zeros((nx + 1, ny + 1))
        padded[1:, 1:] = summed
        out = np.zeros((wx, wy))
        for i in range(wx):
            for j in range(wy):
                out[i, j] = (
                    padded[i + r, j + r]
                    - padded[i, j + r]
                    - padded[i + r, j]
                    + padded[i, j]
                )
        return out

    def _window_area_fft(self) -> np.ndarray:
        """All window sums from one FFT convolution pass.

        Convolving the tile-area map with an ``r x r`` ones kernel makes
        every output cell a sum of an ``r x r`` block; slicing the full
        convolution at offset ``r - 1`` selects exactly the in-grid
        window positions the direct path enumerates. Integer-valued maps
        are snapped back to exact integers (the canonical rounding step
        that restores bit-identity with the oracle).
        """
        r = self.dissection.rules.r
        nx, ny = self.dissection.nx, self.dissection.ny
        wx, wy = max(0, nx - r + 1), max(0, ny - r + 1)
        if wx == 0 or wy == 0:
            return np.zeros((wx, wy))
        fx, fy = nx + r - 1, ny + r - 1
        spec = np.fft.rfft2(self.tile_area, s=(fx, fy))
        kernel = np.fft.rfft2(np.ones((r, r)), s=(fx, fy))
        conv = np.fft.irfft2(spec * kernel, s=(fx, fy))
        out = np.ascontiguousarray(conv[r - 1 : r - 1 + wx, r - 1 : r - 1 + wy])
        tile_area = self.tile_area
        integral = bool(
            np.all(np.abs(tile_area) < _EXACT_INT_LIMIT)
            and np.all(tile_area == np.floor(tile_area))
        )
        if integral:
            np.rint(out, out=out)
        return out

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
        return DensityMap(self.dissection, self.tile_area + extra_tile_area, self.backend)
