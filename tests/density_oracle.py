"""Window sums walked one window at a time: the oracle of ``DensityMap``.

This is the summed-area-table loop :meth:`repro.dissection.density.
DensityMap.window_area` ran before it became one four-slice expression.
It does the same float64 operations in the same order, so tests compare
the two byte for byte, and the densities and stats derived from them.
"""

from __future__ import annotations

import numpy as np

from repro.dissection.density import DensityMap, DensityStats, density_ratio


def window_area(dmap: DensityMap) -> np.ndarray:
    """Summed-area table walked per window — the scalar oracle."""
    r = dmap.dissection.rules.r
    nx, ny = dmap.dissection.nx, dmap.dissection.ny
    wx, wy = max(0, nx - r + 1), max(0, ny - r + 1)
    # 2-D summed-area table for O(1) window sums.
    summed = dmap.tile_area.cumsum(axis=0).cumsum(axis=1)
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


def window_density(dmap: DensityMap) -> np.ndarray:
    """Feature density per window from the oracle's window areas."""
    return density_ratio(window_area(dmap), dmap.window_geometry_area())


def stats(dmap: DensityMap) -> DensityStats:
    """Min/max/mean of the oracle's window densities."""
    dens = window_density(dmap)
    if dens.size == 0:
        return DensityStats(0.0, 0.0, 0.0)
    return DensityStats(
        min_density=float(dens.min()),
        max_density=float(dens.max()),
        mean_density=float(dens.mean()),
    )
