"""Fixed r-dissection framework (paper Fig. 1) and density analysis."""

from repro.dissection.fixed import FixedDissection, Tile, Window
from repro.dissection.density import DensityMap, DensityStats
from repro.dissection.smoothness import SmoothnessReport, smoothness
from repro.dissection.checker import (
    DensityCheckReport,
    DensityViolation,
    check_density,
)

__all__ = [
    "DensityCheckReport",
    "DensityViolation",
    "check_density",
    "FixedDissection",
    "Tile",
    "Window",
    "DensityMap",
    "DensityStats",
    "SmoothnessReport",
    "smoothness",
]
