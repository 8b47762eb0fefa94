"""Site grids: mapping between DBU coordinates and discrete fill sites.

Fill features are squares of side ``site_size`` placed on a uniform grid
with pitch ``site_pitch = site_size + site_gap`` anchored at the grid
origin. A *site* is addressed by integer column/row indices ``(col, row)``
and belongs to the tile or region that holds its centre.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GeometryError


@dataclass(frozen=True)
class SiteGrid:
    """Uniform square fill-site grid over a region.

    Attributes:
        origin_x, origin_y: DBU coordinates of the lower-left corner of
            site ``(0, 0)``.
        site_size: side of the square fill feature, DBU.
        site_gap: spacing between adjacent fill features, DBU.
    """

    origin_x: int
    origin_y: int
    site_size: int
    site_gap: int

    def __post_init__(self) -> None:
        if self.site_size <= 0:
            raise GeometryError(f"site_size must be positive, got {self.site_size}")
        if self.site_gap < 0:
            raise GeometryError(f"site_gap must be non-negative, got {self.site_gap}")

    @property
    def pitch(self) -> int:
        """Distance between the lower-left corners of adjacent sites."""
        return self.site_size + self.site_gap

    def centered_in(self, lo: int, hi: int, origin: int) -> range:
        """Indices ``k`` whose site centre ``origin + k * pitch + site_size // 2``
        lies in ``[lo, hi)``.

        ``origin`` is ``origin_x`` for column indices and ``origin_y`` for
        row indices. This is the one centre-ownership rule (paper §5.1): a
        tile or region owns exactly the sites centred in it. Floor division
        keeps the range exact left of the origin; ``hi <= lo`` gives an
        empty range.
        """
        base = origin + self.site_size // 2
        return range(-((base - lo) // self.pitch), -((base - hi) // self.pitch))
