"""Axis-aligned integer rectangles.

Rectangles use half-open semantics for area accounting: a rectangle spans
``[xlo, xhi) x [ylo, yhi)``. Degenerate (zero-width or zero-height)
rectangles are allowed only through :meth:`Rect.maybe` / intersection
results where they signal "no overlap"; the constructor rejects inverted
extents outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable, Iterator

from repro.errors import GeometryError
from repro.geometry.point import Point


@dataclass(frozen=True, order=True)
class Rect:
    """Immutable axis-aligned rectangle in DBU, ``xlo <= xhi``, ``ylo <= yhi``."""

    xlo: int
    ylo: int
    xhi: int
    yhi: int

    def __post_init__(self) -> None:
        xlo, ylo, xhi, yhi = self.xlo, self.ylo, self.xhi, self.yhi
        if (
            isinstance(xlo, int)
            and isinstance(ylo, int)
            and isinstance(xhi, int)
            and isinstance(yhi, int)
            and xlo <= xhi
            and ylo <= yhi
        ):
            return
        # Slow path: name the first non-int field, else the inverted extents.
        for name in ("xlo", "ylo", "xhi", "yhi"):
            if not isinstance(getattr(self, name), int):
                raise GeometryError(f"Rect.{name} must be an integer, got {getattr(self, name)!r}")
        if self.xhi < self.xlo or self.yhi < self.ylo:
            raise GeometryError(
                f"Rect extents inverted: ({self.xlo},{self.ylo})-({self.xhi},{self.yhi})"
            )

    # -- basic measures ----------------------------------------------------

    @property
    def width(self) -> int:
        """Extent along x."""
        return self.xhi - self.xlo

    @property
    def height(self) -> int:
        """Extent along y."""
        return self.yhi - self.ylo

    @property
    def area(self) -> int:
        """Area in DBU²."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Center point, rounded down to the lattice."""
        return Point((self.xlo + self.xhi) // 2, (self.ylo + self.yhi) // 2)

    def is_empty(self) -> bool:
        """True when the rectangle has zero area."""
        return self.width == 0 or self.height == 0

    # -- predicates ----------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        """Half-open containment test."""
        return self.xlo <= p.x < self.xhi and self.ylo <= p.y < self.yhi

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.xlo <= other.xlo
            and self.ylo <= other.ylo
            and other.xhi <= self.xhi
            and other.yhi <= self.yhi
        )

    def overlaps(self, other: "Rect") -> bool:
        """True when the open interiors intersect (touching edges don't count)."""
        return (
            self.xlo < other.xhi
            and other.xlo < self.xhi
            and self.ylo < other.yhi
            and other.ylo < self.yhi
        )

    def touches(self, other: "Rect") -> bool:
        """True when the closed rectangles intersect (shared edges count)."""
        return (
            self.xlo <= other.xhi
            and other.xlo <= self.xhi
            and self.ylo <= other.yhi
            and other.ylo <= self.yhi
        )

    # -- constructive ops ----------------------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlap region, or None when interiors are disjoint."""
        xlo = max(self.xlo, other.xlo)
        ylo = max(self.ylo, other.ylo)
        xhi = min(self.xhi, other.xhi)
        yhi = min(self.yhi, other.yhi)
        if xhi <= xlo or yhi <= ylo:
            return None
        return Rect(xlo, ylo, xhi, yhi)

    def overlap_area(self, other: "Rect") -> int:
        """Area of the intersection (0 when disjoint)."""
        inter = self.intersection(other)
        return 0 if inter is None else inter.area

    def union_bbox(self, other: "Rect") -> "Rect":
        """Smallest rectangle containing both."""
        return Rect(
            min(self.xlo, other.xlo),
            min(self.ylo, other.ylo),
            max(self.xhi, other.xhi),
            max(self.yhi, other.yhi),
        )

    def expanded(self, margin: int) -> "Rect":
        """Rectangle grown (or shrunk for negative margin) by ``margin`` on
        every side. Shrinking below zero extent collapses to the center."""
        xlo, xhi = self.xlo - margin, self.xhi + margin
        ylo, yhi = self.ylo - margin, self.yhi + margin
        if xhi < xlo:
            xlo = xhi = (xlo + xhi) // 2
        if yhi < ylo:
            ylo = yhi = (ylo + yhi) // 2
        return Rect(xlo, ylo, xhi, yhi)

    def translated(self, dx: int, dy: int) -> "Rect":
        """Rectangle moved by ``(dx, dy)``."""
        return Rect(self.xlo + dx, self.ylo + dy, self.xhi + dx, self.yhi + dy)

    def subtract(self, other: "Rect") -> list["Rect"]:
        """Rectilinear difference ``self - other`` as up to 4 disjoint rects
        (in bottom / top / left / right order)."""
        inter = self.intersection(other)
        if inter is None:
            return [self]
        pieces: list[Rect] = []
        if inter.ylo > self.ylo:  # strip below
            pieces.append(Rect(self.xlo, self.ylo, self.xhi, inter.ylo))
        if inter.yhi < self.yhi:  # strip above
            pieces.append(Rect(self.xlo, inter.yhi, self.xhi, self.yhi))
        if inter.xlo > self.xlo:  # strip left (clipped to inter's y band)
            pieces.append(Rect(self.xlo, inter.ylo, inter.xlo, inter.yhi))
        if inter.xhi < self.xhi:  # strip right
            pieces.append(Rect(inter.xhi, inter.ylo, self.xhi, inter.yhi))
        return pieces

    # -- iteration helpers -----------------------------------------------------

    def corners(self) -> Iterator[Point]:
        """Yield the four corners counter-clockwise from (xlo, ylo)."""
        yield Point(self.xlo, self.ylo)
        yield Point(self.xhi, self.ylo)
        yield Point(self.xhi, self.yhi)
        yield Point(self.xlo, self.yhi)

    @staticmethod
    def bounding(rects: Iterable["Rect"]) -> "Rect":
        """Bounding box of a non-empty iterable of rectangles."""
        it = iter(rects)
        try:
            acc = next(it)
        except StopIteration:
            raise GeometryError("Rect.bounding requires at least one rectangle") from None
        for r in it:
            acc = acc.union_bbox(r)
        return acc


def total_area(rects: Iterable[Rect]) -> int:
    """Exact area of the union of ``rects`` (coordinate-compression sweep).

    Used by density accounting when features may overlap; O(n² log n) in the
    number of rectangles, fine for per-tile feature counts.
    """
    rects = [r for r in rects if not r.is_empty()]
    if not rects:
        return 0
    xs = sorted({r.xlo for r in rects} | {r.xhi for r in rects})
    area = 0
    for xa, xb in pairwise(xs):
        # y-intervals of rects covering this x-slab
        ys = sorted(
            (r.ylo, r.yhi) for r in rects if r.xlo <= xa and r.xhi >= xb
        )
        covered = 0
        cur_lo = cur_hi = None
        for ylo, yhi in ys:
            if cur_hi is None or ylo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = ylo, yhi
            else:
                cur_hi = max(cur_hi, yhi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        area += (xb - xa) * covered
    return area
