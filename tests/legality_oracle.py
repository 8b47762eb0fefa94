"""The exact fill-site legality test: the oracle for the legality raster.

A fill site is legal when its square lies inside the die and, grown by the
buffer distance on every side, overlaps the open interior of no blockage
rect (touching edges do not count). :class:`ExactLegality` answers that for
one site rect by scanning every blockage, with plain integer comparisons
and no spatial index, so it shares no code with
:class:`~repro.fillsynth.slack_sites.SiteLegality`. The tests pin the
raster to it site by site.
"""

from __future__ import annotations

from repro.geometry import Rect
from repro.layout.layout import RoutedLayout
from repro.tech.rules import FillRules


class ExactLegality:
    """Brute-force legality of arbitrary site rects on one layer."""

    def __init__(self, die: Rect, rules: FillRules, rects: list[Rect] | tuple[Rect, ...] = ()):
        self.die = die
        self.buffer = rules.buffer_distance
        self.rects = list(rects)

    @classmethod
    def from_layout(cls, layout: RoutedLayout, layer: str, rules: FillRules) -> "ExactLegality":
        return cls(layout.die, rules, layout.feature_rects(layer))

    def add_blockage(self, rect: Rect) -> None:
        self.rects.append(rect)

    def is_legal(self, site: Rect) -> bool:
        """True when a fill feature at ``site`` is design-rule legal."""
        die, b = self.die, self.buffer
        if not (
            die.xlo <= site.xlo and die.ylo <= site.ylo
            and site.xhi <= die.xhi and site.yhi <= die.yhi
        ):
            return False
        xlo, ylo, xhi, yhi = site.xlo - b, site.ylo - b, site.xhi + b, site.yhi + b
        return not any(
            r.xlo < xhi and xlo < r.xhi and r.ylo < yhi and ylo < r.yhi for r in self.rects
        )

