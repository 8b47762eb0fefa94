"""Fragment-scan Fig. 7 sweep: the test oracle for ``IncrementalSweep.feed``.

This is ``feed`` as it was before it bisected into the fragment list and
coalesced abutting fragments. For every line it scans every open fragment,
re-sorts the list afterwards, and never merges fragments, so it emits one
block per fragment a line covers. The loop is kept unchanged;
``tests/test_scanline_oracle.py`` shows that its blocks, with consecutive
abutting blocks of equal attributes merged, are the production blocks.
"""

from __future__ import annotations

from repro.errors import FillError
from repro.geometry import Interval, Rect
from repro.pilfill.scanline import GapBlock, IncrementalSweep, SweepLine, _Fragment


class OracleSweep(IncrementalSweep):
    """:class:`IncrementalSweep` with the fragment-scan ``feed``."""

    def feed(self, lines: list[SweepLine]) -> list[GapBlock]:
        """Process one batch of lines; returns the blocks they closed."""
        if self._finished:
            raise FillError("IncrementalSweep.feed after finish")
        events = sorted(lines, key=self._key)
        if events and self._max_key is not None and self._key(events[0]) < self._max_key:
            raise FillError(
                f"non-monotone sweep feed: key {self._key(events[0])} after "
                f"{self._max_key}"
            )
        if events:
            self._max_key = self._key(events[-1])
        blocks: list[GapBlock] = []
        fragments = self._fragments
        for line in events:
            span = self.axes.along_iv(line.rect)
            band = self.axes.cross_iv(line.rect)
            new_fragments: list[_Fragment] = []
            for frag in fragments:
                overlap = frag.along.intersection(span)
                if overlap is None:
                    new_fragments.append(frag)
                    continue
                # Left remainder keeps the old gap open.
                if frag.along.lo < overlap.lo:
                    new_fragments.append(
                        _Fragment(Interval(frag.along.lo, overlap.lo), frag.start_cross, frag.below)
                    )
                # Right remainder likewise.
                if overlap.hi < frag.along.hi:
                    new_fragments.append(
                        _Fragment(Interval(overlap.hi, frag.along.hi), frag.start_cross, frag.below)
                    )
                # The covered part closes (emit block) and reopens above the line.
                if frag.start_cross < band.lo:
                    blocks.append(
                        GapBlock(
                            along=overlap,
                            cross_lo=frag.start_cross,
                            cross_hi=band.lo,
                            below=frag.below,
                            above=line,
                        )
                    )
                if band.hi >= frag.start_cross:
                    new_fragments.append(_Fragment(overlap, band.hi, line))
                else:
                    # The arriving line is entirely below the open gap (overlap
                    # with an earlier, taller line): the old gap stays open.
                    new_fragments.append(_Fragment(overlap, frag.start_cross, frag.below))
            fragments = sorted(new_fragments, key=lambda f: f.along.lo)
        self._fragments = fragments
        return blocks


def oracle_sweep_gap_blocks(
    lines: list[SweepLine],
    region: Rect,
    horizontal: bool,
) -> list[GapBlock]:
    """:func:`~repro.pilfill.scanline.sweep_gap_blocks` over the oracle."""
    sweep = OracleSweep(region, horizontal)
    blocks = sweep.feed(lines)
    blocks.extend(sweep.finish())
    return blocks


def merge_abutting(blocks: list[GapBlock]) -> list[GapBlock]:
    """Merge each run of consecutive blocks that abut along the sweep and
    share ``(cross_lo, cross_hi)`` and the very same ``below`` and
    ``above`` lines — the blocks a coalesced fragment emits as one."""
    merged: list[GapBlock] = []
    for block in blocks:
        if merged:
            prev = merged[-1]
            if (
                prev.along.hi == block.along.lo
                and (prev.cross_lo, prev.cross_hi) == (block.cross_lo, block.cross_hi)
                and prev.below is block.below
                and prev.above is block.above
            ):
                merged[-1] = GapBlock(
                    along=Interval(prev.along.lo, block.along.hi),
                    cross_lo=prev.cross_lo,
                    cross_hi=prev.cross_hi,
                    below=prev.below,
                    above=prev.above,
                )
                continue
        merged.append(block)
    return merged
