"""Method-agnostic delay-impact scoring: the one τ of Tables 1-2.

Every method — Normal, ILP-I, ILP-II, Greedy — is scored by
:meth:`ImpactModel.score`, mirroring the paper's Tables 1-2 where all
methods are measured by the same τ; :func:`evaluate_impact` is a one-shot
use of it. The scorer:

1. runs the full-layout (definition III) sweep once, at construction, to
   find every gap block and its true neighboring lines,
2. buckets the placed fill features into physical gap columns (same
   site-grid column, same block) — recombining features that per-tile
   solvers placed independently in the same physical stack,
3. applies the *exact* capacitance model (Eq. 5) to each column's total
   feature count, and
4. charges each adjacent line the Elmore increment at the column position,
   both unweighted (per wire segment) and sink-weighted.

Because grouping is global, the scorer correctly penalizes the
fine-dissection regime where per-tile solvers underestimate stacked
columns — the effect the paper discusses in Section 6.

The bucketing and capacitance math are batched: column membership counts
and the per-column ΔC vector come from array ops (``np.unique`` +
``bincount`` + one vectorized Eq. 5 pass); only the spatial point-location
and the per-*column* Elmore charging remain Python loops, and columns are
typically an order of magnitude fewer than features.

A model is reusable: what-if loops and optimizers build it once and call
:meth:`ImpactModel.score`, :meth:`ImpactModel.marginal_cost_ps` and
:meth:`ImpactModel.locate` many times. ``locate`` memoizes by feature
rectangle, so repeated marginal-cost queries and local search pay the
spatial lookup once per site; ``score`` locates without
the memo.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.cap.fillimpact import exact_column_cap_array
from repro.errors import FillError
from repro.geometry import GridBinIndex, Rect
from repro.layout.layout import FillFeature, RoutedLayout
from repro.layout.rctree import OHM_FF_TO_PS
from repro.pilfill.scanline import layer_sweep_lines, sweep_gap_blocks
from repro.tech.rules import FillRules
from repro.units import ps_to_ns

#: Columns per block are keyed ``block_id * 2**32 + grid_column`` so one
#: int64 sort recovers the (block, column) lexicographic bucket order.
#:
#: Why τ's bits do not depend on how finely the sweep cuts blocks: the
#: sweep coalesces fragments, so it emits one block where a finer sweep
#: emitted a run of abutting blocks with the same cross band and the same
#: two lines, and block ids are renumbered. Each merged block replaces
#: blocks that were emitted one after another, so ids keep their relative
#: order and the (block, column) keys sort the same columns in the same
#: order. A merged block would join two old columns only if features on
#: both sides of an old boundary shared an ``along // pitch`` cell; fill
#: on the site grid has one centre per cell, so it never does. Every
#: column keeps its features, count, centre and Eq. 5 ΔC, and the float
#: sums below run in the same order. ``TestCoalescedBlocks`` in
#: ``tests/test_impact_model.py`` pins this against the uncoalesced
#: oracle sweep.
_COLUMN_KEY_STRIDE = 1 << 32


@dataclass
class ImpactReport:
    """Total and per-net delay impact of a fill placement.

    Delays in picoseconds; helpers convert to the paper's ns.
    """

    total_ps: float = 0.0
    weighted_total_ps: float = 0.0
    per_net_ps: dict[str, float] = field(default_factory=dict)
    per_net_weighted_ps: dict[str, float] = field(default_factory=dict)
    features_scored: int = 0
    features_free: int = 0  # features in boundary gaps (no coupling change)
    columns: int = 0

    @property
    def total_ns(self) -> float:
        return ps_to_ns(self.total_ps)

    @property
    def weighted_total_ns(self) -> float:
        return ps_to_ns(self.weighted_total_ps)


@dataclass(frozen=True)
class _ColumnState:
    block_id: int
    col: int


class ImpactModel:
    """Reusable impact scorer for one layer of one layout."""

    def __init__(self, layout: RoutedLayout, layer: str, rules: FillRules):
        self.layout = layout
        self.layer = layer
        self.rules = rules
        lines, horizontal = layer_sweep_lines(layout, layer)
        self._horizontal = horizontal
        self._blocks = sweep_gap_blocks(lines, layout.die, horizontal)
        bin_size = max(1, max(layout.die.width, layout.die.height) // 32)
        self._index: GridBinIndex[int] = GridBinIndex(bin_size)
        for i, block in enumerate(self._blocks):
            if horizontal:
                rect = Rect(block.along.lo, block.cross_lo, block.along.hi, block.cross_hi)
            else:
                rect = Rect(block.cross_lo, block.along.lo, block.cross_hi, block.along.hi)
            if not rect.is_empty():
                self._index.insert(rect, i)
        proc = layout.stack.layer(layer)
        self._eps_r = proc.eps_r
        self._thickness = proc.thickness_um
        self._dbu = layout.stack.dbu_per_micron
        self._fill_w_um = rules.fill_size / self._dbu
        # locate() depends only on the feature rectangle, and Rect is
        # frozen/hashable — memoizing by rect makes repeated what-if
        # queries (marginal_cost_ps over a growing placement, local
        # search) pay the spatial query once per site.
        # Callers may share one model across threads, so writes
        # go through the lock (reads stay lock-free: entries are
        # immutable and never invalidated).
        self._lock = threading.Lock()
        self._locate_cache: dict[Rect, _ColumnState] = {}

    def _containing_block(self, feature: FillFeature) -> tuple[int, int]:
        """(gap-block id, along-axis center) of the block holding the
        feature's center."""
        center = feature.rect.center
        along_c = center.x if self._horizontal else center.y
        cross_c = center.y if self._horizontal else center.x
        for i in self._index.query(Rect(center.x, center.y, center.x + 1, center.y + 1)):
            block = self._blocks[i]
            if block.along.contains(along_c) and block.cross_lo <= cross_c < block.cross_hi:
                return i, along_c
        raise FillError(f"fill feature at {feature.rect} lies on active geometry")

    def locate(self, feature: FillFeature) -> _ColumnState:
        """Column identity (block + along-axis column) of a feature.

        Memoized by ``feature.rect``; the cache never invalidates because
        the gap-block structure is fixed at construction.
        """
        cached = self._locate_cache.get(feature.rect)
        if cached is not None:
            return cached
        block_id, along_c = self._containing_block(feature)
        state = _ColumnState(block_id=block_id, col=along_c // self.rules.pitch)
        with self._lock:
            self._locate_cache[feature.rect] = state
        return state

    def score(self, features: list[FillFeature]) -> ImpactReport:
        """Score a placement on this layer. See module docstring.

        Locates features without the rect memo (a one-shot score would
        only fill it), then charges each line's delay straight into the
        report, column by column in (block, column) key order — the
        accumulation order the τ of Tables 1-2 is pinned to.
        """
        report = ImpactReport()
        relevant = [f for f in features if f.layer == self.layer]
        if not relevant:
            return report
        located = np.array([self._containing_block(f) for f in relevant], dtype=np.int64)
        block_ids, alongs = located[:, 0], located[:, 1]

        # Bucket features by (block, along-axis grid column) with one sort:
        # np.unique returns keys sorted, i.e. (block_id, col) lexicographic.
        keys = block_ids * _COLUMN_KEY_STRIDE + alongs // self.rules.pitch
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        m_per_col = np.bincount(inverse)
        centers = np.bincount(inverse, weights=alongs).astype(np.int64) // m_per_col
        col_blocks = unique_keys // _COLUMN_KEY_STRIDE
        coupled = np.array(
            [
                self._blocks[b].below is not None and self._blocks[b].above is not None
                for b in col_blocks
            ]
        )
        report.columns = len(unique_keys)
        report.features_scored = len(relevant)
        report.features_free = int(m_per_col[~coupled].sum())
        if not coupled.any():
            return report

        # Vectorized Eq. 5 over the coupled columns.
        coupled_blocks = col_blocks[coupled].tolist()
        gaps = np.array([self._blocks[b].gap for b in coupled_blocks], dtype=np.int64)
        gaps_um = gaps / self._dbu
        delta_c = exact_column_cap_array(
            self._eps_r, self._thickness, gaps_um, m_per_col[coupled], self._fill_w_um
        )

        # Charge the Elmore increments column by column (columns ≪ features).
        for b, center_along, dc in zip(
            coupled_blocks, centers[coupled].tolist(), delta_c.tolist(), strict=True
        ):
            block = self._blocks[b]
            for sweep_line in (block.below, block.above):
                timing = sweep_line.timing
                if timing is None:
                    continue
                delay = timing.resistance_at(center_along) * dc * OHM_FF_TO_PS
                weighted = delay * timing.downstream_sinks
                net = timing.segment.net
                report.total_ps += delay
                report.weighted_total_ps += weighted
                report.per_net_ps[net] = report.per_net_ps.get(net, 0.0) + delay
                report.per_net_weighted_ps[net] = (
                    report.per_net_weighted_ps.get(net, 0.0) + weighted
                )
        return report

    def marginal_cost_ps(
        self, feature: FillFeature, existing: list[FillFeature] | None = None
    ) -> float:
        """Weighted delay increase of adding one feature on top of
        ``existing`` (which may share its column — the nonlinearity is
        respected): the difference of two scores of that column."""
        state = self.locate(feature)
        column = [
            f for f in (existing or [])
            if f.layer == self.layer and self.locate(f) == state
        ]
        before = self.score(column).weighted_total_ps
        return self.score(column + [feature]).weighted_total_ps - before

    @property
    def block_count(self) -> int:
        """Number of gap blocks in the model."""
        return len(self._blocks)


def evaluate_impact(
    layout: RoutedLayout,
    layer: str,
    features: list[FillFeature],
    rules: FillRules,
) -> ImpactReport:
    """Score a fill placement on one layer: a one-shot
    :meth:`ImpactModel.score`. See module docstring."""
    if not any(f.layer == layer for f in features):
        return ImpactReport()
    return ImpactModel(layout, layer, rules).score(features)
