"""Incremental delay-impact model.

:func:`repro.pilfill.evaluate.evaluate_impact` re-runs the whole-layout
sweep on every call — fine for scoring a finished placement, wasteful for
what-if loops ("how much would one more feature here cost?") and for
optimizers that score many candidate placements. :class:`ImpactModel`
builds the gap-block structure once and then scores placements, single
features, and deltas in O(features) time with identical semantics to the
batch evaluator (a property the test suite pins).

Point-location results are memoized by feature rectangle, so what-if
loops that re-score overlapping candidate sets (and
:meth:`ImpactModel.marginal_cost_ps`, which used to re-locate every
existing feature on every query) pay the spatial lookup once per site.
:meth:`ImpactModel.score` batches the column bucketing and the Eq. 5
capacitance through the same array kernels as the batch evaluator.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.cap.fillimpact import exact_column_cap
from repro.errors import FillError
from repro.geometry import GridBinIndex, Rect
from repro.layout.layout import FillFeature, RoutedLayout
from repro.layout.rctree import OHM_FF_TO_PS
from repro.pilfill.evaluate import _COLUMN_KEY_STRIDE, ImpactReport, column_delta_caps
from repro.pilfill.scanline import GapBlock, layer_sweep_lines, sweep_gap_blocks
from repro.tech.rules import FillRules


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
            rect = self._block_rect(block)
            if not rect.is_empty():
                self._index.insert(rect, i)
        proc = layout.stack.layer(layer)
        self._eps_r = proc.eps_r
        self._thickness = proc.thickness_um
        self._dbu = layout.stack.dbu_per_micron
        self._fill_w_um = rules.fill_size / self._dbu
        # locate() depends only on the feature rectangle, and Rect is
        # frozen/hashable — memoizing by rect makes repeated what-if
        # scoring (and marginal_cost_ps over a growing placement) pay
        # the spatial query once per site instead of once per call.
        # Callers may share one model across threads, so writes
        # go through the lock (reads stay lock-free: entries are
        # immutable and never invalidated).
        self._lock = threading.Lock()
        self._locate_cache: dict[Rect, _ColumnState] = {}

    def _block_rect(self, block: GapBlock) -> Rect:
        if self._horizontal:
            return Rect(block.along.lo, block.cross_lo, block.along.hi, block.cross_hi)
        return Rect(block.cross_lo, block.along.lo, block.cross_hi, block.along.hi)

    def locate(self, feature: FillFeature) -> _ColumnState:
        """Column identity (block + along-axis column) of a feature.

        Memoized by ``feature.rect``; the cache never invalidates because
        the gap-block structure is fixed at construction.
        """
        cached = self._locate_cache.get(feature.rect)
        if cached is not None:
            return cached
        center = feature.rect.center
        for i in self._index.query(Rect(center.x, center.y, center.x + 1, center.y + 1)):
            block = self._blocks[i]
            along_c = center.x if self._horizontal else center.y
            cross_c = center.y if self._horizontal else center.x
            if block.along.contains(along_c) and block.cross_lo <= cross_c < block.cross_hi:
                state = _ColumnState(block_id=i, col=along_c // self.rules.pitch)
                with self._lock:
                    self._locate_cache[feature.rect] = state
                return state
        raise FillError(f"fill feature at {feature.rect} lies on active geometry")

    def _column_delay(
        self, block_id: int, feats: list[FillFeature]
    ) -> tuple[float, float, dict[str, float], dict[str, float]]:
        """(unweighted, weighted, per-net unweighted, per-net weighted)
        for one column group."""
        block = self._blocks[block_id]
        m = len(feats)
        if m == 0 or block.below is None or block.above is None:
            return 0.0, 0.0, {}, {}
        gap_um = block.gap / self._dbu
        delta_c = exact_column_cap(self._eps_r, self._thickness, gap_um, m, self._fill_w_um)
        center_along = (
            sum((f.rect.center.x if self._horizontal else f.rect.center.y) for f in feats) // m
        )
        total = weighted = 0.0
        per_net: dict[str, float] = {}
        per_net_weighted: dict[str, float] = {}
        for sweep_line in (block.below, block.above):
            timing = sweep_line.timing
            if timing is None:
                continue
            delay = timing.resistance_at(center_along) * delta_c * OHM_FF_TO_PS
            total += delay
            weighted += delay * timing.downstream_sinks
            net = timing.segment.net
            per_net[net] = per_net.get(net, 0.0) + delay
            per_net_weighted[net] = (
                per_net_weighted.get(net, 0.0) + delay * timing.downstream_sinks
            )
        return total, weighted, per_net, per_net_weighted

    # -- public API -----------------------------------------------------------

    def score(self, features: list[FillFeature]) -> ImpactReport:
        """Score a placement; semantics identical to
        :func:`repro.pilfill.evaluate.evaluate_impact`.

        Bucketing and the Eq. 5 capacitance run as array kernels (one
        ``np.unique`` sort + one vectorized ΔC pass); only the per-column
        Elmore charging remains a Python loop, with the same per-column
        accumulation order the scalar implementation used.
        """
        report = ImpactReport()
        relevant = [f for f in features if f.layer == self.layer]
        if not relevant:
            return report
        states = [self.locate(f) for f in relevant]
        block_ids = np.array([s.block_id for s in states], dtype=np.int64)
        cols = np.array([s.col for s in states], dtype=np.int64)
        alongs = np.array(
            [f.rect.center.x if self._horizontal else f.rect.center.y for f in relevant],
            dtype=np.int64,
        )
        keys = block_ids * _COLUMN_KEY_STRIDE + cols
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        m_per_col = np.bincount(inverse)
        along_sums = np.bincount(inverse, weights=alongs).astype(np.int64)
        col_blocks = (unique_keys // _COLUMN_KEY_STRIDE).astype(np.int64)
        centers = along_sums // m_per_col

        coupled = np.array(
            [
                self._blocks[b].below is not None and self._blocks[b].above is not None
                for b in col_blocks
            ]
        )
        delta_c = np.zeros(len(unique_keys), dtype=np.float64)
        if coupled.any():
            gaps_um = (
                np.array([self._blocks[b].gap for b in col_blocks[coupled]], dtype=np.int64)
                / self._dbu
            )
            delta_c[coupled] = column_delta_caps(
                gaps_um, m_per_col[coupled], self._eps_r, self._thickness, self._fill_w_um
            )

        report.columns = len(unique_keys)
        for i in range(len(unique_keys)):
            m = int(m_per_col[i])
            if not coupled[i]:
                report.features_free += m
                continue
            block = self._blocks[int(col_blocks[i])]
            center_along = int(centers[i])
            dc = float(delta_c[i])
            total = weighted = 0.0
            per_net: dict[str, float] = {}
            per_net_weighted: dict[str, float] = {}
            for sweep_line in (block.below, block.above):
                timing = sweep_line.timing
                if timing is None:
                    continue
                delay = timing.resistance_at(center_along) * dc * OHM_FF_TO_PS
                total += delay
                weighted += delay * timing.downstream_sinks
                net = timing.segment.net
                per_net[net] = per_net.get(net, 0.0) + delay
                per_net_weighted[net] = (
                    per_net_weighted.get(net, 0.0) + delay * timing.downstream_sinks
                )
            report.total_ps += total
            report.weighted_total_ps += weighted
            for net, value in per_net.items():
                report.per_net_ps[net] = report.per_net_ps.get(net, 0.0) + value
            for net, value in per_net_weighted.items():
                report.per_net_weighted_ps[net] = (
                    report.per_net_weighted_ps.get(net, 0.0) + value
                )
            report.features_scored += m
        report.features_scored += report.features_free
        return report

    def marginal_cost_ps(
        self, feature: FillFeature, existing: list[FillFeature] | None = None
    ) -> float:
        """Weighted delay increase of adding one feature on top of
        ``existing`` (which may share its column — the nonlinearity is
        respected)."""
        state = self.locate(feature)
        same_column = [
            f for f in (existing or [])
            if f.layer == self.layer
            and self.locate(f) == state
        ]
        _t0, before, _pn0, _pw0 = self._column_delay(state.block_id, same_column)
        _t1, after, _pn1, _pw1 = self._column_delay(
            state.block_id, same_column + [feature]
        )
        return after - before

    @property
    def block_count(self) -> int:
        """Number of gap blocks in the model."""
        return len(self._blocks)
