"""Local-search refinement of a fill placement (beyond the paper).

The per-tile solvers are optimal *under the per-tile model*, but the paper
itself notes the model's blind spot (Section 6): a physical slack column
crossing a tile boundary is split and each half is priced independently —
the true (convex) capacitance of the recombined stack is higher. This pass
repairs exactly that: it re-prices the finished placement with the
evaluator's *cross-tile* grouping (one group = one gap block × one grid
column, regardless of tiles) and greedily moves features to better sites
**within their own tile**, so the per-tile density prescription — and
therefore density-control quality — is preserved exactly.

Each group's weighted delay is ``k_g · ΔC_exact(m)`` for a precomputed
coefficient ``k_g``, so removal/insertion marginals are O(1) and each
steepest-descent move scans groups, not sites. Because the group cost is
the same function the evaluator applies, every accepted move strictly
decreases the evaluated impact — refinement is monotone by construction.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.cap.fillimpact import exact_column_cap
from repro.dissection.fixed import FixedDissection
from repro.geometry import Rect
from repro.layout.layout import FillFeature
from repro.layout.rctree import OHM_FF_TO_PS
from repro.pilfill.columns import TileColumns
from repro.pilfill.evaluate import ImpactModel


@dataclass
class RefineResult:
    """Outcome of a refinement pass."""

    features: list[FillFeature] = field(default_factory=list)
    moves: int = 0
    initial_wtau_ps: float = 0.0
    final_wtau_ps: float = 0.0

    @property
    def improvement_ps(self) -> float:
        return self.initial_wtau_ps - self.final_wtau_ps


class _Group:
    """One physical column stack (may span tiles)."""

    __slots__ = ("key", "coeff", "gap_um", "fill_w_um", "free_by_tile", "members")

    def __init__(
        self,
        key: tuple[int, int],
        coeff: float,
        gap_um: float | None,
        fill_w_um: float,
    ) -> None:
        self.key = key
        self.coeff = coeff          # Σ sinks·R(center) · ε_r · t · 1e-3
        self.gap_um = gap_um        # None => impact-free group
        self.fill_w_um = fill_w_um
        self.free_by_tile: dict[tuple[int, int], list[Rect]] = defaultdict(list)
        self.members: list[tuple[int, tuple[int, int]]] = []  # (feature idx, tile)

    def cost(self, m: int) -> float:
        if self.gap_um is None or m == 0:
            return 0.0
        return self.coeff * exact_column_cap(1.0, 1.0, self.gap_um, m, self.fill_w_um)

    def removal_saving(self) -> float:
        m = len(self.members)
        return self.cost(m) - self.cost(m - 1) if m else 0.0

    def insertion_cost(self) -> float:
        m = len(self.members)
        return self.cost(m + 1) - self.cost(m)


def _group_coeff(model: ImpactModel, block_id: int, along: int) -> tuple[float, float | None]:
    """(cost coefficient, gap_um) of a group in block ``block_id`` whose
    column center sits at along-axis coordinate ``along``."""
    block = model._blocks[block_id]
    if block.below is None or block.above is None:
        return 0.0, None
    coeff = 0.0
    for sweep_line in (block.below, block.above):
        if sweep_line.timing is not None:
            coeff += (
                sweep_line.timing.downstream_sinks
                * sweep_line.timing.resistance_at(along)
            )
    coeff *= OHM_FF_TO_PS * model._eps_r * model._thickness
    return coeff, block.gap / model._dbu


def refine_placement(
    model: ImpactModel,
    dissection: FixedDissection,
    columns_by_tile: Mapping[tuple[int, int], TileColumns],
    features: list[FillFeature],
    max_moves: int = 10000,
) -> RefineResult:
    """Improve ``features`` by within-tile relocations. See module doc."""
    layer = model.layer
    result = RefineResult(features=list(features))
    result.initial_wtau_ps = model.score(result.features).weighted_total_ps
    if max_moves <= 0 or not result.features:
        result.final_wtau_ps = result.initial_wtau_ps
        return result

    fill_w_um = model._fill_w_um
    groups: dict[tuple, _Group] = {}
    site_group: dict[Rect, _Group] = {}

    def group_for(block_id: int, col: int, along: int) -> _Group:
        key = (block_id, col)
        group = groups.get(key)
        if group is None:
            coeff, gap_um = _group_coeff(model, block_id, along)
            group = _Group(key, coeff, gap_um, fill_w_um)
            groups[key] = group
        return group

    for tile_key, cols in columns_by_tile.items():
        for sites in cols.sites():
            if not sites:
                continue
            probe = FillFeature(layer=layer, rect=sites[0])
            state = model.locate(probe)
            center = sites[0].center
            along = center.x if model._horizontal else center.y
            group = group_for(state.block_id, state.col, along)
            for rect in sites:
                site_group[rect] = group
                group.free_by_tile[tile_key].append(rect)

    occupied_tiles: dict[int, tuple[int, int]] = {}
    for i, feature in enumerate(result.features):
        group = site_group.get(feature.rect)
        tile = dissection.tile_at_point(*feature.rect.center.as_tuple()).key
        if group is None:
            state = model.locate(feature)
            center = feature.rect.center
            along = center.x if model._horizontal else center.y
            group = group_for(state.block_id, state.col, along)
        else:
            if feature.rect in group.free_by_tile[tile]:
                group.free_by_tile[tile].remove(feature.rect)
        group.members.append((i, tile))
        occupied_tiles[i] = tile

    # Tile-indexed views for the move search.
    sources_by_tile: dict[tuple[int, int], set] = defaultdict(set)
    targets_by_tile: dict[tuple[int, int], set] = defaultdict(set)
    for group in groups.values():
        for _idx, tile in group.members:
            sources_by_tile[tile].add(group.key)
        for tile, free in group.free_by_tile.items():
            if free:
                targets_by_tile[tile].add(group.key)

    moves = 0
    while moves < max_moves:
        best = None  # (gain, tile, src group, dst group)
        for tile, source_keys in sources_by_tile.items():
            target_keys = targets_by_tile.get(tile)
            if not source_keys or not target_keys:
                continue
            src = max((groups[k] for k in source_keys), key=_Group.removal_saving)
            candidates = sorted(
                (groups[k] for k in target_keys), key=_Group.insertion_cost
            )
            dst = candidates[0]
            if dst is src and len(candidates) > 1:
                dst = candidates[1]
            if dst is src:
                continue
            gain = src.removal_saving() - dst.insertion_cost()
            if gain > 1e-15 and (best is None or gain > best[0]):
                best = (gain, tile, src, dst)
        if best is None:
            break
        _gain, tile, src, dst = best
        member_pos = next(
            pos for pos, (_i, t) in enumerate(src.members) if t == tile
        )
        idx, _t = src.members.pop(member_pos)
        old = result.features[idx]
        target_rect = dst.free_by_tile[tile].pop()
        result.features[idx] = FillFeature(layer=layer, rect=target_rect)
        src.free_by_tile[tile].append(old.rect)
        dst.members.append((idx, tile))
        moves += 1

        # Maintain the tile-indexed views.
        if not any(t == tile for _i, t in src.members):
            # src may still have members in other tiles; per-tile view only.
            sources_by_tile[tile].discard(src.key)
        sources_by_tile[tile].add(dst.key)
        targets_by_tile[tile].add(src.key)
        if not dst.free_by_tile[tile]:
            targets_by_tile[tile].discard(dst.key)

    result.moves = moves
    result.final_wtau_ps = model.score(result.features).weighted_total_ps
    return result
