"""Shared preprocessing for the PIL-Fill flow.

The engine's per-run pipeline starts with work that depends only on the
``(layout, layer, fill_rules, density_rules, column_def)`` tuple — the
fixed r-dissection, the site-legality raster, the pre-fill density map,
the scan-line slack-column extraction, and the per-column cost tables.
None of it depends on the *method*, so rebuilding it per method (as the
experiment harness would otherwise do, once per table cell) is pure
redundancy: 4 methods × 12 configurations = 48 rebuilds of identical
state.

:class:`PreparedInstance` captures that state once. It is:

* **reusable** — pass it to any number of :class:`~repro.pilfill.engine.
  PILFillEngine` runs (``run`` / ``run_mvdc`` / ``run_budgeted``) whose
  config matches its key; mismatches raise :class:`~repro.errors.FillError`
  rather than silently mixing geometries,
* **lazy** — the density map is only built when a budget actually has to
  be derived (an explicit budget override skips it entirely), and cost
  tables are built per ``weighted`` flag on first use, in one batched
  pass over every column (:func:`~repro.pilfill.costs.build_cost_views`),
* **memoizing** — budgets are cached by the budget-relevant config knobs
  so e.g. four methods sharing one configuration derive the budget once.

``PreparedInstance.build_count`` counts full preprocessing builds
(process-wide) so tests and benchmarks can assert the sharing actually
happens.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.cap.lut import LUTCache
from repro.dissection.density import DensityMap, clip_to_tiles
from repro.dissection.fixed import FixedDissection
from repro.errors import FillError, ParseError
from repro.fillsynth.budget import (
    hybrid_budget,
    lp_minvar_budget,
    minvar_lp_size,
    montecarlo_budget,
)
from repro.fillsynth.slack_sites import SiteLegality
from repro.geometry import Rect
from repro.geometry.spatial import GridBinIndex
from repro.io.deflite import net_ylo, parse_def_streaming
from repro.layout.layout import RoutedLayout
from repro.layout.net import Net
from repro.layout.rctree import RCTree
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.pilfill.columns import ColumnTable, SlackColumnDef
from repro.pilfill.costs import TileCosts, build_cost_views
from repro.pilfill.scanline import (
    ColumnGridder,
    IncrementalSweep,
    SweepLine,
    extract_columns,
    extract_columns_from_lines,
)
from repro.tech.process import ProcessStack
from repro.tech.rules import DensityRules, FillRules

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.pilfill.engine import EngineConfig

TileKey = tuple[int, int]


@dataclass
class PreparedInstance:
    """Method-independent preprocessing of one ``(layout, layer)`` pair.

    Build via :func:`prepare` (or :meth:`PILFillEngine.prepare`); the
    constructor itself performs no work. ``phase_seconds`` records the
    time spent in each preprocessing phase (``setup``, ``scanline``, and
    lazily ``density`` / ``costs`` / ``budget``) — each is paid once per
    instance no matter how many engine runs reuse it. Every entry is the
    summed duration of that phase's ``prepare.<phase>`` spans, which
    carry a ``phase`` attribute; no phase span nests inside another one
    here, so each second is counted under exactly one phase.
    ``columns_by_tile`` is the layer's
    :class:`~repro.pilfill.columns.ColumnTable`: a mapping from every
    tile key to that tile's slack columns.
    """

    layout: RoutedLayout
    layer: str
    fill_rules: FillRules
    density_rules: DensityRules
    column_def: SlackColumnDef
    dissection: FixedDissection
    legality: SiteLegality
    columns_by_tile: ColumnTable
    phase_seconds: dict[str, float] = field(default_factory=dict)
    lut_stats: dict[str, int] = field(default_factory=dict)
    _density: DensityMap | None = field(default=None, repr=False)
    _costs: dict[bool, dict[TileKey, TileCosts]] = field(
        default_factory=dict, repr=False
    )
    _budgets: dict[tuple, dict[TileKey, int]] = field(default_factory=dict, repr=False)
    _lut_caches: dict[bool, LUTCache] = field(default_factory=dict, repr=False)
    _tile_index: "GridBinIndex[TileKey] | None" = field(default=None, repr=False)

    #: Process-wide count of full preprocessing builds (see :func:`prepare`).
    build_count = 0

    @property
    def density(self) -> DensityMap:
        """The pre-fill density map, built on first access only.

        Runs that receive an explicit budget override never touch this,
        so they skip the density scan entirely.
        """
        return self._density_map(NULL_TRACER)

    def _density_map(self, tracer: TracerLike) -> DensityMap:
        """:attr:`density`, recording its first build as a
        ``prepare.density`` span on ``tracer``."""
        if self._density is None:
            with tracer.span("prepare.density", phase="density") as span:
                self._density = DensityMap.from_layout(self.dissection, self.layout, self.layer)
            self.phase_seconds["density"] = span.seconds
        return self._density

    def tile_index(self) -> GridBinIndex[TileKey]:
        """Spatial index of every tile rect, built on first access.

        The incremental-fill dirty-window pass queries it to find the
        tiles an ECO window touches
        (:meth:`repro.pilfill.incremental.SolutionCache.invalidate_window`)
        without scanning the whole dissection. Binned at the tile side,
        so a query touches a handful of bins.
        """
        if self._tile_index is None:
            index: GridBinIndex[TileKey] = GridBinIndex(self.dissection.tile_size)
            index.insert_many((tile.rect, tile.key) for tile in self.dissection.tiles())
            self._tile_index = index
        return self._tile_index

    def capacity(self, margin: float = 1.0) -> dict[TileKey, int]:
        """Placeable capacity per tile (column sites × headroom margin)."""
        table = self.columns_by_tile
        return {
            key: int(sites * margin)
            for key, sites in zip(table, table.tile_capacities(), strict=True)
        }

    def costs_for(
        self,
        weighted: bool,
        keys: Sequence[TileKey] | None = None,
        tracer: TracerLike | None = None,
    ) -> dict[TileKey, TileCosts]:
        """Per-tile cost tables under the given objective weighting.

        One :func:`~repro.pilfill.costs.build_cost_views` pass evaluates
        every column's tables into flat arrays and returns a
        :class:`~repro.pilfill.costs.TileCosts` per tile over its
        slice. With ``keys=None`` the whole grid is built once per
        ``weighted`` flag, memoized, and shared by every run; the arrays
        are never written after the pass, so any number of tile solvers
        may read them. With ``keys`` (one shard's tiles) the result is a
        subset of the memoized tables when they exist, and is otherwise
        built for just those tiles and *not* cached — the sharded solve
        owns its lifetime, holding one shard's tables at a time. Both
        share one LUT cache per flag, so shard-by-shard building reuses
        interpolations exactly like the global build (caching is
        value-transparent: the tables are bit-identical either way).
        Every tile of ``columns_by_tile`` (or of ``keys``) gets one, empty
        for a tile without slack columns. LUT-cache hit/miss counts
        accumulate into ``lut_stats``.
        """
        cached = self._costs.get(weighted)
        if cached is not None:
            if keys is None:
                return cached
            return {key: cached[key] for key in keys if key in cached}
        table = self.columns_by_tile
        n_tiles = len(table) if keys is None else sum(key in table for key in keys)
        trc = tracer if tracer is not None else NULL_TRACER
        with trc.span("prepare.costs", phase="costs", weighted=weighted, tiles=n_tiles) as span:
            layer_proc = self.layout.stack.layer(self.layer)
            dbu = self.layout.stack.dbu_per_micron
            lut_cache = self._lut_caches.get(weighted)
            if lut_cache is None:
                lut_cache = LUTCache(
                    layer_proc.eps_r, layer_proc.thickness_um, self.fill_rules.fill_size / dbu
                )
                self._lut_caches[weighted] = lut_cache
            stats_before = lut_cache.stats()
            costs = build_cost_views(
                table, layer_proc, self.fill_rules, dbu, lut_cache, weighted, keys
            )
            for name, count in lut_cache.stats().items():
                self.lut_stats[name] = (
                    self.lut_stats.get(name, 0) + count - stats_before.get(name, 0)
                )
        if keys is None:
            self._costs[weighted] = costs
        self.phase_seconds["costs"] = self.phase_seconds.get("costs", 0.0) + span.seconds
        return costs

    def close(self) -> None:
        """Drop the memoized cost tables (idempotent). A later run over
        this instance rebuilds them, with the same values."""
        self._costs.clear()

    def budget_for(
        self, config: "EngineConfig", tracer: TracerLike | None = None
    ) -> dict[TileKey, int]:
        """Per-tile feature budgets from the density-control baseline.

        Cached by the budget-relevant knobs (mode, target, seed, margin),
        so methods sharing a configuration derive the budget once. A
        first-time density build runs before the ``prepare.budget`` span
        opens, so it is timed under ``density`` alone.
        """
        self.check_config(config)
        key = (
            config.budget_mode,
            config.target_density,
            config.seed,
            config.capacity_margin,
        )
        cached = self._budgets.get(key)
        if cached is not None:
            return dict(cached)
        trc = tracer if tracer is not None else NULL_TRACER
        density = self._density_map(trc)
        with trc.span("prepare.budget", phase="budget", mode=config.budget_mode) as span:
            capacity = self.capacity(config.capacity_margin)
            target = config.target_density  # "mean" resolves in the back-end
            if config.budget_mode in ("lp", "hybrid"):
                for name, count in minvar_lp_size(self.dissection).items():
                    span.set(name, count)
            if config.budget_mode == "lp":
                budget = lp_minvar_budget(
                    density, capacity, self.fill_rules,
                    target_density=target, tracer=trc,
                )
            elif config.budget_mode == "hybrid":
                budget = hybrid_budget(
                    density,
                    capacity,
                    self.fill_rules,
                    target_density=target,
                    seed=config.seed,
                    tracer=trc,
                )
            else:
                budget = montecarlo_budget(
                    density,
                    capacity,
                    self.fill_rules,
                    target_density=target,
                    seed=config.seed,
                )
        self._budgets[key] = budget
        self.phase_seconds["budget"] = self.phase_seconds.get("budget", 0.0) + span.seconds
        return dict(budget)

    def check_config(self, config: "EngineConfig") -> None:
        """Raise :class:`FillError` if ``config`` disagrees with the
        geometry this instance was prepared under."""
        if config.fill_rules != self.fill_rules:
            raise FillError("prepared instance was built with different fill rules")
        if config.density_rules != self.density_rules:
            raise FillError("prepared instance was built with different density rules")
        if config.column_def is not self.column_def:
            raise FillError(
                f"prepared instance uses column definition {self.column_def}, "
                f"config asks for {config.column_def}"
            )

    def digest(self) -> str:
        """Content digest of the prepared state the solve phase consumes.

        Covers the geometry key (layer, rules, column definition), the
        dissection grid, the exact per-tile density bytes, and every
        slack column's full content — site rects, gap class, and both
        timing neighbors, serialized with the same helpers as the
        incremental cache's :func:`~repro.pilfill.incremental.tile_digest`
        (which leaves the site rects out). Two
        instances digest equal iff every downstream budget and tile
        solve is bit-identical, which makes this the equivalence oracle
        for the streaming preprocessor: ``prepare_streaming`` over a DEF
        must digest equal to :func:`prepare` over the materialized
        layout. Forces the (lazy) density build on first call.
        """
        from repro.pilfill.incremental import _rect_payload, _sha256

        d = self.dissection
        rules = self.fill_rules
        density_rules = self.density_rules
        tile_area = self.density.tile_area
        table = self.columns_by_tile
        columns: dict[str, list[dict[str, object]]] = {}
        for (ix, iy), cols in sorted(table.items()):
            columns[f"{ix},{iy}"] = [
                {
                    "col": col,
                    "sites": [_rect_payload(site) for site in sites],
                    "gap_um": gap_um,
                    "below": below,
                    "above": above,
                }
                for col, sites, (gap_um, below, above) in zip(
                    table.col[cols.lo : cols.hi].tolist(),
                    cols.sites(),
                    cols.electrical_fields(),
                    strict=True,
                )
            ]
        payload: dict[str, object] = {
            "layer": self.layer,
            "column_def": self.column_def.name,
            "fill_rules": [rules.fill_size, rules.fill_gap, rules.buffer_distance],
            "density_rules": [
                density_rules.window_size,
                density_rules.r,
                density_rules.min_density,
                density_rules.max_density,
            ],
            "die": _rect_payload(d.die),
            "grid": [d.nx, d.ny, d.tile_size],
            "tile_area": hashlib.sha256(
                np.ascontiguousarray(tile_area).tobytes()
            ).hexdigest(),
            "columns": columns,
        }
        return _sha256(payload)


def prepare(
    layout: RoutedLayout,
    layer: str,
    fill_rules: FillRules,
    density_rules: DensityRules,
    column_def: SlackColumnDef = SlackColumnDef.FULL_LAYOUT,
    tracer: TracerLike | None = None,
) -> PreparedInstance:
    """Run the shared preprocessing once and capture it.

    Performs the dissection, legality raster painting, and scan-line column
    extraction eagerly, in the ``prepare.setup`` / ``prepare.scanline``
    spans whose durations become ``phase_seconds["setup"]`` /
    ``["scanline"]``; the density map, cost tables, and budgets are
    derived lazily on first use. ``tracer``, when given, records those
    spans; without one they are timed on :data:`NULL_TRACER`.
    """
    if not layout.stack.has_layer(layer):
        raise FillError(f"layout stack has no layer {layer!r}")
    trc = tracer if tracer is not None else NULL_TRACER

    with trc.span("prepare.setup", phase="setup") as setup:
        dissection = FixedDissection(layout.die, density_rules)
        legality = SiteLegality(layout, layer, fill_rules)

    with trc.span("prepare.scanline", phase="scanline") as scan:
        columns_by_tile = extract_columns(
            layout, layer, dissection, legality, fill_rules, column_def
        )
        scan.set("tiles", len(columns_by_tile))
    phase_seconds = {"setup": setup.seconds, "scanline": scan.seconds}

    PreparedInstance.build_count += 1
    return PreparedInstance(
        layout=layout,
        layer=layer,
        fill_rules=fill_rules,
        density_rules=density_rules,
        column_def=column_def,
        dissection=dissection,
        legality=legality,
        columns_by_tile=columns_by_tile,
        phase_seconds=phase_seconds,
    )


def prepare_streaming(
    source: "str | IO[str] | Iterable[str]",
    stack: ProcessStack,
    layer: str,
    fill_rules: FillRules,
    density_rules: DensityRules,
    column_def: SlackColumnDef = SlackColumnDef.FULL_LAYOUT,
    tracer: TracerLike | None = None,
    banded: bool = False,
) -> PreparedInstance:
    """Build a :class:`PreparedInstance` straight from a DEF-lite source.

    The chip-scale entry point: nets are parsed, timed
    (:meth:`RCTree.build`), painted into the legality raster, the density
    accumulator, and the scan-line sweep one at a time, then discarded —
    the full net list is never resident. The result :meth:`digests
    <PreparedInstance.digest>` equal to ``prepare(parse_def(text), ...)``
    *by construction*: both paths drive the same
    :class:`~repro.pilfill.scanline.IncrementalSweep` state machine over
    the same globally ordered event sequence, insert the same blockage
    rects, and accumulate the same per-tile clip lists in the same
    (file) order.

    ``banded=True`` declares the input *band-sorted* (nets emitted in
    ascending bounding-box y-low, as the chip-scale T3 emitter writes
    them) and unlocks incremental sweep feeding on horizontal
    FULL_LAYOUT runs: whenever a net arrives whose bounding-box y-low
    ``b`` exceeds the previous watermark, every pending line below ``b``
    is complete (later geometry lies at or above ``b``), so its gap
    blocks are closed and gridded immediately and their memory released.
    A net arriving *below* an already-fed watermark voids the
    declaration and raises :class:`FillError` — fail loud, never emit
    columns a late rect could have invalidated. The default
    ``banded=False`` accepts arbitrarily ordered input (typical
    ``write_def`` output is net-insertion order, not band order) by
    collecting sweep lines and sweeping once at EOF — same state
    machine, one feed. Vertical layers and Definitions I/II always take
    the collect-then-sweep path (their sweeps cross the banding axis);
    parsing, legality, and density still stream net-by-net either way.

    The returned instance carries a *shell* layout (die, stack, fills —
    no nets): everything :meth:`PILFillEngine.run` consumes lives in the
    prepared state, but post-hoc evaluation against the routed nets
    (``evaluate_impact``) needs the materialized layout. Timing: under
    one ``prepare.stream`` span, the dissection and legality setup is a
    ``prepare.setup`` span; each net's work (tree build, blockage
    insertion, clip accumulation, sweep feeds) and the final sweep are
    ``prepare.scanline`` spans; the final per-tile union-area
    aggregation, pre-built eagerly here, is a ``prepare.density`` span.
    ``phase_seconds`` sums their durations per phase; parsing itself is
    in no phase.
    """
    if not stack.has_layer(layer):
        raise FillError(f"process stack has no layer {layer!r}")
    trc = tracer if tracer is not None else NULL_TRACER
    phase_seconds: dict[str, float] = {"setup": 0.0, "scanline": 0.0}

    horizontal = stack.layer(layer).direction == "h"
    dbu = stack.dbu_per_micron
    incremental = banded and horizontal and column_def is SlackColumnDef.FULL_LAYOUT

    dissection: FixedDissection | None = None
    legality: SiteLegality | None = None
    sweep: IncrementalSweep | None = None
    gridder: ColumnGridder | None = None
    pending: list[SweepLine] = []
    clips_by_tile: dict[TileKey, list[Rect]] = {}
    net_count = 0
    # Highest bbox-ylo at which lines were actually fed (and blocks
    # gridded): the commitment level the band-sorted contract protects.
    fed_watermark: int | None = None

    def _on_die(die: Rect) -> None:
        nonlocal dissection, legality, sweep, gridder
        with trc.span("prepare.setup", phase="setup") as span:
            dissection = FixedDissection(die, density_rules)
            legality = SiteLegality.from_rects(die, layer, fill_rules, [])
            if incremental:
                sweep = IncrementalSweep(die, horizontal)
                gridder = ColumnGridder(
                    layer, dissection, legality, fill_rules, horizontal, dbu
                )
        phase_seconds["setup"] += span.seconds

    def _consume(net: Net, start_line: int) -> None:
        nonlocal net_count, fed_watermark
        if dissection is None or legality is None:
            raise ParseError(
                "DIEAREA must precede NETS for streaming preparation", start_line
            )
        net_count += 1
        with trc.span("prepare.scanline", phase="scanline") as span:
            tree = RCTree.build(net, stack)
            for seg in net.segments:
                if seg.layer != layer:
                    continue
                rect = seg.rect
                legality.add_blockage(rect)
                clip_to_tiles(dissection, rect, clips_by_tile)
            pending.extend(
                SweepLine(rect=line.segment.rect, timing=line)
                for line in tree.lines
                if line.segment.layer == layer and line.segment.is_horizontal == horizontal
            )
            if sweep is not None and gridder is not None:
                ylo = net_ylo(net)
                if fed_watermark is not None and ylo < fed_watermark:
                    raise FillError(
                        f"net {net.name!r} (bbox y-low {ylo}) arrived below the fed "
                        f"sweep watermark {fed_watermark}; streamed input must be "
                        f"band-sorted — re-run with banded=False"
                    )
                # This net's own lines sit at or above its bbox y-low, so
                # splitting pending at `ylo` after extending is still exact.
                ready = [line for line in pending if line.rect.ylo < ylo]
                if ready:
                    pending[:] = [line for line in pending if line.rect.ylo >= ylo]
                    gridder.grid(sweep.feed(ready))
                    fed_watermark = ylo
        phase_seconds["scanline"] += span.seconds

    with trc.span("prepare.stream") as stream:
        shell = parse_def_streaming(
            source, stack, on_die=_on_die, on_net=_consume, keep_nets=False
        )
        assert dissection is not None and legality is not None

        with trc.span("prepare.scanline", phase="scanline") as span:
            if sweep is not None and gridder is not None:
                if pending:
                    gridder.grid(sweep.feed(pending))
                gridder.grid(sweep.finish())
                columns_by_tile = gridder.table()
            else:
                columns_by_tile = extract_columns_from_lines(
                    pending, horizontal, shell.die, dbu, layer, dissection, legality,
                    fill_rules, column_def,
                )
        phase_seconds["scanline"] += span.seconds

        with trc.span("prepare.density", phase="density") as span:
            density = DensityMap.from_tile_clips(dissection, clips_by_tile)
        phase_seconds["density"] = span.seconds
        stream.set("nets", net_count)
        stream.set("tiles", len(columns_by_tile))

    PreparedInstance.build_count += 1
    return PreparedInstance(
        layout=shell,
        layer=layer,
        fill_rules=fill_rules,
        density_rules=density_rules,
        column_def=column_def,
        dissection=dissection,
        legality=legality,
        columns_by_tile=columns_by_tile,
        phase_seconds=phase_seconds,
        _density=density,
    )
