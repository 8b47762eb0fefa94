"""End-to-end PIL-Fill engine (paper Sections 5-6 flow).

Pipeline per layer:

1. build the fixed r-dissection and (lazily) the pre-fill density map,
2. compute per-tile fill budgets with the density-control baseline
   (Min-Var LP or Monte-Carlo, ref [3]),
3. run the scan-line to extract slack columns (definition I/II/III),
4. clamp budgets to column capacity (the definition-I/II shortfall the
   paper describes surfaces here),
5. solve each tile's MDFC instance with the chosen method and place the
   features into column sites,
6. return the placement plus bookkeeping (budgets, per-tile solutions,
   phase and per-tile runtimes).

Steps 1 and 3 (plus cost-table construction) depend only on the layout
geometry and rules, not on the method: they live in a
:class:`~repro.pilfill.prepare.PreparedInstance` that is built once and
shared across runs — pass one to the constructor to reuse it (the
experiment harness does this so every method of a configuration shares a
single preprocessing pass). Step 5 is embarrassingly parallel across
tiles. :meth:`PILFillEngine.run` is the one solve loop: it walks the
grid shard by shard (one shard by default), looks tiles up in the
solution cache, sends the misses through
:func:`~repro.pilfill.parallel.dispatch_tile_payloads` (in-process for
``workers=1``, the persistent process pool otherwise), and merges in
global dissection order, so every worker and shard count is
bit-identical to serial. :meth:`PILFillEngine.run_mvdc` is the same loop
with the MVDC per-tile strategy; :meth:`PILFillEngine.run_budgeted`
keeps its own serial, capacity-ordered visit but shares the merge.

The engine never mutates the input layout; callers evaluate placements
with :func:`repro.pilfill.evaluate.evaluate_impact` and may attach the
features via ``layout.add_fill`` afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.errors import FillError, SolveTimeoutError
from repro.ilp import ILP_BACKENDS
from repro.layout.layout import FillFeature, RoutedLayout
from repro.obs.metrics import NULL_METRICS, MetricsLike
from repro.obs.telemetry import Telemetry
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.pilfill.budgeted import (
    delta_cap_ff,
    solve_tile_budgeted_greedy,
    solve_tile_budgeted_ilp,
)
from repro.pilfill.columns import SlackColumnDef, TileColumns
from repro.pilfill.costs import TileCosts
from repro.pilfill.incremental import (
    SolutionCache,
    cache_eligible,
    run_context_digest,
    tile_digest,
)
from repro.pilfill.mvdc import derive_tile_delay_budgets
from repro.pilfill.parallel import (
    PARALLEL_BACKENDS,
    TileOutcome,
    TilePayload,
    dispatch_tile_payloads,
)
from repro.pilfill.prepare import PreparedInstance, prepare
from repro.pilfill.robust import (
    SolveReport,
    effective_time_limit,
    failed_report,
)
from repro.pilfill.shard import plan_shards
from repro.pilfill.solution import TileSolution
from repro.tech.rules import DensityRules, FillRules
from repro.testing.faults import FaultSpec

TileKey = tuple[int, int]

#: The method names the engine accepts.
METHODS = ("normal", "ilp1", "ilp2", "greedy", "greedy_marginal", "dp")

#: Phase keys every run reports (per-tile solve times live in
#: ``FillResult.tile_seconds``).
PHASES = ("setup", "scanline", "density", "costs", "budget", "solve")


@dataclass
class EngineConfig:
    """Configuration of one PIL-Fill run.

    Attributes:
        fill_rules: fill feature size / gap / buffer distance.
        density_rules: window size, dissection value r, density bounds.
        method: one of :data:`METHODS`.
        weighted: sink-weighted (True, Table 2) or per-segment (False,
            Table 1) objective.
        column_def: slack-column definition (paper §5.1); III by default.
        budget_mode: ``"lp"`` (Min-Var LP), ``"montecarlo"`` (randomized
            greedy), or ``"hybrid"`` (LP first, Monte-Carlo top-up of the
            rounding shortfall — the iterated back-end of ref [3]).
        target_density: density floor the budget step aims for. A float is
            used directly; ``"mean"`` resolves to the pre-fill mean window
            density; None maximizes uniformity with no cap (can consume all
            slack, leaving the methods little freedom).
        capacity_margin: fraction of each tile's slack capacity the budget
            step may prescribe (≤ 1). Real flows keep headroom below 100%
            utilization; for the reproduction it also guarantees every
            budgeted tile retains site choice, so methods stay
            distinguishable at fine dissections.
        backend: ILP backend for the ILP methods: ``"bundled"``,
            ``"scipy"`` or ``"auto"`` (see :func:`repro.ilp.solve`).
        seed: seed for the Normal placement / Monte-Carlo budget. Each
            tile derives its own RNG from ``(seed, tile key)``, so
            stochastic methods are reproducible regardless of tile
            iteration order or worker count.
        workers: per-tile solver parallelism. 1 (default) solves tiles
            in-process; N > 1 ships them as compact picklable payloads
            (each tile's cost tables + budget + seed + deadlines, no
            layout objects) in auto-sized chunks to the persistent
            N-worker process pool (created lazily, reused across runs;
            release it with
            :func:`repro.pilfill.parallel.shutdown_pools`). Results are
            bit-identical to serial for every method.
        parallel_backend: ``"process"``, the only pool kind. The field
            stays because existing callers construct configurations that
            name it — the ``table_t2_p2`` benchmark workload passes
            ``parallel_backend="process"``.
        tile_deadline_s: wall-clock deadline per tile solve (seconds).
            An ILP attempt exceeding it surfaces ``TIME_LIMIT`` and the
            tile degrades down the fallback chain (ILP-II → ILP-I →
            Greedy). ``None`` (default) → unlimited.
        run_deadline_s: wall-clock deadline for the whole solve phase.
            Each tile's effective limit is the smaller of the tile
            deadline and the remaining run time; tiles starting after
            the deadline are recorded as failed (zero features), never
            solved. ``None`` (default) → unlimited.
        fallback: True (default) → robust solving: per-tile failures
            degrade to cheaper methods, crashed workers are retried once
            with the same derived RNG, and the sweep always completes,
            with every substitution recorded in
            ``FillResult.solve_reports``. False → strict mode: a
            one-rung chain with no retry, so the first failure
            propagates (on the pool too). Successful solves are identical either way.
        fault_spec: deterministic fault injection for tests (see
            :mod:`repro.testing.faults`); ``None`` in production.
        telemetry: True → record tracing spans and metrics for the run
            (see :mod:`repro.obs`) and attach them to the result for
            ``FillResult.to_report()``. False (default) → the null
            tracer: spans are still timed, so ``phase_seconds`` is
            filled, but nothing is recorded; solver results are
            bit-identical either way.
        solution_cache: content-addressed tile-solution cache for
            incremental ECO re-fill (see
            :mod:`repro.pilfill.incremental`). Tiles whose solve inputs
            hash to a cached entry are merged from the cache and never
            dispatched (pool chunks shrink accordingly);
            misses are solved normally and recorded. Cached results are
            bit-identical to cold solves by construction. ``None``
            (default) → no caching. Ignored (with zeroed counters) when
            a tile/run deadline makes outcomes wall-clock-dependent.
        shards: partition the solve phase into this many row-band shards
            along the dissection's window cut lines (see
            :mod:`repro.pilfill.shard`). Each shard builds only its own
            cost tables, which ride in its tile payloads, so peak memory
            holds one band instead of the grid; all shards share one
            warm persistent pool, and the merge is bit-identical to the
            unsharded run — sharding is a scheduling knob, excluded from
            :func:`~repro.pilfill.incremental.run_context_digest` like
            ``workers``. 1 (default) → one shard holding the grid, whose
            cost tables stay memoized on the prepared instance. Honored
            by :meth:`PILFillEngine.run` and
            :meth:`PILFillEngine.run_mvdc`; rejected by
            :meth:`PILFillEngine.run_budgeted`.
    """

    fill_rules: FillRules
    density_rules: DensityRules
    method: str = "ilp2"
    weighted: bool = True
    column_def: SlackColumnDef = SlackColumnDef.FULL_LAYOUT
    budget_mode: str = "lp"
    target_density: float | str | None = "mean"
    capacity_margin: float = 0.7
    backend: str = "auto"
    seed: int = 0
    workers: int = 1
    parallel_backend: str = "process"
    tile_deadline_s: float | None = None
    run_deadline_s: float | None = None
    fallback: bool = True
    fault_spec: FaultSpec | None = None
    telemetry: bool = False
    solution_cache: SolutionCache | None = None
    shards: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise FillError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.budget_mode not in ("lp", "montecarlo", "hybrid"):
            raise FillError(f"unknown budget mode {self.budget_mode!r}")
        if isinstance(self.target_density, str) and self.target_density != "mean":
            raise FillError(
                f"target_density must be a float, None, or 'mean'; got {self.target_density!r}"
            )
        if not 0.0 < self.capacity_margin <= 1.0:
            raise FillError(
                f"capacity_margin must be in (0, 1], got {self.capacity_margin}"
            )
        if self.workers < 1:
            raise FillError(f"workers must be >= 1, got {self.workers}")
        if self.shards < 1:
            raise FillError(f"shards must be >= 1, got {self.shards}")
        if self.backend not in ILP_BACKENDS:
            raise FillError(
                f"unknown ILP backend {self.backend!r}; expected one of {ILP_BACKENDS}"
            )
        if self.parallel_backend not in PARALLEL_BACKENDS:
            raise FillError(
                f"unknown parallel backend {self.parallel_backend!r}; "
                f"expected one of {PARALLEL_BACKENDS}"
            )
        for name in ("tile_deadline_s", "run_deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise FillError(f"{name} must be positive, got {value}")


@dataclass
class FillResult:
    """Outcome of one engine run.

    ``phase_seconds`` covers every phase in :data:`PHASES`, each the self
    time of its phase spans (spans with a ``phase`` attribute): a span's
    duration less that of the phase spans nested in it, so every second
    counts under one phase. Preprocessing phases report the (once-paid)
    cost recorded on the shared :class:`PreparedInstance`, so a run that
    reuses preparation still shows what that preparation cost; ``solve``
    is this run's ``engine.run`` / ``engine.run_budgeted`` span less any
    budget, density or cost-table build inside it. ``tile_seconds``
    breaks the solve phase down per tile. ``telemetry`` holds the run's
    tracer + metrics when ``EngineConfig.telemetry`` was set (``None``
    otherwise).
    ``cache_stats`` holds this run's solution-cache counter deltas
    (hits/misses/stores/invalidated) when a cache was active, ``None``
    otherwise.
    """

    features: list[FillFeature] = field(default_factory=list)
    requested_budget: dict[tuple[int, int], int] = field(default_factory=dict)
    effective_budget: dict[tuple[int, int], int] = field(default_factory=dict)
    tile_solutions: dict[tuple[int, int], TileSolution] = field(default_factory=dict)
    model_objective_ps: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    tile_seconds: dict[tuple[int, int], float] = field(default_factory=dict)
    solve_reports: dict[tuple[int, int], SolveReport] = field(default_factory=dict)
    telemetry: Telemetry | None = None
    cache_stats: dict[str, int] | None = None

    def to_report(self, config: EngineConfig | None = None) -> dict[str, object]:
        """Export the run as a ``pilfill-run-report/v1`` JSON-ready dict
        (see :mod:`repro.obs.report`); ``config`` adds the configuration
        section when given."""
        from repro.obs.report import run_report

        return run_report(self, config)

    @property
    def total_features(self) -> int:
        return len(self.features)

    @property
    def degraded_tiles(self) -> list[tuple[int, int]]:
        """Tiles solved by a cheaper method than requested (sorted)."""
        return sorted(k for k, r in self.solve_reports.items() if r.degraded)

    @property
    def failed_tiles(self) -> list[tuple[int, int]]:
        """Tiles where every method/attempt failed — zero features placed
        there, the rest of the sweep unaffected (sorted)."""
        return sorted(k for k, r in self.solve_reports.items() if r.failed)

    @property
    def retried_tiles(self) -> list[tuple[int, int]]:
        """Tiles whose outcome needed at least one dispatcher retry."""
        return sorted(k for k, r in self.solve_reports.items() if r.retries > 0)

    @property
    def clean(self) -> bool:
        """True when no tile degraded, failed, or needed a retry."""
        return not any(
            r.degraded or r.failed or r.retries > 0 for r in self.solve_reports.values()
        )

    @property
    def shortfall(self) -> int:
        """Features the density step asked for that no slack column could
        hold (the paper's definition-I/II weakness)."""
        return sum(self.requested_budget.values()) - sum(self.effective_budget.values())

    @property
    def solve_seconds(self) -> float:
        """Time in the per-tile optimization phase (the paper's CPU
        column measures the method, not the shared preprocessing)."""
        return self.phase_seconds.get("solve", 0.0)


class PILFillEngine:
    """Runs the full PIL-Fill flow on one layer of a layout.

    Args:
        layout: the routed design (never mutated).
        layer: routing layer to fill.
        config: run configuration.
        prepared: shared preprocessing to reuse. When omitted, it is
            built on first use (and exposed as :attr:`prepared` so a
            caller can hand it to further engines). A prepared instance
            whose geometry keys disagree with ``config`` is rejected.
    """

    def __init__(
        self,
        layout: RoutedLayout,
        layer: str,
        config: EngineConfig,
        prepared: PreparedInstance | None = None,
    ):
        if not layout.stack.has_layer(layer):
            raise FillError(f"layout stack has no layer {layer!r}")
        if prepared is not None:
            if prepared.layout is not layout or prepared.layer != layer:
                raise FillError("prepared instance belongs to a different layout/layer")
            prepared.check_config(config)
        self.layout = layout
        self.layer = layer
        self.config = config
        self._prepared = prepared

    @property
    def prepared(self) -> PreparedInstance:
        """The shared preprocessing, building it on first access."""
        if self._prepared is None:
            self._prepared = self.prepare()
        return self._prepared

    def prepare(self, tracer: TracerLike | None = None) -> PreparedInstance:
        """Build a fresh :class:`PreparedInstance` for this engine's key."""
        cfg = self.config
        return prepare(
            self.layout, self.layer, cfg.fill_rules, cfg.density_rules, cfg.column_def,
            tracer=tracer,
        )

    def _prepared_traced(self, tracer: TracerLike) -> PreparedInstance:
        """Like :attr:`prepared`, but a first-time build records spans."""
        if self._prepared is None:
            self._prepared = self.prepare(tracer=tracer)
        return self._prepared

    def _placed(self, columns: TileColumns, outcome: TileOutcome) -> list[FillFeature]:
        """The features one tile's outcome places on its slack ``columns``
        (the prepared instance's, index-aligned with the cost tables):
        explicit sampled sites when the method recorded them, column-prefix
        sites otherwise, and none for a failed tile. The placed sites'
        rects are read from the column table; no column object is built."""
        solution = outcome.value
        if solution is None:
            return []
        picks = [(k, s) for k in range(len(columns)) for s in solution.sites_for(k)]
        return [FillFeature(layer=self.layer, rect=rect) for rect in columns.site_rects(picks)]

    def run(self, budget: dict[TileKey, int] | None = None) -> FillResult:
        """Execute the flow. ``budget`` overrides the density step when
        given (used to hold density control identical across methods);
        the override also skips building the density map entirely.

        With ``config.shards > 1`` the solve phase runs shard by shard —
        bounded peak memory, bit-identical results (see :meth:`_run`)."""
        return self._run(budget, slack_fraction=None)

    def run_mvdc(self, slack_fraction: float = 0.25) -> FillResult:
        """Run the MVDC (minimum variation with delay constraint) variant
        — the formulation the paper mentions in footnote ‡ but does not
        develop.

        Per tile, the density step's prescription becomes a *ceiling*
        rather than an obligation: the solver packs as many features as a
        per-tile delay budget allows (derived as ``slack_fraction`` of the
        worst-case impact of the prescribed count). Tiles with generous
        free space still fill fully; tiles where every site is expensive
        stop early — trading density uniformity for timing safety. Each
        tile's effective budget is the count it placed.

        The same loop as :meth:`run`, so ``workers``, ``shards``, the
        solution cache (under keys no MDFC run can produce), deadlines,
        fault injection and telemetry all apply. ``tile_deadline_s`` is
        rejected: the per-tile solve is one greedy pass with no solver
        time limit to enforce.
        """
        if self.config.tile_deadline_s is not None:
            raise FillError(
                "run_mvdc does not support tile_deadline_s: its per-tile "
                "solve is one greedy pass with no time limit to enforce"
            )
        return self._run(None, slack_fraction=slack_fraction)

    def _run(
        self, budget: dict[TileKey, int] | None, slack_fraction: float | None
    ) -> FillResult:
        """The one solve loop: MDFC, or MVDC when ``slack_fraction`` is set.

        The density budget is derived once, globally — sharding is a
        solve scheduling choice and must not perturb density control.
        Then per shard: build the shard's cost tables, cap each tile's
        prescription (MDFC: at its column capacity; MVDC: the
        prescription is the ceiling and a delay budget bounds the
        impact), look the tiles to solve up in the solution cache,
        dispatch the misses, and place each tile's features while the
        shard's tables are alive. A final pass in global dissection order
        merges every outcome, so feature order, float accumulation, and
        telemetry absorption are identical for any shard or worker count.
        Cache recording and stats deltas happen once, after the merge.
        """
        cfg = self.config
        mvdc = slack_fraction is not None
        method = "mvdc" if mvdc else cfg.method
        result, tracer, metrics = self._start()
        prep = self._prepared_traced(tracer)
        plan = plan_shards(prep, n_shards=cfg.shards)
        charged = sum(prep.phase_seconds.values())

        with tracer.span(
            "engine.run", phase="solve", method=method, backend=cfg.backend,
            workers=cfg.workers, shards=plan.n_shards,
        ) as run_span:
            if budget is None:
                budget = prep.budget_for(cfg, tracer=tracer)
            result.requested_budget = dict(budget)

            run_deadline = self._run_deadline()
            cache = (
                cfg.solution_cache
                if cfg.solution_cache is not None and cache_eligible(cfg)
                else None
            )
            stats_before = cache.stats() if cache is not None else {}
            context = (
                run_context_digest(cfg, self.layer, slack_fraction)
                if cache is not None
                else ""
            )
            caps: dict[TileKey, int] = {}
            digests: dict[TileKey, str] = {}
            dispatched: list[TileKey] = []
            outcomes: dict[TileKey, TileOutcome] = {}
            # Per-tile merge inputs, buffered while the owning shard's
            # cost tables are alive; the global-order pass consumes them.
            placed: dict[TileKey, list[FillFeature]] = {}
            n_columns: dict[TileKey, int] = {}

            for shard in plan.shards:
                with tracer.span(
                    "shard", key=shard.key, rows=shard.rows, tiles=shard.tile_count
                ):
                    # One shard is the whole grid: memoized on the prepared
                    # instance and shared by every run over it.
                    costs_by_tile = prep.costs_for(
                        cfg.weighted,
                        None if plan.n_shards == 1 else shard.tile_keys,
                        tracer=tracer,
                    )
                    solve_keys: list[TileKey] = []
                    for key in shard.tile_keys:
                        costs = costs_by_tile.get(key)
                        want = budget.get(key, 0)
                        if not costs:
                            caps[key] = 0
                        else:
                            caps[key] = want if mvdc else min(want, costs.capacity)
                        if caps[key] > 0:
                            solve_keys.append(key)
                    delay_budgets = (
                        derive_tile_delay_budgets(budget, costs_by_tile, slack_fraction)
                        if slack_fraction is not None
                        else None
                    )

                    # Cache hits become ready-made outcomes; only misses
                    # reach the dispatcher, so an all-hit run never
                    # touches a pool.
                    dispatch_keys = solve_keys
                    if cache is not None:
                        dispatch_keys = []
                        for key in solve_keys:
                            digest = tile_digest(
                                context, key, costs_by_tile[key], caps[key]
                            )
                            digests[key] = digest
                            hit = cache.lookup(digest)
                            if hit is None:
                                dispatch_keys.append(key)
                            else:
                                outcomes[key] = TileOutcome(
                                    key=key, value=hit[0], seconds=0.0, report=hit[1]
                                )

                    with tracer.span(
                        "solve",
                        tiles=len(solve_keys),
                        cached=len(solve_keys) - len(dispatch_keys),
                        shard=shard.key,
                    ):
                        outcomes.update(
                            self._dispatch(
                                dispatch_keys, method, costs_by_tile, caps,
                                delay_budgets, run_deadline, tracer, metrics,
                            )
                        )
                    dispatched.extend(dispatch_keys)
                    for key in solve_keys:
                        n_columns[key] = len(costs_by_tile[key])
                        placed[key] = self._placed(prep.columns_by_tile[key], outcomes[key])
                    # A shard's tables are released before the next
                    # shard builds its own.
                    del costs_by_tile

            for key in prep.dissection.tile_keys():
                result.effective_budget[key] = caps[key]
                if key not in placed:
                    continue
                solution = self._merge_outcome(
                    result, key, outcomes[key], placed[key], n_columns[key],
                    method, tracer, metrics,
                )
                if mvdc:
                    result.effective_budget[key] = solution.total_features

            if cache is not None:
                # Record only non-failed fresh solves: failures must
                # re-run (deterministically) rather than replay, and the
                # stored report keeps the priming run's retry history so
                # a warm merge reproduces the cold report bit-for-bit.
                for key in dispatched:
                    if not outcomes[key].failed:
                        cache.record(
                            digests[key],
                            result.tile_solutions[key],
                            result.solve_reports[key],
                        )
                cache.remember_run(digests)
                stats_after = cache.stats()
                result.cache_stats = {
                    name: stats_after[name] - stats_before.get(name, 0)
                    for name in stats_after
                }
                for name, delta in result.cache_stats.items():
                    metrics.count(f"cache.{name}", delta)
        self._finish(result, metrics, run_span.seconds, charged)
        return result

    def _dispatch(
        self,
        keys: list[TileKey],
        method: str,
        costs_by_tile: Mapping[TileKey, TileCosts],
        caps: Mapping[TileKey, int],
        delay_budgets: Mapping[TileKey, float] | None,
        run_deadline: float | None,
        tracer: TracerLike,
        metrics: MetricsLike,
    ) -> dict[TileKey, TileOutcome]:
        """Solve ``keys`` through :func:`dispatch_tile_payloads`, one
        :class:`TileOutcome` per key.

        Every payload carries its own tile's cost tables and column view,
        so a shard's tables ride in its payloads and die with them; a
        serial solve reads them as they are, and a pool payload pickles
        the view as a one-tile column table.
        """
        cfg = self.config
        payloads = [
            TilePayload(
                key=key,
                method=method,
                budget=caps[key],
                weighted=cfg.weighted,
                ilp_backend=cfg.backend,
                seed=cfg.seed,
                costs=costs_by_tile[key],
                delay_budget_ps=None if delay_budgets is None else delay_budgets[key],
                tile_deadline_s=cfg.tile_deadline_s,
                run_deadline=run_deadline,
                fault_spec=cfg.fault_spec,
                fallback=cfg.fallback,
                telemetry=cfg.telemetry,
            )
            for key in keys
        ]
        return dispatch_tile_payloads(
            payloads,
            workers=cfg.workers,
            tracer=tracer,
            metrics=metrics,
        )

    def _start(self) -> tuple[FillResult, TracerLike, MetricsLike]:
        """A fresh result plus the run's tracer and metrics (no-ops
        unless ``config.telemetry``)."""
        telemetry = Telemetry() if self.config.telemetry else None
        if telemetry is None:
            return FillResult(), NULL_TRACER, NULL_METRICS
        return FillResult(telemetry=telemetry), telemetry.tracer, telemetry.metrics

    def _finish(
        self, result: FillResult, metrics: MetricsLike, run_seconds: float, charged: float
    ) -> None:
        """Fill ``phase_seconds`` and record the run-level metrics.
        ``solve`` is the run span's self time: ``run_seconds`` less the
        preparation phases charged since their total was ``charged``."""
        prep = self.prepared
        for phase in PHASES:
            result.phase_seconds[phase] = prep.phase_seconds.get(phase, 0.0)
        nested = sum(prep.phase_seconds.values()) - charged
        result.phase_seconds["solve"] = run_seconds - nested
        metrics.count("features.placed", result.total_features)
        for name, hits in prep.lut_stats.items():
            metrics.count(f"lut.{name}", hits)

    def _run_deadline(self) -> float | None:
        """Absolute epoch the solve phase must finish by (``time.time()``
        based so worker processes share the same clock)."""
        if self.config.run_deadline_s is None:
            return None
        return time.time() + self.config.run_deadline_s

    def _merge_outcome(
        self,
        result: FillResult,
        key: TileKey,
        outcome: TileOutcome,
        placed: list[FillFeature],
        n_columns: int,
        method: str,
        tracer: TracerLike,
        metrics: MetricsLike,
    ) -> TileSolution:
        """Fold one tile's outcome into the result: its placed features,
        timings and solve report, the tile's telemetry buffer, and — for a
        failed tile — an explicit empty ``n_columns``-wide solution (zero
        features) rather than a crash. Returns the merged solution.

        Every successful outcome carries its report (the robust layer,
        the cache and the budgeted solve all produce one), so
        ``FillResult.clean`` is grounded in evidence for every mode.
        """
        tracer.absorb(outcome.spans)
        metrics.merge(outcome.metrics)
        if outcome.value is None:
            solution = TileSolution(counts=[0] * n_columns)
            report = failed_report(
                key, method, outcome.retries, outcome.error,
                prior_errors=outcome.error_chain,
            )
            metrics.count("tiles.failed")
        else:
            solution = outcome.value
            if outcome.report is None:
                raise FillError(f"tile {key} solved without a solve report")
            report = outcome.report
            metrics.count("tiles.solved")
            if report.degraded:
                metrics.count("tiles.degraded")
        if outcome.retries > 0:
            metrics.count("tiles.retried")
        metrics.observe("tile.seconds", outcome.seconds)
        result.solve_reports[key] = report
        result.tile_solutions[key] = solution
        result.tile_seconds[key] = outcome.seconds
        result.model_objective_ps += solution.model_objective_ps
        result.features.extend(placed)
        return solution

    def run_budgeted(
        self,
        net_budgets_ff: dict[str, float],
        exact: bool = True,
    ) -> FillResult:
        """Run the per-net capacitance-budgeted variant (paper §7).

        Like :meth:`run`, but each net's total added coupling capacitance
        (across *all* tiles) must stay within ``net_budgets_ff``. Budgets
        are consumed tile by tile: each tile solve sees the remaining
        budget of every net it touches and what it uses is deducted before
        the next tile. Tiles are visited in increasing total-capacity
        order so constrained tiles claim budget before generous ones.
        This hand-off is inherently serial, so the run rejects the knobs
        that would need independent tiles — ``workers > 1``,
        ``shards > 1``, ``solution_cache`` — and those of the robust
        per-tile layer it does not use (``fallback=False``,
        ``fault_spec``) with :class:`FillError`. Deadlines and telemetry
        apply; outcomes merge like :meth:`run`'s, and each tile's
        effective budget is the count it placed.

        Args:
            net_budgets_ff: ΔC budget per net name, fF (see
                :func:`repro.pilfill.budgeted.derive_net_cap_budgets`).
                Nets absent from the mapping are unconstrained.
            exact: True → per-tile ILP; False → budget-aware greedy (may
                fall short of a tile's prescription; the shortfall is
                visible via ``FillResult.shortfall``).
        """
        cfg = self.config
        for knob, rejected in (
            ("workers > 1", cfg.workers > 1),
            ("shards > 1", cfg.shards > 1),
            ("solution_cache", cfg.solution_cache is not None),
            ("fallback=False", not cfg.fallback),
            ("fault_spec", cfg.fault_spec is not None),
        ):
            if rejected:
                raise FillError(f"run_budgeted does not support {knob}")
        method = "budgeted_ilp" if exact else "budgeted_greedy"
        result, tracer, metrics = self._start()
        prep = self._prepared_traced(tracer)
        charged = sum(prep.phase_seconds.values())

        with tracer.span(
            "engine.run_budgeted", phase="solve", method=method, backend=cfg.backend
        ) as run_span:
            budget = prep.budget_for(cfg, tracer=tracer)
            result.requested_budget = dict(budget)

            costs_by_tile = prep.costs_for(cfg.weighted, tracer=tracer)
            run_deadline = self._run_deadline()
            remaining = dict(net_budgets_ff)
            capacity = prep.capacity()
            order = sorted(prep.dissection.tile_keys(), key=capacity.__getitem__)
            with tracer.span("solve"):
                for key in order:
                    costs = costs_by_tile.get(key)
                    effective = min(budget.get(key, 0), costs.capacity) if costs else 0
                    result.effective_budget[key] = 0
                    if effective == 0:
                        continue
                    with tracer.span("tile", tile=key, method=method) as tile_span:
                        outcome = self._solve_budgeted(
                            key, costs, effective, remaining, method, run_deadline
                        )
                    outcome = replace(outcome, seconds=tile_span.seconds)
                    solution = self._merge_outcome(
                        result, key, outcome, self._placed(prep.columns_by_tile[key], outcome),
                        len(costs), method, tracer, metrics,
                    )
                    result.effective_budget[key] = solution.total_features
        self._finish(result, metrics, run_span.seconds, charged)
        return result

    def _solve_budgeted(
        self,
        key: TileKey,
        costs: TileCosts,
        effective: int,
        remaining: dict[str, float],
        method: str,
        run_deadline: float | None,
    ) -> TileOutcome:
        """Solve one budgeted tile and deduct the capacitance it used from
        ``remaining``. A run deadline that already passed fails the tile
        without solving it. The outcome's ``seconds`` is left 0.0: the
        caller's ``tile`` span times the call."""
        try:
            time_limit = effective_time_limit(self.config.tile_deadline_s, run_deadline)
        except SolveTimeoutError as exc:
            return TileOutcome(key=key, value=None, seconds=0.0, error=f"TIME_LIMIT: {exc}")
        cap_ff = delta_cap_ff(costs, self.config.weighted)
        report = SolveReport(key=key, requested_method=method, used_method=method)
        if method == "budgeted_ilp":
            outcome = solve_tile_budgeted_ilp(
                costs, cap_ff, effective, remaining,
                backend=self.config.backend, time_limit=time_limit,
            )
            if not outcome.feasible:
                # Fall back to the largest feasible count via greedy
                # (covers infeasible budgets and ILP timeouts alike).
                outcome = solve_tile_budgeted_greedy(costs, cap_ff, effective, remaining)
                report = SolveReport(
                    key=key,
                    requested_method=method,
                    used_method="budgeted_greedy",
                    errors=("budgeted_ilp: not feasible within budgets/deadline",),
                )
        else:
            outcome = solve_tile_budgeted_greedy(costs, cap_ff, effective, remaining)
        for net, used in outcome.cap_used_ff.items():
            if net in remaining:
                remaining[net] -= used
        return TileOutcome(key=key, value=outcome.solution, seconds=0.0, report=report)

    def compute_budget(self) -> dict[TileKey, int]:
        """Per-tile feature budgets from the density-control baseline
        (thin wrapper over :meth:`PreparedInstance.budget_for`)."""
        return self.prepared.budget_for(self.config)
