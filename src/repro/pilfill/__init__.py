"""PIL-Fill: performance-impact limited area fill synthesis — the paper's
core contribution.

Public surface:

* :class:`PILFillEngine` / :class:`EngineConfig` — the end-to-end flow,
* :func:`prepare` / :class:`PreparedInstance` — the shared, reusable
  preprocessing (dissection, legality, scan-line columns, cost tables),
* :func:`dispatch_tile_payloads` — the per-tile solve dispatcher
  (in-process or the persistent process pool),
* :class:`SolutionCache` / :class:`SolutionStore` — the content-addressed
  tile-solution cache behind incremental ECO re-fill,
* :class:`ShardPlan` / :func:`plan_shards` — grid sharding along the
  dissection's cut lines (``EngineConfig.shards``: bounded peak memory,
  bit-identical merge),
* :class:`ImpactModel` / :func:`evaluate_impact` — the one delay-impact
  scorer (``evaluate_impact`` is a one-shot ``ImpactModel.score``),
* the per-tile methods (ILP-I, ILP-II, Greedy, marginal greedy, DP),
* the scan-line slack-column extraction (paper Fig. 7).
"""

from repro.pilfill.columns import (
    ColumnNeighbor,
    ColumnSites,
    ColumnTable,
    ElectricalColumn,
    SlackColumn,
    SlackColumnDef,
    TileColumns,
)
from repro.pilfill.costs import TileCosts, build_cost_views
from repro.pilfill.dp import (
    allocate_dp,
    allocate_marginal_greedy,
    allocate_marginal_greedy_scalar,
    allocation_cost,
)
from repro.pilfill.engine import METHODS, EngineConfig, FillResult, PILFillEngine
from repro.pilfill.methods import solve_tile_method, solve_tile_normal, trim_to
from repro.pilfill.evaluate import ImpactModel, ImpactReport, evaluate_impact
from repro.pilfill.budgeted import (
    BudgetedOutcome,
    delta_cap_ff,
    derive_net_cap_budgets,
    solve_tile_budgeted_greedy,
    solve_tile_budgeted_ilp,
)
from repro.pilfill.greedy import solve_tile_greedy, solve_tile_greedy_marginal
from repro.pilfill.incremental import (
    SolutionCache,
    cache_eligible,
    run_context_digest,
    tile_digest,
)
from repro.pilfill.localsearch import RefineResult, refine_placement
from repro.pilfill.multilayer import MultiLayerResult, run_all_layers
from repro.pilfill.mvdc import derive_tile_delay_budgets, solve_tile_mvdc
from repro.pilfill.parallel import (
    PARALLEL_BACKENDS,
    TileOutcome,
    TilePayload,
    chunk_payloads,
    dispatch_tile_payloads,
    get_pool,
    pool_stats,
    shutdown_pools,
    solve_tile_payload,
    tile_rng,
)
from repro.pilfill.prepare import PreparedInstance, prepare, prepare_streaming
from repro.pilfill.robust import (
    RobustSolve,
    SolveReport,
    fallback_chain,
    solve_tile_robust,
)
from repro.pilfill.shard import (
    GridShard,
    ShardPlan,
    plan_shards,
    result_digest,
)
from repro.pilfill.ilp1 import solve_tile_ilp1
from repro.pilfill.ilp2 import solve_tile_ilp2
from repro.pilfill.scanline import (
    ColumnGridder,
    GapBlock,
    IncrementalSweep,
    SweepLine,
    extract_columns,
    extract_columns_from_lines,
    layer_sweep_lines,
    sweep_gap_blocks,
)
from repro.pilfill.solution import TileSolution
from repro.pilfill.store import (
    STORE_VERSION,
    CachedEntry,
    SolutionStore,
    copy_solution,
    decode_entry,
    encode_entry,
)

__all__ = [
    "ColumnNeighbor",
    "ColumnSites",
    "ColumnTable",
    "ElectricalColumn",
    "SlackColumn",
    "SlackColumnDef",
    "TileColumns",
    "TileCosts",
    "build_cost_views",
    "allocate_dp",
    "allocate_marginal_greedy",
    "allocate_marginal_greedy_scalar",
    "allocation_cost",
    "solve_tile_method",
    "solve_tile_normal",
    "trim_to",
    "METHODS",
    "EngineConfig",
    "FillResult",
    "PILFillEngine",
    "chunk_payloads",
    "get_pool",
    "pool_stats",
    "shutdown_pools",
    "ImpactReport",
    "evaluate_impact",
    "solve_tile_greedy",
    "solve_tile_greedy_marginal",
    "BudgetedOutcome",
    "delta_cap_ff",
    "derive_net_cap_budgets",
    "solve_tile_budgeted_greedy",
    "solve_tile_budgeted_ilp",
    "derive_tile_delay_budgets",
    "solve_tile_mvdc",
    "PARALLEL_BACKENDS",
    "TileOutcome",
    "TilePayload",
    "dispatch_tile_payloads",
    "solve_tile_payload",
    "tile_rng",
    "PreparedInstance",
    "prepare",
    "prepare_streaming",
    "RobustSolve",
    "SolveReport",
    "fallback_chain",
    "solve_tile_robust",
    "GridShard",
    "ShardPlan",
    "plan_shards",
    "result_digest",
    "MultiLayerResult",
    "run_all_layers",
    "ImpactModel",
    "RefineResult",
    "refine_placement",
    "solve_tile_ilp1",
    "solve_tile_ilp2",
    "ColumnGridder",
    "GapBlock",
    "IncrementalSweep",
    "SweepLine",
    "extract_columns",
    "extract_columns_from_lines",
    "layer_sweep_lines",
    "sweep_gap_blocks",
    "TileSolution",
    "SolutionCache",
    "cache_eligible",
    "run_context_digest",
    "tile_digest",
    "STORE_VERSION",
    "CachedEntry",
    "SolutionStore",
    "copy_solution",
    "decode_entry",
    "encode_entry",
]
