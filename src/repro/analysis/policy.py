"""Project policy consumed by the analysis rules.

The rules themselves are generic AST walkers; everything repo-specific —
which packages forbid float equality, which modules may read the wall
clock, which classes cross the process-pool boundary — lives here so the
fixture tests can swap in a custom policy and the rule catalog stays
data-driven.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _default_taint_sinks() -> tuple[str, ...]:
    return (
        # Content-digest helpers: anything nondeterministic reaching one
        # of these poisons a cache key / store digest far from its source.
        "repro.pilfill.incremental._sha256",
        "repro.pilfill.incremental.run_context_digest",
        "repro.pilfill.incremental.tile_digest",
        "repro.io.deflite.layout_digest",
    )


def _default_worker_entry_functions() -> tuple[str, ...]:
    return (
        # Everything a pool worker actually executes hangs off these.
        "repro.pilfill.parallel.solve_tile_batch",
        "repro.pilfill.parallel.solve_tile_payload",
        "repro.pilfill.parallel._solve_payload_isolated",
    )


def _default_payload_registry() -> tuple[str, ...]:
    return (
        # Shipped to pool workers (the request side of the boundary).
        "repro.pilfill.parallel.TilePayload",
        "repro.pilfill.costs.TileCosts",
        # A tile's cost tables hold its view of the layer's column table,
        # which pickles as a one-tile table of its own.
        "repro.pilfill.columns.TileColumns",
        "repro.pilfill.columns.ColumnTable",
        "repro.testing.faults.FaultSpec",
        "repro.testing.faults.FaultRule",
        # Returned from pool workers (the response side).
        "repro.pilfill.parallel.TileOutcome",
        "repro.pilfill.solution.TileSolution",
        "repro.pilfill.robust.SolveReport",
        "repro.pilfill.robust.RobustSolve",
        # Solution-cache entries (a future pilfill serve ships hits
        # across the same boundary).
        "repro.pilfill.store.CachedEntry",
        # Telemetry buffers marshalled back inside TileOutcome/RobustSolve.
        "repro.obs.trace.SpanRecord",
        "repro.obs.metrics.MetricsSnapshot",
        "repro.obs.metrics.TimerStat",
    )


@dataclass(frozen=True)
class LintPolicy:
    """Repo-specific scopes and allowlists for the rule families.

    Attributes:
        float_eq_packages: dotted package prefixes where ``==`` / ``!=``
            against floats is forbidden (D104).
        wall_clock_allowlist: modules allowed to read the wall clock
            (D102) — deadline enforcement, per-tile timing across the
            process boundary, and the telemetry clock live here.
        payload_registry: dotted class names that cross the process-pool
            pickle boundary; C202 requires each to be a dataclass with
            picklable-by-construction field types.
        picklable_type_names: type names C202 accepts in payload field
            annotations, beyond the registry classes themselves.
        rng_factory_names: callables D101 accepts as *seeded* RNG
            constructors (their first positional argument is the seed).
        taint_sink_functions: dotted function names whose inputs feed a
            content digest; the X101 interprocedural taint pass reports
            any call chain from a nondeterminism source into one of
            these (payload-registry constructors are sinks too).
        pool_dispatch_functions: dotted function names that hand work to
            a process pool; X202 reports any lock held across a call
            that (transitively) reaches one, alongside the built-in
            ``<pool>.submit(...)`` detection.
        worker_entry_functions: dotted function names pool workers
            execute directly; X301 walks the call graph from these and
            reports module-state writes, since workers are pure
            functions of their payload.
        worker_state_allowlist: dotted module-level names reachable
            worker code may legitimately mutate (empty: no worker state
            is sanctioned).
    """

    float_eq_packages: tuple[str, ...] = ("repro.pilfill", "repro.ilp", "repro.cap")
    wall_clock_allowlist: tuple[str, ...] = (
        "repro.pilfill.engine",
        "repro.pilfill.robust",
        "repro.pilfill.parallel",
        "repro.ilp.branchbound",
        # The telemetry clock: the single sanctioned wall-clock read for
        # repro.obs — spans take time via an injected Clock, never directly.
        "repro.obs.clock",
    )
    payload_registry: tuple[str, ...] = field(default_factory=_default_payload_registry)
    picklable_type_names: tuple[str, ...] = (
        "int",
        "float",
        "str",
        "bool",
        "bytes",
        "None",
        "tuple",
        "list",
        "dict",
        "set",
        "frozenset",
        "Optional",
        "Union",
        "TileKey",  # alias of tuple[int, int]
        # numpy arrays pickle as dtype, shape and their own bytes (a slice
        # as a copy of just its bytes): the cost tables ship this way.
        "ndarray",
    )
    rng_factory_names: tuple[str, ...] = ("Random", "SystemRandom", "default_rng", "SeedSequence")
    taint_sink_functions: tuple[str, ...] = field(default_factory=_default_taint_sinks)
    pool_dispatch_functions: tuple[str, ...] = (
        "repro.pilfill.parallel._dispatch_chunks",
        "repro.pilfill.parallel.dispatch_tile_payloads",
    )
    worker_entry_functions: tuple[str, ...] = field(
        default_factory=_default_worker_entry_functions
    )
    worker_state_allowlist: tuple[str, ...] = ()

    def in_float_eq_scope(self, module: str) -> bool:
        """Whether D104 applies to ``module``."""
        return any(
            module == pkg or module.startswith(pkg + ".") for pkg in self.float_eq_packages
        )

    def wall_clock_allowed(self, module: str) -> bool:
        """Whether ``module`` may read the wall clock (D102)."""
        return module in self.wall_clock_allowlist

    def payload_classes_in(self, module: str) -> tuple[str, ...]:
        """Registered payload class base names defined in ``module``."""
        names = []
        for dotted in self.payload_registry:
            mod, _, cls = dotted.rpartition(".")
            if mod == module:
                names.append(cls)
        return tuple(names)

    def payload_base_names(self) -> frozenset[str]:
        """Base names of every registered payload class."""
        return frozenset(dotted.rpartition(".")[2] for dotted in self.payload_registry)


#: The policy `pilfill lint` uses unless a caller overrides it.
DEFAULT_POLICY = LintPolicy()
