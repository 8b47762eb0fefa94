"""Grid sharding: plan properties and the bit-identity crown jewel.

Regression targets of the sharding PR:

* :func:`plan_shards` is a deterministic partition — every tile lands in
  exactly one shard, keys are dense and ascending, rows spread evenly,
  ``n_shards`` clamps to the row count (property-tested with hypothesis),
* the sharded run is **bit-identical** to the unsharded run — features
  in order, effective budgets, per-tile counts / site indices, and the
  accumulated float objective — in-process and on the process pool,
  under fault injection, and with the solution cache on (both warm
  directions), for even, uneven, and single-shard plans,
* :func:`result_digest` is a faithful oracle: equal runs digest equal,
  a changed placement digests different.
"""

from __future__ import annotations

from itertools import pairwise

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dissection.fixed import FixedDissection
from repro.errors import FillError
from repro.geometry import Rect
from repro.pilfill import (
    EngineConfig,
    PILFillEngine,
    SlackColumnDef,
    plan_shards,
    prepare,
    result_digest,
    shutdown_pools,
)
from repro.tech import DensityRules, FillRules
from repro.testing.faults import FaultSpec

FILL = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
DENSITY = DensityRules(window_size=16000, r=2, max_density=0.5)

#: Worker counts covering both dispatch paths (in-process, process pool).
WORKERS = [
    pytest.param(1, id="serial"),
    pytest.param(2, id="process"),
]


def make_cfg(**kwargs):
    kwargs.setdefault("backend", "scipy")
    kwargs.setdefault("method", "greedy")
    kwargs.setdefault("seed", 3)
    return EngineConfig(fill_rules=FILL, density_rules=DENSITY, **kwargs)


def grid(nx: int, ny: int, tile: int = 8000) -> FixedDissection:
    """An ``nx × ny`` dissection with square ``tile``-DBU tiles."""
    die = Rect(0, 0, nx * tile, ny * tile)
    rules = DensityRules(window_size=2 * tile, r=2, max_density=0.5)
    return FixedDissection(die, rules)


@pytest.fixture(scope="module")
def prepared(small_generated_layout):
    prep = prepare(
        small_generated_layout, "metal3", FILL, DENSITY, SlackColumnDef.FULL_LAYOUT
    )
    yield prep
    prep.close()


@pytest.fixture(scope="module")
def unsharded(small_generated_layout, prepared):
    """Serial unsharded greedy reference run."""
    engine = PILFillEngine(
        small_generated_layout, "metal3", make_cfg(), prepared=prepared
    )
    return engine.run()


def assert_bit_identical(run, reference):
    """The full contract, not just the digest — so a failure names the
    first differing field instead of two opaque hashes."""
    assert run.features == reference.features
    assert run.requested_budget == reference.requested_budget
    assert run.effective_budget == reference.effective_budget
    assert list(run.tile_solutions) == list(reference.tile_solutions)
    for key, sol in run.tile_solutions.items():
        ref = reference.tile_solutions[key]
        assert sol.counts == ref.counts, key
        assert sol.site_indices == ref.site_indices, key
        assert repr(sol.model_objective_ps) == repr(ref.model_objective_ps), key
    assert repr(run.model_objective_ps) == repr(reference.model_objective_ps)
    assert result_digest(run) == result_digest(reference)


class TestPlanProperties:
    @given(
        nx=st.integers(min_value=1, max_value=12),
        ny=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_partitions_the_grid(self, nx, ny, n):
        plan = plan_shards(grid(nx, ny), n_shards=n)
        assert plan.n_shards == min(n, ny)
        assert [s.key for s in plan.shards] == list(range(plan.n_shards))
        # Contiguous ascending row bands, rows spread within one of even.
        assert plan.shards[0].iy_lo == 0
        assert plan.shards[-1].iy_hi == ny
        for prev, cur in pairwise(plan.shards):
            assert cur.iy_lo == prev.iy_hi
        rows = [s.rows for s in plan.shards]
        assert all(r >= 1 for r in rows)
        assert max(rows) - min(rows) <= 1
        # Exact partition: every tile in exactly one shard, column-major
        # within its band.
        seen = [key for s in plan.shards for key in s.tile_keys]
        assert len(seen) == len(set(seen)) == nx * ny
        for shard in plan.shards:
            assert list(shard.tile_keys) == sorted(shard.tile_keys)
            for _, iy in shard.tile_keys:
                assert shard.iy_lo <= iy < shard.iy_hi

    @given(
        nx=st.integers(min_value=1, max_value=8),
        ny=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_plan_is_deterministic(self, nx, ny, n):
        assert plan_shards(grid(nx, ny), n_shards=n) == plan_shards(
            grid(nx, ny), n_shards=n
        )

    def test_invalid_granularity_rejected(self):
        with pytest.raises(FillError, match="n_shards"):
            plan_shards(grid(2, 2), n_shards=0)

    def test_no_granularity_means_one_shard(self):
        plan = plan_shards(grid(3, 4))
        assert plan.n_shards == 1
        assert plan.shards[0].tile_count == 12


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [2, 3, 4, 5, 50])
    def test_serial_sharded_matches_unsharded(
        self, small_generated_layout, prepared, unsharded, shards
    ):
        """Even, uneven, and clamped-past-the-grid shard counts all
        reproduce the unsharded run bit for bit."""
        cfg = make_cfg(shards=shards)
        run = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run(budget=unsharded.requested_budget)
        assert_bit_identical(run, unsharded)

    @given(shards=st.integers(min_value=1, max_value=12))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_shard_count_matches(
        self, small_generated_layout, prepared, unsharded, shards
    ):
        cfg = make_cfg(shards=shards)
        engine = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        )
        run = engine.run(budget=unsharded.requested_budget)
        assert_bit_identical(run, unsharded)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_backends_match_unsharded(
        self, small_generated_layout, prepared, unsharded, workers
    ):
        cfg = make_cfg(shards=3, workers=workers)
        run = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run(budget=unsharded.requested_budget)
        assert_bit_identical(run, unsharded)
        if workers > 1:
            shutdown_pools()

    def test_single_shard_plan_matches(
        self, small_generated_layout, prepared, unsharded
    ):
        """The default run is the one-shard case of the shard loop: one
        ``shard`` span, and the same bits as a three-shard run."""
        runs = {}
        for shards in (1, 3):
            engine = PILFillEngine(
                small_generated_layout, "metal3",
                make_cfg(shards=shards, telemetry=True), prepared=prepared,
            )
            runs[shards] = engine.run(budget=unsharded.requested_budget)
            names = [s.name for s in runs[shards].telemetry.tracer.records()]
            assert names.count("shard") == shards
        assert_bit_identical(runs[1], unsharded)
        assert_bit_identical(runs[3], runs[1])

    def test_fault_injection_matches_faulted_unsharded(
        self, small_generated_layout, prepared, unsharded
    ):
        """Transient solve errors retry inside the shard exactly as they
        do unsharded — retried-tile sets and results agree."""
        spec = FaultSpec.single("error", methods=("greedy",), attempts=(0,))
        faulted_ref = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(fault_spec=spec),
            prepared=prepared,
        ).run(budget=unsharded.requested_budget)
        run = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(fault_spec=spec, shards=3),
            prepared=prepared,
        ).run(budget=unsharded.requested_budget)
        assert run.retried_tiles == faulted_ref.retried_tiles
        assert run.retried_tiles  # the spec actually fired
        assert_bit_identical(run, faulted_ref)
        assert_bit_identical(run, unsharded)  # retries are transparent

    @pytest.mark.slow
    def test_worker_death_on_process_backend_matches(
        self, small_generated_layout, prepared, unsharded
    ):
        keys = sorted(unsharded.tile_solutions)
        spec = FaultSpec.single("worker_death", tiles=[keys[0]], attempts=(0,))
        cfg = make_cfg(shards=2, workers=2, fault_spec=spec)
        run = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run(budget=unsharded.requested_budget)
        assert_bit_identical(run, unsharded)
        shutdown_pools()

    def test_cache_primed_unsharded_warms_sharded(
        self, small_generated_layout, prepared, unsharded, tmp_path
    ):
        from repro.pilfill import SolutionCache

        cache = SolutionCache(cache_dir=str(tmp_path / "warm"))
        cold = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(solution_cache=cache),
            prepared=prepared,
        ).run(budget=unsharded.requested_budget)
        assert cold.cache_stats["misses"] > 0
        warm = PILFillEngine(
            small_generated_layout, "metal3",
            make_cfg(solution_cache=cache, shards=3), prepared=prepared,
        ).run(budget=unsharded.requested_budget)
        assert warm.cache_stats["hits"] == cold.cache_stats["misses"]
        assert warm.cache_stats["misses"] == 0
        assert_bit_identical(warm, unsharded)

    def test_cache_primed_sharded_warms_unsharded(
        self, small_generated_layout, prepared, unsharded, tmp_path
    ):
        from repro.pilfill import SolutionCache

        cache = SolutionCache(cache_dir=str(tmp_path / "rev"))
        cold = PILFillEngine(
            small_generated_layout, "metal3",
            make_cfg(solution_cache=cache, shards=4), prepared=prepared,
        ).run(budget=unsharded.requested_budget)
        assert cold.cache_stats["misses"] > 0
        assert_bit_identical(cold, unsharded)
        warm = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(solution_cache=cache),
            prepared=prepared,
        ).run(budget=unsharded.requested_budget)
        assert warm.cache_stats["hits"] == cold.cache_stats["misses"]
        assert_bit_identical(warm, unsharded)


class TestResultDigest:
    def test_equal_runs_digest_equal(self, small_generated_layout, prepared):
        a = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(), prepared=prepared
        ).run()
        b = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(), prepared=prepared
        ).run(budget=a.requested_budget)
        assert result_digest(a) == result_digest(b)

    def test_changed_placement_digests_different(
        self, small_generated_layout, prepared, unsharded
    ):
        other = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(seed=4, method="normal"),
            prepared=prepared,
        ).run(budget=unsharded.requested_budget)
        assert other.features != unsharded.features
        assert result_digest(other) != result_digest(unsharded)
