"""Property tests pinning the vectorized kernels to their scalar oracles.

The perf PR rewrote the cost/impact hot paths as batched numpy kernels
with a bit-identity contract: every vectorized function must reproduce
its scalar reference exactly (same IEEE-754 operation order), not merely
within tolerance. These tests enforce that contract on randomized inputs
and on real prepared instances:

* ``exact_column_cap_array`` (one gap over ``m = 0 .. capacity``, and
  per-column gaps) / ``linear_column_cap_array`` vs the scalar
  capacitance functions, entry by entry,
* ``build_cost_views`` vs ``build_costs_scalar`` (as bytes, with the LUT
  accounting) on a generated layout, on T1/T2 grids and on edge columns,
* ``allocate_marginal_greedy`` (argpartition path) vs the heap reference,
  including tie-heavy and non-convex tables,
* ``LUTCache.get_batch`` vs repeated ``get``, plus thread-safety.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cap.fillimpact import (
    exact_column_cap,
    exact_column_cap_array,
    linear_column_cap,
    linear_column_cap_array,
)
from repro.cap.lut import LUTCache
from repro.errors import FillError
from repro.pilfill.columns import ColumnNeighbor, ColumnSites, SlackColumn
from repro.pilfill.costs import build_cost_views
from repro.pilfill.dp import (
    _VECTOR_MIN_SLOTS,
    allocate_marginal_greedy,
    allocate_marginal_greedy_scalar,
    allocation_cost,
)
from repro.pilfill.prepare import prepare
from repro.synth import default_fill_rules, density_rules_for, make_t1, make_t2
from tests.cost_tables import column_table, pack_costs
from tests.costs_oracle import build_costs_scalar

# Geometry strategy: spacing comfortably above capacity * width so the
# exact model stays defined for every n in 0..capacity.
_eps_r = st.floats(min_value=1.0, max_value=12.0)
_thickness = st.floats(min_value=0.05, max_value=5.0)
_capacity = st.integers(min_value=0, max_value=40)
_width = st.floats(min_value=0.01, max_value=2.0)


@st.composite
def _cap_geometry(draw):
    eps_r = draw(_eps_r)
    thickness = draw(_thickness)
    capacity = draw(_capacity)
    width = draw(_width)
    slack = draw(st.floats(min_value=0.1, max_value=50.0))
    spacing = (capacity + 1) * width + slack
    return eps_r, thickness, spacing, capacity, width


class TestCapArrayKernels:
    @given(_cap_geometry())
    @settings(max_examples=100, deadline=None)
    def test_exact_array_matches_scalar(self, geom):
        eps_r, thickness, spacing, capacity, width = geom
        table = exact_column_cap_array(
            eps_r, thickness, spacing, np.arange(capacity + 1), width
        )
        assert table.shape == (capacity + 1,)
        for n in range(capacity + 1):
            assert table[n] == exact_column_cap(eps_r, thickness, spacing, n, width)

    @given(_cap_geometry())
    @settings(max_examples=100, deadline=None)
    def test_linear_array_matches_scalar(self, geom):
        eps_r, thickness, spacing, capacity, width = geom
        table = linear_column_cap_array(
            eps_r, thickness, spacing, np.arange(capacity + 1), width
        )
        for n in range(capacity + 1):
            assert table[n] == linear_column_cap(eps_r, thickness, spacing, n, width)

    @given(_cap_geometry())
    @settings(max_examples=50, deadline=None)
    def test_per_column_gaps_match_scalar(self, geom):
        eps_r, thickness, spacing, capacity, width = geom
        counts = np.arange(capacity + 1)[::-1]
        gaps = spacing + width * np.arange(capacity + 1)
        deltas = exact_column_cap_array(eps_r, thickness, gaps, counts, width)
        for gap, n, delta in zip(gaps.tolist(), counts.tolist(), deltas, strict=True):
            assert delta == exact_column_cap(eps_r, thickness, gap, n, width)

    @given(_cap_geometry())
    @settings(max_examples=50, deadline=None)
    def test_linear_per_entry_gaps_match_scalar(self, geom):
        eps_r, thickness, spacing, capacity, width = geom
        counts = np.arange(capacity + 1)[::-1]
        gaps = spacing + width * np.arange(capacity + 1)
        deltas = linear_column_cap_array(eps_r, thickness, gaps, counts, width)
        for gap, n, delta in zip(gaps.tolist(), counts.tolist(), deltas.tolist(), strict=True):
            assert np.float64(delta).tobytes() == np.float64(
                linear_column_cap(eps_r, thickness, gap, n, width)
            ).tobytes()

    def test_exact_array_overfull_raises(self):
        with pytest.raises(FillError, match="^10 features of width 0.2 do not fit in gap 1.0$"):
            exact_column_cap_array(3.9, 1.0, 1.0, np.arange(11), 0.2)

    def test_per_column_overfull_raises(self):
        with pytest.raises(FillError, match="^10 features of width 0.2 do not fit in gap 1.5$"):
            exact_column_cap_array(3.9, 1.0, np.array([4.0, 1.5]), np.array([3, 10]), 0.2)


class TestLUTBatch:
    def test_get_batch_matches_get(self):
        cache = LUTCache(eps_r=3.9, thickness_um=0.8, fill_width_um=0.5)
        specs = [(4.0, 5), (6.0, 8), (4.0, 5), (4.0005, 5), (10.0, 0)]
        batch = cache.get_batch(specs)
        assert len(batch) == len(specs)
        for (spacing, capacity), lut in zip(specs, batch, strict=True):
            single = cache.get(spacing, capacity)
            assert lut is single  # same quantized cache entry
            assert lut.table == single.table

    def test_get_batch_dedupes_within_quantum(self):
        cache = LUTCache(eps_r=3.9, thickness_um=0.8, fill_width_um=0.5)
        a, b = cache.get_batch([(4.0, 5), (4.0 + 1e-7, 5)])
        assert a is b

    def test_get_is_thread_safe(self):
        """Hammer one cache from many threads; every spec must resolve to
        exactly one shared entry and no thread may see a partial build."""
        cache = LUTCache(eps_r=3.9, thickness_um=0.8, fill_width_um=0.5)
        specs = [(0.5 * (4 + i % 7) + 1.0 + 0.25 * i, 4 + i % 7) for i in range(40)]
        results: list[list] = [[] for _ in range(8)]
        errors: list[Exception] = []

        def worker(slot: int) -> None:
            try:
                for spacing, capacity in specs:
                    results[slot].append(cache.get(spacing, capacity))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for slot in range(1, 8):
            for first, other in zip(results[0], results[slot], strict=True):
                assert first is other


def _cost_cache(layer, fill_rules, dbu) -> LUTCache:
    return LUTCache(layer.eps_r, layer.thickness_um, fill_rules.fill_size / dbu)


def _assert_batched_matches_scalar(tiles, layer, fill_rules, dbu, weighted) -> None:
    """The batched pass over ``tiles`` against the scalar oracle run tile
    by tile on one shared cache: every tile's capacities and exact/linear
    arrays as bytes, its columns, and the LUT hit/miss accounting, all
    exactly."""
    batch_cache = _cost_cache(layer, fill_rules, dbu)
    views = build_cost_views(tiles, layer, fill_rules, dbu, batch_cache, weighted)
    scalar_cache = _cost_cache(layer, fill_rules, dbu)
    slow = {
        key: build_costs_scalar(cols, layer, fill_rules, dbu, scalar_cache, weighted)
        for key, cols in tiles.items()
    }
    assert list(views) == list(slow)
    for key, view in views.items():
        want = slow[key]
        assert len(view) == len(want)
        assert view.capacity == want.capacity
        for name in ("capacities", "exact", "linear"):
            got_array, want_array = getattr(view, name), getattr(want, name)
            assert got_array.dtype == want_array.dtype, name
            assert got_array.tobytes() == want_array.tobytes(), name
        assert view.columns == tuple(tiles[key])
        assert view.electrical().columns == want.columns
    assert batch_cache.stats() == scalar_cache.stats()


_GRIDS = [
    pytest.param(make, window, r, id=f"{name}-{window}/{r}")
    for name, make in (("T1", make_t1), ("T2", make_t2))
    for window, r in ((32, 2), (20, 8))
]


class TestBuildCostsVectorized:
    def test_bit_identical_on_generated_layout(self, small_generated_layout):
        layout = small_generated_layout
        fill_rules = default_fill_rules(layout.stack)
        density_rules = density_rules_for(16, 2, layout.stack)
        prepared = prepare(layout, "metal3", fill_rules, density_rules)
        proc = layout.stack.layer("metal3")
        dbu = layout.stack.dbu_per_micron
        for weighted in (False, True):
            _assert_batched_matches_scalar(
                prepared.columns_by_tile, proc, fill_rules, dbu, weighted
            )

    @pytest.mark.parametrize("make, window, r", _GRIDS)
    def test_bit_identical_on_whole_grids(self, make, window, r):
        layout = make()
        fill_rules = default_fill_rules(layout.stack)
        prepared = prepare(
            layout, "metal3", fill_rules, density_rules_for(window, r, layout.stack)
        )
        proc = layout.stack.layer("metal3")
        dbu = layout.stack.dbu_per_micron
        for weighted in (False, True):
            _assert_batched_matches_scalar(
                prepared.columns_by_tile, proc, fill_rules, dbu, weighted
            )
            # costs_for is that pass, memoized, with the same LUT accounting.
            fresh = prepare(
                layout, "metal3", fill_rules, density_rules_for(window, r, layout.stack)
            )
            views = fresh.costs_for(weighted)
            oracle = _cost_cache(proc, fill_rules, dbu)
            for key, cols in fresh.columns_by_tile.items():
                slow = build_costs_scalar(cols, proc, fill_rules, dbu, oracle, weighted)
                assert views[key].exact.tobytes() == slow.exact.tobytes()
            assert fresh.lut_stats == oracle.stats()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_edge_columns(self, stack, data):
        """Two gaps in one LUT quantum (the first spec builds the table),
        zero-capacity columns and columns without a neighbour or a gap."""
        fill_rules = default_fill_rules(stack)
        proc = stack.layer("metal3")
        dbu = stack.dbu_per_micron
        fill_w = fill_rules.fill_size / dbu
        # 2.0105 and 2.0113 quantize to one 1e-3 key; 3.7 and 6.25 do not.
        gaps = [g * 8 * fill_w for g in (2.0105, 2.0113, 3.7, 6.25)]
        neighbor = st.builds(
            ColumnNeighbor,
            net=st.sampled_from(["a", "b", "c"]),
            line_index=st.integers(0, 5),
            sinks=st.integers(1, 9),
            resistance_ohm=st.floats(0.0, 2000.0),
        )
        optional = st.one_of(st.none(), neighbor)
        column = st.builds(
            lambda cap, gap, below, above: SlackColumn(
                layer="metal3", tile=(0, 0), col=0,
                sites=ColumnSites(tuple(range(cap)), 0, 0, 1, 1, True),
                gap_um=gap, below=below, above=above,
            ),
            cap=st.integers(0, 8),
            gap=st.one_of(st.none(), st.sampled_from(gaps)),
            below=st.one_of(neighbor, optional),
            above=st.one_of(neighbor, optional),
        )
        tiles = {
            (i, 0): data.draw(st.lists(column, max_size=5), label=f"tile {i}")
            for i in range(data.draw(st.integers(1, 4), label="tiles"))
        }
        weighted = data.draw(st.booleans(), label="weighted")
        _assert_batched_matches_scalar(column_table(tiles), proc, fill_rules, dbu, weighted)


# Convex tables: nondecreasing marginals, the regime where the
# argpartition fast path must agree with the heap oracle.
@st.composite
def _convex_tables(draw):
    n_cols = draw(st.integers(min_value=1, max_value=8))
    tables = []
    for _ in range(n_cols):
        capacity = draw(st.integers(min_value=0, max_value=30))
        marginals = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=10.0),
                    min_size=capacity,
                    max_size=capacity,
                )
            )
        )
        table = [0.0]
        for m in marginals:
            table.append(table[-1] + m)
        tables.append(tuple(table))
    return tables


class TestMarginalGreedyVectorized:
    @given(_convex_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_heap_oracle(self, tables, data):
        costs = pack_costs(tables)
        budget = data.draw(st.integers(min_value=0, max_value=costs.capacity))
        fast = allocate_marginal_greedy(costs, budget)
        slow = allocate_marginal_greedy_scalar(costs, budget)
        assert sum(fast) == budget
        # Counts may differ only between tied marginals; the objective
        # (what the engine consumes) must match exactly.
        assert allocation_cost(costs, fast) == allocation_cost(costs, slow)

    def test_large_instance_exercises_vector_path(self):
        """Deterministic instance big enough for the argpartition path."""
        rng = np.random.default_rng(42)
        tables = []
        for _ in range(40):
            marginals = np.sort(rng.uniform(0.0, 5.0, size=8))
            tables.append(tuple(np.concatenate([[0.0], np.cumsum(marginals)])))
        costs = pack_costs(tables)
        capacity = costs.capacity
        assert capacity >= _VECTOR_MIN_SLOTS
        for budget in (0, 1, capacity // 3, capacity // 2, capacity - 1, capacity):
            fast = allocate_marginal_greedy(costs, budget)
            slow = allocate_marginal_greedy_scalar(costs, budget)
            assert fast == slow

    def test_heavy_ties_stay_budget_exact(self):
        """All-equal marginals: the tie split must still hand out exactly
        ``budget`` features."""
        costs = pack_costs([tuple(float(n) for n in range(9))] * 16)
        capacity = costs.capacity
        assert capacity >= _VECTOR_MIN_SLOTS
        for budget in (0, 1, 7, capacity // 2, capacity):
            counts = allocate_marginal_greedy(costs, budget)
            assert sum(counts) == budget
            assert allocation_cost(costs, counts) == allocation_cost(
                costs, allocate_marginal_greedy_scalar(costs, budget)
            )

    def test_non_convex_falls_back_to_heap(self):
        """A decreasing-marginal table must take the scalar path and thus
        agree with the heap result exactly."""
        tables = [
            (0.0, 5.0, 6.0),   # convex
            (0.0, 4.0, 4.5),   # convex
            (0.0, 3.0, 3.1),
        ]
        # Make one table non-convex and large enough that only the
        # convexity check (not the size gate) can trigger the fallback.
        tables = tables * 12
        tables[0] = (0.0, 5.0, 5.5, 5.6)  # marginals 5.0, 0.5, 0.1 — decreasing
        costs = pack_costs(tables)
        capacity = costs.capacity
        assert capacity >= _VECTOR_MIN_SLOTS
        for budget in (1, 5, capacity // 2, capacity):
            assert allocate_marginal_greedy(costs, budget) == (
                allocate_marginal_greedy_scalar(costs, budget)
            )
