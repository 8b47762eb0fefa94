"""Incremental ECO re-fill: solution store, content digests, cache front.

Covers the crown-jewel contract — a warm re-run against a primed cache is
bit-identical to a cold run, for arbitrary seeded edit windows, in-process
and on the process pool and under fault injection — plus the unit-level
guarantees it stands on: store round-trip/versioning, digest sensitivity
to every solve input (and insensitivity to scheduling-only knobs),
eligibility gating, dirty-window invalidation, and copy isolation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError
from repro.geometry import Rect
from repro.pilfill import (
    CachedEntry,
    EngineConfig,
    PILFillEngine,
    SolutionCache,
    SolutionStore,
    TileCosts,
    cache_eligible,
    copy_solution,
    decode_entry,
    encode_entry,
    prepare,
    result_digest,
    run_context_digest,
    tile_digest,
)
from repro.pilfill.columns import ColumnTable
from repro.pilfill.robust import SolveReport
from repro.pilfill.solution import TileSolution
from repro.synth import edit_window
from repro.tech import DensityRules, FillRules
from repro.testing.faults import FaultRule, FaultSpec
from tests.column_objects import column_table, slack_columns

FILL = FillRules(fill_size=500, fill_gap=250, buffer_distance=250)
DENSITY = DensityRules(window_size=16000, r=2, max_density=0.6)


def make_cfg(method="dp", **kwargs):
    return EngineConfig(fill_rules=FILL, density_rules=DENSITY, method=method, **kwargs)


@pytest.fixture(scope="module")
def prepared(small_generated_layout):
    return prepare(small_generated_layout, "metal3", FILL, DENSITY)


def sample_entry():
    solution = TileSolution(
        counts=[2, 0, 1],
        model_objective_ps=0.125,
        nodes=7,
        iterations=13,
        site_indices=((0, 2), (), (1,)),
    )
    report = SolveReport(
        key=(3, 4), requested_method="ilp2", used_method="ilp2", retries=1,
        errors=("ilp2: transient",),
    )
    return CachedEntry(solution=solution, report=report)


DIGEST = "ab" + "0" * 62


class TestSolutionStore:
    def test_memory_round_trip(self):
        store = SolutionStore()
        assert len(store) == 0
        assert store.get(DIGEST) is None
        entry = sample_entry()
        store.put(DIGEST, entry)
        assert len(store) == 1
        assert store.get(DIGEST) is entry
        assert not store.disk_backed

    def test_disk_round_trip_across_stores(self, tmp_path):
        writer = SolutionStore(cache_dir=tmp_path)
        entry = sample_entry()
        writer.put(DIGEST, entry)
        path = writer.entry_path(DIGEST)
        assert path.exists()
        assert path.parent.name == DIGEST[:2]  # digest-prefix sharding

        reader = SolutionStore(cache_dir=tmp_path)  # fresh process stand-in
        loaded = reader.get(DIGEST)
        assert loaded is not None
        assert loaded.solution == entry.solution
        assert loaded.report == entry.report
        # The disk hit repopulated the memory layer.
        assert len(reader) == 1

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        store = SolutionStore(cache_dir=tmp_path)
        store.put(DIGEST, sample_entry())
        path = store.entry_path(DIGEST)
        payload = json.loads(path.read_text())
        payload["version"] = payload["version"] + 1
        path.write_text(json.dumps(payload))
        assert SolutionStore(cache_dir=tmp_path).get(DIGEST) is None

    def test_corrupt_file_reads_as_miss(self, tmp_path):
        store = SolutionStore(cache_dir=tmp_path)
        store.put(DIGEST, sample_entry())
        store.entry_path(DIGEST).write_text("{ torn")
        assert SolutionStore(cache_dir=tmp_path).get(DIGEST) is None

    def test_entry_under_wrong_digest_reads_as_miss(self, tmp_path):
        # A well-formed entry copied to another digest's path answers a
        # different tile; serving it would be a wrong hit.
        other = "cd" + "0" * 62
        store = SolutionStore(cache_dir=tmp_path)
        store.put(DIGEST, sample_entry())
        target = store.entry_path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(store.entry_path(DIGEST).read_bytes())
        assert SolutionStore(cache_dir=tmp_path).get(other) is None

    def test_evict_drops_both_layers(self, tmp_path):
        store = SolutionStore(cache_dir=tmp_path)
        store.put(DIGEST, sample_entry())
        assert store.evict(DIGEST)
        assert not store.evict(DIGEST)  # already gone everywhere
        assert len(store) == 0
        assert not store.entry_path(DIGEST).exists()
        # A fresh process over the same cache_dir must miss too — the
        # dirty-window invalidation has to be durable, not memory-only.
        assert SolutionStore(cache_dir=tmp_path).get(DIGEST) is None

    def test_evict_unlinks_disk_even_with_cold_memory(self, tmp_path):
        SolutionStore(cache_dir=tmp_path).put(DIGEST, sample_entry())
        cold = SolutionStore(cache_dir=tmp_path)  # never loaded the entry
        assert cold.evict(DIGEST)  # held on disk only
        assert SolutionStore(cache_dir=tmp_path).get(DIGEST) is None

    def test_entry_path_requires_disk_layer(self):
        with pytest.raises(ValueError):
            SolutionStore().entry_path(DIGEST)


#: One process sharing a cache directory: puts, evicts and cold-memory
#: gets over overlapping digests, plus torn writes of the kind a crashed
#: non-atomic writer leaves. Every hit must be exactly the entry filed
#: under its digest.
SHARED_DIR_WORKER = textwrap.dedent(
    """
    import json, random, sys, time
    from pathlib import Path
    from repro.pilfill import CachedEntry, SolutionStore, encode_entry
    from repro.pilfill.robust import SolveReport
    from repro.pilfill.solution import TileSolution

    cache_dir, seed, rounds, digests, go = json.loads(sys.argv[1])

    def entry(i):
        return CachedEntry(
            TileSolution(counts=[i, 1], model_objective_ps=i / 3, nodes=i),
            SolveReport(key=(i, 0), requested_method="ilp2", used_method="ilp2"),
        )

    rng = random.Random(seed)
    deadline = time.monotonic() + 30
    while not Path(go).exists() and time.monotonic() < deadline:
        time.sleep(0.001)
    stats = {"hits": 0, "wrong": 0, "evicted": 0}
    for _ in range(rounds):
        i = rng.randrange(len(digests))
        store = SolutionStore(cache_dir=cache_dir)
        op = rng.random()
        if op < 0.35:
            store.put(digests[i], entry(i))
        elif op < 0.55:
            stats["evicted"] += store.evict(digests[i])
        elif op < 0.65:
            path = store.entry_path(digests[i])
            path.parent.mkdir(parents=True, exist_ok=True)
            text = json.dumps(encode_entry(digests[i], entry(i)))
            path.write_text(text[: rng.randrange(1, len(text) - 1)])
        else:
            got = store.get(digests[i])
            if got is not None:
                stats["hits"] += 1
                stats["wrong"] += got != entry(i)
    print(json.dumps(stats))
    """
)


class TestSharedCacheDir:
    """Two processes share one ``--cache-dir``."""

    def test_concurrent_put_evict_never_serves_a_wrong_hit(self, tmp_path):
        cache_dir = tmp_path / "cache"
        go = tmp_path / "go"
        digests = [f"{i % 3:02x}{i:062x}" for i in range(6)]  # shared prefixes
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", SHARED_DIR_WORKER,
                 json.dumps([str(cache_dir), seed, 600, digests, str(go)])],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            for seed in (1, 2)
        ]
        go.touch()
        outcomes = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outcomes.append(json.loads(out))
        for stats in outcomes:
            assert stats["wrong"] == 0
            assert stats["hits"] > 0 and stats["evicted"] > 0

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) // 2],
            lambda raw: raw[:-3],
            lambda raw: b"\0" * len(raw),
            lambda raw: raw.replace(b"{", b"[", 1),
            lambda raw: b"",
        ],
        ids=["half", "tail", "zeroed", "bracket", "empty"],
    )
    def test_truncated_or_corrupt_entry_reads_as_miss(self, tmp_path, damage):
        SolutionStore(cache_dir=tmp_path).put(DIGEST, sample_entry())
        path = SolutionStore(cache_dir=tmp_path).entry_path(DIGEST)
        path.write_bytes(damage(path.read_bytes()))
        assert SolutionStore(cache_dir=tmp_path).get(DIGEST) is None


class TestEncodeDecode:
    def test_round_trip(self):
        entry = sample_entry()
        decoded = decode_entry(encode_entry(DIGEST, entry))
        assert decoded is not None
        assert decoded.solution == entry.solution
        assert decoded.report == entry.report

    def test_round_trip_none_site_indices(self):
        entry = CachedEntry(
            solution=TileSolution(counts=[1], model_objective_ps=0.5),
            report=SolveReport(key=(0, 0), requested_method="dp", used_method="dp"),
        )
        decoded = decode_entry(encode_entry(DIGEST, entry))
        assert decoded is not None
        assert decoded.solution.site_indices is None

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"schema": "pilfill-solution-store/v1", "version": 999},
            {"schema": "something-else/v1", "version": 1},
        ],
        ids=["none", "list", "empty", "bad-version", "bad-schema"],
    )
    def test_rejects_foreign_payloads(self, payload):
        assert decode_entry(payload) is None

    def test_rejects_damaged_fields(self):
        payload = encode_entry(DIGEST, sample_entry())
        del payload["solution"]["counts"]  # type: ignore[union-attr]
        assert decode_entry(payload) is None


class TestCopyIsolation:
    def test_copy_solution_is_independent(self):
        original = sample_entry().solution
        clone = copy_solution(original)
        assert clone == original
        clone.counts[0] += 1
        assert clone != original

    def test_materialize_returns_fresh_solution(self):
        entry = sample_entry()
        first, _ = entry.materialize()
        second, _ = entry.materialize()
        assert first is not second
        first.counts[0] += 1
        assert entry.solution.counts == [2, 0, 1]

    def test_record_stores_a_copy(self):
        cache = SolutionCache()
        entry = sample_entry()
        cache.record(DIGEST, entry.solution, entry.report)
        entry.solution.counts[0] += 99  # caller keeps mutating rights
        hit = cache.lookup(DIGEST)
        assert hit is not None
        assert hit[0].counts == [2, 0, 1]


class TestDigests:
    @pytest.fixture(scope="class")
    def digest_inputs(self, prepared):
        cfg = make_cfg()
        costs = prepared.costs_for(cfg.weighted)
        key = next(iter(sorted(costs)))
        return cfg, costs, key

    def test_deterministic(self, digest_inputs):
        cfg, costs, key = digest_inputs
        ctx = run_context_digest(cfg, "metal3")
        assert ctx == run_context_digest(make_cfg(), "metal3")
        assert tile_digest(ctx, key, costs[key], 5) == tile_digest(ctx, key, costs[key], 5)

    @pytest.mark.parametrize(
        "change",
        [
            {"method": "greedy"},
            {"weighted": False},
            {"backend": "bundled"},
            {"seed": 1},
            {"fallback": False},
            {"fill_rules": FillRules(fill_size=600, fill_gap=250, buffer_distance=250)},
            {"density_rules": DensityRules(window_size=16000, r=4, max_density=0.6)},
            {
                "fault_spec": FaultSpec(
                    rules=(FaultRule(kind="error", methods=("ilp2",)),)
                )
            },
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_context_covers_output_knobs(self, change):
        base = run_context_digest(make_cfg(), "metal3")
        assert run_context_digest(dataclasses.replace(make_cfg(), **change), "metal3") != base

    def test_context_covers_layer(self):
        cfg = make_cfg()
        assert run_context_digest(cfg, "metal3") != run_context_digest(cfg, "metal4")

    @pytest.mark.parametrize(
        "change",
        [
            {"workers": 4},
            {"parallel_backend": "process"},
            {"telemetry": True},
            {"shards": 3},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_context_ignores_scheduling_knobs(self, change):
        # Dispatch is bit-identical across backends, so scheduling must
        # not fragment the cache key space.
        base = run_context_digest(make_cfg(), "metal3")
        assert run_context_digest(dataclasses.replace(make_cfg(), **change), "metal3") == base

    def test_tile_digest_covers_budget_and_key(self, digest_inputs):
        cfg, costs, key = digest_inputs
        ctx = run_context_digest(cfg, "metal3")
        base = tile_digest(ctx, key, costs[key], 5)
        assert tile_digest(ctx, key, costs[key], 6) != base
        assert tile_digest(ctx, (key[0] + 1, key[1]), costs[key], 5) != base

    @pytest.fixture(scope="class")
    def impact_view(self, prepared):
        """A tile view, the index of a column with both neighbours, and the
        flat index of that column's last (nonzero) exact entry."""
        costs = prepared.costs_for(True)
        for key, view in sorted(costs.items()):
            start = 0
            for k, (column, cap) in enumerate(
                zip(slack_columns(view.columns), view.capacities.tolist(), strict=True)
            ):
                if column.below is not None and column.above is not None and cap > 0:
                    return key, view, k, start + cap
                start += cap + 1
        raise AssertionError("no impactful column")

    @staticmethod
    def _copy(view, columns=None, **changes):
        """``view``'s tables over a repacked column table of ``columns``
        (``view``'s own columns as objects by default)."""
        key = view.columns.key
        columns = slack_columns(view.columns) if columns is None else columns
        fields = {
            "columns": column_table({key: columns})[key],
            "capacities": view.capacities.copy(),
            "exact": view.exact.copy(),
            "linear": view.linear.copy(),
        }
        fields.update(changes)
        return TileCosts(**fields)

    def test_equal_content_digests_equal(self, impact_view):
        key, view, _k, _entry = impact_view
        ctx = run_context_digest(make_cfg(), "metal3")
        assert tile_digest(ctx, key, self._copy(view), 5) == tile_digest(ctx, key, view, 5)

    def test_tile_digest_covers_cost_content(self, impact_view):
        """One table entry flipped ``0.0 -> -0.0`` or moved one ULP, in
        either table, is a different solve input."""
        key, view, _k, entry = impact_view
        ctx = run_context_digest(make_cfg(), "metal3")
        base = tile_digest(ctx, key, view, 5)
        for table in ("exact", "linear"):
            flipped = getattr(view, table).copy()
            assert flipped[0] == 0.0 and not np.signbit(flipped[0])
            flipped[0] = -0.0
            assert tile_digest(ctx, key, self._copy(view, **{table: flipped}), 5) != base
            bumped = getattr(view, table).copy()
            assert bumped[entry] > 0.0
            bumped[entry] = np.nextafter(bumped[entry], np.inf)
            assert tile_digest(ctx, key, self._copy(view, **{table: bumped}), 5) != base

    @pytest.mark.parametrize(
        "side, field, value",
        [
            ("below", "net", "other-net"),
            ("below", "line_index", 10_001),
            ("above", "sinks", 999),
            ("above", "resistance_ohm", None),
        ],
        ids=["net", "line_index", "sinks", "resistance_ohm"],
    )
    def test_tile_digest_covers_neighbour_fields(self, impact_view, side, field, value):
        key, view, k, _entry = impact_view
        ctx = run_context_digest(make_cfg(), "metal3")
        columns = list(slack_columns(view.columns))
        column = columns[k]
        neighbor = getattr(column, side)
        if value is None:  # one ULP up
            value = float(np.nextafter(neighbor.resistance_ohm, np.inf))
        columns[k] = dataclasses.replace(
            column, **{side: dataclasses.replace(neighbor, **{field: value})}
        )
        mutated = self._copy(view, columns=columns)
        assert tile_digest(ctx, key, mutated, 5) != tile_digest(ctx, key, view, 5)

    def test_tile_digest_covers_gap(self, impact_view):
        key, view, k, _entry = impact_view
        ctx = run_context_digest(make_cfg(), "metal3")
        columns = list(slack_columns(view.columns))
        columns[k] = dataclasses.replace(columns[k], gap_um=columns[k].gap_um + 1.0)
        mutated = self._copy(view, columns=columns)
        assert tile_digest(ctx, key, mutated, 5) != tile_digest(ctx, key, view, 5)


class TestSitesOutOfKey:
    """Site rects are not a solve input: the tile digest leaves them out,
    and a warm hit places its cached counts on the *current* sites."""

    def test_moved_sites_hit_and_place_on_the_moved_sites(self, small_generated_layout):
        def right_one_dbu(table, i):
            assert table.horizontal  # x is the along axis
            table.along[i] += 1

        self._check_moved(small_generated_layout, right_one_dbu)

    def test_moved_site_rows_hit_and_place_on_the_moved_rows(self, small_generated_layout):
        def up_one_pitch(table, i):
            # The table's own representation, every free row one pitch up.
            table.rows[table.row_bounds[i] : table.row_bounds[i + 1]] += 1

        self._check_moved(small_generated_layout, up_one_pitch)

    @staticmethod
    def _check_moved(layout, move):
        """Prime on ``layout``, then ``move`` the sites of one solved column
        in a second prepared instance's column table (``move(table, i)``
        for the table's column ``i``) and re-fill warm."""
        cfg = make_cfg()
        original = prepare(layout, "metal3", FILL, DENSITY)
        moved = prepare(layout, "metal3", FILL, DENSITY)
        cache = SolutionCache()
        primed = PILFillEngine(
            layout, "metal3", make_cfg(solution_cache=cache), prepared=original
        ).run()
        key, k = next(
            (key, k)
            for key, sol in sorted(primed.tile_solutions.items())
            for k, count in enumerate(sol.counts)
            if count > 0
        )
        table = moved.columns_by_tile
        sites = table[key].sites()[k]
        move(table, table[key].lo + k)
        shifted = table[key].sites()[k]

        ctx = run_context_digest(cfg, "metal3")
        budget = primed.effective_budget[key]
        assert tile_digest(
            ctx, key, moved.costs_for(cfg.weighted)[key], budget
        ) == tile_digest(ctx, key, original.costs_for(cfg.weighted)[key], budget)

        warm = PILFillEngine(
            layout, "metal3", make_cfg(solution_cache=cache), prepared=moved
        ).run()
        cold = PILFillEngine(layout, "metal3", cfg, prepared=moved).run()
        assert warm.cache_stats is not None
        assert warm.cache_stats["misses"] == 0
        assert result_digest(warm) == result_digest(cold)
        assert result_digest(cold) != result_digest(primed)
        placed = {f.rect for f in warm.features}
        picked = primed.tile_solutions[key].sites_for(k)
        moved_to = {shifted[s] for s in picked}
        assert moved_to <= placed
        assert not ({sites[s] for s in picked} - moved_to) & placed


class TestObjectFreeWarmRefill:
    """Serial runs read the layer's column table itself: cost tables, tile
    digests, solves and placement build no per-tile copy of it (only a
    pickled payload is cut down to a one-tile table)."""

    def test_all_hit_refill_builds_no_column_objects(self, small_generated_layout, monkeypatch):
        layout = small_generated_layout
        copies: Counter[str] = Counter()
        tile_table = ColumnTable.tile_table

        def counting(self, key):
            copies[self.layer] += 1
            return tile_table(self, key)

        monkeypatch.setattr(ColumnTable, "tile_table", counting)
        cache = SolutionCache()
        cold = PILFillEngine(
            layout, "metal3", make_cfg(solution_cache=cache),
            prepared=prepare(layout, "metal3", FILL, DENSITY),
        ).run()
        prep = prepare(layout, "metal3", FILL, DENSITY)
        warm = PILFillEngine(
            layout, "metal3", make_cfg(solution_cache=cache), prepared=prep
        ).run()
        assert warm.cache_stats is not None
        assert warm.cache_stats["misses"] == 0 and warm.cache_stats["hits"] > 0
        assert warm.features and result_digest(warm) == result_digest(cold)
        assert copies == Counter()
        # The count is live: pickling a tile's view cuts one copy.
        key = next(key for key, cols in prep.columns_by_tile.items() if len(cols))
        pickle.dumps(prep.columns_by_tile[key])
        assert copies == Counter({"metal3": 1})


class TestCacheEligible:
    def test_plain_config_is_eligible(self):
        assert cache_eligible(make_cfg())

    def test_deadlines_are_not(self):
        assert not cache_eligible(make_cfg(tile_deadline_s=1.0))
        assert not cache_eligible(make_cfg(run_deadline_s=10.0))

    def test_fault_injection_is(self):
        spec = FaultSpec(rules=(FaultRule(kind="error", methods=("ilp2",)),))
        assert cache_eligible(make_cfg(fault_spec=spec))

    def test_store_and_dir_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            SolutionCache(store=SolutionStore(), cache_dir="/tmp/anywhere")


class TestEngineIntegration:
    def test_warm_rerun_is_bit_identical_and_all_hits(
        self, small_generated_layout, prepared
    ):
        cache = SolutionCache()
        cold = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(solution_cache=cache),
            prepared=prepared,
        ).run()
        assert cold.cache_stats is not None
        assert cold.cache_stats["hits"] == 0
        assert cold.cache_stats["stores"] == cold.cache_stats["misses"]

        warm = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(solution_cache=cache),
            prepared=prepared,
        ).run()
        assert warm.features == cold.features
        assert warm.tile_solutions == cold.tile_solutions
        assert warm.solve_reports == cold.solve_reports
        assert warm.cache_stats is not None
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hits"] == len(cold.tile_solutions)

    def test_uncached_run_reports_no_stats(self, small_generated_layout, prepared):
        result = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(), prepared=prepared
        ).run()
        assert result.cache_stats is None

    def test_deadline_config_bypasses_cache(self, small_generated_layout, prepared):
        cache = SolutionCache()
        cfg = make_cfg(solution_cache=cache, run_deadline_s=3600.0)
        result = PILFillEngine(
            small_generated_layout, "metal3", cfg, prepared=prepared
        ).run()
        assert result.cache_stats is None
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0, "invalidated": 0}

    def test_disk_cache_survives_cache_instances(
        self, small_generated_layout, prepared, tmp_path
    ):
        cold = PILFillEngine(
            small_generated_layout, "metal3",
            make_cfg(solution_cache=SolutionCache(cache_dir=tmp_path)),
            prepared=prepared,
        ).run()
        warm = PILFillEngine(
            small_generated_layout, "metal3",
            make_cfg(solution_cache=SolutionCache(cache_dir=tmp_path)),
            prepared=prepared,
        ).run()
        assert warm.cache_stats is not None
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hits"] == len(cold.tile_solutions)
        assert warm.features == cold.features


class TestInvalidateWindow:
    def test_dirty_tiles_are_evicted_and_counted(
        self, small_generated_layout, prepared
    ):
        cache = SolutionCache()
        result = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(solution_cache=cache),
            prepared=prepared,
        ).run()
        tile_rects = {t.key: t.rect for t in prepared.dissection.tiles()}
        target = sorted(result.tile_solutions)[0]
        before = len(cache.store)

        dirty = cache.invalidate_window(prepared.tile_index(), tile_rects[target])
        assert target in dirty
        assert cache.invalidated == len(dirty)
        assert len(cache.store) == before - len(dirty)
        # The remembered run map was consumed: a second pass finds nothing.
        assert cache.invalidate_window(prepared.tile_index(), tile_rects[target]) == ()

    def test_cold_process_misses_invalidated_tiles(
        self, small_generated_layout, prepared, tmp_path
    ):
        """The ECO contract across processes: after ``invalidate_window``
        the evicted digests must miss even for a *fresh interpreter* with
        a cold memory layer — the disk entries are gone, not just the
        in-memory ones."""
        cache = SolutionCache(cache_dir=tmp_path)
        result = PILFillEngine(
            small_generated_layout, "metal3", make_cfg(solution_cache=cache),
            prepared=prepared,
        ).run()
        tile_rects = {t.key: t.rect for t in prepared.dissection.tiles()}
        target = sorted(result.tile_solutions)[0]
        digests = dict(cache._run_digests)

        dirty = cache.invalidate_window(prepared.tile_index(), tile_rects[target])
        assert dirty
        dirty_digests = [digests[key] for key in dirty]
        survivors = [d for key, d in digests.items() if key not in dirty]

        code = textwrap.dedent(
            """
            import json, sys
            from repro.pilfill import SolutionStore
            cache_dir, dirty, survivors = json.loads(sys.argv[1])
            store = SolutionStore(cache_dir=cache_dir)
            print(json.dumps({
                "stale_hits": sum(store.get(d) is not None for d in dirty),
                "survivor_hits": sum(store.get(d) is not None for d in survivors),
            }))
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code,
             json.dumps([str(tmp_path), dirty_digests, survivors])],
            capture_output=True, text=True, env=env, check=True,
        )
        outcome = json.loads(proc.stdout)
        assert outcome["stale_hits"] == 0
        assert outcome["survivor_hits"] == len(survivors)

    def test_disjoint_window_dirties_nothing(self, small_generated_layout, prepared):
        cache = SolutionCache()
        PILFillEngine(
            small_generated_layout, "metal3", make_cfg(solution_cache=cache),
            prepared=prepared,
        ).run()
        die = small_generated_layout.die
        outside = Rect(die.xhi + 1000, die.yhi + 1000, die.xhi + 2000, die.yhi + 2000)
        assert cache.invalidate_window(prepared.tile_index(), outside) == ()
        assert cache.invalidated == 0


class TestEditWindow:
    WINDOW = Rect(8000, 8000, 24000, 24000)

    def test_deterministic_per_seed(self, small_generated_layout):
        first, summary1 = edit_window(small_generated_layout, self.WINDOW, seed=5)
        second, summary2 = edit_window(small_generated_layout, self.WINDOW, seed=5)
        assert summary1 == summary2
        assert sorted(first.nets) == sorted(second.nets)

    def test_leaves_original_untouched(self, small_generated_layout):
        names = sorted(small_generated_layout.nets)
        edited, summary = edit_window(small_generated_layout, self.WINDOW, seed=5)
        assert sorted(small_generated_layout.nets) == names
        assert edited is not small_generated_layout
        if summary.action == "insert":
            assert summary.net in edited.nets
            assert summary.net not in small_generated_layout.nets
        elif summary.action == "remove":
            assert summary.net not in edited.nets
            assert summary.net in small_generated_layout.nets

    def test_unedited_nets_are_shared(self, small_generated_layout):
        edited, summary = edit_window(small_generated_layout, self.WINDOW, seed=5)
        for name, net in small_generated_layout.nets.items():
            if name != summary.net:
                # Structural sharing: the engine never mutates nets.
                assert edited.nets[name] is net

    def test_dirty_rect_stays_near_the_window(self, small_generated_layout):
        grown = self.WINDOW.expanded(4000)
        for seed in range(8):
            _, summary = edit_window(small_generated_layout, self.WINDOW, seed=seed)
            if summary.action == "insert":
                assert grown.overlaps(summary.rect) or grown == summary.rect
                assert summary.rect.xlo >= self.WINDOW.xlo
                assert summary.rect.xhi <= self.WINDOW.xhi

    def test_window_off_die_raises(self, small_generated_layout):
        die = small_generated_layout.die
        off = Rect(die.xhi + 1, die.yhi + 1, die.xhi + 100, die.yhi + 100)
        with pytest.raises(LayoutError):
            edit_window(small_generated_layout, off, seed=0)


#: (workers, fault_spec) pairs for the contract sweep.
CONTRACT_VARIANTS = [
    pytest.param(1, None, id="serial"),
    pytest.param(2, None, id="process"),
    pytest.param(
        1,
        FaultSpec(rules=(FaultRule(kind="error", methods=("ilp2",)),)),
        id="serial-faulted",
    ),
]


@pytest.mark.slow
class TestIncrementalContract:
    """Property: for any seeded edit window, warm == cold, bit for bit."""

    @pytest.mark.parametrize("workers,fault_spec", CONTRACT_VARIANTS)
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=(HealthCheck.function_scoped_fixture,),
    )
    @given(
        x0=st.integers(min_value=0, max_value=36000),
        y0=st.integers(min_value=0, max_value=36000),
        size=st.integers(min_value=4000, max_value=12000),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_warm_refill_matches_cold(
        self, small_generated_layout, prepared,
        workers, fault_spec, x0, y0, size, seed,
    ):
        method = "ilp2" if fault_spec is not None else "dp"
        window = Rect(x0, y0, x0 + size, y0 + size)
        edited, summary = edit_window(small_generated_layout, window, seed=seed)

        def cfg(cache):
            return make_cfg(
                method=method, workers=workers,
                fault_spec=fault_spec, solution_cache=cache,
            )

        cache = SolutionCache()
        PILFillEngine(
            small_generated_layout, "metal3", cfg(cache), prepared=prepared
        ).run()

        edited_prep = prepare(edited, "metal3", FILL, DENSITY)
        cache.invalidate_window(edited_prep.tile_index(), summary.rect)

        cold = PILFillEngine(
            edited, "metal3", cfg(None), prepared=edited_prep
        ).run()
        warm = PILFillEngine(
            edited, "metal3", cfg(cache), prepared=edited_prep
        ).run()

        assert warm.features == cold.features
        assert warm.tile_solutions == cold.tile_solutions
        assert warm.solve_reports == cold.solve_reports
        assert warm.cache_stats is not None
        stats = warm.cache_stats
        # Every dispatched tile (failed ones included) got exactly one
        # digest lookup.
        assert stats["hits"] + stats["misses"] == len(cold.tile_solutions)
