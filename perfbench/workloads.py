"""The benchmark's workloads: generated DEF inputs and the timed operation.

Every workload is a path a user runs, from DEF text to placed fill and its
:func:`~repro.pilfill.shard.result_digest`. The parent process generates a
run's designs from ``--seed`` (untimed) and writes them as DEF files; the
child processes only ever see those files. A run covers ``designs`` designs
(design seeds ``seed * designs + j``) so one unusually easy or hard design
cannot move the run's number by much.

An op times public calls only: ``parse_def`` / ``prepare`` /
``prepare_streaming``, ``PreparedInstance.budget_for``,
``PreparedInstance.costs_for``, ``PILFillEngine.run``, ``evaluate_impact``
and ``result_digest``. Every call sits in a :class:`~spans.Probe` span,
which records nothing unless the op is traced. Calls made only to attribute
time to layers (a parse-only pass, ``tile_digest``,
``PreparedInstance.digest``) run in :attr:`Workload.attribute`, after the
op and outside its time, as does the check that every placed feature keeps
the fill rules (:func:`illegal_fill`).

The workloads leave ``density_backend`` at its default and use neither the
thread backend nor ``shards``, so removing those knobs cannot break them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import LayoutError
from repro.experiments.harness import TABLE_METHODS
from repro.geometry import Rect
from repro.io.deflite import parse_def, parse_def_streaming, write_def
from repro.layout import validate_fill
from repro.layout.layout import FillFeature, RoutedLayout
from repro.pilfill import (
    EngineConfig,
    FillResult,
    PILFillEngine,
    PreparedInstance,
    SolutionCache,
    evaluate_impact,
    pool_stats,
    prepare,
    prepare_streaming,
    result_digest,
    run_context_digest,
    shutdown_pools,
    tile_digest,
)
from repro.synth import (
    GeneratorSpec,
    default_fill_rules,
    density_rules_for,
    edit_window,
    generate_layout,
    iter_banded_def_lines,
    t2_spec,
    t3_spec,
)
from repro.tech.process import default_stack
from repro.tech.rules import DensityRules
from spans import Probe

LAYER = "metal3"
STACK = default_stack()
FILL_RULES = default_fill_rules(STACK)
#: The W/r rows of the paper's Table 2 (window in µm, dissection r).
TABLE_CONFIGS = ((32, 2), (32, 4), (32, 8), (20, 2), (20, 4), (20, 8))
#: The chip and ECO workloads run the finest Table 2 configuration.
FINE = (20, 8)


@dataclass
class Outcome:
    """What one op produced. ``placed`` pairs each run's fill with the
    layout it was placed on (``None``: the design's DEF, which a streamed
    op never materializes). ``keep`` holds objects the traced-only
    attribution calls need; the child drops both right after."""

    digest: str
    failed_tiles: int
    placed: list[tuple[RoutedLayout | None, list[FillFeature]]] = field(default_factory=list)
    prepared_digest: str | None = None
    keep: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``generate(seed, out_dir, designs, die_um)`` runs in the parent and
    returns one JSON-ready descriptor per design; tests pass a smaller
    ``die_um`` than :attr:`die_um` for tiny inputs. The rest runs
    in the child: ``setup`` once per child (timed as set-up), ``stage``
    before each op (untimed), ``op`` (timed), ``attribute`` after a traced
    op (untimed).

    ``reference`` names a workload whose op must produce the same digests
    on the same designs; a run checks one of its designs against it. A
    workload that only serves as a reference is not in ``BENCHMARK.json``,
    but ``run.py --workload`` runs it like any other.
    """

    name: str
    designs: int
    die_um: float
    generate: Callable[..., list[dict]]
    setup: Callable[[list[dict], Path], dict]
    op: Callable[[dict, int, Probe], Outcome]
    attribute: Callable[[dict, int, Outcome, Probe], None] | None = None
    stage: Callable[[dict, int], None] | None = None
    reference: str | None = None


# ---------------------------------------------------------------------------
# inputs (parent side)


def scaled(spec: GeneratorSpec, die_um: float) -> GeneratorSpec:
    """``spec`` on a ``die_um`` die at the same net density."""
    n_nets = max(1, round(spec.n_nets * (die_um / spec.die_um) ** 2))
    return replace(spec, die_um=die_um, n_nets=n_nets)


def design_seeds(seed: int, designs: int) -> list[int]:
    return [seed * designs + j for j in range(designs)]


def _write_lines(path: Path, lines: Iterable[str]) -> dict:
    with path.open("w") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return {"def": str(path)}


def generate_chip(seed: int, out_dir: Path, designs: int, die_um: float) -> list[dict]:
    """Band-sorted T3-profile DEF, as the chip-scale emitter writes it."""
    return [
        _write_lines(
            out_dir / f"chip{j}.def",
            iter_banded_def_lines(scaled(t3_spec(seed=3 + s), die_um), STACK),
        )
        for j, s in enumerate(design_seeds(seed, designs))
    ]


def generate_table(seed: int, out_dir: Path, designs: int, die_um: float) -> list[dict]:
    """T2-profile DEF in ``write_def`` (net insertion) order."""
    out = []
    for j, s in enumerate(design_seeds(seed, designs)):
        path = out_dir / f"t2_{j}.def"
        path.write_text(write_def(generate_layout(scaled(t2_spec(seed=2 + s), die_um), STACK)))
        out.append({"def": str(path)})
    return out


def eco_edit(layout: RoutedLayout, density_rules: DensityRules) -> tuple[RoutedLayout, Rect]:
    """A seeded ~1%-area :func:`edit_window` ECO whose dirty rect touches
    a tile the fill run solves, so the warm re-fill re-solves something.

    The window has a tenth of the die side and is centred on the median
    tile with a positive Min-Var budget (the tiles the priming run
    solves); edit seeds are scanned until the dirty rect crosses one.
    """
    prep = prepare(layout, LAYER, FILL_RULES, density_rules)
    cfg = EngineConfig(fill_rules=FILL_RULES, density_rules=density_rules)
    solved = sorted(key for key, n in prep.budget_for(cfg).items() if n > 0)
    anchor = {tile.key: tile.rect for tile in prep.dissection.tiles()}[solved[len(solved) // 2]]
    side = max(1, layout.die.width // 10)
    cx, cy = (anchor.xlo + anchor.xhi) // 2, (anchor.ylo + anchor.yhi) // 2
    window = Rect(cx - side // 2, cy - side // 2, cx + side // 2, cy + side // 2)
    solved_set = set(solved)
    index = prep.tile_index()
    for edit_seed in range(1, 33):
        edited, summary = edit_window(layout, window, seed=edit_seed)
        if any(key in solved_set for key in index.query(summary.rect)):
            break
    return edited, summary.rect


def generate_eco(seed: int, out_dir: Path, designs: int, die_um: float) -> list[dict]:
    """T2-profile base DEF plus its ECO-edited twin and the dirty rect."""
    density_rules = density_rules_for(*FINE, STACK)
    out = []
    for j, s in enumerate(design_seeds(seed, designs)):
        layout = generate_layout(scaled(t2_spec(seed=2 + s), die_um), STACK)
        edited, dirty = eco_edit(layout, density_rules)
        base, after = out_dir / f"eco{j}.def", out_dir / f"eco{j}_edited.def"
        base.write_text(write_def(layout))
        after.write_text(write_def(edited))
        out.append({
            "def": str(base),
            "edited_def": str(after),
            "dirty": [dirty.xlo, dirty.ylo, dirty.xhi, dirty.yhi],
        })
    return out


# ---------------------------------------------------------------------------
# traced public calls (child side)


def _parse(probe: Probe, path: str) -> RoutedLayout:
    with probe.call("io.parse") as sp:
        layout = parse_def(Path(path).read_text(), STACK)
        probe.attach(sp, lambda: {"bytes": os.path.getsize(path)})
    return layout


def _prepare_counts(prep: PreparedInstance) -> dict:
    return {
        "tiles": prep.dissection.tile_count,
        "columns": sum(len(cols) for cols in prep.columns_by_tile.values()),
        "scanline_s": prep.phase_seconds.get("scanline", 0.0),
    }


def _prepare(probe: Probe, layout: RoutedLayout, density_rules: DensityRules) -> PreparedInstance:
    with probe.call("prepare") as sp:
        prep = prepare(layout, LAYER, FILL_RULES, density_rules, tracer=probe.tracer)
        probe.attach(sp, lambda: _prepare_counts(prep))
    return prep


def _lp_size(prep: PreparedInstance) -> dict:
    # Min-Var LP: one variable per tile plus M; two rows per window plus
    # the phase-2 floor on M.
    d = prep.dissection
    r = d.rules.r
    windows = max(0, d.nx - r + 1) * max(0, d.ny - r + 1)
    return {"lp_vars": d.tile_count + 1, "lp_rows": 2 * windows + 1}


def _budget(probe: Probe, prep: PreparedInstance, cfg: EngineConfig) -> dict:
    with probe.call("budget") as sp:
        budget = prep.budget_for(cfg, tracer=probe.tracer)
        probe.attach(sp, lambda: _lp_size(prep))
    return budget


def _costs(probe: Probe, prep: PreparedInstance, cfg: EngineConfig) -> None:
    with probe.call("costs") as sp:
        costs = prep.costs_for(cfg.weighted, tracer=probe.tracer)
        probe.attach(sp, lambda: {
            "columns": sum(len(cc) for cc in costs.values()),
            "lut_hits": prep.lut_stats.get("hits", 0),
            "lut_misses": prep.lut_stats.get("misses", 0),
        })


def _solve_counts(result: FillResult, pools_before: int) -> dict:
    counts = {
        "tiles": len(result.tile_solutions),
        "degraded": len(result.degraded_tiles),
        "failed": len(result.failed_tiles),
        "retried": len(result.retried_tiles),
        "pools_created": pool_stats()["created"] - pools_before,
        "objective_ps": result.model_objective_ps,
        "tile_s": json.dumps(list(result.tile_seconds.values())),
    }
    for name, value in (result.cache_stats or {}).items():
        counts[f"cache_{name}"] = value
    return counts


def _solve(
    probe: Probe,
    layout: RoutedLayout,
    prep: PreparedInstance,
    cfg: EngineConfig,
    budget: dict,
) -> FillResult:
    pools_before = pool_stats()["created"]
    with probe.call("solve", method=cfg.method) as sp:
        result = PILFillEngine(layout, LAYER, cfg, prepared=prep).run(budget=dict(budget))
        probe.attach(sp, lambda: _solve_counts(result, pools_before))
    return result


def _digest(probe: Probe, result: FillResult) -> str:
    with probe.call("digest"):
        return result_digest(result)


def illegal_fill(state: dict, j: int, outcome: Outcome) -> str | None:
    """The first fill-rule violation among an op's placed fill, or ``None``.

    Digests are pinned for seed 0 only; this checks every op at every seed.
    """
    for layout, features in outcome.placed:
        if layout is None:
            layout = parse_def(Path(state["designs"][j]["def"]).read_text(), STACK)
        base = len(layout.fills)
        try:
            for feature in features:
                layout.add_fill(feature)
            report = validate_fill(layout, FILL_RULES)
        except LayoutError as exc:
            return str(exc)
        finally:
            del layout.fills[base:]
        if not report.ok:
            return report.violations[0]
    return None


# ---------------------------------------------------------------------------
# chip_stream


def chip_setup(designs: list[dict], work_dir: Path) -> dict:
    return {"designs": designs, "density_rules": density_rules_for(*FINE, STACK)}


def chip_op(state: dict, j: int, probe: Probe) -> Outcome:
    density_rules = state["density_rules"]
    with probe.call("prepare") as sp, open(state["designs"][j]["def"]) as fh:
        prep = prepare_streaming(
            fh, STACK, LAYER, FILL_RULES, density_rules, tracer=probe.tracer, banded=True
        )
        probe.attach(sp, lambda: _prepare_counts(prep))
    cfg = EngineConfig(fill_rules=FILL_RULES, density_rules=density_rules)
    budget = _budget(probe, prep, cfg)
    _costs(probe, prep, cfg)
    result = _solve(probe, prep.layout, prep, cfg, budget)
    return Outcome(
        digest=_digest(probe, result),
        failed_tiles=len(result.failed_tiles),
        placed=[(None, result.features)],
        keep={"prep": prep},
    )


def chip_attribute(state: dict, j: int, outcome: Outcome, probe: Probe) -> None:
    # prepare_streaming parses as it goes; a parse-only pass tells how
    # much of the prepare span is parsing.
    path = state["designs"][j]["def"]
    with probe.call("attr.parse") as sp, open(path) as fh:
        parse_def_streaming(fh, STACK, keep_nets=False)
        probe.attach(sp, lambda: {"bytes": os.path.getsize(path)})
    with probe.call("attr.prepared_digest"):
        outcome.prepared_digest = outcome.keep["prep"].digest()


# ---------------------------------------------------------------------------
# table_t2 / table_t2_p2


def table_setup(designs: list[dict], work_dir: Path, *, parallel: dict) -> dict:
    """``parallel`` holds the engine's parallel knobs; empty for serial."""
    return {"designs": designs, "parallel": parallel}


def _table_row(
    probe: Probe, state: dict, layout: RoutedLayout, window_um: int, r: int
) -> tuple[list[str], int, list[list[FillFeature]]]:
    """One W/r row of the table: every method on one shared budget. Returns
    each method's digest and evaluated tau, the failed-tile count, and each
    method's fill."""
    density_rules = density_rules_for(window_um, r, STACK)
    prep = _prepare(probe, layout, density_rules)
    base = EngineConfig(
        fill_rules=FILL_RULES, density_rules=density_rules, backend="scipy",
        **state["parallel"],
    )
    budget = _budget(probe, prep, base)
    _costs(probe, prep, base)
    parts, failed, fills = [], 0, []
    for method in TABLE_METHODS:
        result = _solve(probe, layout, prep, replace(base, method=method), budget)
        with probe.call("evaluate") as sp:
            impact = evaluate_impact(layout, LAYER, result.features, FILL_RULES)
            probe.attach(sp, lambda: {"features": result.total_features})
        # The table cell is the evaluator's tau, so it is checked too.
        parts.append(f"{_digest(probe, result)} {impact.weighted_total_ps!r}")
        failed += len(result.failed_tiles)
        fills.append(result.features)
    prep.close()
    return parts, failed, fills


def table_op(state: dict, j: int, probe: Probe) -> Outcome:
    layout = _parse(probe, state["designs"][j]["def"])
    parts: list[str] = []
    failed = 0
    placed = []
    for window_um, r in TABLE_CONFIGS:
        row_parts, row_failed, fills = _table_row(probe, state, layout, window_um, r)
        parts += row_parts
        failed += row_failed
        placed += [(layout, features) for features in fills]
    if state["parallel"]:
        with probe.call("dispatch"):
            shutdown_pools()
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    return Outcome(digest=digest, failed_tiles=failed, placed=placed)


# ---------------------------------------------------------------------------
# eco_t2


def _eco_config(density_rules: DensityRules, cache: SolutionCache) -> EngineConfig:
    return EngineConfig(
        fill_rules=FILL_RULES, density_rules=density_rules, method="ilp2",
        backend="scipy", solution_cache=cache,
    )


def eco_setup(designs: list[dict], work_dir: Path) -> dict:
    """Prime one disk cache per design with a full ILP-II fill of the base
    design, then evict the tiles the ECO dirties (the cache layer writes)."""
    density_rules = density_rules_for(*FINE, STACK)
    primed = []
    for j, design in enumerate(designs):
        layout = parse_def(Path(design["def"]).read_text(), STACK)
        prep = prepare(layout, LAYER, FILL_RULES, density_rules)
        cache = SolutionCache(cache_dir=work_dir / f"primed{j}")
        prime = PILFillEngine(
            layout, LAYER, _eco_config(density_rules, cache), prepared=prep
        ).run()
        cache.invalidate_window(prep.tile_index(), Rect(*design["dirty"]))
        primed.append({"dir": work_dir / f"primed{j}", "budget": dict(prime.requested_budget)})
    return {
        "designs": designs,
        "density_rules": density_rules,
        "primed": primed,
        "op_dir": work_dir / "op-cache",
    }


def eco_stage(state: dict, j: int) -> None:
    """Give the next op a fresh copy of the primed cache (its misses write)."""
    shutil.rmtree(state["op_dir"], ignore_errors=True)
    shutil.copytree(state["primed"][j]["dir"], state["op_dir"])


def eco_op(state: dict, j: int, probe: Probe) -> Outcome:
    density_rules = state["density_rules"]
    layout = _parse(probe, state["designs"][j]["edited_def"])
    prep = _prepare(probe, layout, density_rules)
    cfg = _eco_config(density_rules, SolutionCache(cache_dir=state["op_dir"]))
    _costs(probe, prep, cfg)
    result = _solve(probe, layout, prep, cfg, state["primed"][j]["budget"])
    return Outcome(
        digest=_digest(probe, result),
        failed_tiles=len(result.failed_tiles),
        placed=[(layout, result.features)],
        keep={"prep": prep, "result": result, "cfg": cfg},
    )


def eco_attribute(state: dict, j: int, outcome: Outcome, probe: Probe) -> None:
    # What the cache pays to key its lookups: one tile_digest per solved tile.
    prep, result, cfg = outcome.keep["prep"], outcome.keep["result"], outcome.keep["cfg"]
    costs = prep.costs_for(cfg.weighted)
    keys = [key for key, n in result.effective_budget.items() if n > 0]
    with probe.call("attr.tile_digest", tiles=len(keys)):
        context = run_context_digest(cfg, LAYER)
        for key in keys:
            tile_digest(context, key, costs[key], result.effective_budget[key])


# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="chip_stream",
            designs=3,
            die_um=72.0,
            generate=generate_chip,
            setup=chip_setup,
            op=chip_op,
            attribute=chip_attribute,
        ),
        # Serial twin of table_t2_p2 and its reference.
        Workload(
            name="table_t2",
            designs=5,
            die_um=36.0,
            generate=generate_table,
            setup=partial(table_setup, parallel={}),
            op=table_op,
        ),
        Workload(
            name="table_t2_p2",
            designs=5,
            die_um=36.0,
            generate=generate_table,
            setup=partial(table_setup, parallel={"workers": 2, "parallel_backend": "process"}),
            op=table_op,
            reference="table_t2",
        ),
        Workload(
            name="eco_t2",
            designs=2,
            die_um=72.0,
            generate=generate_eco,
            setup=eco_setup,
            op=eco_op,
            attribute=eco_attribute,
            stage=eco_stage,
        ),
    )
}
