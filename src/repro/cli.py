"""Command-line interface.

Usage::

    python -m repro table1 [--quick] [--csv out.csv]
    python -m repro table2 [--quick] [--csv out.csv]
    python -m repro density --testcase T1 --window 32 -r 2
    python -m repro fill --testcase T1 --window 32 -r 2 --method ilp2 --out filled.def
    python -m repro quickstart
"""

from __future__ import annotations

import argparse
import sys

from repro.dissection import DensityMap, FixedDissection
from repro.experiments.ablation import STUDIES, run_study
from repro.experiments.tables import TableSpec, run_table
from repro.io import write_def
from repro.pilfill import (
    METHODS,
    EngineConfig,
    PILFillEngine,
    SolutionCache,
    evaluate_impact,
)
from repro.synth import (
    default_fill_rules,
    density_rules_for,
    make_t1,
    make_t2,
)


def _layout_for(name: str):
    if name == "T1":
        return make_t1()
    if name == "T2":
        return make_t2()
    raise SystemExit(f"unknown testcase {name!r}; expected T1 or T2")


def _cmd_table(args: argparse.Namespace, weighted: bool) -> int:
    telemetry = bool(args.trace_out or args.metrics_out)
    cache_dir = None if args.no_cache else args.cache_dir
    quick = (
        {"testcases": ("T1",), "windows_um": (32,), "r_values": (2,)}
        if args.quick
        else {}
    )
    spec = TableSpec(
        workers=args.workers,
        tile_deadline_s=args.tile_deadline, run_deadline_s=args.run_deadline,
        telemetry=telemetry, cache_dir=cache_dir,
        shards=args.shards,
        **quick,
    )
    table = run_table(
        weighted=weighted, spec=spec, progress=lambda label: print(f"  done {label}")
    )
    print()
    print(table.format())
    if table.degraded_cells:
        print(f"\n{table.degraded_cells} cell(s) degraded or failed — "
              "see the *, ! annotations above")
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(table.to_csv())
        print(f"\nCSV written to {args.csv}")
    if args.trace_out:
        from repro.obs.report import write_report

        write_report(args.trace_out, {
            "schema": "pilfill-table-report/v1",
            "weighted": weighted,
            "cells": table.reports(),
        })
        print(f"trace report written to {args.trace_out}")
    if args.metrics_out:
        from repro.obs.report import write_report

        write_report(args.metrics_out, {
            "schema": "pilfill-table-metrics/v1",
            "weighted": weighted,
            "cells": {
                label: {method: report.get("metrics") for method, report in cell.items()}
                for label, cell in table.reports().items()
            },
        })
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    layout = _layout_for(args.testcase)
    rules = density_rules_for(args.window, args.r, layout.stack)
    dissection = FixedDissection(layout.die, rules)
    density = DensityMap.from_layout(dissection, layout, args.layer)
    stats = density.stats()
    print(f"{args.testcase} {args.layer} W={args.window}um r={args.r}")
    print(f"  tiles: {dissection.nx} x {dissection.ny}, windows: {dissection.window_count}")
    print(f"  window density min/mean/max: "
          f"{stats.min_density:.4f} / {stats.mean_density:.4f} / {stats.max_density:.4f}")
    print(f"  variation: {stats.variation:.4f}")
    return 0


def _cmd_fill(args: argparse.Namespace) -> int:
    layout = _layout_for(args.testcase)
    fill_rules = default_fill_rules(layout.stack)
    cache_dir = None if args.no_cache else args.cache_dir
    solution_cache = SolutionCache(cache_dir=cache_dir) if cache_dir else None
    cfg = EngineConfig(
        fill_rules=fill_rules,
        density_rules=density_rules_for(args.window, args.r, layout.stack),
        method=args.method,
        weighted=not args.unweighted,
        seed=args.seed,
        workers=args.workers,
        tile_deadline_s=args.tile_deadline,
        run_deadline_s=args.run_deadline,
        telemetry=bool(args.trace_out or args.metrics_out),
        solution_cache=solution_cache,
        shards=args.shards,
    )
    engine = PILFillEngine(layout, args.layer, cfg)
    result = engine.run()
    impact = evaluate_impact(layout, args.layer, result.features, fill_rules)
    print(f"{args.testcase}/{args.window}/{args.r} method={args.method} "
          f"workers={args.workers}")
    print(f"  features placed: {result.total_features} (shortfall {result.shortfall})")
    if not result.clean:
        degraded, failed, retried = (
            result.degraded_tiles, result.failed_tiles, result.retried_tiles
        )
        print(f"  robustness: {len(degraded)} degraded, {len(failed)} failed, "
              f"{len(retried)} retried tile(s)")
        for key in degraded[:3]:
            report = result.solve_reports[key]
            print(f"    tile {key}: {report.requested_method} -> {report.used_method}")
    print(f"  delay impact: tau={impact.total_ps:.4f} ps, "
          f"weighted tau={impact.weighted_total_ps:.4f} ps")
    print(f"  solve time: {result.solve_seconds:.2f} s")
    if result.cache_stats is not None:
        stats = result.cache_stats
        print(f"  solution cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
              f"{stats['stores']} stored")
    phases = "  ".join(
        f"{name}={seconds:.3f}s" for name, seconds in result.phase_seconds.items()
    )
    print(f"  phases: {phases}")
    if result.tile_seconds:
        slowest = sorted(
            result.tile_seconds.items(), key=lambda kv: kv[1], reverse=True
        )[:3]
        shown = ", ".join(f"{key}: {sec:.3f}s" for key, sec in slowest)
        print(f"  slowest tiles ({len(result.tile_seconds)} solved): {shown}")
    if args.out:
        for feature in result.features:
            layout.add_fill(feature)
        with open(args.out, "w") as handle:
            handle.write(write_def(layout))
        print(f"  filled layout written to {args.out}")
    if args.trace_out or args.metrics_out:
        from repro.obs.report import write_report

        report = result.to_report(cfg)
        if args.trace_out:
            write_report(args.trace_out, report)
            print(f"  trace report written to {args.trace_out}")
        if args.metrics_out:
            write_report(args.metrics_out, {
                "schema": "pilfill-metrics/v1",
                "metrics": report.get("metrics"),
            })
            print(f"  metrics written to {args.metrics_out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import lint_paths, render_json, render_sarif, render_text

    cache_path = None if args.no_cache else Path(args.cache)
    report = lint_paths(
        args.paths,
        cache_path=cache_path,
        changed_only=args.changed,
    )
    if args.format == "json":
        rendered = render_json(report.findings, report.files_checked)
    elif args.format == "sarif":
        rendered = render_sarif(report.findings, report.files_checked)
    else:
        rendered = render_text(report.findings, report.files_checked)
    print(rendered)
    if args.sarif_out:
        Path(args.sarif_out).write_text(
            render_sarif(report.findings, report.files_checked) + "\n",
            encoding="utf-8",
        )
    return 0 if report.clean else 1


def _quickstart_inline(_args: argparse.Namespace) -> int:
    layout = make_t1()
    fill_rules = default_fill_rules(layout.stack)
    cfg = EngineConfig(
        fill_rules=fill_rules,
        density_rules=density_rules_for(32, 2, layout.stack),
        method="ilp2",
    )
    result = PILFillEngine(layout, "metal3", cfg).run()
    impact = evaluate_impact(layout, "metal3", result.features, fill_rules)
    print(f"placed {result.total_features} fill features on metal3")
    print(f"weighted delay impact: {impact.weighted_total_ps:.4f} ps")
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The engine flags shared by ``table1``, ``table2`` and ``fill``."""
    p.add_argument("--workers", type=int, default=1,
                   help="per-tile solver parallelism: 1 solves in-process, "
                        "N > 1 uses the persistent N-worker process pool")
    p.add_argument("--tile-deadline", type=float, default=None,
                   help="per-tile solve deadline in seconds; timed-out "
                        "tiles degrade ILP-II -> ILP-I -> Greedy")
    p.add_argument("--run-deadline", type=float, default=None,
                   help="whole-solve-phase deadline in seconds per engine run")
    p.add_argument("--cache-dir", default=None,
                   help="enable the content-addressed tile-solution cache, "
                        "persisted under this directory; warm re-runs merge "
                        "cached tiles instead of re-solving (bit-identical "
                        "results)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the tile-solution cache even when "
                        "--cache-dir is given")
    p.add_argument("--trace-out", default=None,
                   help="write the run report(s) (spans, metrics, per-tile "
                        "solve reports) as JSON to this path; enables "
                        "telemetry")
    p.add_argument("--metrics-out", default=None,
                   help="write the run metrics as JSON to this path; "
                        "enables telemetry")
    p.add_argument("--shards", type=int, default=1,
                   help="row-band shards for the solve phase; each shard "
                        "builds only its own cost tables, so peak memory "
                        "holds one band (results are bit-identical for "
                        "any shard count)")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="pilfill",
        description="Performance-impact limited area fill synthesis (DAC 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for table_name in ("table1", "table2"):
        p = sub.add_parser(table_name, help=f"regenerate paper {table_name}")
        p.add_argument("--quick", action="store_true", help="single-config smoke run")
        p.add_argument("--csv", help="also write CSV to this path")
        _add_run_flags(p)

    p = sub.add_parser("density", help="density analysis of a testcase")
    p.add_argument("--testcase", default="T1", choices=("T1", "T2"))
    p.add_argument("--layer", default="metal3")
    p.add_argument("--window", type=int, default=32)
    p.add_argument("-r", type=int, default=2, dest="r")

    p = sub.add_parser("fill", help="run one fill configuration")
    p.add_argument("--testcase", default="T1", choices=("T1", "T2"))
    p.add_argument("--layer", default="metal3")
    p.add_argument("--window", type=int, default=32)
    p.add_argument("-r", type=int, default=2, dest="r")
    p.add_argument("--method", default="ilp2", choices=METHODS)
    p.add_argument("--unweighted", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write filled DEF-lite to this path")
    _add_run_flags(p)

    sub.add_parser("quickstart", help="tiny end-to-end demo")

    p = sub.add_parser("ablation", help="run one ablation study")
    p.add_argument("name", choices=sorted(STUDIES),
                   help="; ".join(f"{k}: {v}" for k, v in sorted(STUDIES.items())))
    p.add_argument("--testcase", default="T1", choices=("T1", "T2"))

    p = sub.add_parser(
        "lint",
        help="determinism/concurrency/typing lint over the source tree",
    )
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories to lint (default: src/repro)")
    p.add_argument("--format", default="text", choices=("text", "json", "sarif"),
                   help="report format (json round-trips; sarif feeds "
                        "GitHub code scanning)")
    p.add_argument("--sarif-out", default=None,
                   help="additionally write a SARIF report to this path")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-hash result cache")
    p.add_argument("--cache", default=".pilfill-lint-cache.json",
                   help="cache file path (content-digest keyed)")
    p.add_argument("--changed", action="store_true",
                   help="lint only files changed per git plus their "
                        "import-closure dependents (falls back to a full "
                        "lint when git state is unavailable)")

    p = sub.add_parser("report", help="full markdown reproduction report")
    p.add_argument("-o", "--out", default="REPORT.md")
    p.add_argument("--quick", action="store_true", help="single-config tables")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        return _cmd_table(args, weighted=False)
    if args.command == "table2":
        return _cmd_table(args, weighted=True)
    if args.command == "density":
        return _cmd_density(args)
    if args.command == "fill":
        return _cmd_fill(args)
    if args.command == "quickstart":
        return _quickstart_inline(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "ablation":
        needs_layout = args.name in ("columns", "margin", "fillsize")
        layout = _layout_for(args.testcase) if needs_layout else None
        print(run_study(args.name, layout))
        return 0
    if args.command == "report":
        from repro.experiments import ReportSpec, generate_report

        spec = ReportSpec()
        if args.quick:
            spec.table_spec = TableSpec(testcases=("T1",), windows_um=(32,), r_values=(2,))
            spec.include_ablations = False
        text = generate_report(spec)
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report written to {args.out}")
        return 0
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
