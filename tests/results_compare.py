"""Result-regression checks for the table CSVs.

The repository ships golden CSVs (``results_table1.csv`` /
``results_table2.csv`` at the root, ``tests/golden/``). The tests parse
them with :func:`parse_results_csv`, compare a fresh run against them
(method rows must agree within a relative tolerance) and re-check the
qualitative shape (ILP-II never worse than Normal, equal feature counts
across methods).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from repro.errors import ReproError

#: Column names every table CSV has.
CSV_FIELDS = (
    "testcase", "window_um", "r", "method", "tau_ps", "weighted_tau_ps",
    "cpu_s", "features",
)
#: Robustness counters ``TableResult.to_csv`` writes; older CSVs (the
#: root ``results_table*.csv``) predate them and parse as zero.
COUNTER_FIELDS = ("degraded_tiles", "failed_tiles", "retried_tiles")


@dataclass(frozen=True)
class ResultRow:
    """One (config, method) measurement."""

    testcase: str
    window_um: int
    r: int
    method: str
    tau_ps: float
    weighted_tau_ps: float
    features: int
    degraded_tiles: int = 0
    failed_tiles: int = 0
    retried_tiles: int = 0

    @property
    def config(self) -> tuple[str, int, int]:
        return (self.testcase, self.window_um, self.r)


def parse_results_csv(text: str) -> list[ResultRow]:
    """Parse a table CSV produced by ``TableResult.to_csv``; every column
    but ``cpu_s`` (host-dependent) lands in the row."""
    reader = csv.DictReader(io.StringIO(text))
    missing = set(CSV_FIELDS) - set(reader.fieldnames or ())
    if missing:
        raise ReproError(f"results CSV missing columns: {sorted(missing)}")
    rows = []
    for line_no, record in enumerate(reader, start=2):
        try:
            rows.append(
                ResultRow(
                    testcase=record["testcase"],
                    window_um=int(record["window_um"]),
                    r=int(record["r"]),
                    method=record["method"],
                    tau_ps=float(record["tau_ps"]),
                    weighted_tau_ps=float(record["weighted_tau_ps"]),
                    features=int(record["features"]),
                    **{name: int(record[name]) for name in COUNTER_FIELDS if name in record},
                )
            )
        except (KeyError, ValueError) as exc:
            raise ReproError(f"results CSV line {line_no}: {exc}") from exc
    if not rows:
        raise ReproError("results CSV has no data rows")
    return rows


@dataclass
class ComparisonReport:
    """Differences between two result sets."""

    mismatches: list[str] = field(default_factory=list)
    shape_failures: list[str] = field(default_factory=list)
    rows_compared: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.shape_failures

    def __str__(self) -> str:
        if self.ok:
            return f"OK ({self.rows_compared} rows)"
        lines = []
        if self.mismatches:
            lines.append(f"{len(self.mismatches)} value mismatches:")
            lines += [f"  {m}" for m in self.mismatches[:10]]
        if self.shape_failures:
            lines.append(f"{len(self.shape_failures)} shape failures:")
            lines += [f"  {m}" for m in self.shape_failures]
        return "\n".join(lines)


def check_shape(rows: list[ResultRow], weighted: bool) -> list[str]:
    """The qualitative reproduction targets, on one result set."""
    failures = []
    by_config: dict[tuple, dict[str, ResultRow]] = {}
    for row in rows:
        by_config.setdefault(row.config, {})[row.method] = row

    def tau(row: ResultRow) -> float:
        return row.weighted_tau_ps if weighted else row.tau_ps

    for config, methods in by_config.items():
        if {"normal", "ilp2"} - set(methods):
            failures.append(f"{config}: missing methods {sorted(methods)}")
            continue
        if tau(methods["ilp2"]) > tau(methods["normal"]) + 1e-12:
            failures.append(f"{config}: ILP-II worse than Normal")
        counts = {m.features for m in methods.values()}
        if len(counts) != 1:
            failures.append(f"{config}: feature counts differ across methods {counts}")
    return failures


def compare_results(
    golden: list[ResultRow],
    fresh: list[ResultRow],
    rel_tol: float = 0.05,
    weighted: bool = True,
) -> ComparisonReport:
    """Compare ``fresh`` against ``golden`` within ``rel_tol``."""
    report = ComparisonReport()
    golden_by_key = {(r.config, r.method): r for r in golden}
    fresh_by_key = {(r.config, r.method): r for r in fresh}

    for key, g in golden_by_key.items():
        f = fresh_by_key.get(key)
        if f is None:
            report.mismatches.append(f"{key}: missing in fresh results")
            continue
        report.rows_compared += 1
        for attr in ("tau_ps", "weighted_tau_ps"):
            gv, fv = getattr(g, attr), getattr(f, attr)
            scale = max(abs(gv), 1e-12)
            if abs(gv - fv) / scale > rel_tol:
                report.mismatches.append(
                    f"{key}: {attr} golden={gv:.6f} fresh={fv:.6f}"
                )
        if g.features != f.features:
            report.mismatches.append(
                f"{key}: features golden={g.features} fresh={f.features}"
            )
    for key in sorted(fresh_by_key.keys() - golden_by_key.keys()):
        report.mismatches.append(f"{key}: unexpected extra row")

    report.shape_failures = check_shape(fresh, weighted)
    return report
