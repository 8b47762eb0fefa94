"""Table 1 / Table 2 regeneration.

Table 1: non-weighted total delay increase τ per method over the 12
configurations {T1, T2} × window ∈ {32, 20} µm × r ∈ {2, 4, 8}.
Table 2: the sink-weighted variant. τ is reported in picoseconds — the
synthetic stand-in layouts are far smaller than the paper's industry
designs, so absolute magnitudes differ by construction; the comparisons
(who wins, by what factor, and the trends over r) are the reproduction
target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.harness import TABLE_METHODS, ConfigResult, run_config
from repro.layout.layout import RoutedLayout
from repro.synth.testcases import R_VALUES, WINDOW_SIZES_UM, make_t1, make_t2


@dataclass
class TableSpec:
    """Which configurations a table run covers."""

    testcases: tuple[str, ...] = ("T1", "T2")
    windows_um: tuple[int, ...] = WINDOW_SIZES_UM
    r_values: tuple[int, ...] = R_VALUES
    methods: tuple[str, ...] = TABLE_METHODS
    layer: str = "metal3"
    backend: str = "scipy"
    seed: int = 0
    #: Per-tile solver parallelism forwarded to every engine run.
    workers: int = 1
    #: Per-tile / per-run wall-clock deadlines (seconds; see EngineConfig).
    tile_deadline_s: float | None = None
    run_deadline_s: float | None = None
    #: Robust solving (method degradation + fault isolation) — default on.
    fallback: bool = True
    #: Deterministic fault injection for tests (repro.testing.faults).
    fault_spec: object | None = None
    #: Record spans + metrics per method run; each cell's outcome then
    #: carries its full run report (see :meth:`TableResult.reports`).
    telemetry: bool = False
    #: Directory for the disk-backed tile-solution cache (see
    #: :mod:`repro.pilfill.incremental`); re-running an unchanged table
    #: then merges cached tile solutions instead of re-solving them.
    #: ``None`` (default) → no caching.
    cache_dir: str | None = None
    #: Row-band shards for the solve phase (see
    #: :mod:`repro.pilfill.shard`); 1 (default) → unsharded. Results are
    #: bit-identical for any value — sharding only bounds peak memory.
    shards: int = 1


@dataclass
class TableResult:
    """A generated table: one :class:`ConfigResult` per row."""

    weighted: bool
    rows: list[ConfigResult] = field(default_factory=list)

    def format(self) -> str:
        """Render in the paper's layout (τ in ps, CPU in seconds).

        A τ cell gains a ``*`` when some of its tiles were solved by a
        cheaper fallback method (deadline/fault degradation) and a ``!``
        when tiles failed outright (left empty) — those cells are not
        pure measurements of the named method.
        """
        kind = "Weighted" if self.weighted else "Non-weighted"
        header = (
            f"{kind} PIL-Fill synthesis (tau in ps, CPU in s)\n"
            f"{'Testcase':<10}{'Normal':>10}"
            f"{'ILP-I':>11}{'CPU':>7}"
            f"{'ILP-II':>11}{'CPU':>7}"
            f"{'Greedy':>11}{'CPU':>7}"
        )
        lines = [header, "-" * len(header.splitlines()[-1])]
        annotated = False
        for row in self.rows:
            cells = [f"{row.label:<10}"]
            cells.append(f"{row.tau('normal', self.weighted):>10.4f}")
            for method in ("ilp1", "ilp2", "greedy"):
                out = row.outcomes[method]
                mark = ""
                if out.failed_tiles:
                    mark = "!"
                elif out.degraded_tiles:
                    mark = "*"
                annotated = annotated or bool(mark)
                cells.append(f"{row.tau(method, self.weighted):>10.4f}{mark:<1}")
                cells.append(f"{out.cpu_s:>7.2f}")
            lines.append("".join(cells))
        if annotated:
            lines.append(
                "* some tiles degraded to a cheaper fallback method; "
                "! some tiles failed (left unfilled)"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Machine-readable form."""
        out = [
            "testcase,window_um,r,method,tau_ps,weighted_tau_ps,cpu_s,features,"
            "degraded_tiles,failed_tiles,retried_tiles"
        ]
        for row in self.rows:
            for method, outcome in row.outcomes.items():
                out.append(
                    f"{row.testcase},{row.window_um},{row.r},{method},"
                    f"{outcome.tau_ps:.6f},{outcome.weighted_tau_ps:.6f},"
                    f"{outcome.cpu_s:.3f},{outcome.features},"
                    f"{outcome.degraded_tiles},{outcome.failed_tiles},"
                    f"{outcome.retried_tiles}"
                )
        return "\n".join(out) + "\n"

    def reports(self) -> dict[str, dict[str, dict]]:
        """Per-cell run reports, ``{row label: {method: report dict}}``.

        Only populated when the table ran with ``TableSpec.telemetry``;
        cells without a report are omitted. This is what the CLI's
        ``--trace-out`` serializes — reading a degraded cell's entry shows
        the fallback-rung history and span tree behind the ``*``/``!``.
        """
        out: dict[str, dict[str, dict]] = {}
        for row in self.rows:
            cell = {
                method: outcome.report
                for method, outcome in row.outcomes.items()
                if outcome.report is not None
            }
            if cell:
                out[row.label] = cell
        return out

    @property
    def degraded_cells(self) -> int:
        """Method cells (rows × methods) with degraded or failed tiles."""
        return sum(
            1
            for row in self.rows
            for outcome in row.outcomes.values()
            if outcome.degraded_tiles or outcome.failed_tiles
        )


def default_layouts(seed_t1: int = 1, seed_t2: int = 2) -> dict[str, RoutedLayout]:
    """The T1/T2 stand-in layouts used by both tables."""
    return {"T1": make_t1(seed=seed_t1), "T2": make_t2(seed=seed_t2)}


def run_table(
    weighted: bool,
    spec: TableSpec | None = None,
    layouts: dict[str, RoutedLayout] | None = None,
    progress: Callable[[str], None] | None = None,
) -> TableResult:
    """Run all configurations of one table.

    Args:
        weighted: False → Table 1, True → Table 2.
        spec: configuration subset (all 12 rows by default).
        layouts: pre-built testcase layouts (built fresh when omitted).
        progress: optional callback invoked with each finished row label.
    """
    spec = spec or TableSpec()
    if layouts is None:
        layouts = default_layouts()
    table = TableResult(weighted=weighted)
    for testcase in spec.testcases:
        layout = layouts[testcase]
        for window_um in spec.windows_um:
            for r in spec.r_values:
                row = run_config(
                    layout,
                    testcase,
                    window_um,
                    r,
                    layer=spec.layer,
                    methods=spec.methods,
                    weighted=weighted,
                    backend=spec.backend,
                    seed=spec.seed,
                    workers=spec.workers,
                    tile_deadline_s=spec.tile_deadline_s,
                    run_deadline_s=spec.run_deadline_s,
                    fallback=spec.fallback,
                    fault_spec=spec.fault_spec,
                    telemetry=spec.telemetry,
                    cache_dir=spec.cache_dir,
                    shards=spec.shards,
                )
                table.rows.append(row)
                if progress is not None:
                    progress(row.label)
    return table


def run_table1(spec: TableSpec | None = None, **kwargs) -> TableResult:
    """Paper Table 1: non-weighted τ."""
    return run_table(weighted=False, spec=spec, **kwargs)


def run_table2(spec: TableSpec | None = None, **kwargs) -> TableResult:
    """Paper Table 2: sink-weighted τ."""
    return run_table(weighted=True, spec=spec, **kwargs)
