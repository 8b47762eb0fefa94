"""Experiment harness reproducing the paper's evaluation (Tables 1-2)."""

from repro.experiments.ablation import (
    STUDIES,
    ablation_cap_models,
    ablation_capacity_margin,
    ablation_column_definitions,
    ablation_fill_size,
    ablation_seed_sensitivity,
    format_rows,
    run_study,
)
from repro.experiments.report import ReportSpec, generate_report
from repro.experiments.harness import (
    TABLE_METHODS,
    ConfigResult,
    MethodOutcome,
    run_config,
)
from repro.experiments.tables import (
    TableResult,
    TableSpec,
    default_layouts,
    run_table,
)

__all__ = [
    "STUDIES",
    "ablation_cap_models",
    "ablation_capacity_margin",
    "ablation_column_definitions",
    "ablation_fill_size",
    "ablation_seed_sensitivity",
    "format_rows",
    "run_study",
    "ReportSpec",
    "generate_report",
    "TABLE_METHODS",
    "ConfigResult",
    "MethodOutcome",
    "run_config",
    "TableResult",
    "TableSpec",
    "default_layouts",
    "run_table",
]
