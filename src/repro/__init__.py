"""PIL-Fill: Performance-Impact Limited Area Fill Synthesis.

A from-scratch reproduction of Chen, Gupta, Kahng — "Performance-Impact
Limited Area Fill Synthesis" (DAC 2003): the first timing-aware dummy-fill
formulation. The package contains the full stack the paper depends on:

* ``repro.geometry`` / ``repro.tech`` / ``repro.layout`` — layout model,
* ``repro.dissection`` — the fixed r-dissection density framework,
* ``repro.fillsynth`` — the density-control ("normal fill") baseline,
* ``repro.cap`` / ``repro.timing`` — capacitance and Elmore delay models,
* ``repro.ilp`` — a bundled simplex + branch-and-bound MILP solver,
* ``repro.pilfill`` — the core MDFC methods (ILP-I, ILP-II, Greedy, ...),
* ``repro.synth`` — synthetic testcases standing in for the paper's T1/T2,
* ``repro.experiments`` — the Table 1 / Table 2 harness,
* ``repro.io`` — LEF-lite / DEF-lite text formats.

Quickstart::

    from repro import (EngineConfig, PILFillEngine, evaluate_impact,
                       default_fill_rules, density_rules_for, make_t1)

    layout = make_t1()
    rules = default_fill_rules(layout.stack)
    config = EngineConfig(fill_rules=rules,
                          density_rules=density_rules_for(32, 2, layout.stack),
                          method="ilp2")
    result = PILFillEngine(layout, "metal3", config).run()
    impact = evaluate_impact(layout, "metal3", result.features, rules)
    print(impact.weighted_total_ps)
"""

from repro.errors import (
    DissectionError,
    FillError,
    GeometryError,
    LayoutError,
    ParseError,
    ReproError,
    SolverError,
    SolveTimeoutError,
    TechError,
    WorkerDeathError,
)
from repro.geometry import GridBinIndex, Interval, IntervalSet, Point, Rect, SiteGrid
from repro.tech import (
    DensityRules,
    FillRules,
    ProcessLayer,
    ProcessStack,
    STANDARD_CORNERS,
    Corner,
    corner_stacks,
    default_stack,
    derate_stack,
)
from repro.layout import (
    FillFeature,
    LineTiming,
    Net,
    Pin,
    RCTree,
    RoutedLayout,
    WireSegment,
    validate_fill,
    validate_layout,
)
from repro.dissection import (
    DensityMap,
    DensityStats,
    FixedDissection,
    SmoothnessReport,
    check_density,
    smoothness,
)
from repro.fillsynth import (
    SiteLegality,
    hybrid_budget,
    lp_minvar_budget,
    montecarlo_budget,
    place_normal,
)
from repro.pilfill import (
    EngineConfig,
    FillResult,
    ImpactModel,
    ImpactReport,
    METHODS,
    PILFillEngine,
    PreparedInstance,
    SlackColumn,
    SlackColumnDef,
    SolveReport,
    evaluate_impact,
    fallback_chain,
    prepare,
    refine_placement,
    run_all_layers,
)
from repro.testing.faults import FaultRule, FaultSpec, sample_tiles
from repro.rulefill import run_rule_fill, select_rule
from repro.synth import (
    GeneratorSpec,
    default_fill_rules,
    density_rules_for,
    generate_layout,
    make_t1,
    make_t2,
)
from repro.experiments import generate_report, run_config, run_study, run_table
from repro.io import parse_def, parse_lef, write_def, write_lef
from repro.timing import (
    baseline_sink_delays,
    cap_budgets_from_slack,
    slack_report,
    timing_report,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "GeometryError", "LayoutError", "TechError", "DissectionError",
    "ParseError", "SolverError", "SolveTimeoutError", "WorkerDeathError",
    "FillError",
    # geometry
    "Point", "Rect", "Interval", "IntervalSet", "SiteGrid", "GridBinIndex",
    # tech
    "ProcessLayer", "ProcessStack", "default_stack", "FillRules", "DensityRules",
    "Corner", "STANDARD_CORNERS", "corner_stacks", "derate_stack",
    # layout
    "Net", "Pin", "WireSegment", "RoutedLayout", "RCTree", "LineTiming",
    "FillFeature", "validate_layout", "validate_fill",
    # dissection
    "FixedDissection", "DensityMap", "DensityStats", "SmoothnessReport",
    "check_density", "smoothness",
    # fillsynth
    "SiteLegality", "hybrid_budget", "lp_minvar_budget", "montecarlo_budget",
    "place_normal",
    # pilfill
    "METHODS", "EngineConfig", "PILFillEngine", "FillResult", "ImpactReport",
    "ImpactModel", "SlackColumn", "SlackColumnDef", "evaluate_impact",
    "PreparedInstance", "prepare", "refine_placement", "run_all_layers",
    "SolveReport", "fallback_chain",
    # testing / fault injection
    "FaultRule", "FaultSpec", "sample_tiles",
    # rulefill
    "run_rule_fill", "select_rule",
    # synth
    "GeneratorSpec", "generate_layout", "make_t1", "make_t2",
    "default_fill_rules", "density_rules_for",
    # experiments
    "run_config", "run_table", "run_study", "generate_report",
    # io
    "parse_lef", "write_lef", "parse_def", "write_def",
    # timing
    "baseline_sink_delays", "timing_report", "slack_report",
    "cap_budgets_from_slack",
]
