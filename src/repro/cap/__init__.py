"""Capacitance models for floating fill (paper Section 3)."""

from repro.cap.plate import coupling_per_um, line_coupling, series_caps
from repro.cap.fillimpact import (
    exact_column_cap,
    exact_column_cap_array,
    exact_gap_cap_per_um,
    linear_column_cap,
    linear_column_cap_array,
)
from repro.cap.lut import CapacitanceLUT, LUTCache
from repro.cap.grounded import (
    grounded_column_cap_per_line,
    grounded_column_table,
    grounded_stack_extent,
)
from repro.cap.miller import (
    SF_OPPOSITE,
    SF_QUIET,
    SF_SAME_DIRECTION,
    SwitchingBounds,
    effective_coupling,
    switching_bounds,
)

__all__ = [
    "grounded_column_cap_per_line",
    "grounded_column_table",
    "grounded_stack_extent",
    "SF_OPPOSITE",
    "SF_QUIET",
    "SF_SAME_DIRECTION",
    "SwitchingBounds",
    "effective_coupling",
    "switching_bounds",
    "coupling_per_um",
    "line_coupling",
    "series_caps",
    "exact_column_cap",
    "exact_column_cap_array",
    "exact_gap_cap_per_um",
    "linear_column_cap",
    "linear_column_cap_array",
    "CapacitanceLUT",
    "LUTCache",
]
