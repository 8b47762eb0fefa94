"""Grounded (tied-to-ground) fill capacitance model.

The paper (Section 1) notes foundries choose between *floating* and
*grounded* dummy fill; the paper's methods assume floating squares. This
module provides the grounded counterpart so the trade-off can be
quantified (see ``benchmarks/test_bench_ablation_filltype.py``):

* a grounded column *screens* the line-to-line lateral coupling under its
  footprint (the fill is an AC ground between the lines), and
* each line instead sees a plate capacitance to the grounded stack at the
  distance of its nearest feature.

Assuming the ``m`` features are stacked symmetrically in the gap (centered
— the placement that minimizes the added capacitance), each side clearance
is ``(d − m·w − (m−1)·g) / 2`` and the per-line lumped increment over the
column footprint ``w`` is

    ΔC_line(m) = ε₀ ε_r t w (1/side(m) − 1/d)      for m ≥ 1

which is strictly larger than the floating increment at the same count —
grounded fill is electrically safer to model but costlier, matching
industry practice. Only two-neighbor columns are modeled here.

Note the table is NOT globally convex in ``m``: the 0 → 1 marginal (a
ground plate appearing where there was none) dominates all later
marginals; convexity holds from ``m ≥ 1``. Allocators that rely on convex
marginals (marginal greedy, MVDC) are therefore only heuristic for
grounded fill — use the DP or ILP solvers for exact results.
"""

from __future__ import annotations

from repro.errors import FillError
from repro.units import EPS0_FF_PER_UM


def grounded_stack_extent(m: int, fill_width_um: float, fill_gap_um: float) -> float:
    """Cross-axis extent of a stack of ``m`` features (µm)."""
    if m <= 0:
        return 0.0
    return m * fill_width_um + (m - 1) * fill_gap_um


def grounded_column_cap_per_line(
    eps_r: float,
    thickness_um: float,
    spacing_um: float,
    m: int,
    fill_width_um: float,
    fill_gap_um: float,
) -> float:
    """Lumped capacitance increment seen by *each* line of the pair, fF.

    Zero when ``m == 0``; raises when the stack (plus any clearance) no
    longer fits in the gap.
    """
    _check(eps_r, thickness_um, spacing_um, m, fill_width_um, fill_gap_um)
    if m == 0:
        return 0.0
    extent = grounded_stack_extent(m, fill_width_um, fill_gap_um)
    side = (spacing_um - extent) / 2.0
    if side <= 0:
        raise FillError(
            f"{m} grounded features (extent {extent:.3f}) do not fit in gap "
            f"{spacing_um:.3f} with symmetric clearance"
        )
    base = EPS0_FF_PER_UM * eps_r * thickness_um * fill_width_um
    return base * (1.0 / side - 1.0 / spacing_um)


def grounded_column_table(
    eps_r: float,
    thickness_um: float,
    spacing_um: float,
    capacity: int,
    fill_width_um: float,
    fill_gap_um: float,
) -> tuple[float, ...]:
    """Per-count table of the per-line grounded increment, analogous to the
    floating :class:`~repro.cap.lut.CapacitanceLUT` tables."""
    if capacity < 0:
        raise FillError(f"capacity must be non-negative, got {capacity}")
    return tuple(
        grounded_column_cap_per_line(
            eps_r, thickness_um, spacing_um, m, fill_width_um, fill_gap_um
        )
        for m in range(capacity + 1)
    )


def _check(
    eps_r: float,
    thickness_um: float,
    spacing_um: float,
    m: int,
    fill_width_um: float,
    fill_gap_um: float,
) -> None:
    if eps_r <= 0 or thickness_um <= 0:
        raise FillError("eps_r and thickness must be positive")
    if spacing_um <= 0:
        raise FillError(f"gap/span must be positive, got {spacing_um}")
    if fill_width_um <= 0:
        raise FillError(f"fill width must be positive, got {fill_width_um}")
    if fill_gap_um < 0:
        raise FillError(f"fill gap must be non-negative, got {fill_gap_um}")
    if m < 0:
        raise FillError(f"feature count must be non-negative, got {m}")
