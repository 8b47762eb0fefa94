"""Grounded-fill capacitance model and switch-factor (Miller) scaling."""

from itertools import pairwise

import pytest

from repro.cap import (
    SF_OPPOSITE,
    SF_QUIET,
    SF_SAME_DIRECTION,
    effective_coupling,
    exact_column_cap,
    grounded_column_cap_per_line,
    grounded_column_table,
    grounded_stack_extent,
    switching_bounds,
)
from repro.errors import FillError

EPS_R, T, W, G = 3.9, 0.5, 0.5, 0.25


class TestGroundedStack:
    def test_extent(self):
        assert grounded_stack_extent(0, W, G) == 0.0
        assert grounded_stack_extent(1, W, G) == pytest.approx(0.5)
        assert grounded_stack_extent(3, W, G) == pytest.approx(3 * 0.5 + 2 * 0.25)

    def test_zero_features_free(self):
        assert grounded_column_cap_per_line(EPS_R, T, 4.0, 0, W, G) == 0.0

    def test_monotone_and_convex_after_first(self):
        caps = [grounded_column_cap_per_line(EPS_R, T, 6.0, m, W, G) for m in range(5)]
        assert all(b > a for a, b in pairwise(caps))
        # The 0→1 marginal dominates (a ground plate appears from nothing),
        # so the table is NOT globally convex; from m ≥ 1 it is.
        marginals = [b - a for a, b in pairwise(caps)]
        assert marginals[0] > marginals[1]
        assert all(b >= a for a, b in pairwise(marginals[1:]))

    def test_grounded_worse_than_floating(self):
        """At equal count, the grounded per-line increment exceeds the
        floating one: the stack is closer to the line (symmetric clearance
        vs a full leftover gap) and screens nothing beneficial."""
        for m in (1, 2, 3):
            grounded = grounded_column_cap_per_line(EPS_R, T, 6.0, m, W, G)
            floating = exact_column_cap(EPS_R, T, 6.0, m, W)
            assert grounded > floating

    def test_overfull_rejected(self):
        with pytest.raises(FillError):
            grounded_column_cap_per_line(EPS_R, T, 2.0, 3, W, G)  # extent 2.0 == gap

    def test_table_matches_direct(self):
        table = grounded_column_table(EPS_R, T, 6.0, 4, W, G)
        for m in range(5):
            assert table[m] == pytest.approx(
                grounded_column_cap_per_line(EPS_R, T, 6.0, m, W, G)
            )

    def test_invalid_inputs(self):
        with pytest.raises(FillError):
            grounded_column_cap_per_line(EPS_R, T, 0.0, 1, W, G)
        with pytest.raises(FillError):
            grounded_column_cap_per_line(EPS_R, T, 4.0, -1, W, G)
        with pytest.raises(FillError):
            grounded_column_table(EPS_R, T, 4.0, -1, W, G)


class TestMiller:
    def test_classical_factors(self):
        assert effective_coupling(2.0, SF_SAME_DIRECTION) == 0.0
        assert effective_coupling(2.0, SF_QUIET) == 2.0
        assert effective_coupling(2.0, SF_OPPOSITE) == 4.0

    def test_out_of_range_rejected(self):
        with pytest.raises(FillError):
            effective_coupling(1.0, 5.0)
        with pytest.raises(FillError):
            effective_coupling(1.0, -2.0)

    def test_bounds_wrapper(self):
        bounds = switching_bounds(10.0)
        assert bounds.best_case_ps == 0.0
        assert bounds.quiet_ps == 10.0
        assert bounds.worst_case_ps == 20.0
        assert bounds.worst_case_extended_ps == 30.0
        assert bounds.at(1.5) == 15.0

    def test_negative_impact_rejected(self):
        with pytest.raises(FillError):
            switching_bounds(-1.0)

    def test_bounds_on_evaluator_output(self, two_line_layout, fill_rules):
        """Worst-case switching doubles the fill delay impact."""
        from repro.geometry import Rect
        from repro.layout import FillFeature
        from repro.pilfill import evaluate_impact

        segs = two_line_layout.segments_on_layer("metal3")
        gap_lo = min(s.rect.yhi for s in segs)
        feature = FillFeature("metal3", Rect(20000, gap_lo + 1000, 20500, gap_lo + 1500))
        impact = evaluate_impact(two_line_layout, "metal3", [feature], fill_rules)
        bounds = switching_bounds(impact.weighted_total_ps)
        assert bounds.worst_case_ps == pytest.approx(2 * impact.weighted_total_ps)
