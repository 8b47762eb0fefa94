"""Grounded-fill capacitance model."""

from itertools import pairwise

import pytest

from repro.cap import (
    exact_column_cap,
    grounded_column_cap_per_line,
    grounded_column_table,
    grounded_stack_extent,
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

