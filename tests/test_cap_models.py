"""Capacitance models: plate, fill impact (exact vs linear), LUTs."""

from itertools import pairwise

import pytest

from repro.cap import (
    CapacitanceLUT,
    LUTCache,
    coupling_per_um,
    exact_column_cap,
    exact_gap_cap_per_um,
    line_coupling,
    linear_column_cap,
    series_caps,
)
from repro.errors import FillError
from repro.units import EPS0_FF_PER_UM

EPS_R = 3.9
T = 0.5  # metal thickness, um
W = 0.5  # fill width, um


class TestPlate:
    def test_eq3_value(self):
        # C_B = eps0*epsr*t/d
        assert coupling_per_um(EPS_R, T, 2.0) == pytest.approx(
            EPS0_FF_PER_UM * EPS_R * T / 2.0
        )

    def test_eq2_scales_with_overlap(self):
        assert line_coupling(EPS_R, T, 2.0, 10.0) == pytest.approx(
            10 * coupling_per_um(EPS_R, T, 2.0)
        )

    def test_series_two_equal(self):
        assert series_caps(2.0, 2.0) == pytest.approx(1.0)

    def test_series_eq4_pattern(self):
        # 1/(1/CA + 1/CC + 1/CA)
        ca, cc = 3.0, 6.0
        assert series_caps(ca, cc, ca) == pytest.approx(1.0 / (2 / 3.0 + 1 / 6.0))

    def test_series_open_circuit(self):
        assert series_caps(2.0, 0.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(FillError):
            coupling_per_um(EPS_R, T, 0.0)
        with pytest.raises(FillError):
            coupling_per_um(-1.0, T, 1.0)
        with pytest.raises(FillError):
            line_coupling(EPS_R, T, 1.0, -1.0)
        with pytest.raises(FillError):
            series_caps()
        with pytest.raises(FillError):
            series_caps(-1.0)


class TestFillImpact:
    def test_zero_features_zero_increment(self):
        assert exact_column_cap(EPS_R, T, 4.0, 0, W) == 0.0
        assert linear_column_cap(EPS_R, T, 4.0, 0, W) == 0.0

    def test_eq5_per_unit(self):
        # f(m,d) = eps0 epsr t/(d - m w)
        assert exact_gap_cap_per_um(EPS_R, T, 4.0, 3, W) == pytest.approx(
            EPS0_FF_PER_UM * EPS_R * T / (4.0 - 1.5)
        )

    def test_exact_monotone_increasing(self):
        caps = [exact_column_cap(EPS_R, T, 4.0, m, W) for m in range(6)]
        assert caps == sorted(caps)
        assert all(b > a for a, b in pairwise(caps))

    def test_exact_convex(self):
        caps = [exact_column_cap(EPS_R, T, 4.0, m, W) for m in range(7)]
        marginals = [b - a for a, b in pairwise(caps)]
        assert all(b >= a for a, b in pairwise(marginals))

    def test_linear_underestimates_exact(self):
        for m in range(1, 7):
            exact = exact_column_cap(EPS_R, T, 4.0, m, W)
            linear = linear_column_cap(EPS_R, T, 4.0, m, W)
            assert linear < exact

    def test_linear_good_when_w_much_less_than_d(self):
        # w/d = 0.5/50: relative error under 2%
        exact = exact_column_cap(EPS_R, T, 50.0, 1, W)
        linear = linear_column_cap(EPS_R, T, 50.0, 1, W)
        assert linear == pytest.approx(exact, rel=0.02)

    def test_linear_bad_when_w_comparable_to_d(self):
        # m*w = 1.0 in a 1.5 gap: huge error
        exact = exact_column_cap(EPS_R, T, 1.5, 2, W)
        linear = linear_column_cap(EPS_R, T, 1.5, 2, W)
        assert exact / linear > 2.0

    def test_overfull_column_rejected(self):
        with pytest.raises(FillError):
            exact_column_cap(EPS_R, T, 2.0, 4, W)  # 4*0.5 = 2.0 == d

    def test_linear_is_linear_in_m(self):
        one = linear_column_cap(EPS_R, T, 4.0, 1, W)
        assert linear_column_cap(EPS_R, T, 4.0, 5, W) == pytest.approx(5 * one)

    def test_negative_m_rejected(self):
        with pytest.raises(FillError):
            exact_column_cap(EPS_R, T, 4.0, -1, W)


class TestLUT:
    def test_table_matches_direct(self):
        cache = LUTCache(EPS_R, T, W)
        lut = cache.get(4.0, 5)
        for n in range(6):
            assert lut.cap(n) == pytest.approx(exact_column_cap(EPS_R, T, 4.0, n, W))

    def test_marginal(self):
        lut = LUTCache(EPS_R, T, W).get(4.0, 5)
        assert lut.marginal(3) == pytest.approx(lut.cap(3) - lut.cap(2))

    def test_cache_shares_tables(self):
        cache = LUTCache(EPS_R, T, W)
        a = cache.get(4.0, 5)
        b = cache.get(4.0, 5)
        assert a is b
        assert len(cache) == 1

    def test_cache_distinguishes_geometry(self):
        cache = LUTCache(EPS_R, T, W)
        cache.get(4.0, 5)
        cache.get(4.5, 5)
        cache.get(4.0, 7)
        assert len(cache) == 3

    def test_out_of_range_rejected(self):
        lut = LUTCache(EPS_R, T, W).get(4.0, 3)
        with pytest.raises(FillError):
            lut.cap(4)
        with pytest.raises(FillError):
            lut.marginal(0)

    def test_max_features(self):
        assert LUTCache(EPS_R, T, W).get(4.0, 3).max_features == 3

    def test_direct_construction(self):
        lut = CapacitanceLUT(4.0, W, (0.0, 1.0, 3.0))
        assert lut.max_features == 2
        assert lut.marginal(2) == 2.0
