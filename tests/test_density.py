"""Property tests: ``DensityMap`` window sums against the per-window oracle.

``DensityMap.window_area`` is four slices of a padded summed-area table;
:mod:`tests.density_oracle` walks the same table one window at a time.
Both do the same float64 operations in the same order, so on arbitrary
non-negative float maps — not only the integer maps drawn geometry
produces — window areas, window densities and ``stats()`` agree byte
for byte.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dissection import DensityMap, DensityStats, FixedDissection
from repro.geometry import Rect
from repro.tech.rules import DensityRules
from tests import density_oracle


@st.composite
def dissections(draw):
    """A small dissection: tile size, r, grid extent, and a die that may
    end mid-tile on either axis (clipped edge tiles)."""
    r = draw(st.integers(1, 4))
    tile = draw(st.integers(2, 40))
    nx = draw(st.integers(1, 10))
    ny = draw(st.integers(1, 10))
    # Shrink the die below a whole tile multiple to exercise edge clipping;
    # keep at least one positive unit so the die stays non-empty.
    dx = draw(st.integers(0, tile - 1)) if nx > 1 else 0
    dy = draw(st.integers(0, tile - 1)) if ny > 1 else 0
    die = Rect(0, 0, nx * tile - dx, ny * tile - dy)
    rules = DensityRules(window_size=tile * r, r=r, max_density=1.0)
    return FixedDissection(die, rules)


@st.composite
def float_maps(draw):
    """A dissection plus an arbitrary non-negative float tile-area map."""
    d = draw(dissections())
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                      allow_infinity=False),
            min_size=d.nx * d.ny, max_size=d.nx * d.ny,
        )
    )
    return d, np.asarray(values, dtype=np.float64).reshape(d.nx, d.ny)


def assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def stats_bytes(s: DensityStats) -> bytes:
    # Packing tells -0.0 from 0.0, which DensityStats.__eq__ would not.
    return struct.pack("<3d", s.min_density, s.max_density, s.mean_density)


@settings(max_examples=150, deadline=None)
@given(float_maps())
def test_window_area_matches_oracle(case):
    dissection, tile_area = case
    dmap = DensityMap(dissection, tile_area)
    assert_bytes_equal(dmap.window_area(), density_oracle.window_area(dmap))


@settings(max_examples=150, deadline=None)
@given(float_maps())
def test_window_density_matches_oracle(case):
    dissection, tile_area = case
    dmap = DensityMap(dissection, tile_area)
    assert_bytes_equal(dmap.window_density(), density_oracle.window_density(dmap))


@settings(max_examples=150, deadline=None)
@given(float_maps())
def test_stats_match_oracle(case):
    dissection, tile_area = case
    dmap = DensityMap(dissection, tile_area)
    assert stats_bytes(dmap.stats()) == stats_bytes(density_oracle.stats(dmap))

