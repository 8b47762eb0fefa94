"""Coupling-capacitance increment due to a column of dummy fill
(paper Eqs. 5-7).

A *column* of ``m`` square fill features (side ``w``) stacked between two
parallel active lines at spacing ``d`` is modeled as a single floating
metal block of cross-length ``m·w``: the series plate capacitance through
the block reduces the effective dielectric gap to ``d − m·w`` (Eq. 5).
Since the column occupies length ``w`` of the lines' overlap, the *lumped*
capacitance increment attached to each line at the column position is

    ΔC_exact(m)  = ε₀ ε_r t w (1/(d − m·w) − 1/d)
    ΔC_linear(m) = ε₀ ε_r t w · m·w / d²          (Eq. 6, w ≪ d regime)

ILP-I uses the linear form; ILP-II uses the exact form via
:class:`repro.cap.lut.CapacitanceLUT`, and the impact scorer applies it
to every column of a placement through :func:`exact_column_cap_array`.

Both models also come in array form. :func:`exact_column_cap_array`
takes an array of feature counts and one gap (the LUT cache's
``m = 0 .. capacity`` table) or per-count gaps (the impact scorer's
columns); :func:`linear_column_cap_array` takes the same arguments (the
cost-table pass gives it every entry of every column at once).
The array variants apply the identical IEEE operation sequence
elementwise, so every entry is bit-identical to the scalar function at the
same ``m`` and gap — the cost-table builder, the LUT cache and the scorer
rely on this to use the batched kernels without perturbing any result.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FillError
from repro.units import EPS0_FF_PER_UM


def exact_gap_cap_per_um(eps_r: float, thickness_um: float, spacing_um: float,
                         m: int, fill_width_um: float) -> float:
    """Per-unit-length coupling ``f(m, d)`` through a column of ``m``
    features (paper Eq. 5), fF/µm."""
    _check(eps_r, thickness_um, spacing_um, m, fill_width_um)
    remaining = spacing_um - m * fill_width_um
    if remaining <= 0:
        raise FillError(
            f"{m} features of width {fill_width_um} do not fit in gap {spacing_um}"
        )
    return EPS0_FF_PER_UM * eps_r * thickness_um / remaining


def exact_column_cap(eps_r: float, thickness_um: float, spacing_um: float,
                     m: int, fill_width_um: float) -> float:
    """Exact lumped capacitance increment of a column of ``m`` features, fF.

    Zero when ``m == 0``; strictly increasing and convex in ``m``.
    """
    _check(eps_r, thickness_um, spacing_um, m, fill_width_um)
    if m == 0:
        return 0.0
    remaining = spacing_um - m * fill_width_um
    if remaining <= 0:
        raise FillError(
            f"{m} features of width {fill_width_um} do not fit in gap {spacing_um}"
        )
    base = EPS0_FF_PER_UM * eps_r * thickness_um * fill_width_um
    return base * (1.0 / remaining - 1.0 / spacing_um)


def linear_column_cap(eps_r: float, thickness_um: float, spacing_um: float,
                      m: int, fill_width_um: float) -> float:
    """Linearized lumped capacitance increment (paper Eq. 6 regime), fF.

    First-order Taylor expansion of :func:`exact_column_cap` around
    ``m = 0``; ILP-I's per-feature cost. Always underestimates the exact
    value (the exact form is convex).
    """
    _check(eps_r, thickness_um, spacing_um, m, fill_width_um)
    base = EPS0_FF_PER_UM * eps_r * thickness_um * fill_width_um
    return base * m * fill_width_um / (spacing_um * spacing_um)


def exact_column_cap_array(eps_r: float, thickness_um: float,
                           spacing_um: float | np.ndarray, counts: np.ndarray,
                           fill_width_um: float) -> np.ndarray:
    """Vectorized :func:`exact_column_cap`: entry ``i`` is ΔC (fF) of
    ``counts[i]`` features in a gap of ``spacing_um`` — one gap for every
    entry, or an array of per-entry gaps.

    Entry ``i`` is bit-identical to ``exact_column_cap(..., gap_i,
    counts[i], ...)``. The LUT cache tabulates one gap over
    ``counts = 0 .. capacity``; the impact scorer prices every column of a
    placement at its own gap.
    """
    counts = np.asarray(counts, dtype=np.float64)
    gaps = np.broadcast_to(np.asarray(spacing_um, dtype=np.float64), counts.shape)
    _check(eps_r, thickness_um, float(gaps.min(initial=np.inf)),
           int(counts.min(initial=0)), fill_width_um)
    remaining = gaps - counts * fill_width_um
    overfull = np.flatnonzero(remaining <= 0)
    if overfull.size:
        i = overfull[-1]
        raise FillError(
            f"{int(counts[i])} features of width {fill_width_um} do not fit in gap {gaps[i]}"
        )
    base = EPS0_FF_PER_UM * eps_r * thickness_um * fill_width_um
    out = base * (1.0 / remaining - 1.0 / gaps)
    out[counts == 0] = 0.0
    return out


def linear_column_cap_array(eps_r: float, thickness_um: float,
                            spacing_um: float | np.ndarray, counts: np.ndarray,
                            fill_width_um: float) -> np.ndarray:
    """Vectorized :func:`linear_column_cap`: entry ``i`` is the Eq. 6 ΔC
    (fF) of ``counts[i]`` features in a gap of ``spacing_um`` — one gap
    for every entry, or an array of per-entry gaps.

    Entry ``i`` is bit-identical to ``linear_column_cap(..., gap_i,
    counts[i], ...)``. The cost-table pass prices every entry of every
    column of a grid at its column's own gap in one call.
    """
    counts = np.asarray(counts, dtype=np.float64)
    gaps = np.broadcast_to(np.asarray(spacing_um, dtype=np.float64), counts.shape)
    _check(eps_r, thickness_um, float(gaps.min(initial=np.inf)),
           int(counts.min(initial=0)), fill_width_um)
    base = EPS0_FF_PER_UM * eps_r * thickness_um * fill_width_um
    return base * counts * fill_width_um / (gaps * gaps)


def table_counts(capacities: np.ndarray) -> np.ndarray:
    """Feature counts ``0 .. capacity`` of every capacity, back to back:
    the ``counts`` argument of the array kernels for tables stored end
    to end (one ``np.repeat``, no per-table loop)."""
    lengths = np.asarray(capacities, dtype=np.int64) + 1
    return np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _check(eps_r: float, thickness_um: float, spacing_um: float,
           m: int, fill_width_um: float) -> None:
    if eps_r <= 0 or thickness_um <= 0:
        raise FillError("eps_r and thickness must be positive")
    if spacing_um <= 0:
        raise FillError(f"line spacing must be positive, got {spacing_um}")
    if fill_width_um <= 0:
        raise FillError(f"fill width must be positive, got {fill_width_um}")
    if m < 0:
        raise FillError(f"feature count must be non-negative, got {m}")
