"""The T1 / T2 testcase presets.

The paper's T1 and T2 are industry layouts we cannot redistribute; these
presets generate synthetic stand-ins at a scale where all 12 table
configurations run on a laptop. T2 is denser and higher-fanout than T1 so
its absolute delay-impact mass is several times larger — mirroring the
magnitude ordering of the paper's tables (T2 rows ≫ T1 rows).

The paper's configuration triples ``T/W/r`` use window sizes 32 and 20;
we interpret those in microns (:func:`density_rules_for`), which against
these die sizes yields tile grids in the same regime the paper sweeps.
"""

from __future__ import annotations

from typing import Iterator

from repro.io.deflite import net_ylo, write_def_lines
from repro.layout.layout import RoutedLayout
from repro.synth.generator import (
    GeneratorSpec,
    Hotspot,
    generate_layout,
    iter_layout_nets,
    spec_die,
)
from repro.tech.process import ProcessStack, default_stack
from repro.tech.rules import DensityRules, FillRules
from repro.units import um_to_dbu

#: Window sizes (µm) used by the paper's configurations.
WINDOW_SIZES_UM = (32, 20)
#: Dissection values used by the paper's configurations.
R_VALUES = (2, 4, 8)


def t1_spec(seed: int = 1) -> GeneratorSpec:
    """T1: mid-density, moderate fanout, 128 µm die."""
    return GeneratorSpec(
        name="T1",
        die_um=128.0,
        n_nets=90,
        seed=seed,
        trunk_len_um=(18.0, 70.0),
        branch_len_um=(2.0, 16.0),
        sinks_per_net=(1, 3),
        hotspots=(Hotspot(0.3, 0.7, 0.14, 0.45),),
    )


def t2_spec(seed: int = 2) -> GeneratorSpec:
    """T2: denser, higher fanout, 96 µm die — larger total delay-impact
    mass per feature, like the paper's T2."""
    return GeneratorSpec(
        name="T2",
        die_um=96.0,
        n_nets=110,
        seed=seed,
        trunk_len_um=(16.0, 60.0),
        branch_len_um=(2.0, 12.0),
        sinks_per_net=(2, 5),
        driver_res_ohm=(100.0, 400.0),
        hotspots=(
            Hotspot(0.25, 0.7, 0.12, 0.35),
            Hotspot(0.75, 0.3, 0.10, 0.25),
        ),
    )


def t3_spec(seed: int = 3, n_nets: int = 7000) -> GeneratorSpec:
    """T3: the chip-scale streaming testcase — a 768 µm die (64x the T2
    area) at T2's density and fanout profile, so its feature mass lands
    roughly 60x T2's. Too big to round-trip comfortably through
    materialized text at interactive speed; it exists to exercise the
    streaming DEF reader and the window-density pass at chip scale."""
    return GeneratorSpec(
        name="T3",
        die_um=768.0,
        n_nets=n_nets,
        seed=seed,
        trunk_len_um=(16.0, 60.0),
        branch_len_um=(2.0, 12.0),
        sinks_per_net=(2, 5),
        driver_res_ohm=(100.0, 400.0),
        hotspots=(
            Hotspot(0.25, 0.7, 0.12, 0.35),
            Hotspot(0.75, 0.3, 0.10, 0.25),
        ),
    )


def make_t1(stack: ProcessStack | None = None, seed: int = 1) -> RoutedLayout:
    """Build the T1 stand-in layout."""
    return generate_layout(t1_spec(seed), stack)


def make_t2(stack: ProcessStack | None = None, seed: int = 2) -> RoutedLayout:
    """Build the T2 stand-in layout."""
    return generate_layout(t2_spec(seed), stack)


def make_t3(stack: ProcessStack | None = None, seed: int = 3) -> RoutedLayout:
    """Materialize the chip-scale T3 layout.

    Expensive (thousands of nets) — generated on demand, never at
    import. Chip-scale flows should prefer :func:`iter_t3_def_lines` +
    :func:`repro.pilfill.prepare.prepare_streaming`, which never build
    this object; ``make_t3`` exists as the equivalence oracle."""
    return generate_layout(t3_spec(seed), stack)


def iter_banded_def_lines(
    spec: GeneratorSpec, stack: ProcessStack | None = None
) -> Iterator[str]:
    """DEF-lite lines of a spec's layout, nets band-sorted, one at a time.

    Nets are emitted in ascending bounding-box y-low order — the
    band-sorted contract ``prepare_streaming(banded=True)`` keys on. Net
    objects are generated lazily and held only for the sort (a few
    hundred bytes each); the full DEF text is never assembled. The
    emitted *design* is identical to ``generate_layout(spec)`` — same
    nets, same geometry — only the statement order differs, and the
    readers' results are order-independent.
    """
    stack = stack or default_stack()
    nets = sorted(iter_layout_nets(spec, stack), key=net_ylo)
    yield from write_def_lines(
        spec.name,
        spec_die(spec, stack),
        stack.dbu_per_micron,
        nets,
        net_count=len(nets),
    )


def iter_t3_def_lines(
    stack: ProcessStack | None = None, seed: int = 3, n_nets: int = 7000
) -> Iterator[str]:
    """Band-sorted DEF-lite lines of the T3 testcase (see
    :func:`iter_banded_def_lines`)."""
    yield from iter_banded_def_lines(t3_spec(seed, n_nets), stack)


def default_fill_rules(stack: ProcessStack | None = None) -> FillRules:
    """The fill pattern used across the experiments: 0.5 µm squares,
    0.25 µm gap, 0.25 µm buffer distance (small enough that typical line
    gaps hold several site rows — and large enough relative to narrow gaps
    that ILP-I's w ≪ d assumption visibly breaks, as in the paper)."""
    dbu = (stack or default_stack()).dbu_per_micron
    return FillRules(
        fill_size=um_to_dbu(0.5, dbu),
        fill_gap=um_to_dbu(0.25, dbu),
        buffer_distance=um_to_dbu(0.25, dbu),
    )


def density_rules_for(
    window_um: int,
    r: int,
    stack: ProcessStack | None = None,
    max_density: float = 0.35,
) -> DensityRules:
    """Density rules for one ``W/r`` configuration (window in µm)."""
    dbu = (stack or default_stack()).dbu_per_micron
    return DensityRules(
        window_size=um_to_dbu(float(window_um), dbu),
        r=r,
        max_density=max_density,
    )
