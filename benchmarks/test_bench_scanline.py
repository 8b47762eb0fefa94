"""Fig. 7 scan-line algorithm: throughput, scaling over layout size, and
pinned chip-scale prepare digests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.dissection import FixedDissection
from repro.fillsynth import SiteLegality
from repro.pilfill import SlackColumnDef, extract_columns, sweep_gap_blocks
from repro.pilfill.prepare import prepare_streaming
from repro.pilfill.scanline import layer_sweep_lines
from repro.synth import (
    GeneratorSpec,
    default_fill_rules,
    density_rules_for,
    generate_layout,
    t3_spec,
)
from repro.synth.testcases import iter_banded_def_lines
from repro.tech.process import default_stack


def t3_scaled(die_um: float) -> GeneratorSpec:
    """The T3 profile (seed 3) on a ``die_um`` die at T3's net density."""
    spec = t3_spec(seed=3)
    return replace(
        spec, die_um=die_um, n_nets=round(spec.n_nets * (die_um / spec.die_um) ** 2)
    )


@pytest.mark.parametrize("n_nets", [40, 80, 160], ids=lambda n: f"nets{n}")
def test_sweep_scaling(benchmark, n_nets):
    """Raw gap-block sweep over layouts of growing net count."""
    layout = generate_layout(
        GeneratorSpec(name=f"s{n_nets}", die_um=128.0, n_nets=n_nets, seed=5)
    )
    lines, horizontal = layer_sweep_lines(layout, "metal3")
    blocks = benchmark(sweep_gap_blocks, lines, layout.die, horizontal)
    benchmark.extra_info["lines"] = len(lines)
    benchmark.extra_info["blocks"] = len(blocks)
    assert blocks


@pytest.mark.slow
@pytest.mark.parametrize("die_um", [72.0, 144.0, 288.0], ids=lambda d: f"{d:g}um")
def test_gap_blocks_linear_in_lines(die_um):
    """Gap blocks grow linearly with lines on the T3 profile.

    Counts blocks; times nothing. Bound: a line that lies under no
    earlier, taller line replaces the k coalesced fragments it covers
    with at most three (left remainder, the covered part reopened above
    it as one fragment, right remainder) and closes at most k blocks, so
    its blocks are at most 3 minus the change it makes to the fragment
    count F. Summed over L lines from F = 1, the lines close at most
    3L + 1 - F blocks, and ``finish`` closes at most F more: 3L + 1 in
    all. A line inside an earlier, taller line can leave some covered
    fragments open between its reopened pieces and add one to the bound
    per such fragment; that takes a same-net junction overlap of
    unequal heights, too rare to show here (the sweep measures 2.1-2.3
    blocks per line at these sizes). Before fragments were coalesced,
    each later cover emitted a sliver per earlier line, and the ratio
    grew with the die: 29x, 62x and 120x.
    """
    layout = generate_layout(t3_scaled(die_um), default_stack())
    lines, horizontal = layer_sweep_lines(layout, "metal3")
    blocks = sweep_gap_blocks(lines, layout.die, horizontal)
    assert len(blocks) <= 3 * len(lines) + 1, (len(lines), len(blocks))


@pytest.mark.slow
@pytest.mark.parametrize(
    ("die_um", "digest"),
    [
        (72.0, "9fe9956a57d918a74191a7ccd1418fc457118da3dded2a5e7bc187ede76f4652"),
        (144.0, "ef4117a4e1783c98d3cf1871658da3fe08d07bd39b058db1404bdeddd17ee6b4"),
    ],
    ids=["72um", "144um"],
)
def test_banded_prepare_digest_pinned(die_um, digest):
    """Banded ``prepare_streaming`` (20/8, metal3, Definition III) of the
    T3 profile keeps its ``PreparedInstance.digest``.

    The digests were recorded when the sweep became linear and have held
    through every rewrite of the legality test and the gridder since: the
    sweep, the legality raster, the neighbour resistances and the streamed
    watermark feeding all reach them.
    """
    stack = default_stack()
    prepared = prepare_streaming(
        iter_banded_def_lines(t3_scaled(die_um), stack),
        stack,
        "metal3",
        default_fill_rules(stack),
        density_rules_for(20, 8, stack),
        banded=True,
    )
    assert prepared.digest() == digest


@pytest.mark.parametrize("definition", list(SlackColumnDef), ids=lambda d: f"def{d.value}")
def test_extract_columns_by_definition(benchmark, t1_layout, definition):
    """Full column extraction under the three §5.1 definitions."""
    rules = default_fill_rules(t1_layout.stack)
    dissection = FixedDissection(t1_layout.die, density_rules_for(32, 2, t1_layout.stack))
    legality = SiteLegality(t1_layout, "metal3", rules)
    columns = benchmark.pedantic(
        extract_columns,
        args=(t1_layout, "metal3", dissection, legality, rules, definition),
        rounds=2,
        iterations=1,
    )
    total_capacity = int(columns.capacities.sum())
    benchmark.extra_info["capacity"] = total_capacity
    assert total_capacity >= 0
