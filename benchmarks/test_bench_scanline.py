"""Fig. 7 scan-line algorithm: throughput and scaling over layout size."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.dissection import FixedDissection
from repro.fillsynth import SiteLegality
from repro.pilfill import SlackColumnDef, extract_columns, sweep_gap_blocks
from repro.pilfill.scanline import layer_sweep_lines
from repro.synth import (
    GeneratorSpec,
    default_fill_rules,
    density_rules_for,
    generate_layout,
    t3_spec,
)
from repro.tech.process import default_stack


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
    spec = t3_spec(seed=3)
    spec = replace(
        spec, die_um=die_um, n_nets=round(spec.n_nets * (die_um / spec.die_um) ** 2)
    )
    layout = generate_layout(spec, default_stack())
    lines, horizontal = layer_sweep_lines(layout, "metal3")
    blocks = sweep_gap_blocks(lines, layout.die, horizontal)
    assert len(blocks) <= 3 * len(lines) + 1, (len(lines), len(blocks))


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
    total_capacity = sum(c.capacity for cols in columns.values() for c in cols)
    benchmark.extra_info["capacity"] = total_capacity
    assert total_capacity >= 0
